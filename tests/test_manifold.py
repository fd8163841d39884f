import math

import numpy as np
import pytest

from lorentzlab import (INFINITE_M, BakryEmeryParams, bakry_emery_ricci,
                        causal_character, christoffel, constant_scalar,
                        hessian_scalar, ricci, riemann, riemann_lowered,
                        sinh_squared_f)
from lorentzlab.errors import DomainViolation, SingularMetric, ZeroVector
from lorentzlab.manifold import LocalGeometry, MetricField, ScalarField
from lorentzlab.scenarios import (BUILTIN_SCENARIOS, equator_point,
                                  linear_time_f, warped_product)

ORIGIN4 = np.zeros(4)


def test_christoffel_minkowski_vanishes(mink4):
    gamma = christoffel(mink4.metric, ORIGIN4)
    assert np.max(np.abs(gamma)) == 0.0


def test_christoffel_de_sitter_warp_component(ds4):
    # closed form at the equator: Gamma^t_{phi phi} = sinh(t) cosh(t)
    t = 1.0
    p = equator_point(4, t)
    gamma = christoffel(ds4.metric, p)
    exact = math.sinh(t) * math.cosh(t)
    assert abs(gamma[0, 3, 3] - exact) < 1e-8
    # cross-check the closed form by finite differences at two step sizes
    for h in (1e-5, 5e-6):
        fd = MetricField(dim=4, matrix=ds4.metric.matrix,
                         domain=ds4.metric.domain, fd_step=h)
        assert abs(christoffel(fd, p)[0, 3, 3] - exact) < 1e-8
    assert np.max(np.abs(gamma - np.swapaxes(gamma, 1, 2))) == 0.0


def test_christoffel_quartic_2d(quartic_2d):
    # Gamma^t_{xx} = 2 t^3 from the direct formula
    p = np.array([2.0, 0.3])
    gamma = christoffel(quartic_2d, p)
    assert abs(gamma[0, 1, 1] - 16.0) < 1e-6


def test_christoffel_errors(quartic_2d):
    with pytest.raises(DomainViolation):
        christoffel(quartic_2d, np.array([-1.0, 0.0]))
    degenerate = MetricField(dim=2, matrix=lambda p: np.diag([-1.0, p[0] ** 2]))
    with pytest.raises(SingularMetric):
        christoffel(degenerate, np.array([1e-9, 0.0]))


def test_riemann_minkowski_zero(mink4):
    assert np.max(np.abs(riemann(mink4.metric, ORIGIN4))) == 0.0


def test_riemann_de_sitter_constant_curvature(ds4):
    # R_{abcd} = g_{ac} g_{bd} - g_{ad} g_{bc} for curvature +1
    for t, az in ((0.0, 1.0), (0.8, 2.2), (-1.1, 0.5)):
        p = equator_point(4, t, azimuth=az)
        G = ds4.metric.at(p)
        expected = (np.einsum("ac,bd->abcd", G, G)
                    - np.einsum("ad,bc->abcd", G, G))
        assert np.max(np.abs(riemann_lowered(ds4.metric, p) - expected)) < 1e-6


def test_riemann_product_mixing_components_vanish():
    scen = warped_product("one", 1.0, 3, name="product_r_s2")
    p = equator_point(3, 0.3)
    R = riemann(scen.metric, p)
    assert np.max(np.abs(R[0])) < 1e-12      # R^t_{...}
    assert np.max(np.abs(R[:, 0])) < 1e-12   # R^a_{t..}


def test_riemann_symmetries(ds4):
    p = equator_point(4, 0.6, azimuth=1.7)
    R = riemann_lowered(ds4.metric, p)
    assert np.max(np.abs(R + np.swapaxes(R, 2, 3))) < 1e-7
    assert np.max(np.abs(R + np.swapaxes(R, 0, 1))) < 1e-7
    assert np.max(np.abs(R - np.transpose(R, (2, 3, 0, 1)))) < 1e-7
    bianchi = R + np.transpose(R, (0, 2, 3, 1)) + np.transpose(R, (0, 3, 1, 2))
    assert np.max(np.abs(bianchi)) < 1e-7


def test_riemann_finite_difference_mode(ds4):
    # finite differences only, no analytic callbacks: looser residuals
    fd = MetricField(dim=4, matrix=ds4.metric.matrix, domain=ds4.metric.domain)
    p = equator_point(4, 0.4)
    R = riemann_lowered(fd, p)
    bianchi = R + np.transpose(R, (0, 2, 3, 1)) + np.transpose(R, (0, 3, 1, 2))
    assert np.max(np.abs(bianchi)) < 1e-4
    assert np.max(np.abs(R - riemann_lowered(ds4.metric, p))) < 1e-4


def test_finite_difference_second_order_convergence(ds4):
    # halving h cuts the analytic-vs-FD first-derivative error by about 4
    p = equator_point(4, 0.9)
    exact = ds4.metric.first_derivatives(p)
    errs = []
    for h in (2e-3, 1e-3):
        fd = MetricField(dim=4, matrix=ds4.metric.matrix,
                         domain=ds4.metric.domain, fd_step=h)
        errs.append(np.max(np.abs(fd.first_derivatives(p) - exact)))
    ratio = errs[0] / errs[1]
    assert 2.5 < ratio < 6.0


def test_ricci_values(mink4, ds4):
    assert np.max(np.abs(ricci(mink4.metric, ORIGIN4))) == 0.0
    p = equator_point(4, 0.5)
    G = ds4.metric.at(p)
    assert np.max(np.abs(ricci(ds4.metric, p) - 3.0 * G)) < 1e-6
    v = np.array([1.0, 0.0, 0.0, 0.0])  # unit timelike in this chart
    assert abs(float(v @ ricci(ds4.metric, p) @ v) + 3.0) < 1e-6


def test_hessian_scalar(mink4, ds4):
    assert np.max(np.abs(hessian_scalar(mink4.metric, constant_scalar(0.0),
                                        ORIGIN4))) == 0.0
    assert np.max(np.abs(hessian_scalar(mink4.metric, linear_time_f(2.5),
                                        ORIGIN4))) == 0.0
    f = sinh_squared_f(2.0)
    p = equator_point(4, 0.0)
    hess = hessian_scalar(ds4.metric, f, p)
    assert abs(hess[0, 0] - 8.0) < 1e-10  # 2 K^2 at t = 0


def test_bakry_emery_ricci_values(mink4, ds4):
    v = np.array([1.0, 0.0, 0.0, 0.0])
    zero = constant_scalar(0.0)
    for m in (1.0, 3.0, INFINITE_M):
        params = BakryEmeryParams(m=m, k=0.0)
        assert bakry_emery_ricci(mink4.metric, zero, params, ORIGIN4, v, v) == 0.0

    # flat space, linear weight: only the -(df(v))^2/m term survives
    a = 1.7
    val = bakry_emery_ricci(mink4.metric, linear_time_f(a),
                            BakryEmeryParams(m=2.0), ORIGIN4, v, v)
    assert abs(val + a ** 2 / 2.0) < 1e-12

    val = bakry_emery_ricci(ds4.metric, sinh_squared_f(2.0),
                            BakryEmeryParams(m=INFINITE_M),
                            equator_point(4, 0.0), v, v)
    assert abs(val - 5.0) < 1e-8  # -(n-1) + 2 K^2


def test_bakry_emery_reduces_to_ricci_for_zero_weight(ds4):
    p = equator_point(4, 0.7)
    zero = constant_scalar(0.0)
    rng = np.random.default_rng(7)
    ric = ricci(ds4.metric, p)
    for m in (0.5, 1.0, 10.0, INFINITE_M):
        params = BakryEmeryParams(m=m, k=0.0)
        for _ in range(3):
            v = rng.normal(size=4)
            w = rng.normal(size=4)
            assert bakry_emery_ricci(ds4.metric, zero, params, p, v, w) \
                == pytest.approx(float(v @ ric @ w), abs=0.0)


def test_causal_character(mink4):
    g = mink4.metric
    assert causal_character(g, ORIGIN4, [1, 0, 0, 0]) == "timelike"
    assert causal_character(g, ORIGIN4, [1, 1, 0, 0]) == "null"
    assert causal_character(g, ORIGIN4, [0, 1, 0, 0]) == "spacelike"
    with pytest.raises(ZeroVector):
        causal_character(g, ORIGIN4, [0, 0, 0, 0])


def test_params_validation():
    with pytest.raises(ValueError):
        BakryEmeryParams(m=0.0)
    with pytest.raises(ValueError):
        BakryEmeryParams(m=-3.0)
    with pytest.raises(ValueError):
        BakryEmeryParams(m=math.inf)  # must use the enum, not a float sentinel
    p = BakryEmeryParams(m=INFINITE_M)
    assert not p.finite
    with pytest.raises(ValueError):
        p.require_bound()
    assert BakryEmeryParams(m=INFINITE_M, k=1.5).require_bound() == 1.5


def test_metric_signature_validation():
    riemannian = MetricField(dim=2, matrix=lambda p: np.eye(2))
    with pytest.raises(SingularMetric):
        riemannian.at(np.zeros(2))
    lopsided = MetricField(dim=2,
                           matrix=lambda p: np.array([[-1.0, 0.1], [0.3, 1.0]]))
    with pytest.raises(SingularMetric):
        lopsided.at(np.zeros(2))


def test_scalar_field_finite_difference_fallback():
    f = ScalarField(value=lambda p: math.sin(p[0]) * p[1] ** 2)
    p = np.array([0.4, 1.3])
    grad = f.gradient(p)
    assert abs(grad[0] - math.cos(0.4) * 1.69) < 1e-8
    assert abs(grad[1] - math.sin(0.4) * 2.6) < 1e-8
    hess = f.coordinate_hessian(p)
    assert abs(hess[0, 1] - math.cos(0.4) * 2.6) < 1e-5
    assert abs(hess[1, 1] - 2.0 * math.sin(0.4)) < 1e-5


# ---------------------------------------------------------------------------
# the single validation path
# ---------------------------------------------------------------------------

BAD_METRICS = {
    "nan": np.array([[-1.0, np.nan], [np.nan, 1.0]]),
    "nan_upper_only": np.array([[-1.0, np.nan], [0.0, 1.0]]),
    "inf": np.array([[-1.0, 0.0], [0.0, np.inf]]),
    "inf_off_diagonal": np.array([[-1.0, np.inf], [0.0, 1.0]]),
    "non_symmetric": np.array([[-1.0, 0.1], [0.3, 1.0]]),
    "two_negative": np.diag([-1.0, -2.0]),
    "tiny_eigenvalue": np.diag([-1.0, 1e-13]),
}
ETA2 = np.diag([-1.0, 1.0])


def _flat_derivatives(metric_matrix):
    """A 2D metric field with zero derivative callbacks, so the geodesic
    equation stays solvable whatever the matrix is."""
    return MetricField(dim=2, matrix=metric_matrix,
                       d_matrix=lambda p: np.zeros((2, 2, 2)),
                       dd_matrix=lambda p: np.zeros((2, 2, 2, 2)))


@pytest.mark.parametrize("kind", sorted(BAD_METRICS))
def test_every_pointwise_entry_rejects_bad_metrics(kind):
    from lorentzlab import integrate_geodesic
    from lorentzlab.manifold import local_geometry
    bad = BAD_METRICS[kind]
    g = _flat_derivatives(lambda p: bad)
    p = np.zeros(2)
    f = linear_time_f(1.0)
    if kind.startswith(("nan", "inf")):
        with pytest.raises(SingularMetric, match="not finite"):
            g.at(p)
    for call in (lambda: g.at(p), lambda: g.inverse_at(p),
                 lambda: local_geometry(g, p), lambda: riemann(g, p),
                 lambda: hessian_scalar(g, f, p),
                 lambda: integrate_geodesic(g, p, [1.0, 0.0], (0.0, 1.0))):
        with pytest.raises(SingularMetric):
            call()
    # the stacked check behind the geodesic norm check names the bad row
    half_bad = _flat_derivatives(lambda p: bad if p[0] > 0.5 else ETA2)
    stack = np.array([[0.0, 0.0], [0.4, 0.0], [0.7, 0.0], [0.9, 0.0]])
    assert np.array_equal(half_bad.at(stack[:2]), np.array([ETA2, ETA2]))
    with pytest.raises(SingularMetric, match=r"\[0\.7 0\. *\]"):
        half_bad.at(stack)


@pytest.mark.parametrize("kind", ["non_symmetric", "two_negative",
                                  "tiny_eigenvalue"])
def test_geodesic_norm_check_catches_signature_lost_partway(kind):
    # Lorentzian at the start, so only the batched check along the
    # trajectory can see the metric change
    from lorentzlab import integrate_geodesic
    bad = BAD_METRICS[kind]
    g = _flat_derivatives(lambda p: bad if p[0] > 1.0 else ETA2)
    with pytest.raises(SingularMetric):
        integrate_geodesic(g, np.zeros(2), [1.0, 0.0], (0.0, 2.0))
    fine = integrate_geodesic(g, np.zeros(2), [1.0, 0.0], (0.0, 0.9))
    assert fine.stats["norm_drift"] == 0.0


def test_stacked_check_reports_domain_violation(quartic_2d):
    pts = np.array([[1.0, 0.0], [0.01, 0.0]])
    with pytest.raises(DomainViolation):
        quartic_2d.at(pts)
    assert quartic_2d.at(pts[:1]).shape == (1, 2, 2)


def test_inverse_conditioning_from_eigenvalues():
    # |eigenvalues| 1e-11 and 1e2 pass the signature check but fail the
    # conditioning test min|lambda| >= 1e-12 max|lambda|
    g = MetricField(dim=2, matrix=lambda p: np.diag([-1e2, 1e-11]))
    assert g.at(np.zeros(2))[1, 1] == 1e-11
    with pytest.raises(SingularMetric, match="numerically singular"):
        g.inverse_at(np.zeros(2))
    ok = MetricField(dim=2, matrix=lambda p: np.diag([-2.0, 4.0]))
    assert np.array_equal(ok.inverse_at(np.zeros(2)), np.diag([-0.5, 0.25]))


# ---------------------------------------------------------------------------
# stacked geometry
# ---------------------------------------------------------------------------

def _chart_points(scen, rng, count):
    """Seeded chart points away from the sphere poles."""
    n = scen.metric.dim
    pts = np.empty((count, n))
    pts[:, 0] = rng.uniform(-1.2, 1.2, count)
    if scen.metric.domain is not None:
        pts[:, 1:-1] = rng.uniform(0.4, math.pi - 0.4, (count, n - 2))
        pts[:, -1] = rng.uniform(0.0, 2.0 * math.pi, count)
    else:
        pts[:, 1:] = rng.uniform(-3.0, 3.0, (count, n - 1))
    return pts


@pytest.mark.parametrize("fd_only", [False, True], ids=["callbacks", "fd_only"])
@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_stacked_geometry_equals_the_pointwise_loop(name, fd_only):
    # bit for bit: a row of the stack runs the arithmetic of its point alone
    import dataclasses
    scen = BUILTIN_SCENARIOS[name]()
    g, f = scen.metric, scen.weight
    if fd_only:
        g = dataclasses.replace(g, d_matrix=None, dd_matrix=None)
        f = dataclasses.replace(f, grad=None, hess=None)
    rng = np.random.default_rng(45)
    pts = _chart_points(scen, rng, 45)
    vs = rng.normal(size=pts.shape)
    stacked = LocalGeometry(g, pts)
    loop = [LocalGeometry(g, p) for p in pts]
    assert np.array_equal(stacked.riemann, [geom.riemann for geom in loop])
    assert np.array_equal(stacked.ricci, [geom.ricci for geom in loop])
    assert np.array_equal(stacked.hessian(f), [geom.hessian(f) for geom in loop])
    assert np.array_equal(stacked.bakry_emery(f, scen.params, vs, vs),
                          [geom.bakry_emery(f, scen.params, v, v)
                           for geom, v in zip(loop, vs)])


@pytest.mark.parametrize("kind", ["non_symmetric", "two_negative",
                                  "tiny_eigenvalue", "ill_conditioned"])
def test_stacked_geometry_names_the_first_bad_row(kind):
    # |eigenvalues| 1e-11 and 1e2 fail only the conditioning test
    bad = BAD_METRICS.get(kind, np.diag([-1e2, 1e-11]))
    g = _flat_derivatives(lambda p: bad if p[1] in (39.0, 45.0) else ETA2)
    stack = np.column_stack([np.zeros(50), np.arange(50.0)])
    with pytest.raises(SingularMetric, match=r"at \[ *0\. +39\. *\]"):
        LocalGeometry(g, stack)
    assert LocalGeometry(g, stack[:39]).G_inv.shape == (39, 2, 2)
