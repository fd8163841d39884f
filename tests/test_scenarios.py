import itertools
import math

import numpy as np
import pytest
import sympy as sp

from lorentzlab import (certify_weighted_de_sitter, christoffel, de_sitter,
                        hessian_scalar, riemann, scenario_from_config,
                        sinh_squared_f, warped_product)
from lorentzlab.comparison import SampleSpec
from lorentzlab.errors import NonFiniteSample
from lorentzlab.manifold import INFINITE_M, LocalGeometry, MetricField
from lorentzlab.scenarios import (BUILTIN_SCENARIOS, POLE_MARGIN, WARPS,
                                  equator_point)

from test_comparison import _sample_plan_loop


def test_all_builtin_manifests_validate():
    for name, make in BUILTIN_SCENARIOS.items():
        scen = make()
        assert scen.validate(), name


def test_validate_builds_one_geometry_per_manifest_point(monkeypatch):
    # the constant-curvature entry reads riemann_lowered from the point's own
    # geometry; the geodesic spot checks build one geometry each
    scen = de_sitter(4)
    built = []
    build = LocalGeometry._build

    def counted(self, metric, p, G):
        built.append(p)
        build(self, metric, p, G)

    monkeypatch.setattr(LocalGeometry, "_build", counted)
    assert scen.validate()
    points = sum(len(entry.get("points", ())) for entry in scen.manifest.values())
    assert len(built) == len(scen.geodesics) + points == 8


def test_de_sitter_agrees_with_generic_warped_product(ds4):
    generic = warped_product("cosh", 2.0, 4, name="cosh_generic")
    rng = np.random.default_rng(314)
    for _ in range(50):
        t = rng.uniform(-1.5, 1.5)
        ang = rng.uniform(0.4, math.pi - 0.4, size=2)
        az = rng.uniform(0.0, 2.0 * math.pi)
        p = np.array([t, ang[0], ang[1], az])
        assert np.max(np.abs(ds4.metric.at(p) - generic.metric.at(p))) < 1e-12
        assert np.max(np.abs(riemann(ds4.metric, p)
                             - riemann(generic.metric, p))) < 1e-8


def _symbolic_warped_metric(n, warp, radius):
    """matrix, d_matrix, dd_matrix of -dt^2 + (radius w(t))^2 h, derived by
    sympy and compiled to numpy (derivative indices first)."""
    x = sp.symbols(f"x0:{n}")
    t = x[0]
    w = {"one": sp.Integer(1), "cosh": sp.cosh(t), "sech": 1 / sp.cosh(t),
         "two_plus_cos": 2 + sp.cos(t)}[warp]
    diag = [-sp.Integer(1)]
    h = sp.Integer(1)
    for i in range(1, n):
        diag.append((radius * w) ** 2 * h)
        h = h * sp.sin(x[i]) ** 2
    g = sp.diag(*diag)
    dg = [[[sp.diff(g[a, b], x[c]) for b in range(n)] for a in range(n)]
          for c in range(n)]
    ddg = [[[[sp.diff(g[a, b], x[c], x[d]) for b in range(n)] for a in range(n)]
            for d in range(n)] for c in range(n)]
    return tuple(sp.lambdify([x], expr, "numpy") for expr in (g, dg, ddg))


def _warped_sample_points(n, rng):
    """Seeded chart points: 12 with polar angles in (0.4, pi - 0.4), and one
    for each choice of pole per polar angle, with every angle within 0.01 of
    POLE_MARGIN from its pole, where cot and 1 / sin^2 are large."""
    def point(polar):
        return np.concatenate([[rng.uniform(-1.5, 1.5)], polar,
                               [rng.uniform(0.0, 2.0 * math.pi)]])

    pts = [point(rng.uniform(0.4, math.pi - 0.4, n - 2)) for _ in range(12)]
    for poles in itertools.product((0.0, math.pi), repeat=n - 2):
        near = POLE_MARGIN + rng.uniform(0.0, 0.01, n - 2)
        pts.append(point(np.abs(np.array(poles) - near)))
    return pts


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("warp", ["one", "cosh", "sech", "two_plus_cos"])
def test_warped_metric_derivatives_match_symbolic_oracle(warp, n):
    assert warp in WARPS
    lam = 1.5
    cases = [(warped_product(warp, lam, n).metric,
              _symbolic_warped_metric(n, warp, math.sqrt((n - 2) / lam)))]
    if warp == "cosh":
        cases.append((de_sitter(n).metric, _symbolic_warped_metric(n, warp, 1)))
    rng = np.random.default_rng(1000 * n + len(warp))
    for p in _warped_sample_points(n, rng):
        assert cases[0][0].in_domain(p)
        for metric, oracle in cases:
            for cb, sym in zip((metric.matrix, metric.d_matrix,
                                metric.dd_matrix), oracle):
                exact = np.asarray(sym(p), dtype=float)
                err = np.max(np.abs(np.asarray(cb(p)) - exact))
                assert err <= 1e-12 * max(1.0, np.max(np.abs(exact))), \
                    (metric.name, cb.__name__, p, err)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_warped_matrix_is_the_running_product_bit_for_bit(n):
    # validation, the frame and the norm check read these bits: the diagonal
    # (-1, w^2, w^2 sin^2 a_1, ...) with h_i multiplied out as a running
    # product, h_{i+1} = h_i sin^2 a_i, and g_ii = w^2 h_i
    lam = 1.5
    r = math.sqrt((n - 2) / lam)
    cases = [(de_sitter(n).metric, math.cosh),
             (warped_product("two_plus_cos", lam, n).metric,
              lambda t: r * (2.0 + math.cos(t)))]
    rng = np.random.default_rng(77 + n)
    pts = _warped_sample_points(n, rng) + [equator_point(n, t)
                                           for t in (-1.2, 0.0, 0.7)]
    for metric, w in cases:
        for p in pts:
            wt, h, diag = w(p[0]), 1.0, [-1.0]
            for a in p[1:]:
                diag.append(wt ** 2 * h)
                h = h * math.sin(a) ** 2
            assert metric.matrix(p).tobytes() == np.diag(diag).tobytes(), \
                (metric.name, p)


def test_generic_warp_cross_checked_against_finite_differences():
    # sech-warped product (not Einstein): analytic callbacks vs pure FD
    scen = warped_product("sech", 2.0, 4, name="sech_warp")
    p = equator_point(4, 1.0)
    fd = MetricField(dim=4, matrix=scen.metric.matrix, domain=scen.metric.domain)
    gamma = christoffel(scen.metric, p)
    # closed form Gamma^t_{phi phi} = w w' = -sech^2(t) tanh(t)
    exact = -math.tanh(1.0) / math.cosh(1.0) ** 2
    assert abs(gamma[0, 3, 3] - exact) < 1e-10
    assert abs(christoffel(fd, p)[0, 3, 3] - exact) < 1e-5
    assert np.max(np.abs(riemann(scen.metric, p) - riemann(fd, p))) < 1e-5


def test_product_warp_has_no_mixed_curvature():
    scen = warped_product("one", 2.0, 4)
    R = riemann(scen.metric, equator_point(4, 0.5))
    assert np.max(np.abs(R[0])) < 1e-12
    assert np.max(np.abs(R[:, 0])) < 1e-12


def test_sinh_squared_weight_values(ds4):
    K = 2.0
    f = sinh_squared_f(K)
    assert f.at(equator_point(4, 0.0)) == 0.0
    p = equator_point(4, 0.0)
    hess = hessian_scalar(ds4.metric, f, p)
    assert abs(hess[0, 0] - 2.0 * K ** 2) < 1e-10

    # the sphere-direction component for an h-unit vector: at the equator the
    # azimuthal coordinate direction has h(x, x) = 1, so the display
    # -2K sinh(t) cosh(t) sinh(Kt) cosh(Kt) is the phi-phi entry itself
    for t in (-1.5, 0.3, 1.1):
        p = equator_point(4, t)
        hess = hessian_scalar(ds4.metric, f, p)
        display = (-2.0 * K * math.sinh(t) * math.cosh(t)
                   * math.sinh(K * t) * math.cosh(K * t))
        assert abs(hess[3, 3] - display) <= 1e-6 * max(1.0, abs(display))


def test_hessian_time_component_matches_display(ds4):
    for K in (1.0, 2.0, 4.0):
        f = sinh_squared_f(K)
        for t in np.linspace(-3.0, 3.0, 13):
            p = equator_point(4, t)
            hess = hessian_scalar(ds4.metric, f, p)
            display = 4.0 * K ** 2 * math.cosh(K * t) ** 2 - 2.0 * K ** 2
            assert abs(hess[0, 0] - display) <= 1e-6 * max(1.0, abs(display))


def test_certification_scan():
    cert = certify_weighted_de_sitter(4)
    assert cert.K_star is not None and math.isfinite(cert.K_star)
    # the time-direction lower bound holds on every sample at every K
    for row in cert.results:
        assert row["ineq1_min_slack"] >= -1e-9
    # pass/fail is monotone on the shared sample set
    assert not any("monotonicity" in f for f in cert.findings)
    # the all-direction display bound goes negative at small K: logged only
    assert any(not r["passed"] and r["ineq2_violations"] > 0
               for r in cert.results)


def test_certification_small_K_matches_unweighted_limit():
    cert = certify_weighted_de_sitter(4, K_grid=[0.1])
    row = cert.results[0]
    assert not row["passed"]
    assert abs(row["min_value"] + 3.0) <= 0.1


def test_certification_stable_under_denser_sampling():
    # K* from the default scan is reproduced with 10x the direction density
    base = certify_weighted_de_sitter(4, K_grid=[1.0, 1.5, 2.0])
    ts = np.arange(-3.0, 3.0001, 0.1)
    pts = np.array([equator_point(4, t) for t in ts])
    dense = SampleSpec(points=pts, n_timelike=160, seed=4242, chi_max=1.0)
    rerun = certify_weighted_de_sitter(4, K_grid=[1.0, 1.5, 2.0], spec=dense)
    assert base.K_star == rerun.K_star == 1.5


def _certify_loop(n=4, K_grid=None, threshold=-1e-9):
    """certify_weighted_de_sitter's (results, K_star, findings) on its
    default samples, one geometry per point and one contraction per sample."""
    g = de_sitter(n).metric
    K_grid = np.arange(0.5, 6.01, 0.5) if K_grid is None else K_grid
    pts = np.array([equator_point(n, t) for t in np.arange(-3.0, 3.0001, 0.1)])
    plan = _sample_plan_loop(g, SampleSpec(points=pts, n_timelike=16,
                                           seed=20240, chi_max=1.0))
    geoms = [LocalGeometry(g, p) for p, _ in plan]
    e_t = np.eye(n)[0]
    results, findings = [], []
    for K in np.asarray(K_grid, dtype=float):
        f = sinh_squared_f(K)
        best = ineq1_min = ineq2_min = np.inf
        ineq2_viol = 0
        for (p, dirs), geom in zip(plan, geoms):
            tensor = geom.ricci + geom.hessian(f)
            t = p[0]
            rhs1 = 2.0 * K ** 2 - (n - 1.0)
            rhs2 = (4.0 * K ** 2 * math.cosh(K * t) ** 2 - 2.0 * K ** 2
                    - K * math.cosh(K * t) ** 2)
            ineq1_min = min(ineq1_min, float(e_t @ tensor @ e_t) - rhs1)
            for v in dirs:
                val = float(v @ tensor @ v)
                best = min(best, val)
                ineq2_min = min(ineq2_min, val - rhs2)
                ineq2_viol += val - rhs2 < -1e-9
        results.append({"K": float(K), "passed": bool(best >= threshold),
                        "min_value": float(best),
                        "ineq1_min_slack": float(ineq1_min),
                        "ineq2_min_slack": float(ineq2_min),
                        "ineq2_violations": int(ineq2_viol)})
        if ineq2_viol:
            findings.append(
                f"K={K:g}: all-direction display bound violated at "
                f"{ineq2_viol} samples (min slack {ineq2_min:.3e})")
        if ineq1_min < -1e-9:
            findings.append(f"K={K:g}: time-direction bound violated "
                            f"(min slack {ineq1_min:.3e})")
    passing = [row["K"] for row in results if row["passed"]]
    seen_pass = False
    for row in results:
        seen_pass = seen_pass or row["passed"]
        if seen_pass and not row["passed"]:
            findings.append(f"monotonicity violated at K={row['K']:g}")
    return results, min(passing) if passing else None, findings


@pytest.mark.parametrize("K_grid", [None, [0.1], np.round(np.arange(0.1, 6.0001, 0.1), 10),
                                    []],
                         ids=["default", "0.1", "0.1_to_6.0", "empty"])
def test_whole_grid_certification_equals_the_sample_loop(K_grid):
    cert = certify_weighted_de_sitter(4, K_grid=K_grid)
    results, K_star, findings = _certify_loop(4, K_grid)
    assert cert.results == results
    assert cert.K_star == K_star
    assert cert.findings == findings


def test_certification_names_the_first_non_finite_sample():
    # at K = 30 the weight's Hessian overflows at t = 11.8, where the metric
    # is still regular
    spec = SampleSpec(points=[equator_point(4, 0.0), equator_point(4, 11.8)],
                      n_timelike=4, seed=1, chi_max=1.0)
    with pytest.raises(NonFiniteSample, match=r"at point \[11\.8 "):
        certify_weighted_de_sitter(4, K_grid=[30.0], spec=spec)


def test_scenario_from_config():
    scen = scenario_from_config("minkowski4")
    assert scen.name == "minkowski4"
    scen = scenario_from_config({"builtin": "de_sitter4",
                                 "weight": {"type": "sinh_squared", "K": 3.0},
                                 "m": "inf", "k_bound": 2.0})
    assert scen.weight.name == "sinh_squared(K=3.0)"
    assert scen.params.m is INFINITE_M
    assert scen.params.k == 2.0
    with pytest.raises(KeyError):
        scenario_from_config("nosuch")


def test_manifest_serializes_to_json():
    import json
    scen = de_sitter(4)
    text = json.dumps(scen.manifest_json(), sort_keys=True)
    back = json.loads(text)
    assert back["name"] == "de_sitter4"
    assert "einstein" in back["manifest"]


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_curvature_and_hessian_match_finite_difference_copy(name):
    # the analytic callbacks against central differences of the metric and
    # weight alone, at the relative tolerance of the benchmark's scan
    import dataclasses
    from lorentzlab.manifold import LocalGeometry
    scen = BUILTIN_SCENARIOS[name]()
    fd_metric = dataclasses.replace(scen.metric, d_matrix=None, dd_matrix=None)
    weights = [scen.weight, sinh_squared_f(1.0)]
    fd_weights = [dataclasses.replace(f, grad=None, hess=None) for f in weights]
    rng = np.random.default_rng(2718)
    n = scen.metric.dim
    for _ in range(12):
        p = np.empty(n)
        p[0] = rng.uniform(-1.2, 1.2) if "frw" in name else rng.uniform(-2.0, 2.0)
        if scen.metric.domain is not None:
            p[1:-1] = rng.uniform(0.4, math.pi - 0.4, n - 2)
            p[-1] = rng.uniform(0.0, 2.0 * math.pi)
        else:
            p[1:] = rng.uniform(-3.0, 3.0, n - 1)
        exact, fd = LocalGeometry(scen.metric, p), LocalGeometry(fd_metric, p)
        pairs = [(exact.riemann, fd.riemann)] + [
            (exact.hessian(f), fd.hessian(f_fd))
            for f, f_fd in zip(weights, fd_weights)]
        for a, b in pairs:
            assert np.max(np.abs(a - b)) <= 3e-3 * max(1.0, np.max(np.abs(a))), p
