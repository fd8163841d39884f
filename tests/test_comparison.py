import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentzlab import (INFINITE_M, BakryEmeryParams, SampleSpec,
                        check_f_generic, check_timelike_convergence, cli,
                        comparison, constant_scalar, f_laplacian_distance,
                        integrate_jacobi, parallel_frame,
                        schwarz_equality_residual, schwarz_gap, sinh_squared_f,
                        trace_identity_check)
from lorentzlab.comparison import sample_plan
from lorentzlab.errors import (NoMaximalGeodesic, NonFiniteSample,
                               OutsideUniquenessRegion)
from lorentzlab.manifold import LocalGeometry, ScalarField
from lorentzlab.numerics import (DEFAULT_ATOL, DEFAULT_RTOL, RTOL_FLOOR,
                                 spawn_rngs)
from lorentzlab.scenarios import BUILTIN_SCENARIOS, equator_point, linear_time_f

from test_jacobi import SWEEP_GEODESICS, _assert_close_to_loop
from test_manifold import _chart_points


def _spec_for(scen, n_points=7, **kw):
    spec = scen.geodesics[0]
    a, b = spec.span
    ts = np.linspace(a + 0.1, b - 0.1, n_points)
    pts = np.array([np.asarray(spec.p0, float)
                    + (t - a) * np.asarray(spec.v0, float) for t in ts])
    return SampleSpec(points=pts, **kw)


def test_convergence_minkowski_passes(mink4):
    rep = check_timelike_convergence(mink4.metric, mink4.weight, mink4.params,
                                     _spec_for(mink4))
    assert rep.passed
    assert rep.min_value == 0.0


def test_convergence_de_sitter_fails_at_minus_three(ds4):
    rep = check_timelike_convergence(ds4.metric, ds4.weight, ds4.params,
                                     _spec_for(ds4))
    assert not rep.passed
    assert rep.min_value == pytest.approx(-3.0, abs=1e-9)


def test_convergence_certified_weight_passes(ds4w):
    rep = check_timelike_convergence(ds4w.metric, ds4w.weight, ds4w.params,
                                     _spec_for(ds4w))
    assert rep.passed
    assert rep.min_value > 0.0


def test_convergence_monotone_in_m(mink4):
    # identical samples: the sampled minimum is nondecreasing in m
    f = linear_time_f(1.3)
    spec = _spec_for(mink4, seed=99)
    mins = []
    for m in (0.5, 2.0, 50.0):
        rep = check_timelike_convergence(mink4.metric, f,
                                         BakryEmeryParams(m=m), spec)
        mins.append(rep.min_value)
    assert mins[0] <= mins[1] <= mins[2]


def test_convergence_constant_weight_independent_of_m(ds4):
    spec = _spec_for(ds4, seed=5)
    vals = []
    for m in (1.0, 7.0, INFINITE_M):
        rep = check_timelike_convergence(ds4.metric, constant_scalar(2.2),
                                         BakryEmeryParams(m=m, k=2.2), spec)
        vals.append(rep.min_value)
    assert vals[0] == vals[1] == vals[2]


# ---------------------------------------------------------------------------
# the whole-grid certificates against the per-sample loops they replaced
# ---------------------------------------------------------------------------

def _orthonormal_basis_loop(g, p):
    """Frame (e_0 timelike unit, e_1..e_{n-1} spacelike unit) at p."""
    G = g.at(p)
    eigval, eigvec = np.linalg.eigh(G)
    e0 = eigvec[:, 0] / np.sqrt(-float(eigvec[:, 0] @ G @ eigvec[:, 0]))
    spatial = []
    for i in range(1, g.dim):
        w = eigvec[:, i]
        w = w + float(w @ G @ e0) * e0
        for e in spatial:
            w = w - float(w @ G @ e) * e
        spatial.append(w / np.sqrt(float(w @ G @ w)))
    return e0, spatial


def _sample_plan_loop(g, spec):
    """[(point, directions)], one point and one direction at a time."""
    plan = []
    for p, rng in zip(spec.points, spawn_rngs(spec.seed, len(spec.points))):
        e0, spatial = _orthonormal_basis_loop(g, p)
        vs = []
        for _ in range(spec.n_timelike):
            chi = rng.uniform(0.0, spec.chi_max)
            u = rng.normal(size=len(spatial))
            u /= np.linalg.norm(u)
            udir = sum(c * e for c, e in zip(u, spatial))
            vs.append(np.cosh(chi) * e0 + np.sinh(chi) * udir)
        plan.append((np.asarray(p, dtype=float), vs))
    return plan


def _convergence_loop(g, f, params, plan):
    """(min, argmin point, argmin vector, count) of Ric_f^m(v, v), one
    geometry per point and one contraction per sample."""
    best, arg_p, arg_v, count = np.inf, None, None, 0
    for p, vs in plan:
        geom = LocalGeometry(g, p)
        tensor = geom.ricci + geom.hessian(f)
        df = f.gradient(p)
        for v in vs:
            val = float(v @ tensor @ v)
            if params.finite:
                val -= float(df @ v) ** 2 / params.m
            count += 1
            if val < best:
                best, arg_p, arg_v = val, p.copy(), v.copy()
    return best, arg_p, arg_v, count


def _bits(x):
    x = np.asarray(x, dtype=float)
    return x.shape, x.tobytes()


def _assert_convergence_equals_the_loop(g, f, params, spec):
    # bit for bit, signed zeros included
    plan = _sample_plan_loop(g, spec)
    points, dirs = sample_plan(g, spec)
    assert _bits(points) == _bits([p for p, _ in plan])
    assert _bits(dirs) == _bits([vs for _, vs in plan])
    rep = check_timelike_convergence(g, f, params, spec)
    best, arg_p, arg_v, count = _convergence_loop(g, f, params, plan)
    assert _bits(rep.min_value) == _bits(best)
    assert _bits(rep.argmin_point) == _bits(arg_p)
    assert _bits(rep.argmin_vector) == _bits(arg_v)
    assert rep.n_samples == count == spec.points.shape[0] * spec.n_timelike


@pytest.mark.parametrize("seed", [3, 17, 2024])
@pytest.mark.parametrize("fd_only", [False, True], ids=["callbacks", "fd_only"])
@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_whole_grid_convergence_equals_the_sample_loop(name, fd_only, seed):
    scen = BUILTIN_SCENARIOS[name]()
    g, f = scen.metric, scen.weight
    if fd_only:
        g = dataclasses.replace(g, d_matrix=None, dd_matrix=None)
        f = dataclasses.replace(f, grad=None, hess=None)
    pts = _chart_points(scen, np.random.default_rng(seed), 11)
    spec = SampleSpec(points=pts, n_timelike=16, seed=seed, chi_max=1.0)
    _assert_convergence_equals_the_loop(g, f, scen.params, spec)


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_cli_convergence_spec_equals_the_sample_loop(name):
    # the CLI's 9 points along the first timelike geodesic, chi_max 3.0
    scen = BUILTIN_SCENARIOS[name]()
    spec = SampleSpec(points=cli._sample_points(scen))
    assert spec.points.shape[0] == 9 and spec.chi_max == 3.0
    _assert_convergence_equals_the_loop(scen.metric, scen.weight, scen.params,
                                        spec)


@pytest.mark.parametrize("m", [0.5, 2.0])
@pytest.mark.parametrize("name", ["minkowski4", "de_sitter4"])
def test_finite_m_convergence_equals_the_sample_loop(name, m):
    scen = BUILTIN_SCENARIOS[name]()
    # at seed 1878 on de Sitter with m = 2 the argmin's df(v)^2 as float ** 2
    # (C pow) and as df(v) * df(v) differ in the last bit
    for seed in (99, 7, 123, 1878):
        spec = SampleSpec(points=_chart_points(scen, np.random.default_rng(seed), 9),
                          n_timelike=16, seed=seed, chi_max=3.0)
        _assert_convergence_equals_the_loop(scen.metric, linear_time_f(1.3),
                                            BakryEmeryParams(m=m), spec)


def _nan_hessian_for_late_times(p):
    return np.full((4, 4), np.nan) if p[0] > 0.5 else np.zeros((4, 4))


def test_convergence_names_the_first_non_finite_sample(mink4):
    # one of two points has a NaN Hessian: its 4 samples were skipped, but
    # counted, where now the certificate refuses them
    f = ScalarField(value=lambda p: 0.0, grad=lambda p: np.zeros(4),
                    hess=_nan_hessian_for_late_times, name="nan_late")
    spec = SampleSpec(points=[[0.0, 0, 0, 0], [1.0, 0, 0, 0]], n_timelike=4)
    with pytest.raises(NonFiniteSample,
                       match=r"at point \[1\. 0\. 0\. 0\.\] in direction \["):
        check_timelike_convergence(mink4.metric, f, mink4.params, spec)
    # every sample NaN: the same error, not a failed argmin re-evaluation
    spec = SampleSpec(points=[[1.0, 0, 0, 0], [2.0, 0, 0, 0]], n_timelike=4)
    with pytest.raises(NonFiniteSample, match=r"at point \[1\. 0\. 0\. 0\.\]"):
        check_timelike_convergence(mink4.metric, f, mink4.params, spec)


@pytest.mark.parametrize("points", [np.zeros((0, 4)), []], ids=["0x4", "empty"])
def test_sample_spec_rejects_an_empty_grid(points):
    with pytest.raises(ValueError, match="at least one sample point"):
        SampleSpec(points=points)


def test_f_generic_reports(mink4, ds4):
    frame = parallel_frame(mink4.metric, np.zeros(4), [1, 0, 0, 0], (0.0, 5.0))
    rep = check_f_generic(mink4.weight, frame)
    assert not rep.holds and rep.witness_t is None

    spec = ds4.geodesic("comoving")
    frame = parallel_frame(ds4.metric, spec.p0, spec.v0, spec.span)
    rep = check_f_generic(ds4.weight, frame)
    assert rep.holds and rep.witness_t == pytest.approx(spec.span[0])

    # flat space with a quadratic-in-time weight: Hessian term switches it on
    quad = sinh_squared_f(1.0)  # sinh^2 ~ t^2 near 0, Hessian 2 at t = 0
    frame = parallel_frame(mink4.metric, np.zeros(4), [1, 0, 0, 0], (0.0, 3.0))
    rep = check_f_generic(quad, frame)
    assert rep.holds


def _f_generic_loop(f, frame, threshold=1e-9):
    """check_f_generic's (holds, witness_t, max_norm), one geometry and one
    R_f = R + (Hess f(v, v)/d + (df(v)/d)^2) E per sample."""
    max_norm, witness = 0.0, None
    ts = np.linspace(*frame.geodesic.span, 200)
    for t, x, v, E in zip(ts, *frame.state(ts)):
        geom, d = LocalGeometry(frame.geodesic.metric, x), len(E)
        shift = (float(v @ geom.hessian(f) @ v) / d
                 + (float(f.gradient(x) @ v) / d) ** 2)
        nrm = float(np.max(np.abs(geom.curvature_matrix(v, E, E)
                                  + shift * np.eye(d))))
        max_norm = max(max_norm, nrm)
        if witness is None and nrm > threshold:
            witness = float(t)
    return witness is not None, witness, max_norm


@pytest.mark.parametrize("name, label", SWEEP_GEODESICS)
def test_whole_grid_checks_match_the_sample_loop(name, label):
    scen = BUILTIN_SCENARIOS[name]()
    spec = scen.geodesic(label)
    frame = parallel_frame(scen.metric, spec.p0, spec.v0, spec.span)
    weights = [scen.weight, sinh_squared_f(1.0)]
    if name == "minkowski4":  # a linear weight: R_f is a nonzero constant
        weights.append(linear_time_f(0.7))
    for f in weights:
        rep = check_f_generic(f, frame)
        holds, witness, max_norm = _f_generic_loop(f, frame)
        assert (rep.holds, rep.witness_t) == (holds, witness)
        _assert_close_to_loop(rep.max_norm, max_norm)
    ts = np.linspace(*frame.geodesic.span, 7)
    residuals = trace_identity_check(scen.weight, scen.params, frame, ts)
    _assert_close_to_loop(residuals, [trace_identity_check(
        scen.weight, scen.params, frame, t) for t in ts])


def test_trace_identity_examples(mink4, ds4):
    # flat, linear weight: both sides equal a^2/3 for m = 2
    a = 1.0
    frame = parallel_frame(mink4.metric, np.zeros(4), [1, 0, 0, 0], (0.0, 5.0))
    res = trace_identity_check(linear_time_f(a), BakryEmeryParams(m=2.0),
                               frame, 2.0)
    assert res < 1e-12

    spec = ds4.geodesic("comoving")
    frame = parallel_frame(ds4.metric, spec.p0, spec.v0, spec.span)
    res = trace_identity_check(ds4.weight, ds4.params, frame, 0.5)
    assert res < 1e-6
    res = trace_identity_check(sinh_squared_f(2.0),
                               BakryEmeryParams(m=INFINITE_M), frame, 0.5)
    assert res < 1e-6
    res = trace_identity_check(sinh_squared_f(2.0),
                               BakryEmeryParams(m=3.0), frame, 0.5)
    assert res < 1e-6


def test_schwarz_gap_examples():
    lhs, rhs, gap = schwarz_gap(3.0, 1.0, 4, 2.0)
    assert (lhs, rhs, gap) == pytest.approx((3.5, 3.2, 0.3))
    # equality case: theta = ((n-1)/m) fprime, here 3/3 * 1 = 1
    lhs, rhs, gap = schwarz_gap(1.0, 1.0, 4, 3.0)
    assert lhs == pytest.approx(2.0 / 3.0)
    assert gap == pytest.approx(0.0, abs=1e-15)
    assert schwarz_gap(0.0, 0.0, 4, 1.0) == (0.0, 0.0, 0.0)


@settings(max_examples=300, deadline=None)
@given(theta=st.floats(-50, 50), fprime=st.floats(-50, 50),
       n=st.floats(2.0, 10.0), m=st.floats(0.01, 100.0))
def test_schwarz_gap_nonnegative(theta, fprime, n, m):
    _, _, gap = schwarz_gap(theta, fprime, n, m)
    assert gap >= -1e-12


@settings(max_examples=300, deadline=None)
@given(fprime=st.floats(-20, 20), n=st.floats(2.0, 10.0),
       m=st.floats(0.1, 100.0), sign=st.sampled_from([-1.0, 1.0]))
def test_schwarz_equality_characterization(fprime, n, m, sign):
    theta = sign * (n - 1.0) / m * fprime
    _, _, gap = schwarz_gap(theta, fprime, n, m)
    scale = max(1.0, abs(theta) + abs(fprime)) ** 2
    assert abs(gap) <= 1e-10 * scale
    assert schwarz_equality_residual(theta, fprime, n, m) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(theta=st.floats(-20, 20), fprime=st.floats(-20, 20),
       n=st.floats(2.0, 10.0), m=st.floats(0.1, 100.0))
def test_schwarz_zero_gap_implies_characterization(theta, fprime, n, m):
    _, _, gap = schwarz_gap(theta, fprime, n, m)
    res = schwarz_equality_residual(theta, fprime, n, m)
    if gap <= 1e-14:
        assert res <= 1e-10
    if res <= 1e-14:
        assert gap <= 1e-10


def test_f_laplacian_minkowski_closed_form(mink4):
    apex = np.zeros(4)
    for rho in (0.1, 0.7, 2.0, 10.0):
        q = apex.copy()
        q[0] = -rho
        rep = f_laplacian_distance(mink4.metric, mink4.weight, apex, q, m=2.0)
        closed = -3.0 / rho
        assert abs(rep.value - closed) <= 1e-8 * max(1.0, abs(closed))
        assert rep.slack_finite == pytest.approx(2.0 / rho, abs=1e-6)


def test_f_laplacian_linear_weight_saturates_infinite_bound(mink4):
    # linear weight: the second-variation comparison is exact in flat space
    a, rho = 1.4, 2.0
    f = linear_time_f(a)
    apex = np.zeros(4)
    q = apex.copy()
    q[0] = -rho
    rep = f_laplacian_distance(mink4.metric, f, apex, q)
    assert rep.value == pytest.approx(-3.0 / rho - a, abs=1e-8)
    assert rep.slack_infinite == pytest.approx(0.0, abs=1e-7)


def test_f_laplacian_weighted_de_sitter_bound(ds4w):
    apex = equator_point(4, 1.5)
    q = apex.copy()
    q[0] = 0.3
    rep = f_laplacian_distance(ds4w.metric, ds4w.weight, apex, q,
                               uniqueness=ds4w.uniqueness)
    assert rep.slack_infinite >= -1e-6
    # the unweighted comparison fails here: de Sitter has Ric(v,v) < 0
    assert rep.laplacian < -(4 - 1.0) / rep.rho


def test_f_laplacian_accepts_a_root_at_loose_tolerances(ds4w):
    # off the comoving line, where the uniqueness predicate declares nothing;
    # at rtol 1e-6 the Laplacian comes from Newton's accepted shot, whose own
    # residual is below 1e-8
    apex = equator_point(4, 1.5)
    q = apex + np.array([-1.0, 0.1, 0.0, 0.0])
    loose = f_laplacian_distance(ds4w.metric, ds4w.weight, apex, q, rtol=1e-6)
    tight = f_laplacian_distance(ds4w.metric, ds4w.weight, apex, q)
    assert loose.rho == pytest.approx(tight.rho, abs=1e-6)
    assert loose.value == pytest.approx(tight.value, abs=1e-5)


def _recorded_shots(monkeypatch):
    """A list that gains (span, rtol, atol) at every shot comparison
    solves, one per lane of its geodesic_variation calls."""
    shots, variation = [], comparison.geodesic_variation

    def counted(g, p0, v0, spans, **kwargs):
        shots.extend((tuple(span), kwargs["rtol"], kwargs["atol"])
                     for span in spans)
        return variation(g, p0, v0, spans, **kwargs)
    monkeypatch.setattr(comparison, "geodesic_variation", counted)
    return shots


def test_f_laplacian_solves_the_shot_geodesic_once(ds4w, monkeypatch,
                                                   ode_solves):
    apex = equator_point(4, 1.5)
    q = apex.copy()
    q[0] = 0.3
    shots = _recorded_shots(monkeypatch)
    f_laplacian_distance(ds4w.metric, ds4w.weight, apex, q,
                         uniqueness=ds4w.uniqueness)
    # a geodesic-and-variation solve per Newton iterate and nothing after:
    # the Laplacian is read from the accepted shot; the comoving guess is
    # the root here, so Newton stops at once
    assert len(ode_solves) == len(shots)
    assert len(shots) <= 2
    # every shot at the caller's tolerances tightened by 0.03
    assert {(rtol, atol) for _, rtol, atol in shots} == {
        (0.03 * DEFAULT_RTOL, 0.03 * DEFAULT_ATOL)}


def test_f_laplacian_at_the_rtol_floor_clamps_the_shots(mink4, monkeypatch):
    # tightened by 0.03, RTOL_FLOOR would be below the integrator's floor
    apex = np.zeros(4)
    q = np.array([-2.0, 0.0, 0.0, 0.0])
    shots = _recorded_shots(monkeypatch)
    rep = f_laplacian_distance(mink4.metric, mink4.weight, apex, q, m=2.0,
                               rtol=RTOL_FLOOR)
    assert {rtol for _, rtol, _ in shots} == {RTOL_FLOOR}
    assert abs(rep.value + 1.5) <= 1e-8 * 1.5


@pytest.fixture(scope="module")
def packaged_reports(mink4, ds4w):
    """(scenario, apex, q, report) for the 24 pairs of the packaged
    f_laplacian_bounds checks, built as cli.check_f_laplacian builds them."""
    out = []
    for scen in (mink4, ds4w):
        meta = scen.expectations["f_laplacian"]
        if meta["mode"] == "flat":
            m, pairs = meta["m"], [(np.zeros(4), -rho) for rho in meta["rhos"]]
        else:
            m, pairs = None, [(equator_point(4, t_apex), t_apex - rho)
                              for t_apex in meta["apex_ts"]
                              for rho in meta["rhos"]]
        for apex, t_q in pairs:
            q = apex.copy()
            q[0] = t_q
            out.append((scen, apex, q, f_laplacian_distance(
                scen.metric, scen.weight, apex, q, m=m,
                uniqueness=scen.uniqueness)))
    assert len(out) == 24
    return out


def _off_comoving_targets(ds4w):
    """The three de Sitter targets off the comoving line, one unit of
    coordinate time before apex = equator_point(4, 1.5), on which Newton
    iterates (tests/test_numerics.py and the loose-tolerance test above)."""
    apex = equator_point(4, 1.5)
    aside = np.array([0.15, -0.1, 0.2])
    aside *= 0.9 / np.sqrt(aside @ ds4w.metric.at(apex)[1:, 1:] @ aside)
    return apex, [apex + np.concatenate([[-1.0], d])
                  for d in ([0.15, -0.1, 0.2], aside, [0.1, 0.0, 0.0])]


def _frame_route_value(g, f, apex, q, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """Delta_f d_r(q) by the frame route: the root shot at rtol and atol,
    then the parallel frame along it and the Lagrange tensor A(0) = 0,
    A'(0) = E, giving -theta(rho) + (f o c)'(rho)."""
    n = g.dim
    v, rho, _, _ = comparison._shoot_to_target(g, apex, q, rtol, atol)
    frame = parallel_frame(g, apex, v, (0.0, rho), rtol=rtol, atol=atol)
    traj = integrate_jacobi(frame.curvature, np.zeros((n - 1, n - 1)),
                            np.eye(n - 1), (0.0, rho), rtol=rtol, atol=atol)
    theta = float(np.trace(traj.Aprime(rho) @ np.linalg.inv(traj.A(rho))))
    x_end, v_end = frame.geodesic.state(rho)
    return -theta + float(f.gradient(x_end) @ v_end)


# the Laplacian read from the shot's Jacobi tensor and the frame route agree
# to this, relative to max(1, |value|); fixed before the J route was written
ROUTE_RTOL = 1e-10


def test_f_laplacian_agrees_with_the_frame_route(ds4w, packaged_reports):
    cases = list(packaged_reports)
    apex, targets = _off_comoving_targets(ds4w)
    cases += [(ds4w, apex, q, f_laplacian_distance(ds4w.metric, ds4w.weight,
                                                   apex, q))
              for q in targets]
    for scen, apex, q, rep in cases:
        want = _frame_route_value(scen.metric, scen.weight, apex, q)
        assert abs(rep.value - want) <= ROUTE_RTOL * max(1.0, abs(want))


def test_f_laplacian_weighted_de_sitter_closed_form(ds4w, packaged_reports):
    """Delta_f d = -(n-1) coth rho - K sinh(2 K t_q) for f = sinh^2(K t),
    and slack_infinite with the exact integral of f along the comoving
    geodesic, int_0^rho sinh^2(K (t_a - s)) ds."""
    K, n = 2.0, 4
    pairs = [(apex, q, rep) for scen, apex, q, rep in packaged_reports
             if scen is ds4w]
    assert len(pairs) == 20
    for apex, q, rep in pairs:
        t_a, t_q = apex[0], q[0]
        rho = t_a - t_q
        value = -(n - 1.0) / np.tanh(rho) - K * np.sinh(2.0 * K * t_q)
        integral = ((np.sinh(2.0 * K * t_a) - np.sinh(2.0 * K * t_q))
                    / (4.0 * K) - rho / 2.0)
        bound = (-(n - 1.0) / rho + 2.0 * np.sinh(K * t_q) ** 2 / rho
                 - 2.0 * integral / rho ** 2)
        assert abs(rep.value - value) <= 1e-10 * max(1.0, abs(value))
        slack = value - bound
        assert abs(rep.slack_infinite - slack) <= 1e-10 * max(1.0, abs(slack))


def test_laplacian_report_carries_newton_steps_and_miss(ds4w,
                                                        packaged_reports):
    for _, _, q, rep in packaged_reports:  # comoving: the guess is the root
        assert rep.newton_steps == 0
        assert rep.miss <= 1e-8 * max(1.0, np.max(np.abs(q)))
    apex, targets = _off_comoving_targets(ds4w)
    rep = f_laplacian_distance(ds4w.metric, ds4w.weight, apex, targets[0])
    assert rep.newton_steps >= 1
    assert rep.miss <= 1e-8 * max(1.0, np.max(np.abs(targets[0])))


# bound_infinite of the 24 packaged pairs, in pair order, when adaptive
# Simpson (tol 1e-10) integrated f along the shot node by node; the
# Gauss-Legendre rule on the shot's steps agrees to this, relative to
# max(1, |bound|), a bound fixed before the rule was written
SIMPSON_BOUND_INFINITE = [
    -6.0, -3.0, -1.5, -0.6,
    -9.822487948600527, -3.4930562296186896, 2.3254023678558022,
    19.251553822772927, 86.52406695007605,
    -27.70714455673258, -12.391413822957043, -6.277488791157408,
    -1.6007504435777387, 8.742876768364745,
    -157.22397641229435, -69.0283234695826, -35.74870647427057,
    -20.937992823877504, -12.452653265610126,
    -1113.8746532637458, -486.28824073389615, -248.89879167205206,
    -145.58666847870504, -94.1549266119677]
QUADRATURE_RTOL = 1e-11


def test_the_step_quadrature_of_f_matches_the_simpson_bounds(packaged_reports):
    for (_, _, _, rep), old in zip(packaged_reports, SIMPSON_BOUND_INFINITE):
        assert (abs(rep.bound_infinite - old)
                <= QUADRATURE_RTOL * max(1.0, abs(old)))


def test_a_batch_of_pairs_reports_as_each_pair_alone(mink4, ds4w,
                                                     packaged_reports):
    for scen, m in ((mink4, 2.0), (ds4w, None)):
        cases = [(apex, q, rep) for s, apex, q, rep in packaged_reports
                 if s is scen]
        batch = f_laplacian_distance(
            scen.metric, scen.weight, [apex for apex, _, _ in cases],
            [q for _, q, _ in cases], m=m, uniqueness=scen.uniqueness)
        assert batch == [rep for _, _, rep in cases]


def test_a_batch_raises_the_error_of_its_first_failing_pair(mink4):
    apex = np.zeros(4)
    good = np.array([-1.0, 0.0, 0.0, 0.0])
    spacelike = np.array([0.1, 3.0, 0.0, 0.0])
    other = np.array([-2.0, 0.0, 0.0, 0.0])

    def unique(a, b):
        return b[0] != -2.0
    for targets, error in (([good, spacelike, other], NoMaximalGeodesic),
                           ([good, other, spacelike], OutsideUniquenessRegion)):
        with pytest.raises(error):
            f_laplacian_distance(mink4.metric, mink4.weight, [apex] * 3,
                                 targets, uniqueness=unique)


def test_f_laplacian_guards(mink4):
    apex = np.zeros(4)
    q = np.array([0.1, 3.0, 0.0, 0.0])   # spacelike separated
    with pytest.raises(NoMaximalGeodesic):
        f_laplacian_distance(mink4.metric, mink4.weight, apex, q)
    with pytest.raises(OutsideUniquenessRegion):
        f_laplacian_distance(mink4.metric, mink4.weight, apex,
                             np.array([-1.0, 0, 0, 0]),
                             uniqueness=lambda a, b: False)


def test_condition_report_argmin_reevaluates(ds4):
    rep = check_timelike_convergence(ds4.metric, ds4.weight, ds4.params,
                                     _spec_for(ds4, seed=11))
    from lorentzlab import bakry_emery_ricci
    again = bakry_emery_ricci(ds4.metric, ds4.weight, ds4.params,
                              rep.argmin_point, rep.argmin_vector,
                              rep.argmin_vector)
    assert again == pytest.approx(rep.min_value, abs=1e-12)
