import math

import numpy as np
import pytest

from lorentzlab import (BakryEmeryParams, INFINITE_M, constant_scalar,
                        integrate_geodesic, integrate_jacobi, parallel_frame,
                        run_point_congruence, sinh_squared_f)
from lorentzlab.congruence import (geodesic_residual, geodesic_variation,
                                   quotient_invariance_residual)
from lorentzlab.errors import (DomainViolation, IntegratorFailure,
                               SingularMetric, ZeroVector)
from lorentzlab.manifold import MetricField
from lorentzlab.scenarios import linear_time_f

from test_jacobi import SWEEP_GEODESICS, _assert_close_to_loop


def _rk4_geodesic(metric, p0, v0, t_end, n_steps):
    """Independent fixed-step RK4 oracle for the geodesic equation."""
    from lorentzlab.manifold import christoffel

    def rhs(y):
        x, v = y[:metric.dim], y[metric.dim:]
        gamma = christoffel(metric, x)
        return np.concatenate([v, -np.einsum("abc,b,c->a", gamma, v, v)])

    y = np.concatenate([p0, v0])
    h = t_end / n_steps
    for _ in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def test_minkowski_straight_line(mink4):
    geo = integrate_geodesic(mink4.metric, np.zeros(4), [1, 0, 0, 0], (0.0, 5.0))
    for t in (0.5, 2.0, 5.0):
        assert np.allclose(geo.point(t), [t, 0, 0, 0], atol=1e-12)
    assert geo.character == "timelike"
    assert geo.norm == -1.0


def test_de_sitter_comoving_norm_conservation(ds4):
    spec = ds4.geodesic("comoving")
    geo = integrate_geodesic(ds4.metric, spec.p0, spec.v0, spec.span)
    assert geo.stats["norm_drift"] < 1e-10
    # stays at the spatial point
    assert np.max(np.abs(geo.point(1.0)[1:] - spec.p0[1:])) < 1e-10
    for t in (-0.5, 0.4, 1.7):
        assert geodesic_residual(geo, t) < 1e-6


def test_quartic_2d_against_fixed_step_rk4(quartic_2d):
    p0 = np.array([1.0, 0.0])
    v0 = np.array([1.2, 0.4])  # timelike: -1.44 + 0.16 < 0
    t_end = 1.5
    geo = integrate_geodesic(quartic_2d, p0, v0, (0.0, t_end), normalize=False)
    # oracle runs at 10x the solver's accepted resolution
    n_steps = 10 * max(geo.stats["n_steps"], 100)
    oracle = _rk4_geodesic(quartic_2d, p0, v0, t_end, n_steps)
    assert np.max(np.abs(geo.point(t_end) - oracle[:2])) < 1e-6
    assert np.max(np.abs(geo.velocity(t_end) - oracle[2:])) < 1e-6


def test_domain_exit_returns_partial_trajectory(quartic_2d):
    # moving toward t = 0 exits the declared domain at t = 0.05
    geo = integrate_geodesic(quartic_2d, np.array([1.0, 0.0]),
                             np.array([-1.0, 0.0]), (0.0, 5.0),
                             normalize=False)
    assert geo.exited_domain
    assert geo.t1 < 5.0
    assert geo.point(geo.t1)[0] == pytest.approx(0.05, abs=1e-6)


def test_geodesic_rejects_bad_velocities(mink4):
    with pytest.raises(ValueError):
        integrate_geodesic(mink4.metric, np.zeros(4), [0, 1, 0, 0], (0, 1))
    with pytest.raises(ZeroVector):
        integrate_geodesic(mink4.metric, np.zeros(4), np.zeros(4), (0, 1))


def test_parallel_frame_minkowski_constant(mink4):
    frame = parallel_frame(mink4.metric, np.zeros(4), [1, 0, 0, 0], (0.0, 5.0))
    E0 = frame.vectors(0.0)
    E5 = frame.vectors(5.0)
    assert np.max(np.abs(E0 - E5)) < 1e-12
    assert frame.gram_residual(3.3) < 1e-10
    assert frame.reorth_events == []


def test_parallel_frame_de_sitter_warped_transport(ds4):
    spec = ds4.geodesic("comoving")
    frame = parallel_frame(ds4.metric, spec.p0, spec.v0, spec.span)
    geo = frame.geodesic
    for t in (-1.0, 0.0, 1.5):
        assert frame.gram_residual(t) < 1e-9
        assert frame.transport_residual(t) < 1e-6
    # closed-form transport: coordinate components scale like 1/cosh(t)
    E_start = frame.vectors(geo.t0)
    t = 1.0
    expected = E_start * (math.cosh(geo.t0) / math.cosh(t))
    assert np.max(np.abs(frame.vectors(t) - expected)) < 1e-8


def test_null_frame_minkowski(mink4):
    frame = parallel_frame(mink4.metric, np.zeros(4), [1, 1, 0, 0], (0.0, 5.0))
    geo = frame.geodesic
    assert geo.character == "null"
    assert frame.k == 2
    E = frame.vectors(2.0)
    # representatives span the y-z plane and stay constant
    assert np.max(np.abs(E[:, :2])) < 1e-10
    assert np.max(np.abs(E - frame.vectors(4.9))) < 1e-10
    assert frame.gram_residual(4.0) < 1e-8
    nv = frame.null_partner(3.0)
    G = mink4.metric.at(geo.point(3.0))
    assert abs(float(nv @ G @ nv)) < 1e-10
    assert abs(float(nv @ G @ geo.velocity(3.0)) + 1.0) < 1e-10


def test_null_frame_de_sitter_gram(ds4):
    spec = ds4.geodesic("null_equatorial")
    frame = parallel_frame(ds4.metric, spec.p0, spec.v0, spec.span)
    for t in (0.3, 1.0, 1.9):
        assert frame.gram_residual(t) < 1e-8


def test_drift_monitor_records_reorthogonalization(ds4):
    spec = ds4.geodesic("comoving")
    frame = parallel_frame(ds4.metric, spec.p0, spec.v0, (-1.2, 6.0),
                           rtol=1e-3, atol=1e-5, reorth_threshold=1e-9)
    assert frame.reorth_events  # sloppy transport must trip the monitor
    # the tighter re-solve holds the frame to the end
    assert frame.gram_residual(6.0) < 1e-6


DRIFT_SETTINGS = [
    ("comoving", (-1.2, 6.0), 1e-3, 1e-5, 1e-9),  # the drift test's setting
    ("comoving", (-1.2, 6.0), 1e-3, 1e-5, 1e-6),  # the default threshold
    ("null_equatorial", (0.0, 2.0), 1e-7, 1e-9, 1e-11),
]


@pytest.mark.parametrize("label, span, rtol, atol, threshold", DRIFT_SETTINGS)
def test_returned_frame_keeps_its_gram_drift_under_the_threshold(
        ds4, label, span, rtol, atol, threshold):
    spec = ds4.geodesic(label)
    frame = parallel_frame(ds4.metric, spec.p0, spec.v0, span, rtol=rtol,
                           atol=atol, reorth_threshold=threshold)
    assert frame.reorth_events  # the first solve drifted and was re-solved
    geo = frame.geodesic
    nodes = np.linspace(geo.t0, geo.t1, 33)
    assert np.max(frame.gram_residual(nodes)) <= threshold
    assert np.max(frame.gram_residual(np.linspace(*geo.span, 2001))) <= threshold


@pytest.mark.parametrize("label, span, rtol, atol", [
    ("comoving", (-1.2, 6.0), 1e-3, 1e-5),
    ("null_equatorial", (0.0, 2.0), 1e-7, 1e-9),
])
def test_unreachable_drift_threshold_raises_at_the_tolerance_floor(
        ds4, label, span, rtol, atol):
    spec = ds4.geodesic(label)
    with pytest.raises(IntegratorFailure, match="Gram drift"):
        parallel_frame(ds4.metric, spec.p0, spec.v0, span, rtol=rtol,
                       atol=atol, reorth_threshold=1e-20)


def test_curvature_values(mink4, ds4, static4):
    frame = parallel_frame(mink4.metric, np.zeros(4), [1, 0, 0, 0], (0.0, 5.0))
    assert np.max(np.abs(frame.curvature(2.0))) \
        < 1e-12

    spec = ds4.geodesic("comoving")
    frame = parallel_frame(ds4.metric, spec.p0, spec.v0, spec.span)
    for t in (-1.0, 0.0, 2.0):
        R = frame.curvature(t)
        assert np.max(np.abs(R + np.eye(3))) < 1e-9

    spec = static4.geodesic("comoving")
    frame = parallel_frame(static4.metric, spec.p0, spec.v0, spec.span)
    assert np.max(np.abs(frame.curvature(1.0))) \
        < 1e-10


def test_tilted_einstein_static_eigenvalues(static4):
    # boost chi = asinh(1): transverse eigenvalues sinh^2(chi) = 1, plus one 0
    spec = static4.geodesic("tilted")
    frame = parallel_frame(static4.metric, spec.p0, spec.v0, spec.span)
    R = frame.curvature(1.3)
    eig = np.sort(np.linalg.eigvalsh(R))
    assert np.allclose(eig, [0.0, 1.0, 1.0], atol=1e-8)


def test_null_quotient_endomorphism(ds4, static4):
    # constant curvature: the quotient endomorphism vanishes on null geodesics
    spec = ds4.geodesic("null_equatorial")
    frame = parallel_frame(ds4.metric, spec.p0, spec.v0, spec.span)
    for t in (0.2, 1.1):
        assert np.max(np.abs(frame.curvature(t))) \
            < 1e-7
        assert quotient_invariance_residual(frame, t) < 1e-7

    # product with a unit sphere: quotient endomorphism is the identity
    spec = static4.geodesic("null_equatorial")
    frame = parallel_frame(static4.metric, spec.p0, spec.v0, spec.span)
    R = frame.curvature(1.0)
    assert np.max(np.abs(R - np.eye(2))) < 1e-8
    assert quotient_invariance_residual(frame, 1.0) < 1e-7


def test_weighted_curvature(mink4, ds4):
    # constant weight reduces to the plain endomorphism
    frame = parallel_frame(mink4.metric, np.zeros(4), [1, 0, 0, 0], (0.0, 5.0))
    base = frame.curvature(1.0)
    same = frame.curvature(1.0, constant_scalar(4.2))
    assert np.max(np.abs(base - same)) < 1e-12

    # flat space, linear weight: R_f = (a/3)^2 I
    a = 1.5
    Rf = frame.curvature(2.0, linear_time_f(a))
    assert np.max(np.abs(Rf - (a / 3.0) ** 2 * np.eye(3))) < 1e-12

    # de Sitter with the sinh^2 weight at t = 0: (-1 + 2K^2/3) I
    K = 2.0
    spec = ds4.geodesic("comoving")
    frame = parallel_frame(ds4.metric, spec.p0, spec.v0, spec.span)
    Rf = frame.curvature(0.0, sinh_squared_f(K))
    assert np.max(np.abs(Rf - (-1.0 + 2.0 * K ** 2 / 3.0) * np.eye(3))) < 1e-8


def test_endomorphism_series_symmetry(ds4w, ds4w_comoving_run):
    from lorentzlab.manifold import hessian_scalar
    run = ds4w_comoving_run
    series = run.series
    ts = np.linspace(run.geodesic.t0, run.geodesic.t1, 41)
    R = np.array([series(t) for t in ts])
    assert np.max(np.abs(R - np.swapaxes(R, 1, 2))) < 1e-7
    # the series is the frame's curvature: it evaluates R and R_f where it
    # is asked
    t = 0.5 * (ts[10] + ts[11])
    assert np.array_equal(series(t), run.frame.curvature(t))
    x, v = run.geodesic.state(t)
    shift = (v @ hessian_scalar(ds4w.metric, ds4w.weight, x) @ v / 3.0
             + (ds4w.weight.gradient(x) @ v / 3.0) ** 2)
    Rf = run.frame.curvature(t, ds4w.weight)
    assert np.max(np.abs(Rf - series(t) - shift * np.eye(3))) \
        <= 1e-12 * max(1.0, abs(shift))


def test_unweighted_series_modified_is_R(ds4w_comoving_run):
    run = ds4w_comoving_run
    assert np.array_equal(run.frame.curvature(0.3, None), run.series(0.3))


def test_series_outside_the_geodesic_span_is_domain_violation(frw4):
    spec = frw4.geodesic("comoving")
    with pytest.raises(DomainViolation):
        run_point_congruence(frw4.metric, spec.p0, spec.v0, spec.span,
                             f=frw4.weight, jacobi_span=(0.0, 3.5))
    frame = parallel_frame(frw4.metric, spec.p0, spec.v0, spec.span)
    geo = frame.geodesic
    series = frame.curvature
    for t in (geo.t0 - 0.1, geo.t1 + 1e-9, 3.5):
        for evaluate in (series, lambda t: series(t, frw4.weight)):
            with pytest.raises(DomainViolation):
                evaluate(t)
    assert series(geo.t1).shape == (3, 3)


def test_f_generic_consistency(mink4, ds4w, ds4w_comoving_run):
    # flat space with constant weight: R_f vanishes along every geodesic
    frame = parallel_frame(mink4.metric, np.zeros(4), [1, 0.3, 0, 0], (0.0, 4.0))
    for t in np.linspace(0.0, 4.0, 9):
        assert np.max(np.abs(frame.curvature(t, constant_scalar(0.0)))) \
            < 1e-12

    # positive weighted curvature at a sample forces R_f != 0 there
    run = ds4w_comoving_run
    params = BakryEmeryParams(m=INFINITE_M)
    ric = run.ric_fm_series(ds4w.metric, ds4w.weight, params,
                            ts=np.array([0.5]))
    assert ric[0] > 0.0
    Rf = run.frame.curvature(0.5, ds4w.weight)
    assert np.max(np.abs(Rf)) > 1e-9


def _counting_metric(metric):
    """A copy of metric whose callbacks count their calls."""
    import dataclasses
    counts = dict.fromkeys(("matrix", "d_matrix", "dd_matrix"), 0)

    def counted(name):
        cb = getattr(metric, name)

        def call(p):
            counts[name] += 1
            return cb(p)
        return call
    return dataclasses.replace(metric, **{k: counted(k) for k in counts}), counts


def test_series_builds_the_geometry_once_per_sample(ds4w):
    from lorentzlab.manifold import hessian_scalar
    g, counts = _counting_metric(ds4w.metric)
    spec = ds4w.geodesic("comoving")
    frame = parallel_frame(g, spec.p0, spec.v0, spec.span)
    counts.update(dict.fromkeys(counts, 0))
    for t in np.linspace(*frame.geodesic.span, 50):
        assert frame.curvature(t, ds4w.weight).shape == (3, 3)
    assert counts == {"matrix": 50, "d_matrix": 50, "dd_matrix": 50}
    # a Hessian needs the connection only, not the curvature
    counts.update(dict.fromkeys(counts, 0))
    hessian_scalar(g, ds4w.weight, spec.p0)
    assert counts == {"matrix": 1, "d_matrix": 1, "dd_matrix": 0}


def test_jacobi_solve_evaluates_R_once_per_rhs_call(ds4w):
    g, counts = _counting_metric(ds4w.metric)
    spec = ds4w.geodesic("comoving")
    frame = parallel_frame(g, spec.p0, spec.v0, spec.span)
    counts.update(dict.fromkeys(counts, 0))
    traj = integrate_jacobi(frame.curvature,
                            np.zeros((3, 3)), np.eye(3), frame.geodesic.span)
    assert counts["dd_matrix"] == traj._sol.nfev > 0


def test_whole_grid_state_matches_pointwise_dense_output(ds4w):
    spec = ds4w.geodesic("comoving")
    geo = integrate_geodesic(ds4w.metric, spec.p0, spec.v0, spec.span)
    ts = np.linspace(geo.t0, geo.t1, 37)
    xs, vs = geo.state(ts)
    assert xs.shape == vs.shape == (37, 4)
    for t, x, v in zip(ts, xs, vs):
        assert np.max(np.abs(x - geo.point(t))) <= 1e-14
        assert np.max(np.abs(v - geo.velocity(t))) <= 1e-14
    x, v = geo.state(ts[3])
    assert np.array_equal(x, geo.point(ts[3]))
    assert np.array_equal(v, geo.velocity(ts[3]))


def test_stacked_ric_fm_series_builds_the_geometry_once_per_point(ds4w):
    from lorentzlab.manifold import LocalGeometry
    g, counts = _counting_metric(ds4w.metric)
    spec = ds4w.geodesic("comoving")
    run = run_point_congruence(g, spec.p0, spec.v0, spec.span, f=ds4w.weight,
                               diag_ts=np.linspace(-0.5, 2.0, 101))
    ts = np.linspace(-0.5, 2.0, 77)  # two full blocks of 32 rows and a part
    counts.update(dict.fromkeys(counts, 0))
    ric = run.ric_fm_series(g, ds4w.weight, ds4w.params, ts)
    assert counts == {"matrix": 77, "d_matrix": 77, "dd_matrix": 77}
    pointwise = [LocalGeometry(g, x).bakry_emery(ds4w.weight, ds4w.params, v, v)
                 for x, v in zip(*run.geodesic.state(ts))]
    assert np.array_equal(ric, pointwise)


def test_dense_output_outside_its_span_is_domain_violation(frw4):
    spec = frw4.geodesic("comoving")
    a = spec.span[0]
    run = run_point_congruence(frw4.metric, spec.p0, spec.v0, spec.span,
                               f=frw4.weight)
    t1 = run.geodesic.t1
    for read in (run.geodesic.point, run.geodesic.state, run.frame.state,
                 lambda t: run.ric_fm_series(frw4.metric, frw4.weight,
                                             frw4.params, ts=[t])):
        with pytest.raises(DomainViolation):
            read(t1 + 2.0)
    # one parameter outside an array is enough; the message names the object
    with pytest.raises(DomainViolation, match="geodesic's span"):
        run.geodesic.state(np.array([a, 0.0, t1 + 2.0]))
    traj = run.trajectory
    with pytest.raises(DomainViolation, match="Jacobi solution's span"):
        traj.states(traj.t1 + 0.5)
    # diagnostics past the Jacobi span are refused, not extrapolated
    with pytest.raises(DomainViolation):
        run_point_congruence(frw4.metric, spec.p0, spec.v0, spec.span,
                             f=frw4.weight, jacobi_span=(a, a + 1.0),
                             diag_ts=np.linspace(a, a + 3.0, 101))
    short = run_point_congruence(frw4.metric, spec.p0, spec.v0, spec.span,
                                 f=frw4.weight, jacobi_span=(a, a + 1.0),
                                 diag_ts=np.linspace(a, a + 1.0, 101))
    with pytest.raises(DomainViolation):
        short.trajectory.A(a + 1.5)
    # the span ends themselves, to within roundoff, still evaluate
    assert run.geodesic.point(t1 + 1e-13).shape == (4,)
    assert traj.A(traj.t1).shape == (3, 3)


@pytest.mark.parametrize("name, label", SWEEP_GEODESICS)
def test_parallel_frame_accuracy_over_the_whole_span(name, label):
    from lorentzlab.scenarios import BUILTIN_SCENARIOS
    scen = BUILTIN_SCENARIOS[name]()
    spec = scen.geodesic(label)
    frame = parallel_frame(scen.metric, spec.p0, spec.v0, spec.span)
    geo = frame.geodesic
    # 41 interior points, so that the transport stencil stays on the span
    ts = np.linspace(geo.t0, geo.t1, 43)[1:-1]
    assert max(frame.gram_residual(t) for t in ts) <= 1e-9
    assert max(frame.transport_residual(t) for t in ts) <= 1e-6
    assert frame.reorth_events == []


@pytest.mark.parametrize("name, label", SWEEP_GEODESICS)
def test_whole_grid_curvature_matches_the_per_parameter_values(name, label):
    from lorentzlab.scenarios import BUILTIN_SCENARIOS
    scen = BUILTIN_SCENARIOS[name]()
    spec = scen.geodesic(label)
    frame = parallel_frame(scen.metric, spec.p0, spec.v0, spec.span)
    ts = np.linspace(*frame.geodesic.span, 41)
    for f in (None, scen.weight):
        whole = frame.curvature(ts, f)
        assert whole.shape == (41, frame.k, frame.k)
        _assert_close_to_loop(whole, [frame.curvature(t, f) for t in ts])


@pytest.mark.parametrize("label, span, rtol, atol, threshold", [
    DRIFT_SETTINGS[0], DRIFT_SETTINGS[2]])
def test_frame_state_after_a_drift_re_solve_matches_the_pointwise_values(
        ds4, label, span, rtol, atol, threshold):
    spec = ds4.geodesic(label)
    frame = parallel_frame(ds4.metric, spec.p0, spec.v0, span, rtol=rtol,
                           atol=atol, reorth_threshold=threshold)
    drifted = np.array([t for t, _ in frame.reorth_events
                        if t < frame.geodesic.t1])
    assert drifted.size
    # every node where a rejected solve drifted, and parameters on both sides
    ts = np.sort(np.concatenate([drifted, drifted - 1e-3, drifted + 1e-3,
                                 np.linspace(*span, 29)]))
    grid = frame.state(ts)
    for i, t in enumerate(ts):
        for whole, single in zip(grid, frame.state(t)):
            assert np.max(np.abs(whole[i] - single)) <= 1e-14
    assert np.allclose(frame.gram_residual(ts),
                       [frame.gram_residual(t) for t in ts], rtol=0.0, atol=1e-14)


def test_one_geodesic_solution_serves_every_stage(ds4w, ds4w_comoving_run,
                                                  monkeypatch):
    run = ds4w_comoving_run
    assert run.geodesic is run.frame.geodesic
    calls = []
    dense = run.geodesic._dense

    def counted(t, what):
        calls.append(np.shape(t))
        return dense(t, what)
    monkeypatch.setattr(run.geodesic, "_dense", counted)
    run.frame.curvature(0.3)
    assert calls == [()]
    calls.clear()
    x, v, E = run.frame.state(np.linspace(-0.5, 2.0, 9))
    assert calls == [(9,)] and E.shape == (9, 3, 4)


def test_frame_solve_stops_at_a_domain_exit(quartic_2d):
    # the geodesic of test_domain_exit_returns_partial_trajectory
    frame = parallel_frame(quartic_2d, np.array([1.0, 0.0]),
                           np.array([-1.0, 0.0]), (0.0, 5.0))
    geo = frame.geodesic
    assert geo.exited_domain
    assert geo.point(geo.t1)[0] == pytest.approx(0.05, abs=1e-6)
    # the metric degenerates like t^4 toward the exit and the transported row
    # grows like 1/t^2: the Gram residual rises from 8e-12 near the start to
    # 3.8e-8 at the chart time t = 0.073, below the monitor's threshold
    ts = np.linspace(geo.t0, geo.t1, 43)[1:-1]
    assert np.max(frame.gram_residual(ts)) <= 1e-7
    assert frame.reorth_events == []


def test_variation_solve_stops_at_a_domain_exit(quartic_2d):
    # the geodesic of test_domain_exit_returns_partial_trajectory, solved
    # with its variation: the partial trajectory, as the bare solve gives it
    p0, v0 = np.array([1.0, 0.0]), np.array([-1.0, 0.0])
    geo, J = geodesic_variation(quartic_2d, p0, v0, (0.0, 5.0), 1e-9, 1e-11)
    bare = integrate_geodesic(quartic_2d, p0, v0, (0.0, 5.0), normalize=False)
    assert geo.exited_domain
    assert geo.t1 == pytest.approx(bare.t1, abs=1e-9)
    assert geo.point(geo.t1)[0] == pytest.approx(0.05, abs=1e-6)
    # along x = 1 - t the time row of J is d c^t / d v0^t = t
    assert J.shape == (2, 2) and np.isfinite(J).all()
    assert J[0] == pytest.approx([geo.t1, 0.0], abs=1e-8)


@pytest.mark.parametrize("solve, rtol", [(integrate_geodesic, 2e-9),
                                         (integrate_geodesic, 1e-8),
                                         (parallel_frame, 1e-4),
                                         (parallel_frame, 1e-5)])
def test_norm_check_holds_the_geodesic_to_the_callers_rtol(ds4, solve, rtol):
    # de Sitter's null geodesic drifts past 1e-8 at these tolerances, which
    # the bound max(1e-8, 10 rtol) allows
    spec = ds4.geodesic("null_equatorial")
    out = solve(ds4.metric, spec.p0, spec.v0, spec.span, rtol=rtol)
    geo = out.geodesic if solve is parallel_frame else out
    assert 1e-8 < geo.stats["norm_drift"] <= 10.0 * rtol


def test_norm_drift_beyond_the_bound_raises(ds4):
    spec = ds4.geodesic("null_equatorial")
    with pytest.raises(IntegratorFailure):  # drift 3.7e-4 against 1e-8
        integrate_geodesic(ds4.metric, spec.p0, spec.v0, spec.span,
                           rtol=1e-9, atol=1e-4)


@pytest.mark.parametrize("fd_only", [False, True], ids=["callbacks", "fd_only"])
@pytest.mark.parametrize("g11", [0.0, math.nan, math.inf],
                         ids=["singular", "nan", "inf"])
def test_every_solve_raises_singular_metric_where_the_metric_is_lost(g11,
                                                                      fd_only):
    # diag(-1, 1, 1, 1) up to t = 1, then g_11 exactly zero, NaN or infinite:
    # the stage that meets it stops the solve with the typed error
    def matrix(p):
        G = np.diag([-1.0, 1.0, 1.0, 1.0])
        if p[0] > 1.0:
            G[1, 1] = g11
        return G
    g = MetricField(dim=4, matrix=matrix) if fd_only else MetricField(
        dim=4, matrix=matrix, d_matrix=lambda p: np.zeros((4, 4, 4)),
        dd_matrix=lambda p: np.zeros((4, 4, 4, 4)))
    p0, v0, span = np.zeros(4), np.array([1.0, 0.3, 0.2, 0.0]), (0.0, 2.0)
    for solve in (integrate_geodesic, parallel_frame):
        with pytest.raises(SingularMetric):
            solve(g, p0, v0, span)
    with pytest.raises(SingularMetric):
        geodesic_variation(g, p0, v0, span, 1e-9, 1e-11)
    assert integrate_geodesic(g, p0, v0, (0.0, 0.9)).stats["norm_drift"] < 1e-15


def test_solver_stages_validate_nothing(ds4w, monkeypatch):
    # pointwise entries and solved grids validate; stages do not, so the
    # number of validations does not follow the number of stages
    real, checks = MetricField._checked, []

    def counted(self, p):
        checks.append(np.shape(p))
        return real(self, p)
    monkeypatch.setattr(MetricField, "_checked", counted)
    spec = ds4w.geodesic("comoving")
    v0 = np.array([1.1, 0.1, -0.05, 0.2])
    counts, nfevs = [], []
    for rtol in (1e-6, 1e-10):
        checks.clear()
        frame = parallel_frame(ds4w.metric, spec.p0, spec.v0, spec.span,
                               rtol=rtol, atol=1e-2 * rtol)
        jac = integrate_jacobi(frame.curvature, np.zeros((3, 3)), np.eye(3),
                               spec.span, rtol=rtol, atol=1e-2 * rtol)
        geo, _ = geodesic_variation(ds4w.metric, spec.p0, v0, (0.0, 1.5),
                                    rtol, 1e-2 * rtol)
        assert frame.reorth_events == []
        counts.append(len(checks))
        nfevs.append((frame.geodesic.stats["nfev"], jac._sol.nfev,
                      geo.stats["nfev"]))
    assert all(a < b for a, b in zip(*nfevs)), nfevs
    assert counts[0] == counts[1]
