import math

import numpy as np
import pytest

from lorentzlab import (BakryEmeryParams, EndomorphismSeries, INFINITE_M,
                        constant_scalar, curvature_endomorphism,
                        integrate_geodesic, integrate_jacobi,
                        modified_endomorphism, parallel_frame,
                        run_point_congruence, sinh_squared_f)
from lorentzlab.congruence import geodesic_residual, quotient_invariance_residual
from lorentzlab.errors import DomainViolation, ZeroVector
from lorentzlab.scenarios import linear_time_f

from test_jacobi import SWEEP_GEODESICS


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
    geo = integrate_geodesic(mink4.metric, np.zeros(4), [1, 0, 0, 0], (0.0, 5.0))
    frame = parallel_frame(mink4.metric, geo)
    E0 = frame.vectors(0.0)
    E5 = frame.vectors(5.0)
    assert np.max(np.abs(E0 - E5)) < 1e-12
    assert frame.gram_residual(3.3) < 1e-10
    assert frame.reorth_events == []


def test_parallel_frame_de_sitter_warped_transport(ds4):
    spec = ds4.geodesic("comoving")
    geo = integrate_geodesic(ds4.metric, spec.p0, spec.v0, spec.span)
    frame = parallel_frame(ds4.metric, geo)
    for t in (-1.0, 0.0, 1.5):
        assert frame.gram_residual(t) < 1e-9
        assert frame.transport_residual(t) < 1e-6
    # closed-form transport: coordinate components scale like 1/cosh(t)
    E_start = frame.vectors(geo.t0)
    t = 1.0
    expected = E_start * (math.cosh(geo.t0) / math.cosh(t))
    assert np.max(np.abs(frame.vectors(t) - expected)) < 1e-8


def test_null_frame_minkowski(mink4):
    geo = integrate_geodesic(mink4.metric, np.zeros(4), [1, 1, 0, 0], (0.0, 5.0))
    assert geo.character == "null"
    frame = parallel_frame(mink4.metric, geo)
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
    geo = integrate_geodesic(ds4.metric, spec.p0, spec.v0, spec.span)
    frame = parallel_frame(ds4.metric, geo)
    for t in (0.3, 1.0, 1.9):
        assert frame.gram_residual(t) < 1e-8


def test_drift_monitor_records_reorthogonalization(ds4):
    spec = ds4.geodesic("comoving")
    geo = integrate_geodesic(ds4.metric, spec.p0, spec.v0, (-1.2, 6.0))
    frame = parallel_frame(ds4.metric, geo, rtol=1e-3, atol=1e-5,
                           reorth_threshold=1e-9)
    assert frame.reorth_events  # sloppy transport must trip the monitor
    # after each re-orthogonalization the frame is clean again at the end
    assert frame.gram_residual(6.0) < 1e-6


def test_curvature_endomorphism_values(mink4, ds4, static4):
    geo = integrate_geodesic(mink4.metric, np.zeros(4), [1, 0, 0, 0], (0.0, 5.0))
    frame = parallel_frame(mink4.metric, geo)
    assert np.max(np.abs(curvature_endomorphism(mink4.metric, frame, 2.0))) \
        < 1e-12

    spec = ds4.geodesic("comoving")
    geo = integrate_geodesic(ds4.metric, spec.p0, spec.v0, spec.span)
    frame = parallel_frame(ds4.metric, geo)
    for t in (-1.0, 0.0, 2.0):
        R = curvature_endomorphism(ds4.metric, frame, t)
        assert np.max(np.abs(R + np.eye(3))) < 1e-9

    spec = static4.geodesic("comoving")
    geo = integrate_geodesic(static4.metric, spec.p0, spec.v0, spec.span)
    frame = parallel_frame(static4.metric, geo)
    assert np.max(np.abs(curvature_endomorphism(static4.metric, frame, 1.0))) \
        < 1e-10


def test_tilted_einstein_static_eigenvalues(static4):
    # boost chi = asinh(1): transverse eigenvalues sinh^2(chi) = 1, plus one 0
    spec = static4.geodesic("tilted")
    geo = integrate_geodesic(static4.metric, spec.p0, spec.v0, spec.span)
    frame = parallel_frame(static4.metric, geo)
    R = curvature_endomorphism(static4.metric, frame, 1.3)
    eig = np.sort(np.linalg.eigvalsh(R))
    assert np.allclose(eig, [0.0, 1.0, 1.0], atol=1e-8)


def test_null_quotient_endomorphism(ds4, static4):
    # constant curvature: the quotient endomorphism vanishes on null geodesics
    spec = ds4.geodesic("null_equatorial")
    geo = integrate_geodesic(ds4.metric, spec.p0, spec.v0, spec.span)
    frame = parallel_frame(ds4.metric, geo)
    for t in (0.2, 1.1):
        assert np.max(np.abs(curvature_endomorphism(ds4.metric, frame, t))) \
            < 1e-7
        assert quotient_invariance_residual(ds4.metric, frame, t) < 1e-7

    # product with a unit sphere: quotient endomorphism is the identity
    spec = static4.geodesic("null_equatorial")
    geo = integrate_geodesic(static4.metric, spec.p0, spec.v0, spec.span)
    frame = parallel_frame(static4.metric, geo)
    R = curvature_endomorphism(static4.metric, frame, 1.0)
    assert np.max(np.abs(R - np.eye(2))) < 1e-8
    assert quotient_invariance_residual(static4.metric, frame, 1.0) < 1e-7


def test_modified_endomorphism(mink4, ds4):
    # constant weight reduces to the plain endomorphism
    geo = integrate_geodesic(mink4.metric, np.zeros(4), [1, 0, 0, 0], (0.0, 5.0))
    frame = parallel_frame(mink4.metric, geo)
    base = curvature_endomorphism(mink4.metric, frame, 1.0)
    same = modified_endomorphism(mink4.metric, constant_scalar(4.2), frame, 1.0)
    assert np.max(np.abs(base - same)) < 1e-12

    # flat space, linear weight: R_f = (a/3)^2 I
    a = 1.5
    Rf = modified_endomorphism(mink4.metric, linear_time_f(a), frame, 2.0)
    assert np.max(np.abs(Rf - (a / 3.0) ** 2 * np.eye(3))) < 1e-12

    # de Sitter with the sinh^2 weight at t = 0: (-1 + 2K^2/3) I
    K = 2.0
    spec = ds4.geodesic("comoving")
    geo = integrate_geodesic(ds4.metric, spec.p0, spec.v0, spec.span)
    frame = parallel_frame(ds4.metric, geo)
    Rf = modified_endomorphism(ds4.metric, sinh_squared_f(K), frame, 0.0)
    assert np.max(np.abs(Rf - (-1.0 + 2.0 * K ** 2 / 3.0) * np.eye(3))) < 1e-8


def test_endomorphism_series_symmetry(ds4w, ds4w_comoving_run):
    run = ds4w_comoving_run
    series = run.series
    ts = np.linspace(run.geodesic.t0, run.geodesic.t1, 41)
    R = np.array([series(t) for t in ts])
    assert np.max(np.abs(R - np.swapaxes(R, 1, 2))) < 1e-7
    # the series is a view: it evaluates R and R_f where it is asked
    t = 0.5 * (ts[10] + ts[11])
    assert np.array_equal(series(t), curvature_endomorphism(
        ds4w.metric, run.frame, t))
    assert np.array_equal(series.modified(t), modified_endomorphism(
        ds4w.metric, ds4w.weight, run.frame, t))


def test_unweighted_series_modified_is_R(ds4w_comoving_run):
    run = ds4w_comoving_run
    plain = EndomorphismSeries(run.series.g, run.frame)
    assert np.array_equal(plain.modified(0.3), run.series(0.3))


def test_series_outside_the_geodesic_span_is_domain_violation(frw4):
    spec = frw4.geodesic("comoving")
    with pytest.raises(DomainViolation):
        run_point_congruence(frw4.metric, spec.p0, spec.v0, spec.span,
                             f=frw4.weight, jacobi_span=(0.0, 3.5))
    geo = integrate_geodesic(frw4.metric, spec.p0, spec.v0, spec.span)
    series = EndomorphismSeries(frw4.metric, parallel_frame(frw4.metric, geo),
                                frw4.weight)
    for t in (geo.t0 - 0.1, geo.t1 + 1e-9, 3.5):
        for evaluate in (series, series.modified):
            with pytest.raises(DomainViolation):
                evaluate(t)
    assert series(geo.t1).shape == (3, 3)


def test_f_generic_consistency(mink4, ds4w, ds4w_comoving_run):
    # flat space with constant weight: R_f vanishes along every geodesic
    geo = integrate_geodesic(mink4.metric, np.zeros(4), [1, 0.3, 0, 0], (0.0, 4.0))
    frame = parallel_frame(mink4.metric, geo)
    for t in np.linspace(0.0, 4.0, 9):
        assert np.max(np.abs(modified_endomorphism(
            mink4.metric, constant_scalar(0.0), frame, t))) < 1e-12

    # positive weighted curvature at a sample forces R_f != 0 there
    run = ds4w_comoving_run
    params = BakryEmeryParams(m=INFINITE_M)
    ric = run.ric_fm_series(ds4w.metric, ds4w.weight, params,
                            ts=np.array([0.5]))
    assert ric[0] > 0.0
    Rf = modified_endomorphism(ds4w.metric, ds4w.weight, run.frame, 0.5)
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
    geo = integrate_geodesic(g, spec.p0, spec.v0, spec.span)
    frame = parallel_frame(g, geo)
    series = EndomorphismSeries(g, frame, ds4w.weight)
    counts.update(dict.fromkeys(counts, 0))
    for t in np.linspace(geo.t0, geo.t1, 50):
        assert series.modified(t).shape == (3, 3)
    assert counts == {"matrix": 50, "d_matrix": 50, "dd_matrix": 50}
    # a Hessian needs the connection only, not the curvature
    counts.update(dict.fromkeys(counts, 0))
    hessian_scalar(g, ds4w.weight, spec.p0)
    assert counts == {"matrix": 1, "d_matrix": 1, "dd_matrix": 0}


def test_jacobi_solve_evaluates_R_once_per_rhs_call(ds4w):
    g, counts = _counting_metric(ds4w.metric)
    spec = ds4w.geodesic("comoving")
    geo = integrate_geodesic(g, spec.p0, spec.v0, spec.span)
    frame = parallel_frame(g, geo)
    counts.update(dict.fromkeys(counts, 0))
    traj = integrate_jacobi(EndomorphismSeries(g, frame),
                            np.zeros((3, 3)), np.eye(3), geo.span)
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
    from lorentzlab.manifold import local_geometry
    g, counts = _counting_metric(ds4w.metric)
    spec = ds4w.geodesic("comoving")
    run = run_point_congruence(g, spec.p0, spec.v0, spec.span, f=ds4w.weight,
                               diag_ts=np.linspace(-0.5, 2.0, 101))
    ts = np.linspace(-0.5, 2.0, 77)  # two full blocks of 32 rows and a part
    counts.update(dict.fromkeys(counts, 0))
    ric = run.ric_fm_series(g, ds4w.weight, ds4w.params, ts)
    assert counts == {"matrix": 77, "d_matrix": 77, "dd_matrix": 77}
    pointwise = [local_geometry(g, x).bakry_emery(ds4w.weight, ds4w.params, v, v)
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
    # one parameter outside an array is enough
    with pytest.raises(DomainViolation):
        run.geodesic.state(np.array([a, 0.0, t1 + 2.0]))
    traj = run.trajectory
    with pytest.raises(DomainViolation):
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
    frame = parallel_frame(scen.metric, integrate_geodesic(
        scen.metric, spec.p0, spec.v0, spec.span))
    geo = frame.geodesic
    # 41 interior points, so that the transport stencil stays on the span
    ts = np.linspace(geo.t0, geo.t1, 43)[1:-1]
    assert max(frame.gram_residual(t) for t in ts) <= 1e-9
    assert max(frame.transport_residual(t) for t in ts) <= 1e-6
    assert frame.reorth_events == []


@pytest.mark.parametrize("label, span, rtol, atol, threshold", [
    ("comoving", (-1.2, 6.0), 1e-3, 1e-5, 1e-9),  # the drift test's setting
    ("null_equatorial", (0.0, 2.0), 1e-7, 1e-9, 1e-11),
])
def test_frame_state_across_a_restart_matches_the_pointwise_values(
        ds4, label, span, rtol, atol, threshold):
    spec = ds4.geodesic(label)
    geo = integrate_geodesic(ds4.metric, spec.p0, spec.v0, span)
    frame = parallel_frame(ds4.metric, geo, rtol=rtol, atol=atol,
                           reorth_threshold=threshold)
    restarts = np.array([t for t, _ in frame.reorth_events if t < geo.t1])
    assert restarts.size
    # every restart node, and parameters on both sides of each
    ts = np.sort(np.concatenate([restarts, restarts - 1e-3, restarts + 1e-3,
                                 np.linspace(*span, 29)]))
    grid = frame.state(ts)
    for i, t in enumerate(ts):
        for whole, single in zip(grid, frame.state(t)):
            assert np.max(np.abs(whole[i] - single)) <= 1e-14
    assert np.allclose(frame.gram_residual(ts),
                       [frame.gram_residual(t) for t in ts], rtol=0.0, atol=1e-14)
    # each restart starts from a clean frame, null partner included
    assert np.max(frame.gram_residual(restarts + 1e-6)) <= 1e-14


def test_one_geodesic_solution_serves_every_stage(ds4w, ds4w_comoving_run,
                                                  monkeypatch):
    run = ds4w_comoving_run
    assert run.geodesic is run.frame.geodesic
    calls = []
    dense = run.geodesic._dense

    def counted(t):
        calls.append(np.shape(t))
        return dense(t)
    monkeypatch.setattr(run.geodesic, "_dense", counted)
    curvature_endomorphism(ds4w.metric, run.frame, 0.3)
    assert calls == [()]
    calls.clear()
    x, v, E = run.frame.state(np.linspace(-0.5, 2.0, 9))
    assert calls == [(9,)] and E.shape == (9, 3, 4)
