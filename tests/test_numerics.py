"""The in-house integrator, root finder and shooting against scipy.

scipy is a test dependency only: solve_ivp, brentq and root serve here as
oracles for numerics.ode_solve, numerics.brent_root and the Newton shooting
of comparison._shoot_to_target.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq, root

from lorentzlab import (f_laplacian_distance, integrate_geodesic,
                        integrate_jacobi, run_point_congruence, scenarios)
from lorentzlab import comparison, congruence, jacobi
from lorentzlab.congruence import geodesic_variation
from lorentzlab.errors import (DomainViolation, LorentzLabError,
                               NoMaximalGeodesic, SingularMetric)
from lorentzlab.manifold import MetricField
from lorentzlab.numerics import (DEFAULT_ATOL, DEFAULT_RTOL, RTOL_FLOOR,
                                 brent_root, ode_solve)

from test_jacobi import SWEEP_GEODESICS

# fixed before the integrator was written: dense outputs agree to this,
# relative to max(1, |y|); step times, nfev and event times agree exactly
DENSE_BOUND = 1e-14
# the 24 packaged shooting pairs agree with the parent's root to this
PAIR_RTOL = 1e-10


def _scipy_solve(rhs, span, y0, rtol, atol, events):
    """solve_ivp on the same problem, every event terminal."""
    terminal = None
    if events is not None:
        terminal = []
        for event in events:
            def copy(t, y, event=event):
                return event(t, y)
            copy.terminal = True
            terminal.append(copy)
    return solve_ivp(rhs, span, y0, method="RK45", rtol=rtol, atol=atol,
                     dense_output=True, events=terminal)


@pytest.fixture
def recorded_solves(monkeypatch):
    """Every ode_solve as (rhs, span, y0, rtol, atol, events, result)."""
    calls = []

    def recording(rhs, span, y0, rtol, atol, events=None):
        out = ode_solve(rhs, span, y0, rtol=rtol, atol=atol, events=events)
        calls.append((rhs, span, np.array(y0, dtype=float), rtol, atol,
                      events, out))
        return out
    for module in (congruence, jacobi):
        monkeypatch.setattr(module, "ode_solve", recording)
    return calls


def _assert_matches_solve_ivp(rhs, span, y0, rtol, atol, events, ours):
    ref = _scipy_solve(rhs, span, y0, rtol, atol, events)
    assert np.array_equal(ours.t, ref.t)
    assert ours.nfev == ref.nfev and ours.status == ref.status
    ts = np.concatenate([np.linspace(ref.t[0], ref.t[-1], 97), ref.t])
    want = ref.sol(ts)
    assert np.all(np.abs(ours.sol(ts) - want)
                  <= DENSE_BOUND * np.maximum(1.0, np.abs(want)))
    for t in ts[::7]:
        want = ref.sol(t)
        assert np.all(np.abs(ours.sol(t) - want)
                      <= DENSE_BOUND * np.maximum(1.0, np.abs(want)))
    return ref


@pytest.mark.parametrize("name, label", SWEEP_GEODESICS)
def test_solves_along_the_sweep_geodesics_match_solve_ivp(name, label,
                                                          recorded_solves):
    scen = scenarios.BUILTIN_SCENARIOS[name]()
    spec = scen.geodesic(label)
    integrate_geodesic(scen.metric, spec.p0, spec.v0, spec.span)
    run_point_congruence(scen.metric, spec.p0, spec.v0, spec.span,
                         f=scen.weight)
    # the bare geodesic, the geodesic with its frame, the Jacobi tensor
    assert len(recorded_solves) == 3
    for call in recorded_solves:
        _assert_matches_solve_ivp(*call)


def test_domain_exit_event_matches_solve_ivp(quartic_2d, recorded_solves):
    geo = integrate_geodesic(quartic_2d, np.array([1.0, 0.0]),
                             np.array([-1.0, 0.0]), (0.0, 5.0),
                             normalize=False)
    assert geo.exited_domain
    (call,) = recorded_solves
    ref = _assert_matches_solve_ivp(*call)
    assert ref.status == 1
    event_times = [t for te in ref.t_events for t in te]
    assert event_times == [geo.t1]


def test_brent_root_matches_brentq_on_det_A_brackets(monkeypatch):
    brackets = []

    def recording(fun, a, b, xtol):
        brackets.append((fun, a, b, xtol))
        return brent_root(fun, a, b, xtol=xtol)
    monkeypatch.setattr(jacobi, "brent_root", recording)
    I3 = np.eye(3)
    # A = sin(t) E, and a mixed R with zeros of odd order at distinct places
    trajs = [integrate_jacobi(I3, np.zeros((3, 3)), I3, (0.0, 10.0)),
             integrate_jacobi(np.diag([1.0, 2.5, 4.0]), I3,
                              np.diag([0.3, -0.2, 0.5]), (0.0, 7.0))]
    for traj in trajs:
        jacobi.detect_conjugate(traj)
    assert len(brackets) >= 10
    for fun, a, b, xtol in brackets:
        assert brent_root(fun, a, b, xtol=xtol) == brentq(fun, a, b, xtol=xtol)
    # and on a scalar function with an inexact, interior root
    f = lambda x: np.cos(x) - x ** 3  # noqa: E731
    assert brent_root(f, 0.0, 2.0, xtol=1e-14) == brentq(f, 0.0, 2.0, xtol=1e-14)
    with pytest.raises(ValueError):
        brent_root(f, 0.0, 0.5, xtol=1e-12)


def test_ode_solve_refuses_rtol_below_the_integrator_floor():
    rhs = lambda t, y: -y  # noqa: E731
    with pytest.raises(ValueError, match="floor"):
        ode_solve(rhs, (0.0, 1.0), [1.0], rtol=1e-16)
    sol = ode_solve(rhs, (0.0, 1.0), [1.0], rtol=RTOL_FLOOR, atol=0.0)
    assert sol.sol(1.0)[0] == pytest.approx(np.exp(-1.0), rel=1e-11)


def test_dense_output_off_its_span_is_domain_violation():
    sol = ode_solve(lambda t, y: -y, (1.0, -1.0), [1.0])
    assert sol.sol(np.array([1.0, 0.0, -1.0])).shape == (1, 3)
    for t in (1.5, -1.5, np.array([0.0, -2.0])):
        with pytest.raises(DomainViolation):
            sol.sol(t)


# the tolerances of f_laplacian_distance's shots at the default tolerances
SHOT_RTOL = DEFAULT_RTOL * comparison._SHOT_TOL_FACTOR
SHOT_ATOL = DEFAULT_ATOL * comparison._SHOT_TOL_FACTOR


def _packaged_shots(name):
    """(g, [(apex, v, span)]) of the packaged f_laplacian_bounds pairs of a
    scenario: Newton's initial guess, the past-directed comoving unit
    velocity over the coordinate time back to q, is its accepted shot."""
    scen = scenarios.BUILTIN_SCENARIOS[name]()
    meta = scen.expectations["f_laplacian"]
    if meta["mode"] == "flat":
        pairs = [(np.zeros(4), rho) for rho in meta["rhos"]]
    else:
        pairs = [(scenarios.equator_point(4, t_apex), rho)
                 for t_apex in meta["apex_ts"] for rho in meta["rhos"]]
    v = np.array([-1.0, 0.0, 0.0, 0.0])
    return scen.metric, [(apex, v, (0.0, rho)) for apex, rho in pairs]


def _variation_lanes(g, shots):
    """(rhs, spans, y0, events) of the geodesic_variation solves of shots."""
    n = g.dim
    y0 = np.stack([np.concatenate([p, v, np.zeros(n * n), np.eye(n).ravel()])
                   for p, v, _ in shots])
    events = congruence._initial_data(g, *shots[0][:2], normalize=False)[3]
    return (congruence._variation_rhs(g), [span for _, _, span in shots], y0,
            events)


def _assert_same_solve(lane, solo):
    assert np.array_equal(lane.t, solo.t)
    assert lane.nfev == solo.nfev and lane.status == solo.status
    for field in ("ts", "h", "y0", "Q"):
        assert np.array_equal(getattr(lane.sol, field),
                              getattr(solo.sol, field))


def _solve_lanes(rhs, spans, y0, events):
    """The ensemble solve of the lanes, and the solo solve of each, the
    error a solo solve raises in its place."""
    ensemble = ode_solve(rhs, spans, y0, rtol=SHOT_RTOL, atol=SHOT_ATOL,
                         events=events)
    solos = []
    for span, y in zip(spans, y0):
        try:
            solos.append(ode_solve(rhs, span, y, rtol=SHOT_RTOL, atol=SHOT_ATOL,
                                   events=events))
        except LorentzLabError as err:
            solos.append(err)
    return ensemble, solos


@pytest.mark.parametrize("name", ["minkowski4", "de_sitter4_weighted"])
def test_the_packaged_shots_step_as_lanes_as_they_do_solo(name):
    # the 24 packaged pairs: each lane's step times, nfev, status and dense
    # output equal its solo solve's, bit for bit
    ensemble, solos = _solve_lanes(*_variation_lanes(*_packaged_shots(name)))
    assert len(ensemble.lanes) in (4, 20)
    for lane, solo in zip(ensemble.lanes, solos):
        _assert_same_solve(lane, solo)
    # the stack shrank as lanes ended: fewer stacked calls than solo calls,
    # and every lane's accepted step times are among its lockstep times
    assert ensemble.nfev < sum(solo.nfev for solo in solos)
    assert ensemble.t.shape[1] == len(solos)
    for column, solo in zip(ensemble.t.T, solos):
        assert set(solo.t) <= set(column)


def test_a_lane_leaving_the_chart_or_meeting_a_singular_metric_ends_alone():
    """Next to the 20 weighted de Sitter shots: a lane that runs into the
    pole margin of the angular chart stops there with status 1, as solo; a
    lane that reaches t > 2.5, where the metric is made NaN, ends with
    SingularMetric, found by evaluating its failing stack row by row.  Every
    other lane is its solo solve, bit for bit."""
    g, shots = _packaged_shots("de_sitter4_weighted")
    lost = MetricField(dim=4, matrix=lambda p: (g.matrix(p) if p[0] <= 2.5
                                                else np.full((4, 4), np.nan)),
                       d_matrix=g.d_matrix, dd_matrix=g.dd_matrix,
                       domain=g.domain)
    apex = scenarios.equator_point(4, 1.0)
    polar = np.array([0.0, 1.0, 0.0, 0.0])
    polar[0] = -np.sqrt(1.0 + g.at(apex)[1, 1])
    shots = (shots[:7] + [(apex, polar, (0.0, 2.0))] + shots[7:14]
             + [(scenarios.equator_point(4, 2.0), np.array([1.0, 0, 0, 0]),
                 (0.0, 1.0))] + shots[14:])
    ensemble, solos = _solve_lanes(*_variation_lanes(lost, shots))
    # the row-by-row evaluation adds calls to the two starting calls and six
    # per round
    assert ensemble.nfev > 2 + 6 * (len(ensemble.t) - 1)
    assert solos[7].status == 1 and solos[7].t[-1] < 2.0
    assert isinstance(solos[15], SingularMetric)
    assert isinstance(ensemble.lanes[15], SingularMetric)
    for k, (lane, solo) in enumerate(zip(ensemble.lanes, solos)):
        if k != 15:
            _assert_same_solve(lane, solo)


def test_a_vector_y0_is_the_one_lane_ensemble():
    rhs = lambda t, y: np.stack([y[..., 1], -y[..., 0]], axis=-1)  # noqa: E731
    solo = ode_solve(rhs, (0.0, 7.0), [1.0, 0.0])
    (lane,) = ode_solve(rhs, [(0.0, 7.0)], [[1.0, 0.0]]).lanes
    _assert_same_solve(lane, solo)
    # an empty span: one right-hand-side call and a constant segment
    empty = ode_solve(rhs, [(0.0, 7.0), (2.0, 2.0)], [[1.0, 0.0], [0.0, 1.0]])
    _assert_same_solve(empty.lanes[0], solo)
    assert empty.lanes[1].nfev == 1 and empty.lanes[1].status == 0
    assert np.array_equal(empty.lanes[1].sol(2.0), [0.0, 1.0])


def test_geodesic_variation_matches_finite_differences(ds4w):
    spec = ds4w.geodesic("comoving")
    v0 = np.array([1.1, 0.1, -0.05, 0.2])
    span = (0.0, 1.5)
    geo, J = geodesic_variation(ds4w.metric, spec.p0, v0, span, 1e-9, 1e-11)
    assert np.allclose(geo.point(1.5),
                       integrate_geodesic(ds4w.metric, spec.p0, v0, span,
                                          normalize=False).point(1.5),
                       rtol=0.0, atol=1e-8)
    h = 1e-5
    for i in range(4):
        dv = np.zeros(4)
        dv[i] = h
        ends = [integrate_geodesic(ds4w.metric, spec.p0, v0 + s * dv, span,
                                   rtol=1e-12, atol=1e-14,
                                   normalize=False).point(1.5)
                for s in (1.0, -1.0)]
        assert np.allclose(J[:, i], (ends[0] - ends[1]) / (2.0 * h),
                           rtol=0.0, atol=1e-6)


PARENT_PAIRS = [  # (scenario, apex t, target t, value, rho, slacks)
    ('minkowski4', 0.0, -0.5, -6.0, 0.5, 4.0, 0.0),
    ('minkowski4', 0.0, -1.0, -3.0, 1.0, 2.0, 0.0),
    ('minkowski4', 0.0, -2.0, -1.5, 1.9999999999999996, 1.0000000000000004, 4.440892098500626e-16),
    ('minkowski4', 0.0, -5.0, -0.6000000000000001, 5.0, 0.3999999999999999, -1.1102230246251565e-16),
    ('de_sitter4_weighted', 0.5, 0.09999999999999998, -8.717301977152337, 0.39999999999999997, None, 1.1051859714481918),
    ('de_sitter4_weighted', 0.5, -0.30000000000000004, -1.4988993953599614, 0.8, None, 1.9941568342587281),
    ('de_sitter4_weighted', 0.5, -0.7, 12.785224075854678, 1.2, None, 10.459821707998877),
    ('de_sitter4_weighted', 0.5, -1.1, 78.18362511657143, 1.5999999999999999, None, 58.9320712937985),
    ('de_sitter4_weighted', 0.5, -1.5, 400.31437057835814, 1.9999999999999998, None, 313.79030362828206),
    ('de_sitter4_weighted', 1.0, 0.6, -18.828255752899338, 0.4, None, 8.878888803833227),
    ('de_sitter4_weighted', 1.0, 0.19999999999999996, -6.294034070558577, 0.8, None, 6.097379752398461),
    ('de_sitter4_weighted', 1.0, -0.19999999999999996, -1.822400668244034, 1.2, None, 4.455088122913372),
    ('de_sitter4_weighted', 1.0, -0.6000000000000001, 7.677492218859058, 1.6, None, 9.278242662436796),
    ('de_sitter4_weighted', 1.0, -1.0, 51.46789023205746, 2.0, None, 42.72501346369271),
    ('de_sitter4_weighted', 1.5, 1.1, -89.33438865061281, 0.3999999999999997, None, 67.88958776168143),
    ('de_sitter4_weighted', 1.5, 0.7, -20.901658814656393, 0.7999999999999998, None, 48.12666465492622),
    ('de_sitter4_weighted', 1.5, 0.30000000000000004, -6.6175353434405935, 1.2, None, 29.131171130829955),
    ('de_sitter4_weighted', 1.5, -0.10000000000000009, -2.4334615568841347, 1.6, None, 18.504531266993354),
    ('de_sitter4_weighted', 1.5, -0.5, 4.141776653500612, 1.9999999999999998, None, 16.59442991911073),
    ('de_sitter4_weighted', 2.0, 1.6, -609.7391736403573, 0.3999999999999999, None, 504.13547962338987),
    ('de_sitter4_weighted', 2.0, 1.2, -126.02000987787005, 0.8, None, 360.26823085602655),
    ('de_sitter4_weighted', 2.0, 0.8, -28.090380625746267, 1.2, None, 220.80841104630596),
    ('de_sitter4_weighted', 2.0, 0.3999999999999999, -8.006102114893094, 1.6, None, 137.58056636381204),
    ('de_sitter4_weighted', 2.0, 0.0, -3.111944162200992, 1.9999999999999998, None, 91.04298244976674),
]


def test_newton_shooting_reproduces_the_packaged_pairs():
    """The pairs of the packaged f_laplacian_bounds checks, built as
    cli.check_f_laplacian builds them, against the values the hybrid
    (finite-difference Jacobian) root finder gave."""
    scens = {name: scenarios.BUILTIN_SCENARIOS[name]()
             for name in ("minkowski4", "de_sitter4_weighted")}
    for name, t_apex, t_q, value, rho, slack_fin, slack_inf in PARENT_PAIRS:
        scen = scens[name]
        flat = scen.expectations["f_laplacian"]["mode"] == "flat"
        apex = np.zeros(4) if flat else scenarios.equator_point(4, t_apex)
        q = apex.copy()
        q[0] = t_q
        rep = f_laplacian_distance(scen.metric, scen.weight, apex, q,
                                   m=2.0 if flat else None,
                                   uniqueness=scen.uniqueness)
        for got, want in ((rep.value, value), (rep.rho, rho),
                          (rep.slack_finite, slack_fin),
                          (rep.slack_infinite, slack_inf)):
            if want is None:
                assert got is None
            else:
                assert abs(got - want) <= PAIR_RTOL * max(1.0, abs(want))


def _hybr_shooting_root(g, apex, q):
    """(w, rho) from scipy's hybrid root of the residual Newton shoots on,
    from the same initial guess."""
    G = g.at(apex)

    def residual(x):  # the past-directed unit velocity with spatial part w
        w, rho = x[:-1], x[-1]
        a, b = G[0, 0], 2.0 * (G[0, 1:] @ w)
        c = float(w @ G[1:, 1:] @ w) + 1.0
        if rho <= 0.0 or b * b < 4.0 * a * c:
            return np.full(4, 1e3)
        roots = (-b + np.array([-1.0, 1.0]) * np.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
        u = np.concatenate([[roots.min()], w])
        return integrate_geodesic(g, apex, u, (0.0, rho), rtol=1e-10,
                                  atol=1e-12, normalize=False).point(rho) - q
    dp = q - apex
    guess = np.sqrt(-float(dp @ G @ dp))
    ref = root(residual, np.concatenate([dp[1:] / guess, [guess]]), tol=1e-12)
    assert ref.success
    return ref.x


def _assert_shot_matches_hybr(g, apex, q, v, rho):
    assert g.inner(apex, v, v) == pytest.approx(-1.0, abs=1e-12)
    end = integrate_geodesic(g, apex, v, (0.0, rho), rtol=1e-10, atol=1e-12,
                             normalize=False).point(rho)
    assert np.max(np.abs(end - q)) <= 1e-9
    assert np.allclose(np.concatenate([v[1:], [rho]]),
                       _hybr_shooting_root(g, apex, q), rtol=0.0, atol=1e-8)


def test_newton_shooting_off_the_comoving_direction_matches_root(ds4w):
    """A target the initial guess misses: Newton's root against the hybrid
    root scipy finds for the same residual from the same guess."""
    g = ds4w.metric
    apex = scenarios.equator_point(4, 1.5)
    q = apex + np.array([-1.0, 0.15, -0.1, 0.2])
    v, rho, _, _ = comparison._shoot_to_target(g, apex, q, 1e-10, 1e-12)
    _assert_shot_matches_hybr(g, apex, q, v, rho)


def test_a_newton_step_that_grows_the_residual_is_halved(ds4w, monkeypatch):
    """A target far off the comoving direction, 0.9 proper length units
    aside at one unit of coordinate time back (the target above is 0.63
    aside): the first full Newton step solves but overshoots, so its half is
    taken; the root still matches scipy's hybrid root."""
    g = ds4w.metric
    apex = scenarios.equator_point(4, 1.5)
    G = g.at(apex)
    aside = np.array([0.15, -0.1, 0.2])
    aside *= 0.9 / np.sqrt(aside @ G[1:, 1:] @ aside)
    q = apex + np.concatenate([[-1.0], aside])
    real, shots = comparison.geodesic_variation, []

    def recorded(g, p0, v0, spans, **kwargs):
        solved = real(g, p0, v0, spans, **kwargs)
        for (_, rho), (geo, _) in zip(spans, solved):
            shots.append((rho, np.max(np.abs(geo.point(rho) - q))))
        return solved
    monkeypatch.setattr(comparison, "geodesic_variation", recorded)
    v, rho, _, _ = comparison._shoot_to_target(g, apex, q, 1e-10, 1e-12)
    (rho0, res0), (rho1, res1), (rho2, res2) = shots[:3]
    assert res1 > res0 > res2
    assert rho2 - rho0 == pytest.approx((rho1 - rho0) / 2, rel=1e-12)
    _assert_shot_matches_hybr(g, apex, q, v, rho)


def test_a_newton_step_whose_solve_fails_is_halved(ds4w, monkeypatch):
    g = ds4w.metric
    apex = scenarios.equator_point(4, 1.5)
    q = apex + np.array([-1.0, 0.15, -0.1, 0.2])
    want_v, want_rho, _, _ = comparison._shoot_to_target(g, apex, q, 1e-9, 1e-11)
    real, rhos = comparison.geodesic_variation, []

    def failing(fail, g, p0, v0, spans, **kwargs):
        # lane by lane: a failing trial ends its lane with the error unsolved
        out = []
        for lane in zip(p0, v0, spans):
            rhos.append(lane[2][1])
            out += ([DomainViolation("this trial leaves the chart")]
                    if fail(len(rhos))
                    else real(g, *([x] for x in lane), **kwargs))
        return out
    # the first Newton trial fails, and its half step is taken instead
    monkeypatch.setattr(comparison, "geodesic_variation",
                        lambda *a, **k: failing(lambda i: i == 2, *a, **k))
    v, rho, _, _ = comparison._shoot_to_target(g, apex, q, 1e-9, 1e-11)
    assert rhos[2] - rhos[0] == pytest.approx((rhos[1] - rhos[0]) / 2,
                                              rel=1e-12)
    assert np.allclose(v, want_v, rtol=0.0, atol=1e-10)
    assert rho == pytest.approx(want_rho, abs=1e-10)
    # every trial fails: NoMaximalGeodesic after _STEP_HALVINGS halvings
    rhos.clear()
    monkeypatch.setattr(comparison, "geodesic_variation",
                        lambda *a, **k: failing(lambda i: i > 1, *a, **k))
    with pytest.raises(NoMaximalGeodesic, match="halvings"):
        comparison._shoot_to_target(g, apex, q, 1e-9, 1e-11)
    assert len(rhos) == 1 + comparison._STEP_HALVINGS + 1


def test_lockstep_newton_keeps_each_pairs_solo_trials(ds4w, monkeypatch):
    """One pair halves a Newton step (the target of the test above) while
    three comoving pairs converge at once; in lockstep each pair's sequence
    of trial shots, and its root, equal those of its solo run."""
    g = ds4w.metric
    apex = scenarios.equator_point(4, 1.5)
    aside = np.array([0.15, -0.1, 0.2])
    aside *= 0.9 / np.sqrt(aside @ g.at(apex)[1:, 1:] @ aside)
    pairs = [(apex, apex + np.concatenate([[-1.0], aside]))]
    for t_apex in (0.5, 1.0, 2.0):
        comoving = scenarios.equator_point(4, t_apex)
        pairs.append((comoving, comoving - [0.8, 0.0, 0.0, 0.0]))
    real, calls = comparison.geodesic_variation, []

    def recorded(g, p0, v0, spans, **kwargs):
        # the apexes differ, so a lane's apex names its pair
        calls.append([(p[0], tuple(v), span[1])
                      for p, v, span in zip(p0, v0, spans)])
        return real(g, p0, v0, spans, **kwargs)
    monkeypatch.setattr(comparison, "geodesic_variation", recorded)

    def trials(lanes):
        return {t_apex: [lane[1:] for lane in lanes if lane[0] == t_apex]
                for t_apex in (1.5, 0.5, 1.0, 2.0)}
    together = comparison._shoot(g, pairs, 1e-10, 1e-12)
    lockstep = trials([lane for call in calls for lane in call])
    for pair, got in zip(pairs, together):
        calls.clear()
        v, rho, _, steps = comparison._shoot_to_target(g, *pair, 1e-10, 1e-12)
        t_apex = pair[0][0]
        assert lockstep[t_apex] == trials([lane for call in calls
                                           for lane in call])[t_apex]
        assert np.array_equal(got[0], v) and (got[1], got[3]) == (rho, steps)
    # the halving pair shot more trials than steps plus one; the comoving
    # pairs shot once, in the first stack, beside its initial guess
    assert len(lockstep[1.5]) > together[0][3] + 1
    assert [len(lockstep[t]) for t in (0.5, 1.0, 2.0)] == [1, 1, 1]


def test_newton_shooting_reports_an_unreachable_target(mink4):
    # q is null separated from the apex: no timelike geodesic reaches it
    with pytest.raises(NoMaximalGeodesic):
        comparison._shoot_to_target(mink4.metric, np.zeros(4),
                                    np.array([-1.0, 1.0, 0.0, 0.0]),
                                    1e-9, 1e-11)


def test_the_runtime_imports_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, lorentzlab, lorentzlab.cli; "
            "mods = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); "
            "assert not mods, mods")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
