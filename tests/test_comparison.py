import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lorentzlab import (INFINITE_M, BakryEmeryParams, SampleSpec,
                        check_f_generic, check_timelike_convergence,
                        constant_scalar, f_laplacian_distance,
                        integrate_geodesic, parallel_frame,
                        schwarz_equality_residual, schwarz_gap, sinh_squared_f,
                        trace_identity_check)
from lorentzlab.errors import NoMaximalGeodesic, OutsideUniquenessRegion
from lorentzlab.scenarios import equator_point, linear_time_f


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


def test_f_generic_reports(mink4, ds4):
    geo = integrate_geodesic(mink4.metric, np.zeros(4), [1, 0, 0, 0], (0.0, 5.0))
    frame = parallel_frame(mink4.metric, geo)
    rep = check_f_generic(mink4.metric, mink4.weight, frame)
    assert not rep.holds and rep.witness_t is None

    spec = ds4.geodesic("comoving")
    geo = integrate_geodesic(ds4.metric, spec.p0, spec.v0, spec.span)
    frame = parallel_frame(ds4.metric, geo)
    rep = check_f_generic(ds4.metric, ds4.weight, frame)
    assert rep.holds and rep.witness_t == pytest.approx(spec.span[0])

    # flat space with a quadratic-in-time weight: Hessian term switches it on
    quad = sinh_squared_f(1.0)  # sinh^2 ~ t^2 near 0, Hessian 2 at t = 0
    geo = integrate_geodesic(mink4.metric, np.zeros(4), [1, 0, 0, 0], (0.0, 3.0))
    frame = parallel_frame(mink4.metric, geo)
    rep = check_f_generic(mink4.metric, quad, frame)
    assert rep.holds


def test_trace_identity_examples(mink4, ds4):
    # flat, linear weight: both sides equal a^2/3 for m = 2
    a = 1.0
    geo = integrate_geodesic(mink4.metric, np.zeros(4), [1, 0, 0, 0], (0.0, 5.0))
    frame = parallel_frame(mink4.metric, geo)
    res = trace_identity_check(mink4.metric, linear_time_f(a),
                               BakryEmeryParams(m=2.0), frame, 2.0)
    assert res < 1e-12

    spec = ds4.geodesic("comoving")
    geo = integrate_geodesic(ds4.metric, spec.p0, spec.v0, spec.span)
    frame = parallel_frame(ds4.metric, geo)
    res = trace_identity_check(ds4.metric, ds4.weight, ds4.params, frame, 0.5)
    assert res < 1e-6
    res = trace_identity_check(ds4.metric, sinh_squared_f(2.0),
                               BakryEmeryParams(m=INFINITE_M), frame, 0.5)
    assert res < 1e-6
    res = trace_identity_check(ds4.metric, sinh_squared_f(2.0),
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
