import math

import numpy as np
import pytest

from lorentzlab import (INFINITE_M, BakryEmeryParams, NormalCongruenceSpec,
                        asymptotic_lagrange, boundary_jacobi, constant_scalar,
                        d_s_integral_formula, detect_conjugate, integrate_jacobi,
                        kinematics, lagrange_defect, mean_curvature_evolution,
                        raychaudhuri_residual, run_point_congruence,
                        run_synthetic_congruence, verify_interval_finite_m,
                        verify_interval_infinite, verify_null_focal_bound)
from lorentzlab.errors import (ConjugatePointInRange, InvalidInitialData,
                               QuadratureNearSingularity)
from lorentzlab.jacobi import jacobi_residual
from lorentzlab.numerics import stencil_derivative

I3 = np.eye(3)
Z3 = np.zeros((3, 3))
TIGHT = {"rtol": 1e-12, "atol": 1e-14}


# ---------------------------------------------------------------------------
# the matrix oscillator itself
# ---------------------------------------------------------------------------

def test_closed_forms():
    flat = integrate_jacobi(Z3, Z3, I3, (0.0, 5.0))
    assert np.max(np.abs(flat.A(3.7) - 3.7 * I3)) < 1e-9

    focusing = integrate_jacobi(I3, Z3, I3, (0.0, 5.0))
    assert np.max(np.abs(focusing.A(2.0) - math.sin(2.0) * I3)) < 1e-8

    defocusing = integrate_jacobi(-I3, Z3, I3, (0.0, 5.0))
    assert np.max(np.abs(defocusing.A(2.0) - math.sinh(2.0) * I3)) < 1e-7
    # no zeros for t > 0
    assert not detect_conjugate(defocusing).zeros


def test_invalid_initial_data_rejected():
    with pytest.raises(InvalidInitialData):
        integrate_jacobi(Z3, Z3, np.diag([1.0, 1.0, 0.0]), (0.0, 1.0))


def test_ode_residual_and_rank_margin():
    traj = integrate_jacobi(I3, Z3, I3, (0.0, 5.0))
    for t in (1.0, 2.5, 4.0):
        assert jacobi_residual(traj, t) < 1e-7
        assert traj.stacked_rank_margin(t) > 1e-10  # true even at t = pi


def test_lagrange_defect_closed_forms():
    flat = integrate_jacobi(Z3, Z3, I3, (0.0, 5.0))
    assert lagrange_defect(flat, 2.0) == 0.0
    focusing = integrate_jacobi(I3, Z3, I3, (0.0, 5.0))
    assert lagrange_defect(focusing, 2.0) < 1e-10


def test_lagrange_defect_constant_for_random_data():
    rng = np.random.default_rng(42)
    A0p = rng.normal(size=(3, 3))          # nonsymmetric: genuinely non-Lagrange
    traj = integrate_jacobi(I3, I3, A0p, (0.0, 3.0), **TIGHT)
    defects = [lagrange_defect(traj, t) for t in np.linspace(0.0, 3.0, 61)]
    assert max(defects) > 1e-3             # not a Lagrange tensor
    assert max(defects) - min(defects) < 1e-9


def test_kinematics_flat_expansion():
    traj = integrate_jacobi(Z3, Z3, I3, (0.0, 10.0))
    ts = np.linspace(0.2, 10.0, 601)
    diag = kinematics(traj, ts=ts, n=4)
    assert np.max(np.abs(diag.theta_f - 3.0 / ts)) < 1e-9
    a = 0.7
    diag_f = kinematics(traj, fprime=lambda t: a, ts=ts, n=4)
    assert np.max(np.abs(diag_f.theta_f - (3.0 / ts - a))) < 1e-9
    # the weight shifts only the trace part: shear and vorticity are unchanged
    assert np.nanmax(np.abs(diag_f.sigma_f - diag.sigma_f)) < 1e-10
    assert np.nanmax(np.abs(diag_f.omega_f - diag.omega_f)) < 1e-10
    assert np.nanmin(diag.tr_sigma2) > -1e-12


def test_kinematics_focusing_value_and_logdet_identity():
    traj = integrate_jacobi(I3, Z3, I3, (0.0, 2.8), **TIGHT)
    ts = np.linspace(0.5, 2.8, 1151)
    diag = kinematics(traj, ts=ts, n=4)
    theta_2 = diag.theta_f_at(2.0)
    assert abs(theta_2 - 3.0 / math.tan(2.0)) < 1e-8
    assert np.nanmax(diag.logdet_identity_residual) < 1e-6


def test_kinematics_masks_singular_samples():
    traj = integrate_jacobi(I3, Z3, I3, (0.0, 5.0))
    ts = np.union1d(np.linspace(2.0, 4.0, 401), [math.pi])
    diag = kinematics(traj, ts=ts, n=4)
    # at the conjugate parameter |theta_f| exceeds the blow-up guard -> masked
    at_pi = np.isclose(ts, math.pi)
    assert not diag.mask[at_pi].any()
    assert diag.mask.sum() >= len(ts) - 3  # everything else stays usable


# ---------------------------------------------------------------------------
# weighted Raychaudhuri identity
# ---------------------------------------------------------------------------

def test_raychaudhuri_flat_zero_weight():
    traj, diag = run_synthetic_congruence(Z3, 3, Z3, I3, (0.0, 10.0),
                                          diag_ts=np.linspace(1.0, 10.0, 901))
    rep = raychaudhuri_residual(diag, np.zeros(901), 2.0)
    assert rep.max_residual < 1e-6  # stencil truncation near t = 1 dominates


def test_raychaudhuri_focusing_finite_m():
    ts = np.linspace(0.4, 2.9, 1001)
    traj, diag = run_synthetic_congruence(I3, 3, Z3, I3, (0.0, 3.0), diag_ts=ts)
    ric = np.full(len(ts), 3.0)  # tr R with zero weight
    rep = raychaudhuri_residual(diag, ric, 2.0)
    assert rep.max_residual < 5e-5
    assert np.nanmin(rep.slack_finite) > -1e-8
    # with zero weight the infinite form is an equality: slack is zero up to
    # the differentiation error
    assert np.nanmin(rep.slack_infinite) > -5e-5
    # nonnegative curvature + Lagrange data: theta_f never increases
    assert np.all(np.diff(diag.theta_f[diag.mask]) <= 1e-10)


def test_raychaudhuri_weighted_de_sitter(ds4w, ds4w_comoving_run):
    run = ds4w_comoving_run
    params = BakryEmeryParams(m=INFINITE_M)
    ric = run.ric_fm_series(ds4w.metric, ds4w.weight, params)
    rep = raychaudhuri_residual(run.diagnostics, ric, INFINITE_M)
    assert rep.max_residual < 5e-5


def test_weighted_riccati_identity(ds4w, ds4w_comoving_run):
    # R_f = -B_f' - B_f^2 - (2/(n-1)) (f o c)' B_f along the congruence
    run = ds4w_comoving_run
    diag = run.diagnostics
    sel = slice(2, -2)
    ts_in, dBf = stencil_derivative(diag.ts, diag.B_f)
    worst = 0.0
    for i in range(0, len(ts_in), 40):
        if not diag.mask[sel][i]:
            continue
        t = ts_in[i]
        Bf = diag.B_f[sel][i]
        fp = diag.fprime[sel][i]
        Rf = run.series.modified(t)
        resid = Rf + dBf[i] + Bf @ Bf + (2.0 / 3.0) * fp * Bf
        worst = max(worst, float(np.max(np.abs(resid))))
    assert worst < 5e-4  # matrix stencil on a steep weight


# ---------------------------------------------------------------------------
# conjugate points and interval checks
# ---------------------------------------------------------------------------

def test_detect_conjugate_basics():
    assert not detect_conjugate(integrate_jacobi(Z3, Z3, I3, (0.0, 10.0))).zeros
    rep = detect_conjugate(integrate_jacobi(I3, Z3, I3, (0.0, 5.0)))
    assert len(rep.zeros) == 1
    z = rep.zeros[0]
    assert abs(z.t - math.pi) < 1e-8
    assert z.certificate == "sign_change"
    assert rep.blowup_ts  # |theta| exceeds 1e3 inside the 1e-3 collar


def test_detect_conjugate_even_multiplicity():
    # modes (sin t, sin t, t): det A = t sin^2 t never changes sign at pi
    traj = integrate_jacobi(np.diag([1.0, 1.0, 0.0]), Z3, I3, (0.0, 4.5))
    rep = detect_conjugate(traj)
    assert len(rep.zeros) == 1
    assert rep.zeros[0].certificate == "singular_value"
    assert abs(rep.zeros[0].t - math.pi) < 1e-8


def test_detect_conjugate_frw_self_convergence(frw4):
    spec = frw4.geodesic("comoving")
    locations = []
    for factor in (1, 10):
        run = run_point_congruence(
            frw4.metric, spec.p0, spec.v0, spec.span, f=frw4.weight,
            jacobi_init=(I3, -I3), jacobi_span=(-1.0, 1.0),
            rtol=1e-9 / factor, atol=1e-11 / factor)
        rep = detect_conjugate(run.trajectory)
        assert rep.zeros, "converging congruence must focus"
        locations.append(rep.zeros[0].t)
    assert -1.0 < locations[1] < 0.1      # inside the chart, before t = 0.1
    assert abs(locations[0] - locations[1]) < 1e-6


def test_verify_interval_finite_m_focusing():
    traj = integrate_jacobi(I3, Z3, I3, (0.0, 6.2), **TIGHT)
    diag = kinematics(traj, ts=np.linspace(0.5, 6.2, 1141), n=4)
    theta1 = diag.theta_f_at(2.0)
    assert abs(theta1 - 3.0 / math.tan(2.0)) < 1e-8
    for m in (1.0, 2.0, 3.0):
        rep = verify_interval_finite_m(traj, diag, 2.0, 4, m)
        assert rep.hypothesis_ok
        assert rep.verdict == "contained"
        lo, hi = rep.predicted_interval
        assert lo == pytest.approx(2.0 - 1e-6)
        assert hi == pytest.approx(2.0 + (4.0 + m - 1.0) / abs(theta1) + 1e-6)
        assert any(abs(z.t - math.pi) < 1e-6 for z in rep.zeros)


def test_verify_interval_rejects_zero_expansion():
    traj = integrate_jacobi(Z3, I3, Z3, (0.0, 4.0))   # A = I, theta_f = 0
    diag = kinematics(traj, ts=np.linspace(0.0, 4.0, 401), n=4)
    with pytest.raises(InvalidInitialData):
        verify_interval_finite_m(traj, diag, 2.0, 4, 1.0)


def test_verify_interval_reports_hypothesis_violation():
    # defocusing curvature: tr R < 0, converging data still focuses nowhere
    traj = integrate_jacobi(-I3, I3, -2.0 * I3, (0.0, 2.0))
    diag = kinematics(traj, ts=np.linspace(0.0, 2.0, 401), n=4)
    rep = verify_interval_finite_m(traj, diag, 0.1, 4, 1.0)
    assert rep.hypothesis_ok is False
    assert rep.verdict == "hypothesis_violated"


def test_verify_interval_infinite_focusing():
    traj = integrate_jacobi(I3, Z3, I3, (0.0, 6.2), **TIGHT)
    diag = kinematics(traj, ts=np.linspace(0.5, 6.2, 1141), n=4)
    theta1 = diag.theta_f_at(2.0)
    # zero weight, zero bound: sigma = (n-1)/theta_f(t1) = tan(2)
    rep = verify_interval_infinite(traj, diag, 2.0, 4, 0.0)
    assert rep.verdict == "contained"
    assert rep.predicted_interval[1] == pytest.approx(
        2.0 - 3.0 / theta1 + 1e-6)
    # constant weight with matching bound gives the identical interval
    c0 = 1.3
    rep2 = verify_interval_infinite(traj, diag, 2.0, 4, c0,
                                    f_values=lambda t: c0)
    assert rep2.predicted_interval == pytest.approx(rep.predicted_interval)
    assert rep2.verdict == "contained"


def test_verify_interval_infinite_weighted_de_sitter(ds4w):
    # converging Lagrange congruence on the weighted de Sitter background:
    # theta_f(0) = -20 < 0, weight bounded by k = 1 on the predicted window
    spec = ds4w.geodesic("comoving")
    run = run_point_congruence(
        ds4w.metric, spec.p0, spec.v0, spec.span, f=ds4w.weight,
        jacobi_init=(I3, (-20.0 / 3.0) * I3), jacobi_span=(0.0, 1.5),
        diag_ts=np.linspace(0.0, 1.5, 601))
    params = BakryEmeryParams(m=INFINITE_M, k=1.0)
    ric = run.ric_fm_series(ds4w.metric, ds4w.weight, params)
    f_vals = [ds4w.weight.at(run.geodesic.point(t))
              for t in run.diagnostics.ts]
    rep = verify_interval_infinite(
        run.trajectory, run.diagnostics, 0.0, 4, 1.0,
        f_values=lambda t: float(np.interp(t, run.diagnostics.ts, f_vals)),
        ric_f=lambda t: float(np.interp(t, run.diagnostics.ts, ric)))
    assert rep.hypothesis_ok
    assert rep.verdict == "contained"
    # per-mode closed form cosh(t) - (20/3) sinh(t): zero at atanh(3/20)
    assert rep.zeros[0].t == pytest.approx(math.atanh(3.0 / 20.0), abs=1e-6)


# ---------------------------------------------------------------------------
# boundary-value constructions
# ---------------------------------------------------------------------------

def test_boundary_jacobi_closed_forms():
    D = boundary_jacobi(Z3, 0.0, 4.0)
    for t in (0.0, 1.0, 3.0, 4.0):
        assert np.max(np.abs(D.A(t) - (1.0 - t / 4.0) * I3)) < 1e-9

    D = boundary_jacobi(-I3, 0.0, 3.0)
    coth3 = 1.0 / math.tanh(3.0)
    for t in (0.5, 1.5, 2.9):
        exact = (math.cosh(t) - math.sinh(t) * coth3) * I3
        assert np.max(np.abs(D.A(t) - exact)) < 1e-8

    D = boundary_jacobi(I3, 0.0, 2.0)
    cot2 = 1.0 / math.tan(2.0)
    for t in (0.4, 1.2, 1.9):
        exact = (math.cos(t) - math.sin(t) * cot2) * I3
        assert np.max(np.abs(D.A(t) - exact)) < 1e-8
    assert D.initial["shooting_residual"] < 1e-8


def test_boundary_jacobi_detects_conjugate_point():
    with pytest.raises(ConjugatePointInRange):
        boundary_jacobi(I3, 0.0, 4.0)   # pi < 4


def test_d_s_integral_formula_matches_shooting():
    for Rval, s in ((0.0, 4.0), (-1.0, 3.0), (1.0, 2.0)):
        R = Rval * I3
        A = integrate_jacobi(R, Z3, I3, (0.0, s), **TIGHT)
        D = boundary_jacobi(R, 0.0, s, **TIGHT)
        for t in np.linspace(0.05, s - 0.05, 7):
            quad = d_s_integral_formula(A, t, s)
            assert np.max(np.abs(quad - D.A(t))) < 1e-6
            # interior nonsingularity
            assert np.linalg.svd(quad, compute_uv=False)[-1] > 0.0
        # endpoint identity D_s'(s) = -(A*)^{-1}(s)
        assert np.max(np.abs(D.Aprime(s) + np.linalg.inv(A.A(s).T))) < 1e-6


def test_d_s_integral_formula_anisotropic_curvature():
    # non-diagonal constant R (still below the conjugate threshold on [0, s]):
    # exercises the matrix products in A(t) * integral (A^T A)^{-1}
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    R = Q @ np.diag([1.0, 0.55, 0.1]) @ Q.T
    s = 1.8
    A = integrate_jacobi(R, Z3, I3, (0.0, s), **TIGHT)
    D = boundary_jacobi(R, 0.0, s, **TIGHT)
    for t in np.linspace(0.1, s - 0.05, 6):
        quad = d_s_integral_formula(A, t, s)
        assert np.max(np.abs(quad - D.A(t))) < 1e-6
    assert np.max(np.abs(D.Aprime(s) + np.linalg.inv(A.A(s).T))) < 1e-6


def test_verify_interval_finite_m_past_side():
    # positive expansion: the guaranteed det-zero lies before t1.  Use the
    # global focusing solution sin(t) I on a span that starts away from its
    # zeros, so the zero at t = 0 is interior.
    t_a = -4.0
    A0 = math.sin(t_a) * I3
    A0p = math.cos(t_a) * I3
    traj = integrate_jacobi(I3, A0, A0p, (t_a, 2.0), **TIGHT)
    diag = kinematics(traj, ts=np.linspace(t_a, 2.0, 1201), n=4)
    t1 = 0.8
    theta1 = diag.theta_f_at(t1)
    assert theta1 == pytest.approx(3.0 / math.tan(t1), abs=1e-6)
    rep = verify_interval_finite_m(traj, diag, t1, 4, 1.0)
    assert rep.verdict == "contained"
    lo, hi = rep.predicted_interval
    assert lo == pytest.approx(t1 - 4.0 / theta1 - 1e-6)
    assert hi == pytest.approx(t1 + 1e-6)
    assert any(abs(z.t) <= 1e-6 for z in rep.zeros)


def test_d_s_integral_formula_collar():
    A = integrate_jacobi(Z3, Z3, I3, (0.0, 4.0))
    with pytest.raises(QuadratureNearSingularity):
        d_s_integral_formula(A, 5e-5, 4.0)


def test_asymptotic_lagrange_defocusing():
    rep = asymptotic_lagrange(-I3, 0.0, [5.0, 10.0, 20.0, 40.0], [1.0])
    assert rep.monotone and not rep.nonconvergent
    # geometric decay of the Cauchy differences
    assert rep.cauchy[0] > rep.cauchy[1] > rep.cauchy[2]
    assert np.max(np.abs(rep.limit[0] - math.exp(-1.0) * I3)) < 1e-5


def test_asymptotic_lagrange_flat_limit():
    rep = asymptotic_lagrange(Z3, 0.0, [4.0, 8.0, 16.0, 32.0], [1.0, 2.0])
    assert np.max(np.abs(rep.limit[0] - I3)) < 1e-9
    assert np.max(np.abs(rep.limit[1] - I3)) < 1e-9


def test_asymptotic_lagrange_nonconvergent_flag():
    # focusing curvature: D_s blows up as s approaches the conjugate value pi
    rep = asymptotic_lagrange(I3, 0.0, [2.0, 2.6, 2.9, 3.05], [1.0])
    assert rep.nonconvergent


# ---------------------------------------------------------------------------
# null focal bound
# ---------------------------------------------------------------------------

def test_null_focal_bound_flat():
    rep = verify_null_focal_bound(np.zeros((2, 2)), -2.0, 0.0, 4)
    assert rep.verdict == "contained"
    assert rep.zeros[0].t == pytest.approx(1.0, abs=1e-6)
    lo, hi = rep.predicted_interval
    assert (lo, hi) == pytest.approx((0.0 - 1e-6, 1.0 + 1e-6))

    rep = verify_null_focal_bound(np.zeros((2, 2)), -4.0, 0.0, 4)
    assert rep.zeros[0].t == pytest.approx(0.5, abs=1e-6)


def test_null_focal_bound_focusing_comparison():
    flat = verify_null_focal_bound(np.zeros((2, 2)), -2.0, 0.0, 4)
    curved = verify_null_focal_bound(np.eye(2), -2.0, 0.0, 4)
    assert curved.verdict == "contained"
    assert curved.zeros[0].t < flat.zeros[0].t


def test_null_focal_bound_positive_expansion_looks_to_the_past():
    # theta1 > 0: the focal point lies before t1, found by backward integration
    rep = verify_null_focal_bound(np.zeros((2, 2)), 2.0, 0.0, 4)
    assert rep.verdict == "contained"
    assert rep.zeros[0].t == pytest.approx(-1.0, abs=1e-6)
    lo, hi = rep.predicted_interval
    assert (lo, hi) == pytest.approx((-1.0 - 1e-6, 0.0 + 1e-6))


# ---------------------------------------------------------------------------
# hypersurface mean-curvature evolution
# ---------------------------------------------------------------------------

def test_mean_curvature_static_product_slice(static4):
    from lorentzlab.scenarios import equator_point
    spec = NormalCongruenceSpec(base_point=equator_point(4, 0.0),
                                normal=np.array([1.0, 0, 0, 0]),
                                shape_operator=Z3, span=(0.0, 2.0))
    rep = mean_curvature_evolution(static4.metric, constant_scalar(0.0), spec)
    assert np.max(np.abs(rep.H_f)) < 1e-10
    assert rep.max_residual < 1e-8


def test_mean_curvature_minkowski_hyperboloid(mink4):
    spec = NormalCongruenceSpec(base_point=np.array([1.0, 0, 0, 0]),
                                normal=np.array([1.0, 0, 0, 0]),
                                shape_operator=I3, span=(0.0, 2.0))
    rep = mean_curvature_evolution(mink4.metric, constant_scalar(0.0), spec)
    expected = 3.0 / (1.0 + rep.ts)
    assert np.max(np.abs(rep.H_f - expected)) < 1e-9
    assert rep.max_residual < 5e-5


def test_mean_curvature_weighted_de_sitter_slice(ds4w):
    from lorentzlab.scenarios import equator_point
    spec = NormalCongruenceSpec(base_point=equator_point(4, 0.0),
                                normal=np.array([1.0, 0, 0, 0]),
                                shape_operator=Z3, span=(0.0, 1.5))
    rep = mean_curvature_evolution(ds4w.metric, ds4w.weight, spec)
    assert rep.max_residual < 5e-5
    # closed form: H_f = 3 tanh(t) - 2 sinh(4t)/2 ... = 3 tanh t - K sinh(2Kt)
    K = 2.0
    expected = 3.0 * np.tanh(rep.ts) - K * np.sinh(2.0 * K * rep.ts)
    assert np.max(np.abs(rep.H_f - expected)) < 1e-7


@pytest.mark.parametrize("rbar, theta1", [(np.zeros((2, 2)), -2.0),
                                          (np.zeros((2, 2)), -4.0),
                                          (np.eye(2), -2.0),
                                          (np.zeros((2, 2)), 2.0)])
def test_null_focal_theta1_is_the_full_grid_first_sample(rbar, theta1):
    # theta1 is read at t1 alone; it must equal, bitwise, the first sample of
    # the expansion on the full default kinematics grid
    pad = 1.5 * 2.0 / abs(theta1)
    span = (0.0, pad) if theta1 < 0 else (0.0, -pad)
    traj = integrate_jacobi(rbar, np.eye(2), (theta1 / 2.0) * np.eye(2), span)
    fprime = lambda t: 0.3 + 0.1 * t
    grid = np.linspace(traj.t0, traj.t1, max(400, len(traj.ts)))
    for fp in (None, fprime, np.array([fprime(t) for t in grid])):
        full = kinematics(traj, fprime=fp)
        rep = verify_null_focal_bound(rbar, theta1, 0.0, 4, fprime=fp)
        assert rep.theta1 == float(full.theta_f[0])


# ---------------------------------------------------------------------------
# whole-grid evaluation against the per-sample loop it replaced
# ---------------------------------------------------------------------------

# the geodesics of the benchmark's congruence sweep
SWEEP_GEODESICS = [
    ("minkowski2", "comoving"), ("minkowski4", "comoving"),
    ("minkowski4", "null_x"), ("de_sitter4", "comoving"),
    ("de_sitter4", "null_equatorial"), ("de_sitter4_weighted", "comoving"),
    ("de_sitter4_weighted", "null_equatorial"),
    ("einstein_static4", "comoving"), ("einstein_static4", "tilted"),
    ("einstein_static4", "null_equatorial"), ("frw_toy4", "comoving"),
]
# fixed before batching: dense output evaluated on a whole grid and at one
# parameter differ in the last bits (measured up to 1.6e-15 relative)
LOOP_RTOL = 1e-12


def _kinematics_loop(traj, fp, ts, singular_rtol=1e-12):
    """kinematics' fields computed one sample at a time."""
    k, N = traj.k, len(ts)
    out = {name: np.full(N, np.nan)
           for name in ("theta", "theta_f", "tr_sigma2", "tr_omega2")}
    out.update({name: np.full((N, k, k), np.nan)
                for name in ("B_f", "omega_f", "sigma_f")})
    out["det_A"] = np.empty(N)
    out["mask"] = np.zeros(N, dtype=bool)
    for i, t in enumerate(ts):
        A, Ap = traj.A(t), traj.Aprime(t)
        out["det_A"][i] = np.linalg.det(A)
        sv = np.linalg.svd(A, compute_uv=False)
        if sv[-1] <= singular_rtol * max(sv[0], 1.0):
            continue
        B = Ap @ np.linalg.inv(A)
        th = float(np.trace(B))
        thf = th - fp[i]
        if abs(thf) > 1e6:
            continue
        Bf = B - (fp[i] / k) * np.eye(k)
        omega = 0.5 * (Bf - Bf.T)
        sigma = 0.5 * (Bf + Bf.T) - (thf / k) * np.eye(k)
        for name, val in (("theta", th), ("theta_f", thf), ("B_f", Bf),
                          ("omega_f", omega), ("sigma_f", sigma),
                          ("tr_sigma2", np.trace(sigma @ sigma)),
                          ("tr_omega2", np.trace(omega @ omega)),
                          ("mask", True)):
            out[name][i] = val
    return out


def _assert_close_to_loop(batched, loop):
    """The same NaNs, and |batched - loop| <= LOOP_RTOL max(1, |loop|)."""
    batched, loop = np.asarray(batched, dtype=float), np.asarray(loop, dtype=float)
    assert batched.shape == loop.shape
    assert np.array_equal(np.isnan(batched), np.isnan(loop))
    err = np.abs(np.nan_to_num(batched - loop))
    assert np.all(err <= LOOP_RTOL * np.maximum(1.0, np.abs(np.nan_to_num(loop))))


@pytest.mark.parametrize("name, label", SWEEP_GEODESICS)
def test_whole_grid_jacobi_evaluation_matches_the_sample_loop(name, label):
    from lorentzlab.scenarios import BUILTIN_SCENARIOS
    scen = BUILTIN_SCENARIOS[name]()
    spec = scen.geodesic(label)
    run = run_point_congruence(scen.metric, spec.p0, spec.v0, spec.span,
                               f=scen.weight)
    traj, diag, geo = run.trajectory, run.diagnostics, run.geodesic
    fprime = [float(scen.weight.gradient(geo.point(t)) @ geo.velocity(t))
              for t in diag.ts]
    _assert_close_to_loop(diag.fprime, fprime)
    loop = _kinematics_loop(traj, diag.fprime, diag.ts)
    assert np.array_equal(diag.mask, loop["mask"])
    for field_name, values in loop.items():
        _assert_close_to_loop(getattr(diag, field_name), values)
    # detect_conjugate's scan grid, and check_lagrange's defects
    ts = np.linspace(*sorted(traj.span), 2000)
    for method in (traj.det_A, traj.sigma_min,
                   lambda t: lagrange_defect(traj, t)):
        _assert_close_to_loop(method(ts), [method(t) for t in ts])
    assert isinstance(traj.det_A(ts[5]), float)
    assert isinstance(lagrange_defect(traj, ts[5]), float)


def test_states_stacks_A_and_Aprime():
    traj = integrate_jacobi(np.diag([1.0, 4.0, 0.0]), Z3, I3, (0.0, 2.0),
                            **TIGHT)
    ts = np.linspace(0.0, 2.0, 7)
    A, Ap = traj.states(ts)
    assert A.shape == Ap.shape == (7, 3, 3)
    exact = np.array([np.diag([np.sin(t), np.sin(2 * t) / 2, t]) for t in ts])
    assert np.max(np.abs(A - exact)) < 1e-9
    assert np.array_equal(A[3], traj.A(ts[3]))
    assert np.array_equal(Ap[3], traj.Aprime(ts[3]))
