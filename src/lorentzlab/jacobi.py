"""Jacobi and Lagrange tensor fields along geodesics, and what they measure.

A Jacobi tensor is a matrix solution of A'' + R A = 0 whose stacked data
[A; A'] keeps full column rank; it is Lagrange when (A')* A - A* A' = 0,
which holds automatically when A vanishes somewhere.  From an invertible
stretch of A the congruence kinematics follow:

    B   = A' A^{-1}
    B_f = B - ((f o c)'/d) E          (d = frame dimension)
    theta_f = tr B_f,  omega_f = (B_f - B_f*)/2,
    sigma_f = (B_f + B_f*)/2 - (theta_f/d) E

together with the weighted Raychaudhuri identity

    theta_f' = -Ric_f^m(c',c') - tr omega_f^2 - tr sigma_f^2
               - theta^2/d - ((f o c)')^2 / m

whose one-sided consequences (the finite-m form with theta_f^2/(n+m-1) and
the infinite form with the 2 theta_f (f o c)'/d cross term) are tracked as
slack series.  det A = 0 detects conjugate/focal points; the boundary-value
constructions D_s and their s -> infinity limits are built by linear
shooting from the fundamental solutions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import (ConjugatePointInRange, InsufficientSamples,
                     InvalidInitialData, QuadratureNearSingularity)
from .manifold import INFINITE_M
from .numerics import (DEFAULT_ATOL, DEFAULT_RTOL, adaptive_simpson,
                       dense_in_span, golden_minimize, ode_solve,
                       stencil_derivative)

KERNEL_TOL = 1e-10
THETA_BLOWUP = 1e6
_TS_SAMPLES = 400  # least size of the stored grid JacobiTrajectory.ts


def _as_matrix_source(R_source, k):
    """Accept an EndomorphismSeries, a callable t -> matrix, a constant
    matrix, or a scalar; return a callable."""
    if callable(R_source):
        return R_source
    val = np.asarray(R_source, dtype=float)
    mat = float(val) * np.eye(k) if val.ndim == 0 else val
    return lambda t: mat


def _matrix_size(R_source, t):
    """Size k of the k x k matrices R_source yields, probed at t."""
    probe = np.asarray(R_source(t) if callable(R_source) else R_source,
                       dtype=float)
    if probe.ndim != 2:
        raise ValueError("the matrix size k of a scalar R_source is ambiguous")
    return probe.shape[0]


def _scalar_or_array(t, values):
    """A float for a scalar parameter t, the array for an array of them."""
    return float(values) if np.ndim(t) == 0 else values


@dataclass
class JacobiTrajectory:
    """Dense matrix solution (A, A') of A'' + R A = 0.

    Every accessor takes one parameter or an array of them; an array costs
    one dense evaluation and gives (N, k, k) stacks, or length-N arrays.
    """

    k: int
    t0: float
    t1: float
    ts: np.ndarray
    R_source: object
    initial: dict
    _sol: object = field(repr=False, default=None)

    def states(self, t):
        """(A(t), A'(t)) from one dense evaluation; DomainViolation for a
        parameter outside the span."""
        y = dense_in_span(self._sol.sol, self.span, t, "Jacobi solution").T
        stack = y.reshape(y.shape[:-1] + (2, self.k, self.k))
        return stack[..., 0, :, :], stack[..., 1, :, :]

    def A(self, t):
        return self.states(t)[0]

    def Aprime(self, t):
        return self.states(t)[1]

    def det_A(self, t):
        return _scalar_or_array(t, np.linalg.det(self.A(t)))

    def sigma_min(self, t):
        sv = np.linalg.svd(self.A(t), compute_uv=False)
        return _scalar_or_array(t, sv[..., -1])

    def stacked_rank_margin(self, t):
        stacked = np.vstack(self.states(t))
        return float(np.linalg.svd(stacked, compute_uv=False)[-1])

    @property
    def span(self):
        return (self.t0, self.t1)


def integrate_jacobi(R_source, A0, A0p, span, rtol=DEFAULT_RTOL,
                     atol=DEFAULT_ATOL) -> JacobiTrajectory:
    """Integrate the matrix equation A'' + R A = 0.

    R_source may be metric-derived (an EndomorphismSeries) or any prescribed
    matrix function/constant.  Raises InvalidInitialData when the stacked
    initial data [A0; A0p] is column-rank deficient.
    """
    A0 = np.atleast_2d(np.asarray(A0, dtype=float))
    A0p = np.atleast_2d(np.asarray(A0p, dtype=float))
    k = A0.shape[0]
    stacked = np.vstack([A0, A0p])
    if np.linalg.svd(stacked, compute_uv=False)[-1] < KERNEL_TOL:
        raise InvalidInitialData("ker A(0) and ker A'(0) intersect nontrivially")
    R = _as_matrix_source(R_source, k)

    def rhs(t, y):
        A = y[: k * k].reshape(k, k)
        Ap = y[k * k:].reshape(k, k)
        return np.concatenate([Ap.ravel(), (-(R(t) @ A)).ravel()])

    sol = ode_solve(rhs, span, np.concatenate([A0.ravel(), A0p.ravel()]),
                    rtol=rtol, atol=atol)
    ts = np.linspace(span[0], sol.t[-1], max(_TS_SAMPLES, 2 * len(sol.t)))
    return JacobiTrajectory(k=k, t0=span[0], t1=sol.t[-1], ts=ts, R_source=R,
                            initial={"A0": A0, "A0p": A0p}, _sol=sol)


def jacobi_residual(traj: JacobiTrajectory, t, delta=1e-4) -> float:
    """|A'' + R A| via central differencing of the dense A'."""
    App = (traj.Aprime(t + delta) - traj.Aprime(t - delta)) / (2.0 * delta)
    return float(np.max(np.abs(App + traj.R_source(t) @ traj.A(t))))


def lagrange_defect(traj: JacobiTrajectory, t):
    """Frobenius norm of (A')* A - A* A'; constant along any Jacobi tensor
    and zero for Lagrange tensors.  An array of parameters gives the array
    of defects from one dense evaluation."""
    A, Ap = traj.states(t)
    W = Ap.swapaxes(-1, -2) @ A - A.swapaxes(-1, -2) @ Ap
    return _scalar_or_array(t, np.linalg.norm(W, axis=(-2, -1)))


# ---------------------------------------------------------------------------
# kinematics
# ---------------------------------------------------------------------------

@dataclass
class CongruenceDiagnostics:
    ts: np.ndarray
    k: int
    B_f: np.ndarray
    theta_f: np.ndarray
    theta: np.ndarray
    omega_f: np.ndarray
    sigma_f: np.ndarray
    det_A: np.ndarray
    tr_sigma2: np.ndarray
    tr_omega2: np.ndarray
    fprime: np.ndarray
    mask: np.ndarray
    logdet_identity_residual: np.ndarray

    def theta_f_at(self, t):
        order = np.argsort(self.ts)  # backward runs store descending grids
        return float(np.interp(t, self.ts[order], self.theta_f[order]))


def _fprime_values(fprime, ts):
    if fprime is None:
        return np.zeros(len(ts))
    if callable(fprime):
        return np.array([float(fprime(t)) for t in ts])
    vals = np.asarray(fprime, dtype=float)
    if vals.shape != ts.shape:
        raise ValueError("fprime sample array must match the evaluation grid")
    return vals


def kinematics(traj: JacobiTrajectory, fprime=None, n=None, ts=None,
               singular_rtol=1e-12) -> CongruenceDiagnostics:
    """Expansion, shear and vorticity of the congruence defined by traj.

    fprime is (f o c)' as a callable or an array on the grid; n, when given,
    is the space-time dimension and is checked against the matrix size.
    Samples where A is numerically singular (or |theta_f| exceeds the
    blow-up guard) are masked, not errors.  The whole grid is evaluated at
    once: one dense evaluation, then stacked det, SVD and inverse.
    """
    k = traj.k
    if n is not None and k not in (n - 1, n - 2):
        raise ValueError(f"matrix size {k} inconsistent with dimension {n}")
    if ts is None:
        ts = np.linspace(traj.t0, traj.t1, max(400, len(traj.ts)))
    ts = np.asarray(ts, dtype=float)
    fp = _fprime_values(fprime, ts)

    N = len(ts)
    A, Ap = traj.states(ts)
    det_A = np.linalg.det(A)
    sv = np.linalg.svd(A, compute_uv=False)
    invertible = ~(sv[:, -1] <= singular_rtol * np.maximum(sv[:, 0], 1.0))
    B = np.full((N, k, k), np.nan)
    B[invertible] = Ap[invertible] @ np.linalg.inv(A[invertible])
    theta = np.trace(B, axis1=1, axis2=2)
    mask = invertible & ~(np.abs(theta - fp) > THETA_BLOWUP)
    B[~mask], theta[~mask] = np.nan, np.nan
    theta_f = theta - fp
    eye = np.eye(k)
    B_f = B - (fp / k)[:, None, None] * eye
    omega = 0.5 * (B_f - B_f.swapaxes(1, 2))
    sigma = (0.5 * (B_f + B_f.swapaxes(1, 2))
             - (theta_f / k)[:, None, None] * eye)
    tr_s2 = np.trace(sigma @ sigma, axis1=1, axis2=2)
    tr_w2 = np.trace(omega @ omega, axis1=1, axis2=2)

    # tr(A' A^{-1}) = (det A)' / det A, checked where the grid is uniform
    logdet_res = np.full(N, np.nan)
    try:
        t_in, ddet = stencil_derivative(ts, det_A)
        sel = slice(2, -2)
        ok = mask[sel] & (np.abs(det_A[sel]) > 0.0)
        rel = np.abs(ddet / det_A[sel] - theta[sel]) / np.maximum(
            1.0, np.abs(theta[sel]))
        logdet_res[sel] = np.where(ok, rel, np.nan)
    except InsufficientSamples:
        pass

    return CongruenceDiagnostics(
        ts=ts, k=k, B_f=B_f, theta_f=theta_f, theta=theta, omega_f=omega,
        sigma_f=sigma, det_A=det_A, tr_sigma2=tr_s2, tr_omega2=tr_w2,
        fprime=fp, mask=mask, logdet_identity_residual=logdet_res)


# ---------------------------------------------------------------------------
# weighted Raychaudhuri residual
# ---------------------------------------------------------------------------

@dataclass
class RaychaudhuriReport:
    ts: np.ndarray
    residual: np.ndarray
    slack_finite: np.ndarray | None
    slack_infinite: np.ndarray
    max_residual: float


def raychaudhuri_residual(diag: CongruenceDiagnostics, ric_fm, m) -> RaychaudhuriReport:
    """Residual of the weighted Raychaudhuri identity on the diagnostics grid.

    ric_fm gives Ric_f^m(c', c') as a callable or an array on diag.ts.  The
    identity uses the unweighted theta = theta_f + (f o c)' in the quadratic
    term; for m = INFINITE_M the ((f o c)')^2/m term is absent.  Slack series
    of the one-sided finite-m and infinite-m inequality forms are returned
    as well (nonnegative where the respective curvature condition holds).
    """
    ts = diag.ts
    ric = (np.array([float(ric_fm(t)) for t in ts]) if callable(ric_fm)
           else np.asarray(ric_fm, dtype=float))
    if np.count_nonzero(diag.mask) < 7:
        raise InsufficientSamples("too few unmasked samples for differentiation")

    t_in, dthf = stencil_derivative(ts, diag.theta_f)
    sel = slice(2, -2)
    k = diag.k
    theta, thf, fp, tr_s2, tr_w2, ric_in = (
        a[sel] for a in (diag.theta, diag.theta_f, diag.fprime, diag.tr_sigma2,
                         diag.tr_omega2, ric))

    common = dthf + ric_in + tr_w2 + tr_s2 + theta ** 2 / k
    if m is INFINITE_M:
        residual = common
        slack_finite = None
    else:
        m = float(m)
        residual = common + fp ** 2 / m
        rhs_fin = -ric_in - tr_s2 - thf ** 2 / (k + m)
        slack_finite = rhs_fin - dthf
    rhs_inf = -ric_in - tr_s2 - thf ** 2 / k - 2.0 * thf * fp / k
    slack_infinite = rhs_inf - dthf

    valid = diag.mask[sel]
    residual = np.where(valid, residual, np.nan)
    max_res = float(np.nanmax(np.abs(residual))) if valid.any() else np.nan
    return RaychaudhuriReport(ts=t_in, residual=residual,
                              slack_finite=slack_finite,
                              slack_infinite=slack_infinite,
                              max_residual=max_res)


# ---------------------------------------------------------------------------
# conjugate point detection and interval verification
# ---------------------------------------------------------------------------

@dataclass
class ConjugateZero:
    t: float
    certificate: str          # "sign_change" or "singular_value"
    sigma_min: float


@dataclass
class ConjugateReport:
    zeros: list
    blowup_ts: list
    predicted_interval: tuple | None = None
    contained: bool | None = None
    hypothesis_ok: bool | None = None
    verdict: str = ""
    theta1: float | None = None

    def first_zero(self):
        return self.zeros[0].t if self.zeros else None


def detect_conjugate(traj: JacobiTrajectory, n_grid=2000,
                     refine_tol=1e-10, sv_accept=1e-9,
                     sv_trigger_ratio=1e-3) -> ConjugateReport:
    """Find interior zeros of det A.

    Primary signal: sign change of det A between grid samples, refined by
    bisection.  Even-multiplicity zeros leave no sign change and are caught
    by a smallest-singular-value dip below sv_accept, refined by scalar
    minimization; such zeros report the minimizer.  The initial zero of
    from-a-point data is excluded.  The grid is scanned with whole-grid
    det_A and sigma_min; the refinements evaluate one parameter at a time.
    """
    # scan in ascending order whatever the integration direction; the
    # from-a-point exclusion collar stays anchored at the initial parameter
    start = traj.t0
    a, b = sorted((traj.t0, traj.t1))
    ts = np.linspace(a, b, n_grid)
    det = traj.det_A(ts)
    collar = max(4.0 * (b - a) / n_grid, 1e-6 * abs(b - a))
    initial_zero = np.linalg.norm(traj.A(start)) < 1e-12

    zeros = []
    for i in range(len(ts) - 1):
        if det[i] == 0.0:
            continue
        if np.sign(det[i]) * np.sign(det[i + 1]) < 0:
            root = brentq(traj.det_A, ts[i], ts[i + 1], xtol=refine_tol)
            if initial_zero and abs(root - start) <= collar:
                continue
            zeros.append(ConjugateZero(t=float(root), certificate="sign_change",
                                       sigma_min=traj.sigma_min(root)))

    # secondary: singular-value dips without a sign change.  Local minima of
    # sigma_min below a loose trigger are refined; only refined minima below
    # sv_accept count as zeros, so the trigger just has to be wider than the
    # scan grid can miss.
    sv = traj.sigma_min(ts)
    scale = max(np.median(sv), 1e-30)
    trigger = max(sv_trigger_ratio * scale, 50.0 * scale / n_grid)
    for i in range(1, len(ts) - 1):
        if not (sv[i] <= sv[i - 1] and sv[i] <= sv[i + 1] and sv[i] < trigger):
            continue
        # sigma_min^2 is smooth through the zero, so golden section on it
        # localizes even-order zeros to refine_tol
        t_min, smin2 = golden_minimize(lambda t: traj.sigma_min(t) ** 2,
                                       ts[i - 1], ts[i + 1])
        smin = float(np.sqrt(max(smin2, 0.0)))
        near_known = any(abs(z.t - t_min) < 2.0 * (b - a) / n_grid for z in zeros)
        far_from_start = not (initial_zero and abs(t_min - start) <= collar)
        if smin < sv_accept and not near_known and far_from_start:
            zeros.append(ConjugateZero(t=float(t_min),
                                       certificate="singular_value",
                                       sigma_min=smin))

    zeros.sort(key=lambda z: z.t)

    # |theta| blow-up flags adjacent to the zeros
    blowups = []
    for z in zeros:
        for dt in (-1e-3, 1e-3):
            t = z.t + dt
            if a < t < b:
                A = traj.A(t)
                sv_here = np.linalg.svd(A, compute_uv=False)
                if sv_here[-1] > 0:
                    th = float(np.trace(traj.Aprime(t) @ np.linalg.inv(A)))
                    if abs(th) > 1e3:
                        blowups.append(t)
                        break
    return ConjugateReport(zeros=zeros, blowup_ts=blowups)


def _ric_fm_from_trace(traj, m, fprime=None):
    """Ric_f^m(c', c') = tr R - ((f o c)')^2 / m, the trace identity solved
    for the pointwise curvature; the last term is absent for m = INFINITE_M."""
    def ric(t):
        tr = float(np.trace(traj.R_source(t)))
        return tr if m is INFINITE_M else tr - fprime(t) ** 2 / m
    return ric


def _predicted_end(t1, theta1, width):
    """t1 - width/theta1: where the focusing bound places the last zero."""
    if abs(theta1) < 1e-12:
        raise InvalidInitialData("the expansion theta_f(t1) must be nonzero")
    return t1 - width / theta1


def _interval_verdict(traj, t1, upper, hypotheses, tol=1e-6):
    """Scan traj for det-zeros and judge them against [t1, upper].

    Each hypothesis is a predicate of t that must hold at 64 samples of the
    predicted interval (clipped to the trajectory) for a verdict to count.
    """
    lo, hi = sorted((t1, upper))
    sample = np.linspace(max(lo, traj.t0), min(hi, traj.t1), 64)
    hypothesis_ok = all(holds(t) for holds in hypotheses for t in sample)
    report = detect_conjugate(traj)
    lo, hi = lo - tol, hi + tol
    report.predicted_interval = (lo, hi)
    report.hypothesis_ok = hypothesis_ok
    inside = [z for z in report.zeros if lo <= z.t <= hi]
    if not hypothesis_ok:
        report.verdict = "hypothesis_violated"
        report.contained = None
    elif inside:
        report.verdict = "contained"
        report.contained = True
    elif report.zeros:
        report.verdict = "zero_outside_interval"
        report.contained = False
    else:
        report.verdict = "no_zero_found"
        report.contained = False
    return report


def verify_interval_finite_m(traj: JacobiTrajectory, diag: CongruenceDiagnostics,
                             t1, n, m, ric_fm=None, tol=1e-6) -> ConjugateReport:
    """det A must vanish within (n+m-1)/|theta_f(t1)| of t1 (finite m).

    Requires theta_f(t1) != 0, a Lagrange trajectory, and Ric_f^m(c',c') >= 0
    on the predicted interval; a failed curvature hypothesis is reported in
    the verdict, not raised.
    """
    m = float(m)
    upper = _predicted_end(t1, diag.theta_f_at(t1), n + m - 1.0)
    if lagrange_defect(traj, t1) > 1e-9:
        raise InvalidInitialData("trajectory is not a Lagrange tensor")
    ric = ric_fm if ric_fm is not None else _ric_fm_from_trace(
        traj, m, lambda t: np.interp(t, diag.ts, diag.fprime))
    return _interval_verdict(traj, t1, upper, [lambda t: ric(t) >= -1e-9], tol)


def verify_interval_infinite(traj: JacobiTrajectory, diag: CongruenceDiagnostics,
                             t1, n, k_bound, f_values=None, ric_f=None,
                             tol=1e-6) -> ConjugateReport:
    """Infinite-m analogue with sigma = (n-1+2k-2f(c(t1)))/theta_f(t1).

    k_bound must dominate f on the predicted interval (checked); Ric_f >= 0
    is checked there as well.
    """
    theta1 = diag.theta_f_at(t1)
    f_at = (lambda t: 0.0) if f_values is None else (
        f_values if callable(f_values)
        else (lambda t: float(np.interp(t, diag.ts, np.asarray(f_values)))))
    upper = _predicted_end(t1, theta1, n - 1.0 + 2.0 * k_bound - 2.0 * f_at(t1))
    ric = ric_f if ric_f is not None else _ric_fm_from_trace(traj, INFINITE_M)
    return _interval_verdict(
        traj, t1, upper,
        [lambda t: f_at(t) <= k_bound + 1e-9, lambda t: ric(t) >= -1e-9], tol)


# ---------------------------------------------------------------------------
# boundary-value constructions
# ---------------------------------------------------------------------------

def _fundamental_solutions(R_source, k, t1, s, rtol, atol):
    """U with (E, 0) and V with (0, E) initial data at t1, over [t1, s]."""
    U = integrate_jacobi(R_source, np.eye(k), np.zeros((k, k)), (t1, s),
                         rtol=rtol, atol=atol)
    V = integrate_jacobi(R_source, np.zeros((k, k)), np.eye(k), (t1, s),
                         rtol=rtol, atol=atol)
    return U, V


def boundary_jacobi(R_source, t1, s, k=None,
                    rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL) -> JacobiTrajectory:
    """Unique tensor D_s with D_s(t1) = E and D_s(s) = 0, by linear shooting.

    The map from D'(t1) to D(s) is linear with matrix V(s) (the fundamental
    solution vanishing at t1); it is singular exactly when s is conjugate to
    t1, which raises ConjugatePointInRange.
    """
    if k is None:
        k = _matrix_size(R_source, t1)
    U, V = _fundamental_solutions(R_source, k, t1, s, rtol, atol)
    interior = detect_conjugate(V)
    strictly_inside = [z for z in interior.zeros if z.t < s - 1e-9]
    Vs = V.A(s)
    sv = np.linalg.svd(Vs, compute_uv=False)
    if strictly_inside or sv[-1] < 1e-10 * max(sv[0], 1.0):
        raise ConjugatePointInRange(
            f"conjugate point in ({t1}, {s}]; shooting matrix is singular")
    Dp0 = -np.linalg.solve(Vs, U.A(s))
    D = integrate_jacobi(R_source, np.eye(k), Dp0, (t1, s), rtol=rtol, atol=atol)
    end_residual = float(np.max(np.abs(D.A(s))))
    if end_residual > 1e-8:
        raise ConjugatePointInRange(
            f"shooting residual {end_residual:.2e} exceeds 1e-8")
    D.initial["shooting_residual"] = end_residual
    return D


def d_s_integral_formula(a_traj: JacobiTrajectory, t, s, collar=1e-4,
                         tol=1e-9) -> np.ndarray:
    """Evaluate D_s(t) = A(t) * integral_t^s (A* A)^{-1}(tau) dtau.

    a_traj must be the from-a-point solution A(t1) = 0, A'(t1) = E; the
    integrand blows up like (tau - t1)^{-2}, so evaluation inside the collar
    around t1 is refused.
    """
    t1 = a_traj.t0
    if t - t1 < collar:
        raise QuadratureNearSingularity(
            f"evaluation point {t} is within the collar {collar} of {t1}")

    def integrand(tau):
        A = a_traj.A(tau)
        return np.linalg.inv(A.T @ A)

    integral = adaptive_simpson(integrand, t, s, tol=tol)
    return a_traj.A(t) @ integral


@dataclass
class AsymptoticReport:
    s_list: list
    eval_ts: np.ndarray
    values: dict                 # s -> array of D_s(t) over eval_ts
    cauchy: list                 # norms |D_{s_{i+1}} - D_{s_i}| (max over eval_ts)
    monotone: bool
    limit: np.ndarray | None     # extrapolated limit over eval_ts
    nonconvergent: bool


def asymptotic_lagrange(R_source, t1, s_list, eval_ts,
                        rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL) -> AsymptoticReport:
    """D_s evaluated for increasing s, with a Cauchy convergence report.

    All D_s are assembled from one pair of fundamental solutions over
    [t1, max(s)]: D_s(t) = U(t) - V(t) V(s)^{-1} U(s).  When the Cauchy
    differences decay monotonically the geometric tail is extrapolated;
    otherwise the report is flagged nonconvergent.
    """
    s_list = sorted(float(s) for s in s_list)
    eval_ts = np.asarray(eval_ts, dtype=float)
    U, V = _fundamental_solutions(R_source, _matrix_size(R_source, t1), t1,
                                  s_list[-1], rtol, atol)

    U_t, V_t = U.A(eval_ts), V.A(eval_ts)
    values = {}
    for s in s_list:
        Vs = V.A(s)
        sv = np.linalg.svd(Vs, compute_uv=False)
        if sv[-1] < 1e-12 * max(sv[0], 1.0):
            raise ConjugatePointInRange(f"s = {s} is conjugate to t1 = {t1}")
        values[s] = U_t - V_t @ np.linalg.solve(Vs, U.A(s))

    cauchy = []
    for s_prev, s_next in zip(s_list[:-1], s_list[1:]):
        cauchy.append(float(np.max(np.abs(values[s_next] - values[s_prev]))))
    monotone = all(b < a for a, b in zip(cauchy[:-1], cauchy[1:]))

    limit = None
    if monotone and len(s_list) >= 3:
        # strictly decreasing differences: the ratio r lies in [0, 1)
        last, prev = values[s_list[-1]], values[s_list[-2]]
        r = cauchy[-1] / cauchy[-2]
        limit = last + (last - prev) * (r / (1.0 - r))
    return AsymptoticReport(s_list=s_list, eval_ts=eval_ts, values=values,
                            cauchy=cauchy, monotone=monotone, limit=limit,
                            nonconvergent=not monotone)


# ---------------------------------------------------------------------------
# null focal bound
# ---------------------------------------------------------------------------

def verify_null_focal_bound(rbar_source, theta1, t1, n, span=None,
                            fprime=None, tol=1e-6,
                            rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL) -> ConjugateReport:
    """Focal point of a null hypersurface-normal congruence.

    The quotient system has dimension n-2.  The initial expansion theta1 is
    imposed isotropically via A(t1) = E, A'(t1) = (theta1/(n-2)) E; under
    tr Rbar_f >= 0 a det-zero must occur within (n-2)/|theta1| of t1 on the
    converging side.  fprime, a callable or an array whose first entry
    belongs to the start of span, enters only the reported theta1.
    """
    k = n - 2
    upper = _predicted_end(t1, theta1, n - 2.0)
    if span is None:
        pad = 1.5 * abs(upper - t1)
        span = (t1, t1 + pad) if theta1 < 0 else (t1, t1 - pad)
    A0 = np.eye(k)
    A0p = (theta1 / k) * np.eye(k)
    traj = integrate_jacobi(rbar_source, A0, A0p, span, rtol=rtol, atol=atol)
    # theta1 is read at t1 alone; an fprime array starts on the same sample
    if fprime is not None and not callable(fprime):
        fprime = np.asarray(fprime, dtype=float)[:1]
    diag = kinematics(traj, fprime=fprime, ts=np.array([traj.t0]))
    ric = _ric_fm_from_trace(traj, INFINITE_M)
    report = _interval_verdict(traj, t1, upper, [lambda t: ric(t) >= -1e-9], tol)
    report.theta1 = float(diag.theta_f[0]) if diag.mask[0] else theta1
    return report
