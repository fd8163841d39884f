"""Small numerical utilities: an RK45 integrator with dense output, a
bracketed root finder, stencils, matrix quadrature."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, InsufficientSamples, IntegratorFailure

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-11
EPS = float(np.finfo(float).eps)
# the least rtol ode_solve takes: the error control cannot ask for more
# digits than double precision holds
RTOL_FLOOR = 100.0 * EPS

# how far outside its span a dense output is still read: span ends are computed
_SPAN_SLACK = 1e-12
_SIMPSON_MAX_DEPTH = 32  # bisection levels of adaptive_simpson
_GOLDEN_ITERS = 80  # golden_minimize's fixed iteration count
_BRENT_ITERS = 100  # brent_root's iteration limit

# Dormand-Prince 5(4) (Dormand & Prince, J. Comput. Appl. Math. 6, 1980):
# nodes C, stages A, the fifth-order weights B, the error weights E (fifth
# minus fourth order, with the FSAL stage last) and Shampine's quartic dense
# output P (Math. Comp. 46, 1986).  The step controller is the one of Hairer,
# Norsett & Wanner, Solving ODEs I, II.4, with scipy's RK45 constants and
# operation order, so the two take the same steps.
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 5  # -1/(order of the error estimate + 1)
_ONES4 = np.ones(4)


def check_in_span(t, span, what):
    """DomainViolation unless t, one parameter or an array of them, lies in
    span, up to _SPAN_SLACK."""
    lo, hi = sorted(span)
    ts = np.asarray(t, dtype=float)
    outside = ts[~((ts >= lo - _SPAN_SLACK) & (ts <= hi + _SPAN_SLACK))]
    if outside.size:
        raise DomainViolation(f"t={outside[0]} outside the {what}'s span "
                              f"[{lo}, {hi}]")


class DenseOutput:
    """The dense output of one solve.

    Segment i runs from ts[i] to ts[i + 1]; on it
    y(t) = y0[i] + h[i] Q[i] (x, x^2, x^3, x^4) with x = (t - ts[i]) / h[i],
    where h[i] is the step that made the segment.  It reaches past ts[i + 1]
    where a terminal event cut the step short.  A breakpoint reads the
    earlier segment.  One parameter gives y of shape (n,), an array of N
    an (n, N) array from one pass; a parameter off the span raises
    DomainViolation, whose message names the object read as what.
    """

    def __init__(self, ts, h, y0, Q):
        self.ts, self.h, self.y0, self.Q = ts, h, y0, Q
        self.span = (float(ts[0]), float(ts[-1]))
        # the inner breakpoints, ascending: a search among them gives the
        # segment directly, with a breakpoint's own segment the earlier one
        self._ascending = ts[-1] >= ts[0]
        self._inner = ts[1:-1] if self._ascending else ts[-2:0:-1]
        self._side = "left" if self._ascending else "right"

    def __call__(self, t, what="solution"):
        check_in_span(t, self.span, what)
        t = np.asarray(t, dtype=float)
        seg = np.searchsorted(self._inner, t, side=self._side)
        if not self._ascending:
            seg = len(self.h) - 1 - seg
        h = self.h[seg]
        x = (t - self.ts[seg]) / h
        p = np.multiply.accumulate(x[..., None] * _ONES4, axis=-1)  # x .. x^4
        y = h[..., None] * (self.Q[seg] @ p[..., None])[..., 0] + self.y0[seg]
        return y.T


@dataclass
class OdeResult:
    """An ode_solve: the accepted step times t (t0 first, a terminal event's
    time last), the right-hand-side calls nfev, status 0 at the span's end
    or 1 at a terminal event, and the dense output sol."""

    t: np.ndarray
    nfev: int
    status: int
    sol: DenseOutput


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def ode_solve(rhs, span, y0, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, events=None):
    """Adaptive Dormand-Prince 5(4) solve of y' = rhs(t, y) over span, with
    dense output.

    Each event is a function event(t, y), and the solve stops where one
    changes sign, located on the step's interpolant by brent_root.  Raises
    ValueError for rtol below RTOL_FLOOR, a negative atol or a nonfinite y0,
    and IntegratorFailure when the step size falls to the spacing of floats.
    """
    if not rtol >= RTOL_FLOOR:
        raise ValueError(f"rtol {rtol} is below the integrator's floor "
                         f"{RTOL_FLOOR} (100 eps)")
    if not atol >= 0.0:
        raise ValueError("atol must be nonnegative")
    t0, t_bound = map(float, span)
    y = np.asarray(y0, dtype=float)
    if y.ndim != 1 or not y.size or not np.isfinite(y).all():
        raise ValueError("y0 must be a finite vector")
    nfev = 0

    def fun(t, y):
        nonlocal nfev
        nfev += 1
        return np.asarray(rhs(t, y), dtype=float)

    direction = np.sign(t_bound - t0) if t_bound != t0 else 1
    ts, hs, y_olds, Qs = [t0], [], [], []
    if t_bound == t0:  # no step: one constant segment
        fun(t0, y)
        return OdeResult(np.array([t0, t0]), nfev, 0, DenseOutput(
            np.array([t0, t0]), np.ones(1), y[None], np.zeros((1, y.size, 4))))
    f = fun(t0, y)
    h_abs = _initial_step(fun, t0, y, t_bound, f, direction, rtol, atol)
    K = np.empty((7, y.size))
    g = None if events is None else [event(t0, y) for event in events]
    t, status = t0, None
    while status is None:
        min_step = 10 * np.abs(np.nextafter(t, direction * np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise IntegratorFailure(
                    "Required step size is less than spacing between numbers.")
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)
            y_new, f_new = _rk_step(fun, t, y, f, h, K)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _rms(np.dot(K.T, _E) * h / scale)
            if error_norm < 1:
                factor = (_MAX_FACTOR if error_norm == 0 else
                          min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT))
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        Q = K.T.dot(_P)
        hs.append(t_new - t)
        y_olds.append(y)
        Qs.append(Q)
        t, y, f = t_new, y_new, f_new
        if direction * (t - t_bound) >= 0:
            status = 0
        if events is not None:
            g_new = [event(t, y) for event in events]
            hit = [i for i, (a, b) in enumerate(zip(g, g_new))
                   if (a <= 0 <= b) or (b <= 0 <= a)]
            if hit:
                step = DenseOutput(np.array([ts[-1], t]), np.array(hs[-1:]),
                                   y_olds[-1][None], Q[None])
                roots = [brent_root(lambda s, e=events[i]: e(s, step(s)),
                                    ts[-1], t, xtol=4 * EPS) for i in hit]
                t = min(roots) if direction > 0 else max(roots)
                status = 1
            g = g_new
        if t == ts[-1] and len(ts) > 1:  # an event at the last node
            del hs[-1], y_olds[-1], Qs[-1]
        else:
            ts.append(t)
    ts = np.array(ts)
    return OdeResult(ts, nfev, status, DenseOutput(ts, np.array(hs),
                                                   np.array(y_olds), np.array(Qs)))


def _initial_step(fun, t0, y0, t_bound, f0, direction, rtol, atol):
    """Hairer, Norsett & Wanner's starting step (Solving ODEs I, II.4),
    for an error estimate of order 4."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * direction * f0
    f1 = fun(t0 + h0 * direction, y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval_length)


def _rk_step(fun, t, y, f, h, K):
    """One Dormand-Prince step of size h from (t, y) with y' = f there;
    the stages go to the rows of K, the last being f at the new point."""
    K[0] = f
    for s, (a, c) in enumerate(zip(_A[1:], _C[1:]), start=1):
        dy = np.dot(K[:s].T, a[:s]) * h
        K[s] = fun(t + c * h, y + dy)
    y_new = y + h * np.dot(K[:-1].T, _B)
    f_new = fun(t + h, y_new)
    K[-1] = f_new
    return y_new, f_new


def brent_root(fun, a, b, xtol):
    """A zero of fun in the bracket [a, b] by Brent's method (Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 4), as
    scipy's brentq runs it: the same iterates, stopped when the bracket is
    below xtol + 4 eps |x|.  ValueError when fun(a) and fun(b) have one sign
    or fun is NaN, IntegratorFailure after _BRENT_ITERS iterations."""
    def value(x):
        fx = float(fun(x))
        if math.isnan(fx):
            raise ValueError(f"fun({x}) is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("fun(a) and fun(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_ITERS):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + 4 * EPS * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise IntegratorFailure(f"Brent's method did not converge in "
                            f"{_BRENT_ITERS} iterations on [{a}, {b}]")


def stencil_derivative(ts, ys):
    """Fourth-order central first derivative on a uniform grid.

    Returns (ts[2:-2], dy) so callers can align series.  ys may be any
    array with time along axis 0.
    """
    ts = np.asarray(ts)
    ys = np.asarray(ys)
    if len(ts) < 5:
        raise InsufficientSamples("need at least 5 uniform samples")
    h = ts[1] - ts[0]
    if not np.allclose(np.diff(ts), h, rtol=1e-8, atol=1e-12 * max(1.0, abs(h))):
        raise InsufficientSamples("stencil differentiation requires a uniform grid")
    d = (-ys[4:] + 8.0 * ys[3:-1] - 8.0 * ys[1:-3] + ys[:-4]) / (12.0 * h)
    return ts[2:-2], d


def adaptive_simpson(fun, a, b, tol=1e-9):
    """Adaptive Simpson quadrature for matrix-valued integrands."""
    fa, fm, fb = fun(a), fun(0.5 * (a + b)), fun(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    scale = max(1.0, float(np.max(np.abs(whole))))

    def rec(a, b, fa, fm, fb, whole, depth):
        m = 0.5 * (a + b)
        flm = fun(0.5 * (a + m))
        frm = fun(0.5 * (m + b))
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = float(np.max(np.abs(left + right - whole)))
        if err <= 15.0 * tol * scale or depth >= _SIMPSON_MAX_DEPTH:
            return left + right + (left + right - whole) / 15.0
        return (rec(a, m, fa, flm, fm, left, depth + 1)
                + rec(m, b, fm, frm, fb, right, depth + 1))

    return rec(a, b, fa, fm, fb, whole, 0)


def golden_minimize(fun, lo, hi):
    """Golden-section minimum of a unimodal function on [lo, hi].

    Fixed iteration count; robust on kinked functions like |t - t*| where
    parabolic-interpolation minimizers stall early.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(_GOLDEN_ITERS):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    x = 0.5 * (a + b)
    return x, fun(x)


def spawn_rngs(seed, n):
    """Deterministic per-task generators, independent of execution order."""
    seqs = np.random.SeedSequence(seed).spawn(n)
    return [np.random.default_rng(s) for s in seqs]


