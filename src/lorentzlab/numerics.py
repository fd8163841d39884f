"""Small numerical utilities: an RK45 integrator with dense output, for one
system or an ensemble of lanes in lockstep, a bracketed root finder,
stencils, quadrature."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import (DomainViolation, InsufficientSamples, IntegratorFailure,
                     LorentzLabError)

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


@dataclass
class OdeLanes:
    """An ensemble ode_solve: lanes[i] is lane i's OdeResult, or the
    LorentzLabError that ended lane i; nfev counts the stacked right-hand-side
    calls, and row r of t holds every lane's time after the r-th round of the
    lockstep (row 0 the starts, a finished lane keeping its last time)."""

    lanes: list
    nfev: int
    t: np.ndarray


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def ode_solve(rhs, span, y0, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, events=None):
    """Adaptive Dormand-Prince 5(4) solve of y' = rhs(t, y) over span, with
    dense output: of one system, or of an ensemble of lanes in lockstep.

    For one system y0 is a vector, rhs(t, y) takes one time and one state,
    and the OdeResult returns.  For an ensemble y0 is an (L, d) stack with a
    span per lane (one span is shared), rhs(t, y) takes the (L_act,) times
    and (L_act, d) states of the lanes still running, and an OdeLanes
    returns.  One system is the one-lane ensemble.  Each lane keeps its own
    step size, error norm, events and event location, so it takes exactly
    the steps of its solo solve.  A lane leaves the stack at its span's end,
    at a terminal event, or at a LorentzLabError of its own: a stacked call
    that raises one is evaluated again row by row to find its lanes, and the
    other lanes go on.

    Each event is a function event(t, y) of one lane's time and state, and
    the lane stops where one changes sign, located on the step's interpolant
    by brent_root.  Raises ValueError for rtol below RTOL_FLOOR, a negative
    atol or a nonfinite y0; a lane whose step size falls to the spacing of
    floats ends with IntegratorFailure.  One system raises its lane's error.
    """
    if not rtol >= RTOL_FLOOR:
        raise ValueError(f"rtol {rtol} is below the integrator's floor "
                         f"{RTOL_FLOOR} (100 eps)")
    if not atol >= 0.0:
        raise ValueError("atol must be nonnegative")
    y = np.asarray(y0, dtype=float)
    if y.ndim not in (1, 2) or not y.size or not np.isfinite(y).all():
        raise ValueError("y0 must be a finite vector or a stack of them")
    if y.ndim == 2:
        spans = np.broadcast_to(np.asarray(span, dtype=float), (len(y), 2))
        return _lockstep(lambda t, Y: np.asarray(rhs(t, Y), dtype=float),
                         spans, y, rtol, atol, events)
    (lane,) = _lockstep(
        lambda t, Y: np.asarray(rhs(t[0], Y[0]), dtype=float)[None],
        np.array([span], dtype=float), y[None], rtol, atol, events).lanes
    if isinstance(lane, Exception):
        raise lane
    return lane


class _Lane:
    """One lane's step control and the segments it has accepted."""

    __slots__ = ("i", "t", "t_bound", "direction", "t_new", "h", "h_abs",
                 "min_step", "rejected", "fresh", "g", "nfev", "ts", "hs",
                 "y_olds", "Qs")

    def __init__(self, i, t0, t_bound):
        self.i, self.t, self.t_bound = i, t0, t_bound
        self.direction = np.sign(t_bound - t0) if t_bound != t0 else 1
        self.ts, self.hs, self.y_olds, self.Qs = [t0], [], [], []
        self.fresh, self.nfev = True, 0

    def result(self, status):
        ts = np.array(self.ts)
        return OdeResult(ts, self.nfev, status, DenseOutput(
            ts, np.array(self.hs), np.array(self.y_olds), np.array(self.Qs)))


class _Stack:
    """The lanes an ensemble solve still advances: lanes, the list of their
    _Lane records, and array attributes with one row per lane; keep(mask)
    drops the other lanes from all of them."""

    def __init__(self, lanes, **arrays):
        self.lanes = lanes
        vars(self).update(arrays)

    def keep(self, mask):
        self.lanes = [lane for lane, k in zip(self.lanes, mask) if k]
        for name, value in list(vars(self).items()):
            if isinstance(value, np.ndarray):
                setattr(self, name, value[mask])


def _lockstep(fun, spans, y0, rtol, atol, events):
    """The ensemble solve of ode_solve, fun(t, Y) taking and giving stacks.

    Each round every running lane makes one step attempt, and the stages of
    all of them go to fun as one stack.  The step controller is the one of
    Hairer, Norsett & Wanner, Solving ODEs I, II.4, with scipy's RK45
    constants and operation order, run lane by lane on scalars (each error
    norm a 1-D _rms), so a lane steps as its solo solve does: the stacked
    stage combinations round as the solo ones.
    """
    n_lanes, d = y0.shape
    out = [None] * n_lanes
    calls = 0
    act = _Stack([_Lane(i, t0, t1) for i, (t0, t1) in enumerate(spans)],
                 t=spans[:, 0].copy(), y=y0)

    def evaluate(t, y):
        """fun at the running lanes' times t and states y.  Where it raises a
        LorentzLabError, each row is evaluated alone: a lane whose row raises
        ends with that error and leaves act, and its row the stack returned."""
        nonlocal calls
        if not act.lanes:  # the last lane ended at an earlier stage
            return np.empty((0, d))
        calls += 1
        try:
            return fun(t, y)
        except LorentzLabError:
            pass
        rows, ok = [], np.ones(len(act.lanes), dtype=bool)
        for j, lane in enumerate(act.lanes):
            calls += 1
            try:
                rows.append(fun(t[j: j + 1], y[j: j + 1])[0])
            except LorentzLabError as err:
                out[lane.i], ok[j] = err, False
        act.keep(ok)
        return np.array(rows).reshape(-1, d)

    act.f = evaluate(act.t, act.y)
    empty = [lane.t == lane.t_bound for lane in act.lanes]
    for lane, y, no_step in zip(act.lanes, act.y, empty):
        lane.nfev += 1
        if no_step:  # one constant segment
            lane.ts.append(lane.t)
            lane.hs.append(1.0)
            lane.y_olds.append(y)
            lane.Qs.append(np.zeros((d, 4)))
            out[lane.i] = lane.result(0)
    act.keep([not no_step for no_step in empty])
    _initial_steps(evaluate, act, rtol, atol)
    for lane, y in zip(act.lanes, act.y):
        lane.nfev += 1
        lane.g = (None if events is None
                  else [event(lane.t, y) for event in events])
    clock = list(spans[:, 0])
    rounds = [clock.copy()]
    while act.lanes:
        small = []
        for lane in act.lanes:
            if lane.fresh:  # a new step
                lane.min_step = 10 * abs(
                    np.nextafter(lane.t, lane.direction * np.inf) - lane.t)
                lane.h_abs = max(lane.h_abs, lane.min_step)
                lane.rejected = False
            small.append(lane.h_abs < lane.min_step)
            lane.t_new = lane.t + lane.h_abs * lane.direction
            if lane.direction * (lane.t_new - lane.t_bound) > 0:
                lane.t_new = lane.t_bound
            lane.h = lane.t_new - lane.t
            lane.h_abs = abs(lane.h)
        if any(small):
            for lane in compress(act.lanes, small):
                out[lane.i] = IntegratorFailure(
                    "Required step size is less than spacing between numbers.")
            act.keep([not s for s in small])
        act.t = np.array([lane.t for lane in act.lanes])
        act.h = np.array([lane.h for lane in act.lanes])
        act.hcol = act.h[:, None]
        _rk_steps(evaluate, act)
        scale = atol + np.maximum(np.abs(act.y), np.abs(act.y_new)) * rtol
        errors = (_E @ act.K) * act.hcol / scale
        running = [True] * len(act.lanes)
        for j, (lane, error) in enumerate(zip(act.lanes, errors)):
            lane.nfev += 6
            error_norm = _rms(error)
            lane.fresh = error_norm < 1
            if not lane.fresh:
                lane.h_abs *= max(_MIN_FACTOR,
                                  _SAFETY * error_norm ** _ERROR_EXPONENT)
                lane.rejected = True
                continue
            factor = (_MAX_FACTOR if error_norm == 0 else
                      min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT))
            if lane.rejected:
                factor = min(1, factor)
            lane.h_abs *= factor
            try:
                status = _accept(lane, act.y[j], act.y_new[j],
                                 act.K[j].T.dot(_P), events)
            except LorentzLabError as err:
                out[lane.i], running[j] = err, False
                continue
            if status is not None:
                out[lane.i], running[j] = lane.result(status), False
            clock[lane.i] = lane.t
        rounds.append(clock.copy())
        fresh = [lane.fresh for lane in act.lanes]
        if all(fresh):
            act.y, act.f = act.y_new, act.f_new
        else:
            mask = np.array(fresh)[:, None]
            act.y = np.where(mask, act.y_new, act.y)
            act.f = np.where(mask, act.f_new, act.f)
        if not all(running):
            act.keep(running)
    return OdeLanes(out, calls, np.array(rounds))


def _accept(lane, y, y_new, Q, events):
    """Record lane's accepted step from y to y_new, with dense coefficients
    Q, and move lane to its end: the lane's status, 0 at its span's end, 1
    at a terminal event (located on the step's interpolant), else None."""
    t = lane.t_new
    lane.hs.append(lane.h)
    lane.y_olds.append(y)
    lane.Qs.append(Q)
    status = 0 if lane.direction * (t - lane.t_bound) >= 0 else None
    if events is not None:
        g_new = [event(t, y_new) for event in events]
        hit = [k for k, (a, b) in enumerate(zip(lane.g, g_new))
               if (a <= 0 <= b) or (b <= 0 <= a)]
        if hit:
            step = DenseOutput(np.array([lane.ts[-1], t]), np.array([lane.h]),
                               y[None], Q[None])
            roots = [brent_root(lambda s, e=events[k]: e(s, step(s)),
                                lane.ts[-1], t, xtol=4 * EPS) for k in hit]
            t = min(roots) if lane.direction > 0 else max(roots)
            status = 1
        lane.g = g_new
    if t == lane.ts[-1] and len(lane.ts) > 1:  # an event at the last node
        del lane.hs[-1], lane.y_olds[-1], lane.Qs[-1]
    else:
        lane.ts.append(t)
    lane.t = t
    return status


def _initial_steps(evaluate, act, rtol, atol):
    """Hairer, Norsett & Wanner's starting step (Solving ODEs I, II.4), for
    an error estimate of order 4, to each lane's h_abs; act.f holds the
    right-hand sides at the starts."""
    act.scale = atol + np.abs(act.y) * rtol
    act.d1 = np.array([_rms(f) for f in act.f / act.scale])
    act.h0 = np.array([
        min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1,
            abs(lane.t_bound - lane.t))
        for lane, d0, d1 in zip(act.lanes, map(_rms, act.y / act.scale),
                                act.d1)])
    step = act.h0 * [lane.direction for lane in act.lanes]
    f1 = evaluate(act.t + step, act.y + step[:, None] * act.f)
    for lane, h0, d1, diff in zip(act.lanes, act.h0, act.d1,
                                  (f1 - act.f) / act.scale):
        d2 = _rms(diff) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / 5)
        lane.h_abs = min(100 * h0, h1, abs(lane.t_bound - lane.t))


def _rk_steps(evaluate, act):
    """One Dormand-Prince step of size act.h from (act.t, act.y) on every
    lane, with y' = act.f there: the stages go to act.K[:, s], the last
    being act.f_new at the new point act.y_new."""
    act.ts = act.t[:, None] + _C * act.hcol
    act.K = np.empty(act.y.shape[:1] + (7,) + act.y.shape[1:])
    act.K[:, 0] = act.f
    for s, a in enumerate(_A[1:], start=1):
        rows = evaluate(act.ts[:, s], act.y + (a[:s] @ act.K[:, :s]) * act.hcol)
        act.K[:, s] = rows  # into act.K as evaluate left it
    act.y_new = act.y + act.hcol * (_B @ act.K[:, :-1])
    act.f_new = evaluate(act.ts[:, -1], act.y_new)
    act.K[:, -1] = act.f_new


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


# the 4-point Gauss-Legendre rule on [-1, 1]: nodes and weights, exact to
# degree 7
_GAUSS_NODES = np.array([-math.sqrt(3 / 7 + 2 / 7 * math.sqrt(6 / 5)),
                         -math.sqrt(3 / 7 - 2 / 7 * math.sqrt(6 / 5)),
                         math.sqrt(3 / 7 - 2 / 7 * math.sqrt(6 / 5)),
                         math.sqrt(3 / 7 + 2 / 7 * math.sqrt(6 / 5))])
_GAUSS_WEIGHTS = np.array([18 - math.sqrt(30), 18 + math.sqrt(30),
                           18 + math.sqrt(30), 18 - math.sqrt(30)]) / 36


def step_quadrature(ts):
    """(nodes, weights) of the 4-point Gauss-Legendre rule on each interval
    between consecutive breakpoints ts, so that weights @ fun(nodes) is the
    integral of fun from ts[0] to ts[-1]."""
    ts = np.asarray(ts, dtype=float)
    mid, half = (ts[1:] + ts[:-1]) / 2, (ts[1:] - ts[:-1]) / 2
    return ((mid[:, None] + half[:, None] * _GAUSS_NODES).ravel(),
            (half[:, None] * _GAUSS_WEIGHTS).ravel())


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


