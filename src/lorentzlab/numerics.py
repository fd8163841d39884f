"""Small numerical utilities: ODE wrapper, stencils, matrix quadrature."""

from __future__ import annotations

import numpy as np
from scipy.integrate import OdeSolution, solve_ivp

from .errors import DomainViolation, InsufficientSamples, IntegratorFailure

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-11

# how far outside its span a dense output is still read: span ends are computed
_SPAN_SLACK = 1e-12


def ode_solve(rhs, span, y0, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL, events=None):
    """Adaptive RK45 solve with dense output; raises on solver failure."""
    sol = solve_ivp(rhs, span, np.asarray(y0, dtype=float), method="RK45",
                    rtol=rtol, atol=atol, dense_output=True, events=events)
    if sol.status == -1:
        raise IntegratorFailure(sol.message)
    return sol


def dense_in_span(dense, span, t, what):
    """dense(t), with DomainViolation for a parameter outside span, which a
    dense output would extrapolate from its last step."""
    ts = np.asarray(t, dtype=float)
    lo, hi = sorted(span)
    outside = ts[~((ts >= lo - _SPAN_SLACK) & (ts <= hi + _SPAN_SLACK))]
    if outside.size:
        raise DomainViolation(f"t={outside[0]} outside the {what}'s span "
                              f"[{lo}, {hi}]")
    return dense(ts)


def join_dense(pieces):
    """One dense output from consecutive solves, given as (dense, end) pairs:
    each is read up to end, where the next one starts."""
    ts, interpolants = [pieces[0][0].ts[0]], []
    for dense, end in pieces:
        inner = dense.ts[1:][(dense.ts[1:] - end) * (end - dense.ts[0]) < 0]
        ts += [*inner, end]
        interpolants += dense.interpolants[:len(inner) + 1]
    return OdeSolution(ts, interpolants)


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


def adaptive_simpson(fun, a, b, tol=1e-9, max_depth=32):
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
        if err <= 15.0 * tol * scale or depth >= max_depth:
            return left + right + (left + right - whole) / 15.0
        return (rec(a, m, fa, flm, fm, left, depth + 1)
                + rec(m, b, fm, frm, fb, right, depth + 1))

    return rec(a, b, fa, fm, fb, whole, 0)


def golden_minimize(fun, lo, hi, iters=80):
    """Golden-section minimum of a unimodal function on [lo, hi].

    Fixed iteration count; robust on kinked functions like |t - t*| where
    parabolic-interpolation minimizers stall early.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
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


