"""Geodesic congruences: trajectories, parallel frames, curvature endomorphisms.

A timelike unit geodesic c carries an orthonormal frame E_1..E_{n-1} of its
normal bundle N(c) = (c')^perp.  A null geodesic beta carries a
pseudo-orthonormal completion {beta', nvec, E_1..E_{n-2}} with
g(nvec, beta') = -1 and g(nvec, nvec) = 0; the spacelike E_i represent the
quotient N(beta)/[beta'], which is where the curvature endomorphism lives.
All endomorphisms are reported as matrices in these frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import manifold
from .errors import FrameDegeneracy, IntegratorFailure, LorentzLabError
from .manifold import LocalGeometry, MetricField, ScalarField, christoffel
from .numerics import DEFAULT_ATOL, DEFAULT_RTOL, RTOL_FLOOR, ode_solve

TIMELIKE = "timelike"
NULL = "null"
_PIVOT_TOL = 1e-10  # least squared norm of a Gram-Schmidt pivot
_QUOTIENT_SHIFT = 0.37  # multiple of beta' added in quotient_invariance_residual


@dataclass
class GeodesicTrajectory:
    """An affinely parametrized geodesic with dense interpolation, read at
    one parameter or an array of them; off the span, DomainViolation."""

    metric: MetricField
    character: str
    norm: float
    t0: float
    t1: float
    stats: dict
    exited_domain: bool
    _dense: object = field(repr=False)

    def _evaluate(self, t):  # [c, c', rows...], a column per parameter
        return self._dense(t, "geodesic")

    def rows(self, t):
        """[c, c', rows...] at t as (m, n) rows; (N, m, n) for N parameters."""
        y = np.ascontiguousarray(np.moveaxis(self._evaluate(t), 0, -1))
        return y.reshape(np.shape(t) + (-1, self.metric.dim))

    def point(self, t):
        return self._evaluate(t)[: self.metric.dim]

    def velocity(self, t):
        return self._evaluate(t)[self.metric.dim: 2 * self.metric.dim]

    def state(self, t):
        """(c(t), c'(t)) from one dense evaluation; for an array of
        parameters, two arrays with one row per parameter."""
        y = self._evaluate(t)
        n = self.metric.dim
        return (np.ascontiguousarray(y[:n].T),
                np.ascontiguousarray(y[n: 2 * n].T))

    @property
    def span(self):
        return (self.t0, self.t1)

    @property
    def step_times(self):
        """The solve's accepted step times, t0 first and t1 last."""
        return self._dense.ts


def _transport_rhs(g: MetricField):
    """y = [x, v, w_1, ...] moves by x' = v, v' = -Gamma(v, v) and
    w_i' = -Gamma(v, w_i), all from one stage geometry; a bare geodesic
    carries no rows w_i.  A stack of states, one per row, moves row by row
    from one stacked stage geometry, each row as that state alone."""
    n = g.dim

    def rhs(t, y):
        x, moving = y[..., :n], y[..., n:].reshape(y.shape[:-1] + (-1, n))
        v = moving[..., 0, :]
        gamma = LocalGeometry.stage(g, x).gamma
        dmoving = -np.einsum("...abc,...b,...ic->...ia", gamma, v, moving)
        return np.concatenate([v, dmoving.reshape(y.shape[:-1] + (-1,))],
                              axis=-1)
    return rhs


# A domain exit stops this far inside the chart, relative to max(1, |bound|):
# at the bound, the end state read again can round to just outside it.
_EXIT_MARGIN = 1e-10


def _initial_data(g: MetricField, p0, v0, normalize):
    """(rows [p0; v0], character, norm, domain-exit events) of a geodesic.
    Zero and spacelike velocities are rejected; a timelike one is rescaled
    to g(v, v) = -1 unless normalize=False."""
    p0 = np.asarray(p0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    character = manifold.causal_character(g, p0, v0)  # ZeroVector for v0 = 0
    q = g.inner(p0, v0, v0)
    if character == "spacelike":
        raise ValueError("only timelike or null geodesics are supported")
    if character == TIMELIKE and normalize:
        v0 = v0 / np.sqrt(-q)
        q = -1.0
    norm = 0.0 if character == NULL else q

    events = None
    if g.domain is not None:
        events = []
        for c, (lo, hi) in enumerate(g.domain):
            for bound, side in ((lo, 1.0), (hi, -1.0)):
                if np.isfinite(bound):
                    # y[c] - lo - d or hi - y[c] - d, positive inside
                    d = _EXIT_MARGIN * max(1.0, abs(bound))
                    events.append(lambda t, y, c=c, b=bound, s=side, d=d:
                                  s * (y[c] - b) - d)
    return np.vstack([p0, v0]), character, norm, events


def _trajectory(g, character, norm, t0, sol):
    """The geodesic of the ode_solve result sol, started at t0."""
    return GeodesicTrajectory(
        metric=g, character=character, norm=norm, t0=t0, t1=sol.t[-1],
        stats={"nfev": sol.nfev, "n_steps": len(sol.t), "status": sol.status},
        exited_domain=sol.status == 1, _dense=sol.sol)


def _solve(rhs, g, character, norm, rows, span, rtol, atol, events):
    """The geodesic whose state, moved by rhs, starts with rows, solved over
    span."""
    sol = ode_solve(rhs, span, rows.ravel(), rtol=rtol, atol=atol,
                    events=events)
    return _trajectory(g, character, norm, span[0], sol)


def integrate_geodesic(g: MetricField, p0, v0, span, rtol=DEFAULT_RTOL,
                       atol=DEFAULT_ATOL, normalize=True) -> GeodesicTrajectory:
    """Solve c'' + Gamma(c', c') = 0 from (p0, v0) over span, with no frame.

    Timelike initial velocities are rescaled to g(v, v) = -1 unless
    normalize=False.  If the trajectory exits the declared coordinate domain
    the partial trajectory is returned with exited_domain set.
    """
    rows, character, norm, events = _initial_data(g, p0, v0, normalize)
    traj = _solve(_transport_rhs(g), g, character, norm, rows, span, rtol,
                  atol, events)
    _check_norm_conservation(traj, rtol)
    return traj


def _variation_rhs(g: MetricField):
    """y = [x, v, dx_1..dx_n, dv_1..dv_n]: the geodesic, x' = v and
    v' = -Gamma(v, v), with its variations dx_i' = dv_i and
    dv_i' = -(d Gamma . dx_i)(v, v) - 2 Gamma(v, dv_i).  A stack of states
    moves row by row, as _transport_rhs's does."""
    n = g.dim

    def rhs(t, y):
        lead = y.shape[:-1]
        x, v = y[..., :n], y[..., n: 2 * n]
        dx, dv = np.moveaxis(y[..., 2 * n:].reshape(lead + (2, n, n)), -3, 0)
        geom = LocalGeometry.stage(g, x)
        ddv = -(np.einsum("...eabc,...b,...c,...ie->...ia", geom.dgamma, v, v,
                          dx)
                + 2.0 * np.einsum("...abc,...b,...ic->...ia", geom.gamma, v,
                                  dv))
        return np.concatenate(
            [v, -np.einsum("...abc,...b,...c->...a", geom.gamma, v, v),
             dv.reshape(lead + (-1,)), ddv.reshape(lead + (-1,))], axis=-1)
    return rhs


def geodesic_variation(g: MetricField, p0, v0, span, rtol, atol):
    """(traj, J): the geodesic from (p0, v0) over span, as integrate_geodesic
    solves it with normalize=False (at a domain exit, the partial trajectory
    with exited_domain set), and J[a, i] = d c^a(t1) / d v0^i at the end t1
    it reached.

    J is the coordinate Jacobi tensor with J(0) = 0 and J'(0) = I
    (Eschenburg & O'Sullivan, Math. Ann. 252, 1980), solved with the
    geodesic by the variational equation, whose d Gamma comes from
    LocalGeometry.dgamma.  Its norm is checked as integrate_geodesic's is.

    Stacks of L points p0 and velocities v0, with a span per row (one span
    is shared), are L lanes of one ensemble ode_solve, each norm-checked on
    its own; the list returned holds each lane's (traj, J), or the
    LorentzLabError that ended its solve or norm check.  One lane is the
    one-point case.
    """
    if np.ndim(p0) == 1:
        (out,) = geodesic_variation(g, [p0], [v0], [span], rtol, atol)
        if isinstance(out, LorentzLabError):
            raise out
        return out
    n = g.dim
    spans = np.broadcast_to(np.asarray(span, dtype=float), (len(p0), 2))
    lanes = [_initial_data(g, p, v, normalize=False) for p, v in zip(p0, v0)]
    y0 = np.stack([np.vstack([rows, np.zeros((n, n)), np.eye(n)]).ravel()
                   for rows, _, _, _ in lanes])
    sols = ode_solve(_variation_rhs(g), spans, y0, rtol=rtol, atol=atol,
                     events=lanes[0][3]).lanes
    out = []
    for (_, character, norm, _), (t0, _), sol in zip(lanes, spans, sols):
        if not isinstance(sol, LorentzLabError):
            traj = _trajectory(g, character, norm, t0, sol)
            try:
                _check_norm_conservation(traj, rtol)
                sol = traj, traj.rows(traj.t1)[2: 2 + n].T
            except LorentzLabError as err:
                sol = err
        out.append(sol)
    return out


_NORM_SAMPLES = 200  # least size of the norm check's uniform grid
# norm drift allowed: this floor, or 10 rtol, since a solve at rtol cannot
# hold g(c', c') closer than its own tolerance
_NORM_DRIFT_FLOOR = 1e-8


def _check_norm_conservation(traj: GeodesicTrajectory, rtol):
    tol = max(_NORM_DRIFT_FLOOR, 10.0 * rtol)
    x, v = traj.state(np.linspace(traj.t0, traj.t1,
                                  max(_NORM_SAMPLES, 2 * traj.stats["n_steps"])))
    G = traj.metric.at(x)
    worst = float(np.max(np.abs(np.einsum("ia,iab,ib->i", v, G, v) - traj.norm)))
    if not worst <= tol:
        raise IntegratorFailure(
            f"geodesic norm drift {worst:.3e} exceeds {tol:.1e}; tighten tolerances")
    traj.stats["norm_drift"] = worst


def geodesic_residual(traj: GeodesicTrajectory, t, delta=1e-4) -> float:
    """|c'' + Gamma(c', c')| via central differencing of the dense velocity."""
    x, v = traj.state(t)
    acc = (traj.velocity(t + delta) - traj.velocity(t - delta)) / (2.0 * delta)
    gamma = christoffel(traj.metric, x)
    return float(np.linalg.norm(acc + np.einsum("abc,b,c->a", gamma, v, v)))


# ---------------------------------------------------------------------------
# parallel frames
# ---------------------------------------------------------------------------

@dataclass
class FrameField:
    """Parallel frame along a geodesic, solved together with it.

    geodesic's dense output carries the stack after c and c', so state(t)
    reads all three at once, at one parameter or an array of them.  For
    timelike geodesics vectors(t) has n-1 rows spanning (c')^perp.  For null
    geodesics it has n-2 spacelike rows representing the quotient bundle,
    and null_partner(t) returns the auxiliary null vector nvec with
    g(nvec, beta') = -1 that completes the pseudo-orthonormal frame.
    reorth_events holds one (t, residual) per solve the drift monitor sent
    back, at its first node over reorth_threshold; empty if the first solve
    held.
    """

    geodesic: GeodesicTrajectory
    k: int
    reorth_events: list

    def state(self, t):
        """(c(t), c'(t), E(t)), E with the k frame vectors as rows."""
        rows = self.geodesic.rows(t)
        first = 3 if self.geodesic.character == NULL else 2
        return rows[..., 0, :], rows[..., 1, :], rows[..., first:, :]

    def vectors(self, t) -> np.ndarray:
        return self.state(t)[2]

    def null_partner(self, t) -> np.ndarray:
        if self.geodesic.character != NULL:
            raise ValueError("null partner only exists along null geodesics")
        return self.geodesic.rows(t)[..., 2, :]

    def curvature(self, t, f: ScalarField | None = None) -> np.ndarray:
        """R(t), the matrix M[j, i] = g(R(E_i, c') c', E_j) on the frame, or
        with a weight f, R_f(t) = R + (Hess f(c', c')/d + ((f o c)'/d)^2) E.

        d = k is the frame dimension (n-1 timelike, n-2 on the null
        quotient), the normalization of the weighted expansion, so the trace
        identity closes in both cases.  R(t) is self-adjoint; along null
        geodesics it is well defined on quotient representatives because
        R(beta', beta') = 0.  One parameter gives a (k, k) matrix, an array
        of them an (N, k, k) stack, from one LocalGeometry.stage: the Jacobi
        solver reads R(t) at its stages, and the solved geodesic's grid was
        validated by its norm check.
        """
        x, v, E = self.state(t)
        geom = LocalGeometry.stage(self.geodesic.metric, x)
        R = geom.curvature_matrix(v, E, E)
        if f is None:
            return R
        hess = np.einsum("...a,...ab,...b->...", v, geom.hessian(f), v)
        fprime = np.einsum("...a,...a->...", f.gradient(x), v)
        shift = hess / self.k + (fprime / self.k) ** 2
        return R + shift[..., None, None] * np.eye(self.k)

    def gram_residual(self, t):
        """Largest deviation of the stack's inner products at t from
        g(E_i, E_j) = delta_ij, g(E_i, c') = 0 and, for a null partner,
        g(nvec, nvec) = 0, g(nvec, c') = -1."""
        rows = self.geodesic.rows(t)
        v, S = rows[..., 1, :], rows[..., 2:, :]
        GS = S @ self.geodesic.metric.at(rows[..., 0, :])
        gram = GS @ S.swapaxes(-1, -2) - np.eye(S.shape[-2])
        along = np.einsum("...ia,...a->...i", GS, v)
        if self.geodesic.character == NULL:
            gram[..., 0, 0] += 1.0
            along[..., 0] += 1.0
        resid = np.maximum(np.max(np.abs(gram), axis=(-2, -1)),
                           np.max(np.abs(along), axis=-1))
        return float(resid) if np.ndim(t) == 0 else resid

    def transport_residual(self, t, delta=1e-4) -> float:
        """|E' + Gamma(c', E)| via central differencing of the dense frame."""
        before, at, after = self.geodesic.rows(
            np.array([t - delta, t, t + delta]))
        E_dot = (after[2:] - before[2:]) / (2.0 * delta)
        gamma = christoffel(self.geodesic.metric, at[0])
        covariant = E_dot + np.einsum("abc,b,ic->ia", gamma, at[1], at[2:])
        return float(np.max(np.abs(covariant)))


def _gram_schmidt_spacelike(g, candidates, against, k):
    """Pick k g-orthonormal spacelike vectors from candidates, g-orthogonal
    to every vector in against (given with their dual coefficients applied)."""
    chosen = []
    pool = [np.asarray(c, dtype=float) for c in candidates]
    while len(chosen) < k:
        best, best_norm = None, -1.0
        for c in pool:
            w = c.copy()
            for reduce in against:
                w = reduce(w)
            for e in chosen:
                w = w - float(w @ g @ e) * e
            nrm = float(w @ g @ w)
            if nrm > best_norm:
                best, best_norm = w, nrm
        if best is None or best_norm < _PIVOT_TOL:
            raise FrameDegeneracy(
                f"Gram-Schmidt pivot {best_norm:.3e} below {_PIVOT_TOL:.1e}")
        chosen.append(best / np.sqrt(best_norm))
    return chosen


def _orthonormal_rows(g: MetricField, character, rows, k):
    """rows = [c, c', seeds...] with the seeds made a frame stack by
    Gram-Schmidt; on a null geodesic the partner nvec, made from the first
    seed by g(nvec, c') = -1 and g(nvec, nvec) = 0, heads it."""
    x, v, seeds = rows[0], rows[1], rows[2:]
    G = g.at(x)
    if character == TIMELIKE:
        def reduce(w):  # v unit timelike: w + g(w, v) v is g-orthogonal to v
            return w + float(w @ G @ v) * v
        return np.vstack([x, v, *_gram_schmidt_spacelike(G, seeds, [reduce], k)])
    a = float(seeds[0] @ G @ v)
    if abs(a) < 1e-12:
        raise FrameDegeneracy("degenerate null direction")
    nvec = seeds[0] / -a
    nvec = nvec + 0.5 * float(nvec @ G @ nvec) * v

    def reduce(w):  # remove the v- and nvec-parts by g(v, nvec) = -1
        return w + float(w @ G @ nvec) * v + float(w @ G @ v) * nvec
    return np.vstack([x, v, nvec,
                      *_gram_schmidt_spacelike(G, seeds[1:], [reduce], k)])


# The drift monitor reads the Gram residual at the ends of this many equal
# pieces of the span; a residual over reorth_threshold at any of them sends
# the whole span back to the integrator at tolerances tightened by
# _FRAME_TOL_FACTOR once more.
_MONITOR_INTERVALS = 32
# The frame is solved at tolerances tighter than the geodesic's by this
# factor: over a whole span in one solve, the 1e-9 Gram accuracy of the
# transported rows needs it.  rtol stops at the integrator's floor of
# 100 eps, RTOL_FLOOR.
_FRAME_TOL_FACTOR = 1e-3


def parallel_frame(g: MetricField, p0, v0, span, reorth_threshold=1e-6,
                   rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL) -> FrameField:
    """Solve the geodesic from (p0, v0) over span with a parallel frame
    carried along; the frame's geodesic is this one solution.

    The initial data are checked and normalized as in integrate_geodesic.
    The frame is built by Gram-Schmidt and transported with c and c' at rtol
    and atol tightened by _FRAME_TOL_FACTOR, without re-orthogonalization,
    so transport error stays observable; the solve stops at a domain exit.
    A drift monitor reads the Gram residual at the ends of 32 equal pieces
    of the span reached.  Where it exceeds reorth_threshold, the first such
    node's (t, residual) goes to reorth_events and the whole span is solved
    again from the same initial frame, at tolerances tightened by
    _FRAME_TOL_FACTOR once more; a drift left at rtol = RTOL_FLOOR raises
    IntegratorFailure.  The accepted solve is norm-checked at rtol; its
    stats count the calls of every solve.
    """
    rows, character, norm, exits = _initial_data(g, p0, v0, normalize=True)
    n = g.dim
    k = n - 1 if character == TIMELIKE else n - 2
    if k < 1:
        raise FrameDegeneracy(
            f"the normal bundle of a {character} geodesic in dimension {n} "
            "has no spacelike frame")
    seeds = np.eye(n)
    if character == NULL:  # the partner comes from a timelike seed
        seeds = np.vstack([np.linalg.eigh(g.at(rows[0]))[1][:, 0], seeds])
    y0 = _orthonormal_rows(g, character, np.vstack([rows, seeds]), k)
    rhs = _transport_rhs(g)
    events, nfev, tol = [], 0, (rtol, atol)
    while True:
        tol = (max(tol[0] * _FRAME_TOL_FACTOR, RTOL_FLOOR),
               tol[1] * _FRAME_TOL_FACTOR)
        geo = _solve(rhs, g, character, norm, y0, span, *tol, exits)
        nfev += geo.stats["nfev"]
        frame = FrameField(geo, k, events)
        nodes = np.linspace(geo.t0, geo.t1, _MONITOR_INTERVALS + 1)[1:]
        drift = frame.gram_residual(nodes)
        over = np.flatnonzero(drift > reorth_threshold)
        if not over.size:
            break
        events.append((float(nodes[over[0]]), float(drift[over[0]])))
        if tol[0] == RTOL_FLOOR:
            raise IntegratorFailure(
                f"frame Gram drift {events[-1][1]:.3e} at t={events[-1][0]:.6g}"
                f" exceeds reorth_threshold {reorth_threshold:.1e} at the "
                f"integrator's floor rtol {RTOL_FLOOR:.3e}")
    geo.stats["nfev"] = nfev
    _check_norm_conservation(geo, rtol)
    return frame


def quotient_invariance_residual(frame: FrameField, t) -> float:
    """Change of R(t) under E_i -> E_i + s beta', with s = _QUOTIENT_SHIFT.

    Must vanish (<= 1e-7) for the quotient-bundle reduction to be well
    defined."""
    if frame.geodesic.character != NULL:
        raise ValueError("quotient invariance only applies to null geodesics")
    x, v, E = frame.state(t)
    geom = LocalGeometry.stage(frame.geodesic.metric, x)
    shifted = geom.curvature_matrix(v, E + _QUOTIENT_SHIFT * v[None, :], E)
    return float(np.max(np.abs(shifted - geom.curvature_matrix(v, E, E))))
