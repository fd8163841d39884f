"""Geodesic congruences: trajectories, parallel frames, curvature endomorphisms.

A timelike unit geodesic c carries an orthonormal frame E_1..E_{n-1} of its
normal bundle N(c) = (c')^perp.  A null geodesic beta carries a
pseudo-orthonormal completion {beta', nvec, E_1..E_{n-2}} with
g(nvec, beta') = -1 and g(nvec, nvec) = 0; the spacelike E_i represent the
quotient N(beta)/[beta'], which is where the curvature endomorphism lives.
All endomorphisms are reported as matrices in these frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import manifold
from .errors import FrameDegeneracy, IntegratorFailure, ZeroVector
from .manifold import (LocalGeometry, MetricField, ScalarField, christoffel,
                       christoffel_unchecked, local_geometry)
from .numerics import (DEFAULT_ATOL, DEFAULT_RTOL, dense_in_span, join_dense,
                       ode_solve)

TIMELIKE = "timelike"
NULL = "null"


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
    exited_domain: bool = False
    _dense: object = field(default=None, repr=False)

    def _evaluate(self, t):  # [c, c', rows...], a column per parameter
        return dense_in_span(self._dense, self.span, t, "geodesic")

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


def _transport_rhs(g: MetricField):
    """y = [x, v, w_1, ...] moves by x' = v, v' = -Gamma(v, v) and
    w_i' = -Gamma(v, w_i), all from one Christoffel evaluation; a bare
    geodesic carries no rows w_i."""
    n = g.dim

    def rhs(t, y):
        x, moving = y[:n], y[n:].reshape(-1, n)
        gamma = christoffel_unchecked(g, x)
        dmoving = -np.einsum("abc,b,ic->ia", gamma, moving[0], moving)
        return np.concatenate([moving[0], dmoving.ravel()])
    return rhs


def integrate_geodesic(g: MetricField, p0, v0, span, rtol=DEFAULT_RTOL,
                       atol=DEFAULT_ATOL, normalize=True) -> GeodesicTrajectory:
    """Solve c'' + Gamma(c', c') = 0 from (p0, v0) over span.

    Timelike initial velocities are rescaled to g(v, v) = -1 unless
    normalize=False.  If the trajectory exits the declared coordinate domain
    the partial trajectory is returned with exited_domain set.
    """
    p0 = np.asarray(p0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if np.all(v0 == 0.0):
        raise ZeroVector("geodesic needs a nonzero initial velocity")
    q = g.inner(p0, v0, v0)
    character = manifold.causal_character(g, p0, v0)
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
                    # positive inside the domain: y[c] - lo, hi - y[c]
                    ev = (lambda t, y, c=c, b=bound, s=side: s * (y[c] - b))
                    ev.terminal = True
                    events.append(ev)

    sol = ode_solve(_transport_rhs(g), span, np.concatenate([p0, v0]),
                    rtol=rtol, atol=atol, events=events)
    traj = GeodesicTrajectory(
        metric=g, character=character, norm=norm, t0=span[0], t1=sol.t[-1],
        stats={"nfev": sol.nfev, "n_steps": len(sol.t), "status": sol.status},
        exited_domain=sol.status == 1, _dense=sol.sol)
    _check_norm_conservation(traj)
    return traj


_NORM_SAMPLES = 200  # least size of the norm check's uniform grid


def _check_norm_conservation(traj: GeodesicTrajectory, tol=1e-8):
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
    """

    geodesic: GeodesicTrajectory
    k: int
    reorth_events: list

    def _rows(self, t):
        """[c, c', stack...] at t as rows: (m, n), or (N, m, n) for N
        parameters."""
        y = np.ascontiguousarray(np.moveaxis(self.geodesic._evaluate(t), 0, -1))
        return y.reshape(np.shape(t) + (-1, self.geodesic.metric.dim))

    def state(self, t):
        """(c(t), c'(t), E(t)), E with the k frame vectors as rows."""
        rows = self._rows(t)
        first = 3 if self.geodesic.character == NULL else 2
        return rows[..., 0, :], rows[..., 1, :], rows[..., first:, :]

    def vectors(self, t) -> np.ndarray:
        return self.state(t)[2]

    def null_partner(self, t) -> np.ndarray:
        if self.geodesic.character != NULL:
            raise ValueError("null partner only exists along null geodesics")
        return self._rows(t)[..., 2, :]

    def gram_residual(self, t):
        """Largest deviation of the stack's inner products at t from
        g(E_i, E_j) = delta_ij, g(E_i, c') = 0 and, for a null partner,
        g(nvec, nvec) = 0, g(nvec, c') = -1."""
        rows = self._rows(t)
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
        before, at, after = self._rows(np.array([t - delta, t, t + delta]))
        E_dot = (after[2:] - before[2:]) / (2.0 * delta)
        gamma = christoffel(self.geodesic.metric, at[0])
        covariant = E_dot + np.einsum("abc,b,ic->ia", gamma, at[1], at[2:])
        return float(np.max(np.abs(covariant)))


def _gram_schmidt_spacelike(g, candidates, against, k, pivot_tol=1e-10):
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
        if best is None or best_norm < pivot_tol:
            raise FrameDegeneracy(
                f"Gram-Schmidt pivot {best_norm:.3e} below {pivot_tol:.1e}")
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
# pieces of the span.
_MONITOR_INTERVALS = 32
# The frame is solved at tolerances tighter than the geodesic's by this
# factor: over a whole span in one solve, the 1e-9 Gram accuracy of the
# transported rows needs it.  rtol stops at scipy's floor of 100 eps.
_FRAME_TOL_FACTOR = 1e-3
_RTOL_FLOOR = 100.0 * np.finfo(float).eps


def parallel_frame(g: MetricField, geo: GeodesicTrajectory,
                   reorth_threshold=1e-6, rtol=DEFAULT_RTOL,
                   atol=DEFAULT_ATOL) -> FrameField:
    """Solve geo again from its start, with a parallel frame carried along.

    The frame is built by Gram-Schmidt and transported with c and c' in one
    solve over geo.span, at rtol and atol tightened by _FRAME_TOL_FACTOR,
    without re-orthogonalization, so transport error stays observable.  A
    drift monitor reads the Gram residual at 33 equally spaced nodes; where
    it exceeds reorth_threshold, it records (t, residual) in reorth_events,
    re-orthogonalizes and solves again from that node.  The frame's geodesic
    is the joint dense output of the pieces.
    """
    n = g.dim
    k = n - 1 if geo.character == TIMELIKE else n - 2
    if k < 1:
        raise FrameDegeneracy(
            f"the normal bundle of a {geo.character} geodesic in dimension {n} "
            "has no spacelike frame")
    x0, v0 = geo.state(geo.t0)
    seeds = np.eye(n)
    if geo.character == NULL:  # the partner comes from a timelike seed
        seeds = np.vstack([np.linalg.eigh(g.at(x0))[1][:, 0], seeds])
    y0 = _orthonormal_rows(g, geo.character, np.vstack([x0, v0, seeds]), k)
    rhs, rtol = _transport_rhs(g), max(rtol * _FRAME_TOL_FACTOR, _RTOL_FLOOR)
    nodes = np.linspace(geo.t0, geo.t1, _MONITOR_INTERVALS + 1)
    events, pieces, nfev, start = [], [], 0, 0
    while True:
        sol = ode_solve(rhs, (nodes[start], geo.t1), y0.ravel(), rtol=rtol,
                        atol=atol * _FRAME_TOL_FACTOR)
        nfev += sol.nfev
        piece = FrameField(replace(geo, _dense=sol.sol), k, [])
        later = nodes[start + 1:]
        drift = piece.gram_residual(later)
        over = np.flatnonzero(drift > reorth_threshold)
        if over.size:
            events.append((float(later[over[0]]), float(drift[over[0]])))
        if not over.size or over[0] == len(later) - 1:
            pieces.append((sol.sol, geo.t1))
            break
        start += 1 + over[0]
        pieces.append((sol.sol, nodes[start]))
        y0 = _orthonormal_rows(g, geo.character, piece._rows(nodes[start]), k)

    dense = join_dense(pieces)
    joint = replace(geo, _dense=dense,
                    stats={"nfev": nfev, "n_steps": len(dense.ts), "status": 0})
    _check_norm_conservation(joint)
    return FrameField(geodesic=joint, k=k, reorth_events=events)


# ---------------------------------------------------------------------------
# curvature endomorphisms
# ---------------------------------------------------------------------------

def curvature_endomorphism(g: MetricField, frame: FrameField, t) -> np.ndarray:
    """Matrix of v -> R(v, c') c' on the frame at parameter t.

    Entries M[j, i] = g(R(E_i, c') c', E_j); the matrix is self-adjoint in an
    orthonormal frame.  Along null geodesics the same formula computed on
    quotient representatives is well defined because R(beta', beta') = 0.
    """
    x, v, E = frame.state(t)
    return local_geometry(g, x).curvature_matrix(v, E, E)


def modified_endomorphism(g: MetricField, f: ScalarField, frame: FrameField,
                          t) -> np.ndarray:
    """Weighted endomorphism R_f = R + (Hess f(c',c')/d) E + ((f o c)'/d)^2 E.

    d is the frame dimension (n-1 timelike, n-2 on the null quotient); the
    same normalization enters the weighted expansion, so the trace identity
    closes with matching coefficients in both cases.
    """
    x, v, E = frame.state(t)
    return weighted_endomorphism(local_geometry(g, x), f, v, E)


def weighted_endomorphism(geom: LocalGeometry, f: ScalarField, v, E) -> np.ndarray:
    """R_f on the frame rows E, from the geometry geom at c(t) and v = c'(t):
    R + (Hess f(v, v)/d + (df(v)/d)^2) E, d = the number of rows."""
    d = len(E)
    hess_cc = float(v @ geom.hessian(f) @ v)
    fprime = float(f.gradient(geom.p) @ v)
    return (geom.curvature_matrix(v, E, E)
            + (hess_cc / d + (fprime / d) ** 2) * np.eye(d))


def quotient_invariance_residual(g: MetricField, frame: FrameField, t,
                                 shift=0.37) -> float:
    """Change of endomorphism matrix under E_i -> E_i + shift * beta'.

    Must vanish (<= 1e-7) for the quotient-bundle reduction to be well
    defined."""
    if frame.geodesic.character != NULL:
        raise ValueError("quotient invariance only applies to null geodesics")
    x, v, E = frame.state(t)
    geom = local_geometry(g, x)
    base = geom.curvature_matrix(v, E, E)
    shifted = geom.curvature_matrix(v, E + shift * v[None, :], E)
    return float(np.max(np.abs(shifted - base)))


@dataclass
class EndomorphismSeries:
    """R(t) and R_f(t) along a geodesic, evaluated where they are asked for.

    A view of (g, frame, f) that stores no samples: calling it is
    curvature_endomorphism at t, and .modified(t) is modified_endomorphism,
    or R(t) when f is None.  A parameter outside the geodesic's span raises
    DomainViolation from the frame.
    """

    g: MetricField
    frame: FrameField
    f: ScalarField | None = None

    def __call__(self, t) -> np.ndarray:
        return curvature_endomorphism(self.g, self.frame, t)

    def modified(self, t) -> np.ndarray:
        if self.f is None:
            return self(t)
        return modified_endomorphism(self.g, self.f, self.frame, t)
