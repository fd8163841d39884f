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
from .errors import (DomainViolation, FrameDegeneracy, IntegratorFailure,
                     ZeroVector)
from .manifold import (LocalGeometry, MetricField, ScalarField, christoffel,
                       christoffel_unchecked, local_geometry)
from .numerics import DEFAULT_ATOL, DEFAULT_RTOL, ode_solve

TIMELIKE = "timelike"
NULL = "null"


@dataclass
class GeodesicTrajectory:
    """An affinely parametrized geodesic with dense interpolation."""

    metric: MetricField
    character: str
    norm: float
    t0: float
    t1: float
    ts: np.ndarray
    points: np.ndarray
    velocities: np.ndarray
    stats: dict
    exited_domain: bool = False
    _sol: object = field(default=None, repr=False)

    def point(self, t):
        return self._sol.sol(t)[: self.metric.dim]

    def velocity(self, t):
        return self._sol.sol(t)[self.metric.dim:]

    def state(self, t):
        """(c(t), c'(t)) from one dense evaluation; for an array of
        parameters, two arrays with one row per parameter."""
        y = self._sol.sol(t)
        n = self.metric.dim
        return np.ascontiguousarray(y[:n].T), np.ascontiguousarray(y[n:].T)

    @property
    def span(self):
        return (self.t0, self.t1)


def integrate_geodesic(g: MetricField, p0, v0, span, rtol=DEFAULT_RTOL,
                       atol=DEFAULT_ATOL, normalize=True, n_samples=200) -> GeodesicTrajectory:
    """Solve c'' + Gamma(c', c') = 0 from (p0, v0) over span.

    Timelike initial velocities are rescaled to g(v, v) = -1 unless
    normalize=False.  If the trajectory exits the declared coordinate domain
    the partial trajectory is returned with exited_domain set.
    """
    n = g.dim
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

    def rhs(t, y):
        x, v = y[:n], y[n:]
        gamma = christoffel_unchecked(g, x)
        acc = -np.einsum("abc,b,c->a", gamma, v, v)
        return np.concatenate([v, acc])

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

    sol = ode_solve(rhs, span, np.concatenate([p0, v0]), rtol=rtol, atol=atol,
                    events=events)
    exited = sol.status == 1
    t_end = sol.t[-1]
    ts = np.linspace(span[0], t_end, max(n_samples, 2 * len(sol.t)))
    states = sol.sol(ts)
    traj = GeodesicTrajectory(
        metric=g, character=character, norm=norm, t0=span[0], t1=t_end,
        ts=ts, points=states[:n].T.copy(), velocities=states[n:].T.copy(),
        stats={"nfev": sol.nfev, "n_steps": len(sol.t), "status": sol.status},
        exited_domain=exited, _sol=sol)
    _check_norm_conservation(traj)
    return traj


def _check_norm_conservation(traj: GeodesicTrajectory, tol=1e-8):
    G = traj.metric.at(traj.points)
    v = traj.velocities
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
    """Parallel frame along a geodesic.

    For timelike geodesics vectors(t) has n-1 rows spanning (c')^perp.  For
    null geodesics it has n-2 spacelike rows representing the quotient
    bundle, and null_partner(t) returns the auxiliary null vector nvec with
    g(nvec, beta') = -1 that completes the pseudo-orthonormal frame.
    """

    geodesic: GeodesicTrajectory
    k: int
    reorth_events: list
    _segments: list = field(repr=False, default_factory=list)

    def _segment_for(self, t):
        for (a, b, sol) in self._segments:
            lo, hi = (a, b) if a <= b else (b, a)
            if lo - 1e-12 <= t <= hi + 1e-12:
                return sol
        raise DomainViolation(f"t={t} outside the geodesic's span "
                              f"[{self.geodesic.t0}, {self.geodesic.t1}]")

    def _stack(self, t):
        return self._segment_for(t).sol(t).reshape(-1, self.geodesic.metric.dim)

    def vectors(self, t) -> np.ndarray:
        rows = self._stack(t)
        return rows[1:] if self.geodesic.character == NULL else rows

    def null_partner(self, t) -> np.ndarray:
        if self.geodesic.character != NULL:
            raise ValueError("null partner only exists along null geodesics")
        return self._stack(t)[0]

    def gram_residual(self, t) -> float:
        geo = self.geodesic
        x, v = geo.state(t)
        g = geo.metric.at(x)
        E = self.vectors(t)
        resid = np.max(np.abs(E @ g @ E.T - np.eye(self.k)))
        resid = max(resid, np.max(np.abs(E @ g @ v)))
        if geo.character == NULL:
            nv = self.null_partner(t)
            resid = max(resid, abs(float(nv @ g @ nv)),
                        abs(float(nv @ g @ v) + 1.0),
                        np.max(np.abs(E @ g @ nv)))
        return float(resid)

    def transport_residual(self, t, delta=1e-4) -> float:
        """|E' + Gamma(c', E)| via central differencing of the dense frame."""
        geo = self.geodesic
        E_dot = (self._stack(t + delta) - self._stack(t - delta)) / (2.0 * delta)
        x, v = geo.state(t)
        gamma = christoffel(geo.metric, x)
        covariant = E_dot + np.einsum("abc,b,ic->ia", gamma, v, self._stack(t))
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


def _complete_frame(G, v, candidates, k, nvec=None):
    """k spacelike g-orthonormal vectors from candidates, g-orthogonal to the
    unit timelike v, or on a null geodesic to v and its partner nvec (which
    then heads the returned stack)."""
    if nvec is None:
        def reduce(w):
            # v unit timelike: w + g(w, v) v is g-orthogonal to v
            return w + float(w @ G @ v) * v
    else:
        def reduce(w):
            # remove v- and nvec-components using the dual pairing g(v, nvec) = -1
            return w + float(w @ G @ nvec) * v + float(w @ G @ v) * nvec
    E = np.array(_gram_schmidt_spacelike(G, candidates, [reduce], k))
    return E if nvec is None else np.vstack([nvec, E])


def _initial_frame(g: MetricField, p, v, character):
    n = g.dim
    G = g.at(p)
    candidates = list(np.eye(n))
    if character == TIMELIKE:
        return _complete_frame(G, v, candidates, n - 1)
    # null: build nvec from a unit timelike seed, then n-2 spacelike reps
    eigval, eigvec = np.linalg.eigh(G)
    tdir = eigvec[:, 0]
    T = tdir / np.sqrt(-float(tdir @ G @ tdir))
    a = float(T @ G @ v)
    if abs(a) < 1e-12:
        raise FrameDegeneracy("degenerate null direction")
    alpha = -1.0 / a
    nvec = alpha * T + (alpha / (2.0 * a)) * v
    return _complete_frame(G, v, candidates, n - 2, nvec)


def parallel_frame(g: MetricField, geo: GeodesicTrajectory,
                   reorth_threshold=1e-6, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL,
                   n_checks=32) -> FrameField:
    """Propagate a frame by the parallel-transport ODE along geo.

    The frame is built once at the start by Gram-Schmidt and then transported
    without re-orthogonalization, so transport error stays observable.  A
    drift monitor re-orthogonalizes only when the Gram residual exceeds
    reorth_threshold and records each such event.
    """
    n = g.dim
    k = n - 1 if geo.character == TIMELIKE else n - 2
    if k < 1:
        raise FrameDegeneracy(
            f"the normal bundle of a {geo.character} geodesic in dimension {n} "
            "has no spacelike frame")
    stack0 = _initial_frame(g, geo.point(geo.t0), geo.velocity(geo.t0),
                            geo.character)

    def rhs(t, y):
        x, v = geo.state(t)
        gamma = christoffel_unchecked(g, x)
        E = y.reshape(-1, n)
        dE = -np.einsum("abc,b,ic->ia", gamma, v, E)
        return dE.ravel()

    frame = FrameField(geodesic=geo, k=k, reorth_events=[])
    nodes = np.linspace(geo.t0, geo.t1, n_checks + 1)
    current = stack0
    for a, b in zip(nodes[:-1], nodes[1:]):
        sol = ode_solve(rhs, (a, b), current.ravel(), rtol=rtol, atol=atol)
        frame._segments.append((a, b, sol))
        current = sol.sol(b).reshape(-1, n)
        drift = frame.gram_residual(b)
        if drift > reorth_threshold:
            frame.reorth_events.append((float(b), float(drift)))
            current = _reorthogonalize(g, geo, b, current)
    return frame


def _reorthogonalize(g, geo, t, stack):
    x, v = geo.state(t)
    G = g.at(x)
    if geo.character == TIMELIKE:
        return _complete_frame(G, v, list(stack), stack.shape[0])
    nvec = stack[0]
    # restore g(nvec, v) = -1 and g(nvec, nvec) = 0, then re-run the spacelike GS
    nvec = nvec / (-float(nvec @ G @ v))
    nvec = nvec - 0.5 * float(nvec @ G @ nvec) * v
    return _complete_frame(G, v, list(stack[1:]), stack.shape[0] - 1, nvec)


# ---------------------------------------------------------------------------
# curvature endomorphisms
# ---------------------------------------------------------------------------

def curvature_endomorphism(g: MetricField, geo: GeodesicTrajectory,
                           frame: FrameField, t) -> np.ndarray:
    """Matrix of v -> R(v, c') c' on the frame at parameter t.

    Entries M[j, i] = g(R(E_i, c') c', E_j); the matrix is self-adjoint in an
    orthonormal frame.  Along null geodesics the same formula computed on
    quotient representatives is well defined because R(beta', beta') = 0.
    """
    x, v = geo.state(t)
    E = frame.vectors(t)
    return local_geometry(g, x).curvature_matrix(v, E, E)


def modified_endomorphism(g: MetricField, f: ScalarField,
                          geo: GeodesicTrajectory, frame: FrameField, t) -> np.ndarray:
    """Weighted endomorphism R_f = R + (Hess f(c',c')/d) E + ((f o c)'/d)^2 E.

    d is the frame dimension (n-1 timelike, n-2 on the null quotient); the
    same normalization enters the weighted expansion, so the trace identity
    closes with matching coefficients in both cases.
    """
    x, v = geo.state(t)
    E = frame.vectors(t)  # first: off the geodesic's span it raises
    return weighted_endomorphism(local_geometry(g, x), f, v, E)


def weighted_endomorphism(geom: LocalGeometry, f: ScalarField, v, E) -> np.ndarray:
    """R_f on the frame rows E, from the geometry geom at c(t) and v = c'(t):
    R + (Hess f(v, v)/d + (df(v)/d)^2) E, d = the number of rows."""
    d = len(E)
    hess_cc = float(v @ geom.hessian(f) @ v)
    fprime = float(f.gradient(geom.p) @ v)
    return (geom.curvature_matrix(v, E, E)
            + (hess_cc / d + (fprime / d) ** 2) * np.eye(d))


def quotient_invariance_residual(g: MetricField, geo: GeodesicTrajectory,
                                 frame: FrameField, t, shift=0.37) -> float:
    """Change of endomorphism matrix under E_i -> E_i + shift * beta'.

    Must vanish (<= 1e-7) for the quotient-bundle reduction to be well
    defined."""
    if geo.character != NULL:
        raise ValueError("quotient invariance only applies to null geodesics")
    x, v = geo.state(t)
    geom = local_geometry(g, x)
    E = frame.vectors(t)
    base = geom.curvature_matrix(v, E, E)
    shifted = geom.curvature_matrix(v, E + shift * v[None, :], E)
    return float(np.max(np.abs(shifted - base)))


@dataclass
class EndomorphismSeries:
    """R(t) and R_f(t) along a geodesic, evaluated where they are asked for.

    A view of (g, geo, frame, f) that stores no samples: calling it is
    curvature_endomorphism at t, and .modified(t) is modified_endomorphism,
    or R(t) when f is None.  A parameter outside the geodesic's span raises
    DomainViolation from the frame.
    """

    g: MetricField
    geo: GeodesicTrajectory
    frame: FrameField
    f: ScalarField | None = None

    def __call__(self, t) -> np.ndarray:
        return curvature_endomorphism(self.g, self.geo, self.frame, t)

    def modified(self, t) -> np.ndarray:
        if self.f is None:
            return self(t)
        return modified_endomorphism(self.g, self.f, self.geo, self.frame, t)
