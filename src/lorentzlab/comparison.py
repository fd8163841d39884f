"""Condition certificates and comparison-geometry checks.

Certificates are minima over finite samples, never proofs: reports carry the
sample count and the argmin so a denser rerun can confirm them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .congruence import FrameField, geodesic_variation
from .errors import (LorentzLabError, NoMaximalGeodesic, NonFiniteSample,
                     OutsideUniquenessRegion)
from .manifold import (BakryEmeryParams, LocalGeometry, MetricField,
                       ScalarField, _dot, bakry_emery_ricci, blockwise)
from .numerics import (DEFAULT_ATOL, DEFAULT_RTOL, RTOL_FLOOR, spawn_rngs,
                       step_quadrature)


@dataclass
class SampleSpec:
    """Deterministic sampling plan for direction-condition certificates."""

    points: np.ndarray
    n_timelike: int = 16
    seed: int = 20240
    chi_max: float = 3.0

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if not self.points.size:
            raise ValueError("at least one sample point is required")
        if self.n_timelike < 1:
            raise ValueError("at least one direction per point is required")


@dataclass
class ConditionReport:
    min_value: float
    argmin_point: np.ndarray
    argmin_vector: np.ndarray
    passed: bool
    n_samples: int
    threshold: float


def sample_plan(g: MetricField, spec: SampleSpec):
    """(points, directions): the deterministic sample set, directions[i, j]
    the j-th of the spec.n_timelike unit timelike vectors at points[i].

    Each direction is v = cosh(chi) e0 + sinh(chi) u, with e0 the timelike
    unit and u a unit combination of the spacelike units of a frame that
    Gram-Schmidt builds from the eigenvectors of g.  Boost-parameter sampling
    covers the near-null cone where the sign of the weighted curvature can
    flip.  Per-point generators are spawned from the seed, so the plan does
    not depend on evaluation order and two specs with the same seed sample
    the same directions.
    """
    points = spec.points
    G = g.at(points)
    vecs = np.swapaxes(np.linalg.eigh(G)[1], -1, -2)  # vecs[:, i]: i-th eigenvector
    e0 = vecs[:, 0] / np.sqrt(-_dot(vecs[:, 0], vecs[:, 0], G))[:, None]
    spatial = []
    for i in range(1, g.dim):
        w = vecs[:, i] + _dot(vecs[:, i], e0, G)[:, None] * e0
        for e in spatial:
            w = w - _dot(w, e, G)[:, None] * e
        spatial.append(w / np.sqrt(_dot(w, w, G))[:, None])
    shape = (len(points), spec.n_timelike)
    chi, u = np.empty(shape), np.empty(shape + (g.dim - 1,))
    for i, rng in enumerate(spawn_rngs(spec.seed, len(points))):
        for j in range(spec.n_timelike):  # per sample: chi, then u
            chi[i, j] = rng.uniform(0.0, spec.chi_max)
            u[i, j] = rng.normal(size=g.dim - 1)
    u = u / np.sqrt(_dot(u, u))[..., None]
    udir = sum(u[..., c, None] * e[:, None] for c, e in enumerate(spatial))
    return points, (np.cosh(chi)[..., None] * e0[:, None]
                    + np.sinh(chi)[..., None] * udir)


def finite_samples(values, points, directions):
    """values[i, j, ...], sampled at points[i] in directions[i, j]; raises
    NonFiniteSample naming the first sample where one is NaN or infinite."""
    bad = ~np.isfinite(values)
    if bad.any():
        i, j = np.unravel_index(np.argmax(bad), bad.shape)[:2]
        raise NonFiniteSample(f"sampled value not finite at point {points[i]} "
                              f"in direction {directions[i, j]}")
    return values


def check_timelike_convergence(g: MetricField, f: ScalarField,
                               params: BakryEmeryParams, spec: SampleSpec,
                               threshold=-1e-9) -> ConditionReport:
    """Minimum of Ric_f^m(v, v) over sampled unit timelike directions.

    The pointwise tensors Ric + Hess f and df are evaluated once per sample
    point, on stacked geometry in blocks of points, and contracted against
    all directions, so dense direction sampling is cheap.  The argmin is the
    first minimal sample in plan order.  Passes iff the sampled minimum stays
    above threshold; a sample that is not finite raises NonFiniteSample.
    """
    points, dirs = sample_plan(g, spec)

    def values(geom, v):
        val = _dot(v, v, (geom.ricci + geom.hessian(f))[:, None])
        if params.finite:
            # float_power is C pow, as the float ** 2 of a single sample
            df_v = _dot(f.gradient(geom.p)[:, None], v)
            val = val - np.float_power(df_v, 2.0) / params.m
        return val

    vals = finite_samples(blockwise(g, points, values, dirs), points, dirs)
    i, j = np.unravel_index(np.argmin(vals), vals.shape)
    best, arg_p, arg_v = float(vals[i, j]), points[i].copy(), dirs[i, j].copy()
    recheck = bakry_emery_ricci(g, f, params, arg_p, arg_v, arg_v)
    if abs(recheck - best) > 1e-12 * max(1.0, abs(best)):
        raise AssertionError("argmin re-evaluation mismatch")
    return ConditionReport(min_value=best, argmin_point=arg_p,
                           argmin_vector=arg_v, passed=best >= threshold,
                           n_samples=vals.size, threshold=threshold)


@dataclass
class GenericConditionReport:
    holds: bool
    witness_t: float | None
    max_norm: float


def check_f_generic(f: ScalarField, frame: FrameField,
                    threshold=1e-9) -> GenericConditionReport:
    """Does R_f(t) differ from zero somewhere along the frame's geodesic?

    R_f is evaluated on 200 samples of the span at once.  Returns the first
    witness parameter, or None when R_f vanishes on every sample to within
    threshold."""
    ts = np.linspace(*frame.geodesic.span, 200)
    norms = np.max(np.abs(frame.curvature(ts, f)), axis=(1, 2))
    over = np.flatnonzero(norms > threshold)
    witness = float(ts[over[0]]) if over.size else None
    return GenericConditionReport(holds=witness is not None, witness_t=witness,
                                  max_norm=float(np.max(norms)))


def trace_identity_check(f: ScalarField, params: BakryEmeryParams,
                         frame: FrameField, t):
    """|tr R_f - Ric_f^m(c',c') - (1/d + 1/m)((f o c)')^2| at parameter t,
    or the array of them at an array of parameters.

    The left side is assembled from the frame-based endomorphism, the right
    side from the pointwise curvature operations, so the two routes are
    independent."""
    x, v, _ = frame.state(t)
    lhs = np.trace(frame.curvature(t, f), axis1=-2, axis2=-1)
    fprime = np.einsum("...a,...a->...", f.gradient(x), v)
    rhs = LocalGeometry(frame.geodesic.metric, x).bakry_emery(f, params, v, v)
    coeff = 1.0 / frame.k + (0.0 if not params.finite else 1.0 / params.m)
    res = np.abs(lhs - rhs - coeff * fprime ** 2)
    return float(res) if np.ndim(t) == 0 else res


def schwarz_gap(theta, fprime, n, m):
    """Trace-splitting inequality gap, vectorized.

    lhs = theta^2/(n-1) + fprime^2/m, rhs = max over signs of
    (theta +/- fprime)^2/(n+m-1); gap = lhs - rhs >= 0, with equality exactly
    when m*theta = +/- (n-1)*fprime.
    """
    theta, fprime, n, m = (np.asarray(x, dtype=float)
                           for x in (theta, fprime, n, m))
    lhs = theta ** 2 / (n - 1.0) + fprime ** 2 / m
    rhs = (np.abs(theta) + np.abs(fprime)) ** 2 / (n + m - 1.0)
    return lhs, rhs, lhs - rhs


def schwarz_equality_residual(theta, fprime, n, m):
    """|m theta - (n-1) fprime| * |m theta + (n-1) fprime|, normalized.

    Vanishes exactly on the equality set of the trace-splitting inequality.
    """
    theta, fprime, n, m = (np.asarray(x, dtype=float)
                           for x in (theta, fprime, n, m))
    a = m * theta - (n - 1.0) * fprime
    b = m * theta + (n - 1.0) * fprime
    scale = np.maximum(1.0, m * np.abs(theta) + (n - 1.0) * np.abs(fprime)) ** 2
    return np.abs(a) * np.abs(b) / scale


# ---------------------------------------------------------------------------
# weighted Laplacian of the Lorentzian distance
# ---------------------------------------------------------------------------

@dataclass
class LaplacianReport:
    value: float                 # Delta_f d_r(q)
    laplacian: float             # unweighted Delta d_r(q)
    rho: float
    bound_finite_m: float | None
    bound_infinite: float
    slack_finite: float | None
    slack_infinite: float
    newton_steps: int            # Newton steps shooting took
    miss: float                  # max |c(rho) - q| of the accepted shot


# Newton shooting: most steps, the step (relative to max(1, |x|)) that ends
# it, how often a failing or non-shrinking step is halved, and the factor on
# f_laplacian_distance's rtol and atol, whose Laplacian is the last shot's
_NEWTON_ITERS = 20
_NEWTON_XTOL = 1e-12
_STEP_HALVINGS = 8
_SHOT_TOL_FACTOR = 0.03


def _newton(g: MetricField, apex, q):
    """Newton shooting from apex to q, as a generator: it yields each shot it
    needs as (v, rho), is sent that shot's geodesic_variation outcome, a
    (geo, J) pair or the LorentzLabError that ended it, and returns
    (v, rho, geo, steps): the past-directed unit timelike geodesic from apex
    with velocity v reaches q at arc length rho, in the accepted shot's
    solve geo, after steps Newton steps.

    Unknowns are the spatial velocity components w and rho; the time
    component is fixed by unit normalization with the past root.  Newton's
    method takes the exact Jacobian of the residual c(rho) - q: the end-point
    derivative of geodesic_variation through dv/dw, and c'(rho).  A trial step
    whose solve fails, leaves the chart or does not shrink max|c(rho) - q| is
    halved, _STEP_HALVINGS times at most.  A root whose own shot misses q by
    more than 1e-8 (relative) is spurious.
    """
    n = g.dim
    apex = np.asarray(apex, dtype=float)
    q = np.asarray(q, dtype=float)
    G = g.at(apex)

    def assemble_velocity(w):
        v = np.empty(n)
        v[1:] = w
        # solve g(v, v) = -1 for v^0, past-directed branch
        a = G[0, 0]
        b = 2.0 * (G[0, 1:] @ w)
        c = float(w @ G[1:, 1:] @ w) + 1.0
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            return None
        v[0] = (-b + np.sqrt(disc)) / (2.0 * a)
        if v[0] > 0.0:
            v[0] = (-b - np.sqrt(disc)) / (2.0 * a)
        return v

    def shoot(x):
        """(residual, its Jacobian, the solve) at x = (w, rho); None where the
        shot fails or leaves the chart."""
        w, rho = x[:-1], x[-1]
        v = assemble_velocity(w)
        if v is None or rho <= 0.0:
            return None
        solved = yield v, rho
        if isinstance(solved, LorentzLabError) or solved[0].exited_domain:
            return None
        geo, J = solved
        x_end, v_end = geo.state(rho)
        Gv = G @ v  # g(v, dv) = 0 gives dv^0/dw
        dv_dw = np.vstack([-Gv[1:] / Gv[0], np.eye(n - 1)])
        return x_end - q, np.column_stack([J @ dv_dw, v_end]), geo

    dp = q - apex
    rho_guess = max(np.sqrt(max(-float(dp @ G @ dp), 1e-4)), 1e-2)
    x = np.concatenate([dp[1:] / rho_guess, [rho_guess]])
    shot = yield from shoot(x)
    if shot is None:
        raise NoMaximalGeodesic(f"shooting from {apex} to {q} failed at the "
                                "initial guess")
    for steps in range(_NEWTON_ITERS):
        try:
            step = -np.linalg.solve(shot[1], shot[0])
        except np.linalg.LinAlgError:
            raise NoMaximalGeodesic(f"shooting from {apex} to {q} failed: "
                                    "singular Jacobian") from None
        if np.linalg.norm(step) <= _NEWTON_XTOL * max(1.0, np.linalg.norm(x)):
            break
        for _ in range(_STEP_HALVINGS + 1):
            trial = yield from shoot(x + step)
            if (trial is not None
                    and np.max(np.abs(trial[0])) < np.max(np.abs(shot[0]))):
                break
            step = 0.5 * step
        else:
            raise NoMaximalGeodesic(
                f"shooting from {apex} to {q} failed: a Newton step from {x} "
                f"fails or does not shrink the residual after {_STEP_HALVINGS} "
                "halvings")
        x, shot = x + step, trial
    else:
        raise NoMaximalGeodesic(f"shooting from {apex} to {q} did not converge "
                                f"in {_NEWTON_ITERS} Newton steps")
    if np.max(np.abs(shot[0])) > 1e-8 * max(1.0, np.max(np.abs(q))):
        raise NoMaximalGeodesic("shooting converged to a spurious root")
    return assemble_velocity(x[:-1]), float(x[-1]), shot[2], steps


def _shoot(g: MetricField, pairs, rtol, atol):
    """Newton shooting for every (apex, q) of pairs in lockstep: each round,
    the pending shot of every pair still iterating is one lane of one
    geodesic_variation, solved at rtol and atol.  Returns, per pair,
    _newton's (v, rho, geo, steps), or the LorentzLabError that ended it."""
    runs = [_newton(g, apex, q) for apex, q in pairs]
    out, pending = [None] * len(runs), {}

    def advance(i, outcome):
        try:
            pending[i] = runs[i].send(outcome)
        except StopIteration as done:
            out[i] = done.value
        except LorentzLabError as err:
            out[i] = err

    for i in range(len(runs)):
        advance(i, None)
    while pending:
        ids = sorted(pending)
        shots = [pending.pop(i) for i in ids]
        solved = geodesic_variation(
            g, [pairs[i][0] for i in ids], [v for v, _ in shots],
            [(0.0, rho) for _, rho in shots], rtol=rtol, atol=atol)
        for i, outcome in zip(ids, solved):
            advance(i, outcome)
    return out


def _shoot_to_target(g: MetricField, apex, q, rtol, atol):
    """_newton's (v, rho, geo, steps) for one pair, its shots solved at rtol
    and atol; raises the LorentzLabError that ends it."""
    (out,) = _shoot(g, [(apex, q)], rtol, atol)
    if isinstance(out, LorentzLabError):
        raise out
    return out


def f_laplacian_distance(g: MetricField, f: ScalarField, apex, q, m=None,
                         uniqueness=None, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """Delta_f of the distance-to-apex function at q, with comparison bounds,
    as a LaplacianReport.

    All is read from Newton's accepted shot, solved at rtol and atol times
    _SHOT_TOL_FACTOR (rtol >= RTOL_FLOOR).  Its coordinate Jacobi tensor J
    (J(0) = 0, J'(0) = I) maps g(u, v) = 0 onto (c')^perp and v to rho c', so
    with DJ/dt = J' + Gamma(c', J), tr(DJ/dt J^-1) = theta + 1/rho and
    Delta d_r(q) = -theta; as grad d_r = -c', Delta_f d_r = Delta d_r +
    (f o c)'(rho).  Returns the finite-m bound -(n+m-1)/rho (when m is
    given) and the infinite-m bound, whose integral of f is the 4-point
    Gauss-Legendre rule on the accepted shot's steps, read from its dense
    output in one pass.

    Stacks of L apexes and targets, one pair per row, give the list of L
    reports: the pairs shoot in lockstep (_shoot), each with the iterates of
    its solo run, and where pairs fail the error of the first of them in
    pair order is raised.
    """
    apex, q = np.asarray(apex, dtype=float), np.asarray(q, dtype=float)
    if apex.ndim == 1:
        return f_laplacian_distance(g, f, apex[None], q[None], m, uniqueness,
                                    rtol, atol)[0]
    unique = [uniqueness is None or uniqueness(a, b) for a, b in zip(apex, q)]
    tols = max(rtol * _SHOT_TOL_FACTOR, RTOL_FLOOR), atol * _SHOT_TOL_FACTOR
    shots = iter(_shoot(g, [pair for pair, ok in zip(zip(apex, q), unique)
                            if ok], *tols))
    reports = []
    for a, b, ok in zip(apex, q, unique):
        if not ok:
            raise OutsideUniquenessRegion(
                f"pair ({a}, {b}) not declared unique")
        shot = next(shots)
        if isinstance(shot, LorentzLabError):
            raise shot
        reports.append(_laplacian_report(g, f, b, m, *shot[1:]))
    return reports


def _laplacian_report(g: MetricField, f: ScalarField, q, m, rho, geo, steps):
    """The LaplacianReport at q of f_laplacian_distance from the accepted
    shot geo, reaching q at rho after steps Newton steps."""
    n = g.dim
    rows = geo.rows(rho)  # [c, c', J^T, J'^T]
    x_end, v_end, J_t = rows[0], rows[1], rows[2: 2 + n]
    gamma = LocalGeometry(g, x_end).gamma
    DJ_t = rows[2 + n:] + np.einsum("abc,b,ic->ia", gamma, v_end, J_t)
    lap = 1.0 / rho - float(np.trace(np.linalg.solve(J_t, DJ_t)))
    value = lap + float(f.gradient(x_end) @ v_end)
    bound_fin = None if m is None else -(n + float(m) - 1.0) / rho
    fq = f.at(q)
    nodes, weights = step_quadrature(geo.step_times)
    integral = weights @ [f.at(x) for x in geo.point(nodes).T]
    bound_inf = -(n - 1.0) / rho + 2.0 * fq / rho - 2.0 * float(integral) / rho ** 2
    return LaplacianReport(
        value=value, laplacian=lap, rho=rho,
        bound_finite_m=bound_fin, bound_infinite=bound_inf,
        slack_finite=None if bound_fin is None else value - bound_fin,
        slack_infinite=value - bound_inf,
        newton_steps=steps, miss=float(np.max(np.abs(x_end - q))))
