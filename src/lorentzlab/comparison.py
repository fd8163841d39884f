"""Condition certificates and comparison-geometry checks.

Certificates are minima over finite samples, never proofs: reports carry the
sample count and the argmin so a denser rerun can confirm them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import root

from .congruence import (EndomorphismSeries, GeodesicTrajectory, FrameField,
                         integrate_geodesic, parallel_frame,
                         weighted_endomorphism)
from .errors import LorentzLabError, NoMaximalGeodesic, OutsideUniquenessRegion
from .jacobi import integrate_jacobi
from .manifold import (BakryEmeryParams, MetricField, ScalarField,
                       bakry_emery_ricci, local_geometry)
from .numerics import DEFAULT_ATOL, DEFAULT_RTOL, adaptive_simpson, spawn_rngs


@dataclass
class SampleSpec:
    """Deterministic sampling plan for direction-condition certificates."""

    points: np.ndarray
    n_timelike: int = 16
    seed: int = 20240
    chi_max: float = 3.0

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
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


def _orthonormal_basis(g: MetricField, p):
    """Frame (e_0 timelike unit, e_1..e_{n-1} spacelike unit) at p."""
    G = g.at(p)
    eigval, eigvec = np.linalg.eigh(G)
    e0 = eigvec[:, 0] / np.sqrt(-float(eigvec[:, 0] @ G @ eigvec[:, 0]))
    spatial = []
    for i in range(1, g.dim):
        w = eigvec[:, i]
        w = w + float(w @ G @ e0) * e0
        for e in spatial:
            w = w - float(w @ G @ e) * e
        spatial.append(w / np.sqrt(float(w @ G @ w)))
    return e0, spatial


def _sample_directions(g, p, rng, n_timelike, chi_max):
    """Unit timelike v = cosh(chi) e0 + sinh(chi) u.

    Boost-parameter sampling covers the near-null cone where the sign of the
    weighted curvature can flip.
    """
    e0, spatial = _orthonormal_basis(g, p)
    k = len(spatial)
    out = []
    for _ in range(n_timelike):
        chi = rng.uniform(0.0, chi_max)
        u = rng.normal(size=k)
        u /= np.linalg.norm(u)
        udir = sum(c * e for c, e in zip(u, spatial))
        out.append(np.cosh(chi) * e0 + np.sinh(chi) * udir)
    return out


def sample_plan(g: MetricField, spec: SampleSpec):
    """Materialize the deterministic (point, directions) sample set.

    Per-point generators are spawned from the seed, so the plan does not
    depend on evaluation order and two specs with the same seed sample the
    same directions.
    """
    rngs = spawn_rngs(spec.seed, len(spec.points))
    plan = []
    for p, rng in zip(spec.points, rngs):
        vs = _sample_directions(g, p, rng, spec.n_timelike, spec.chi_max)
        plan.append((np.asarray(p, dtype=float), vs))
    return plan


def check_timelike_convergence(g: MetricField, f: ScalarField,
                               params: BakryEmeryParams, spec: SampleSpec,
                               threshold=-1e-9) -> ConditionReport:
    """Minimum of Ric_f^m(v, v) over sampled unit timelike directions.

    The pointwise tensors Ric + Hess f and df are evaluated once per sample
    point and contracted against all directions, so dense direction sampling
    is cheap.  Passes iff the sampled minimum stays above threshold.
    """
    best = np.inf
    arg_p, arg_v = None, None
    count = 0
    for p, vs in sample_plan(g, spec):
        geom = local_geometry(g, p)
        tensor = geom.ricci + geom.hessian(f)
        df = f.gradient(p)
        for v in vs:
            val = float(v @ tensor @ v)
            if params.finite:
                val -= float(df @ v) ** 2 / params.m
            count += 1
            if val < best:
                best, arg_p, arg_v = val, p.copy(), v.copy()
    recheck = bakry_emery_ricci(g, f, params, arg_p, arg_v, arg_v)
    if abs(recheck - best) > 1e-12 * max(1.0, abs(best)):
        raise AssertionError("argmin re-evaluation mismatch")
    return ConditionReport(min_value=best, argmin_point=arg_p,
                           argmin_vector=arg_v, passed=best >= threshold,
                           n_samples=count, threshold=threshold)


@dataclass
class GenericConditionReport:
    holds: bool
    witness_t: float | None
    max_norm: float


def check_f_generic(g: MetricField, f: ScalarField, frame: FrameField,
                    threshold=1e-9) -> GenericConditionReport:
    """Does R_f(t) differ from zero somewhere along the frame's geodesic?

    Returns the first witness parameter, or None when R_f vanishes on every
    sample to within threshold."""
    max_norm = 0.0
    witness = None
    ts = np.linspace(*frame.geodesic.span, 200)
    for t, x, v, E in zip(ts, *frame.state(ts)):
        Rf = weighted_endomorphism(local_geometry(g, x), f, v, E)
        nrm = float(np.max(np.abs(Rf)))
        max_norm = max(max_norm, nrm)
        if witness is None and nrm > threshold:
            witness = float(t)
    return GenericConditionReport(holds=witness is not None,
                                  witness_t=witness, max_norm=max_norm)


def trace_identity_check(g: MetricField, f: ScalarField,
                         params: BakryEmeryParams, frame: FrameField,
                         t) -> float:
    """|tr R_f - Ric_f^m(c',c') - (1/d + 1/m)((f o c)')^2| at parameter t.

    The left side is assembled from the frame-based endomorphism, the right
    side from the pointwise curvature operations, so the two routes are
    independent."""
    d = frame.k
    x, v, E = frame.state(t)
    geom = local_geometry(g, x)
    lhs = float(np.trace(weighted_endomorphism(geom, f, v, E)))
    fprime = float(f.gradient(x) @ v)
    rhs = geom.bakry_emery(f, params, v, v)
    coeff = 1.0 / d + (0.0 if not params.finite else 1.0 / params.m)
    rhs = rhs + coeff * fprime ** 2
    return abs(lhs - rhs)


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
    geodesic: GeodesicTrajectory = field(repr=False, default=None)


def _shoot_to_target(g: MetricField, apex, q, rtol, atol):
    """Past-directed unit timelike geodesic from apex reaching q.

    Unknowns are the spatial velocity components and the arc length rho; the
    time component is fixed by unit normalization with the past root.
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

    def residual(x):
        w, rho = x[:-1], x[-1]
        v = assemble_velocity(w)
        if v is None or rho <= 0.0:
            return np.full(n, 1e3)
        try:
            geo = integrate_geodesic(g, apex, v, (0.0, rho), rtol=rtol,
                                     atol=atol, normalize=False)
        except (LorentzLabError, np.linalg.LinAlgError):
            return np.full(n, 1e3)
        if geo.exited_domain:
            return np.full(n, 1e3)
        return geo.point(rho) - q

    dp = q - apex
    rho_guess = max(np.sqrt(max(-float(dp @ G @ dp), 1e-4)), 1e-2)
    w_guess = dp[1:] / rho_guess
    sol = root(residual, np.concatenate([w_guess, [rho_guess]]),
               method="hybr", tol=1e-12)
    if not sol.success or sol.x[-1] <= 0.0:
        raise NoMaximalGeodesic(f"shooting from {apex} to {q} failed: {sol.message}")
    w, rho = sol.x[:-1], sol.x[-1]
    v = assemble_velocity(w)
    geo = integrate_geodesic(g, apex, v, (0.0, rho), rtol=rtol, atol=atol,
                             normalize=False)
    if np.max(np.abs(geo.point(rho) - q)) > 1e-8 * max(1.0, np.max(np.abs(q))):
        raise NoMaximalGeodesic("shooting converged to a spurious root")
    return geo, float(rho)


def f_laplacian_distance(g: MetricField, f: ScalarField, apex, q, m=None,
                         uniqueness=None, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL) -> LaplacianReport:
    """Delta_f of the distance-to-apex function at q, with comparison bounds.

    Delta d_r(q) = -theta(rho) for the from-the-apex Lagrange congruence
    (A(0) = 0, A'(0) = E along the past-directed maximal geodesic), and
    Delta_f d_r = Delta d_r - <grad f, grad d_r> with grad d_r = -sigma'.
    Returns the finite-m bound -(n+m-1)/rho (when m is given) and the
    weight-dependent infinite-m bound for comparison.
    """
    if uniqueness is not None and not uniqueness(apex, q):
        raise OutsideUniquenessRegion(f"pair ({apex}, {q}) not declared unique")
    n = g.dim
    geo, rho = _shoot_to_target(g, apex, q, rtol, atol)
    frame = parallel_frame(g, geo, rtol=rtol, atol=atol)
    geo = frame.geodesic  # the joint solution, which every stage reads
    traj = integrate_jacobi(EndomorphismSeries(g, frame),
                            np.zeros((n - 1, n - 1)), np.eye(n - 1),
                            (0.0, rho), rtol=rtol, atol=atol)
    A = traj.A(rho)
    theta = float(np.trace(traj.Aprime(rho) @ np.linalg.inv(A)))
    lap = -theta
    x_end, v_end = geo.state(rho)
    fprime_end = float(f.gradient(x_end) @ v_end)
    value = lap + fprime_end

    bound_fin = None if m is None else -(n + float(m) - 1.0) / rho
    fq = f.at(q)
    integral = adaptive_simpson(lambda s: np.array(f.at(geo.point(s))),
                                0.0, rho, tol=1e-10)
    bound_inf = -(n - 1.0) / rho + 2.0 * fq / rho - 2.0 * float(integral) / rho ** 2
    return LaplacianReport(
        value=value, laplacian=lap, rho=rho,
        bound_finite_m=bound_fin,
        bound_infinite=bound_inf,
        slack_finite=None if bound_fin is None else value - bound_fin,
        slack_infinite=value - bound_inf,
        geodesic=geo)
