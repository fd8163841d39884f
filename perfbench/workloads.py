"""In-process workloads and their oracles.

Every oracle here is computed apart from lorentzlab: closed forms, a
quadrature done with scipy, or a bound derived by hand.  An operation
returns the list of oracle misses; an empty list means it passed.  Only the
calls into lorentzlab are timed, in CPU time (the caller wraps them in
timed()); oracle evaluation is outside the timed region.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy.integrate import quad

from lorentzlab import comparison, jacobi, manifold, pipeline, scenarios

N = 4                      # space-time dimension of the packaged scenarios
THETA_RTOL = 1e-8          # closed-form expansion, relative
RAYCHAUDHURI_TOL = 5e-5    # the CLI's default residual tolerance
LAGRANGE_TOL = 1e-9
BOUNDARY_TOL = 1e-6
RICCI_RTOL = 1e-9          # analytic callbacks against closed forms
FD_RTOL = 3e-3           # finite-difference copies against analytic ones (chi <= 1)
K_WEIGHT = 2.0             # weight sinh^2(K t) of the weighted de Sitter scenarios


class Timer:
    """Sums the CPU time spent in the timed() blocks of one round; `now`
    reads the CPU clock (clock.Clock.cpu while the sampler runs)."""

    def __init__(self, now):
        self.now = now
        self.total = 0.0

    def timed(self, fn, *args, **kwargs):
        t0 = self.now()
        try:
            return fn(*args, **kwargs)
        finally:
            self.total += self.now() - t0


def _close(value, exact, rtol):
    return abs(value - exact) <= rtol * max(1.0, abs(exact))


# ---------------------------------------------------------------------------
# congruence_sweep
# ---------------------------------------------------------------------------

def _frw_theta(t0):
    """theta of the from-a-point comoving congruence of -dt^2 + a(t)^2 h.

    A'' = (a''/a) A with A(t0) = 0, A'(t0) = E gives
    A = a(t) a(t0) int_t0^t ds / a(s)^2 E, so
    theta = (n-1) (a'/a + 1 / (a^2 int_t0^t ds / a^2)) with a = 2 + cos t
    (the sphere radius scales a and cancels).
    """
    def theta(ts):
        out = np.empty(len(ts))
        for i, t in enumerate(ts):
            a = 2.0 + math.cos(t)
            integral = quad(lambda s: (2.0 + math.cos(s)) ** -2, t0, t,
                            epsabs=1e-15, epsrel=1e-13)[0]
            out[i] = (N - 1) * (-math.sin(t) / a + 1.0 / (a * a * integral))
        return out
    return theta


def _coth(x):
    return 1.0 / np.tanh(x)


# (scenario, geodesic) -> (theta closed form in s = t - t0, first det-A zero
# after t0 or None); minkowski2's null geodesic is left out, see README
SWEEP = {
    ("minkowski2", "comoving"): (lambda s: 1.0 / s, None),
    ("minkowski4", "comoving"): (lambda s: 3.0 / s, None),
    ("minkowski4", "null_x"): (lambda s: 2.0 / s, None),
    ("de_sitter4", "comoving"): (lambda s: 3.0 * _coth(s), None),
    ("de_sitter4", "null_equatorial"): (lambda s: 2.0 / s, None),
    ("de_sitter4_weighted", "comoving"): (lambda s: 3.0 * _coth(s), None),
    ("de_sitter4_weighted", "null_equatorial"): (lambda s: 2.0 / s, None),
    ("einstein_static4", "comoving"): (lambda s: 3.0 / s, None),
    ("einstein_static4", "tilted"): (lambda s: 2.0 / np.tan(s) + 1.0 / s, math.pi),
    ("einstein_static4", "null_equatorial"): (lambda s: 2.0 / np.tan(s), math.pi),
    ("frw_toy4", "comoving"): (None, None),
}
SWEEP_SCENARIOS = sorted({name for name, _ in SWEEP})
DIAG_N = 801
LAGRANGE_SAMPLES = 101
BOUNDARY_S = 1.1
BOUNDARY_SAMPLES = 7


def sweep_plan(seed):
    """Operations of one round: the geodesics in a seeded order, then the
    boundary-value comparison.  The seed also draws the Lagrange-defect and
    boundary evaluation points; the amount of work does not depend on it."""
    rng = np.random.default_rng(seed)
    keys = [list(SWEEP)[i] for i in rng.permutation(len(SWEEP))]
    ops = [("geodesic", key, np.sort(rng.uniform(size=LAGRANGE_SAMPLES)))
           for key in keys]
    ops.append(("boundary", ("frw_toy4", "comoving"),
                np.sort(rng.uniform(0.05, BOUNDARY_S - 0.02, BOUNDARY_SAMPLES))))
    return ops


def sweep_oracles():
    """Closed-form theta for the frw geodesic, computed once by quadrature."""
    scen = scenarios.frw_toy(N)
    spec = scen.geodesic("comoving")
    ts = _diag_grid(spec, None)
    return {("frw_toy4", "comoving"): (ts, _frw_theta(spec.span[0])(ts))}


def _diag_grid(spec, zero):
    """Diagnostics window: after a lead-in from the singular start, and
    ending before the first det-A zero, where theta has a pole."""
    a, b = spec.span
    end = b if zero is None else a + zero - 0.5
    return np.linspace(a + 0.25 * (b - a), end, DIAG_N)


def geodesic_op(timer, scens, key, u, frw_oracle):
    scen_name, label = key
    scen = scens[scen_name]
    spec = scen.geodesic(label)
    closed, zero = SWEEP[key]
    diag_ts = _diag_grid(spec, zero)
    run = timer.timed(pipeline.run_point_congruence, scen.metric, spec.p0,
                      spec.v0, spec.span, f=scen.weight, diag_ts=diag_ts)
    ric = timer.timed(run.ric_fm_series, scen.metric, scen.weight, scen.params)
    ray = timer.timed(jacobi.raychaudhuri_residual, run.diagnostics, ric,
                      scen.params.m)
    traj = run.trajectory
    lag_ts = traj.t0 + u * (traj.t1 - traj.t0)
    defects = [timer.timed(jacobi.lagrange_defect, traj, t) for t in lag_ts]
    conj = timer.timed(jacobi.detect_conjugate, traj)

    miss = []
    diag = run.diagnostics
    ok = diag.mask
    s = diag.ts[ok] - spec.span[0]
    if closed is None:
        ts, exact = frw_oracle
        if not np.array_equal(ts, diag.ts):
            miss.append("diagnostics grid differs from the oracle grid")
            return miss
        exact = exact[ok]
    else:
        exact = closed(s)
    err = np.abs(diag.theta[ok] - exact) / np.maximum(1.0, np.abs(exact))
    if not ok.any() or err.max() > THETA_RTOL:
        miss.append(f"theta vs closed form: rel err {err.max():.3e}")
    if scen_name == "de_sitter4_weighted" and label == "comoving":
        # (f o c)' = K sinh(2 K t) along the comoving geodesic, t = coordinate time
        fprime = K_WEIGHT * np.sinh(2.0 * K_WEIGHT * diag.ts[ok])
        err_f = np.abs(diag.theta_f[ok] - (exact - fprime)) / np.maximum(
            1.0, np.abs(exact - fprime))
        if err_f.max() > THETA_RTOL:
            miss.append(f"theta_f vs closed form: rel err {err_f.max():.3e}")
    if not ray.max_residual <= RAYCHAUDHURI_TOL:
        miss.append(f"Raychaudhuri residual {ray.max_residual:.3e}")
    if max(defects) > LAGRANGE_TOL:
        miss.append(f"Lagrange defect {max(defects):.3e}")
    if zero is None:
        if conj.zeros:
            miss.append(f"unexpected conjugate points {[z.t for z in conj.zeros]}")
    else:
        at = spec.span[0] + zero
        if not any(abs(z.t - at) <= 1e-6 and z.certificate == "singular_value"
                   for z in conj.zeros):
            miss.append(f"no even-order zero at {at}: {[z.t for z in conj.zeros]}")
    return miss


def boundary_op(timer, scens, u):
    """D_s by linear shooting against the quadrature formula, on the
    metric-derived series of the toy cosmology (as in criterion 5)."""
    scen = scens["frw_toy4"]
    spec = scen.geodesic("comoving")
    run = timer.timed(pipeline.run_point_congruence, scen.metric, spec.p0,
                      spec.v0, spec.span, f=scen.weight, jacobi_span=(0.0, 1.2))
    D = timer.timed(jacobi.boundary_jacobi, run.series, 0.0, BOUNDARY_S)
    worst = 0.0
    for t in u:
        quad_D = timer.timed(jacobi.d_s_integral_formula, run.trajectory, t,
                             BOUNDARY_S)
        worst = max(worst, float(np.max(np.abs(quad_D - D.A(t)))))
    return [] if worst <= BOUNDARY_TOL else [f"shooting vs quadrature {worst:.3e}"]


def congruence_sweep_round(timer, seed, oracles, record):
    scens = {name: timer.timed(scenarios.BUILTIN_SCENARIOS[name])
             for name in SWEEP_SCENARIOS}
    for kind, key, u in sweep_plan(seed):
        if kind == "geodesic":
            record(f"{key[0]}/{key[1]}", geodesic_op, timer, scens, key, u,
                   oracles.get(key))
        else:
            record("boundary_jacobi/frw_toy4", boundary_op, timer, scens, u)


# ---------------------------------------------------------------------------
# pointwise_scan
# ---------------------------------------------------------------------------

K_GRID = np.round(np.arange(0.1, 6.0001, 0.1), 10)
SCAN_POINTS = 64
SCAN_DIRECTIONS = 16
SCAN_SCENARIOS = ("minkowski2", "minkowski4", "de_sitter4", "de_sitter4_weighted",
                  "einstein_static4", "frw_toy4", "weighted_de_sitter_family4")
HESS_KS = (0.5, 1.0, 2.0, 3.0)


def _scan_points(scen, rng, count):
    """Seeded chart points away from the sphere poles, in a time range where
    the scenario is defined (|t| <= 2 for de Sitter, whose weight grows like
    exp(4|t|))."""
    n = scen.metric.dim
    pts = np.empty((count, n))
    pts[:, 0] = rng.uniform(-1.2, 1.2, count) if "frw" in scen.name \
        else rng.uniform(-2.0, 2.0, count)
    if n > 2 and scen.metric.domain is not None:
        pts[:, 1:-1] = rng.uniform(0.4, math.pi - 0.4, (count, n - 2))
        pts[:, -1] = rng.uniform(0.0, 2.0 * math.pi, count)
    else:
        pts[:, 1:] = rng.uniform(-3.0, 3.0, (count, n - 1))
    return pts


def _de_sitter_metric(p):
    """-dt^2 + cosh^2(t) h on the angular chart of the unit 3-sphere."""
    h = np.ones(len(p) - 1)
    for i in range(1, len(h)):
        h[i] = h[i - 1] * math.sin(p[i]) ** 2
    return np.diag(np.concatenate([[-1.0], math.cosh(p[0]) ** 2 * h]))


def _fd_copy(scen):
    """The scenario's metric and weight without derivative callbacks."""
    return (dataclasses.replace(scen.metric, d_matrix=None, dd_matrix=None),
            dataclasses.replace(scen.weight, grad=None, hess=None))


def certify_op(timer):
    cert = timer.timed(scenarios.certify_weighted_de_sitter, n=N, K_grid=K_GRID)
    expected = min(k for k in K_GRID if 2.0 * k * k >= N - 1)
    if cert.K_star is None or abs(cert.K_star - expected) > 1e-12:
        return [f"K_star {cert.K_star}, expected {expected}"]
    return []


def einstein_op(timer, scen, pts):
    """Ric = (n-1) g on de Sitter, and Hess f(dt, dt) = 4K^2 cosh^2(Kt) - 2K^2."""
    miss = []
    for p in pts:
        ric = timer.timed(manifold.ricci, scen.metric, p)
        G = _de_sitter_metric(p)
        if np.max(np.abs(ric - (N - 1) * G)) > RICCI_RTOL * np.max(np.abs(G)):
            miss.append(f"Ric != (n-1) g at {p}")
        for K in HESS_KS:
            hess = timer.timed(manifold.hessian_scalar, scen.metric,
                               scenarios.sinh_squared_f(K), p)
            exact = 4 * K * K * math.cosh(K * p[0]) ** 2 - 2 * K * K
            if not _close(hess[0, 0], exact, RICCI_RTOL):
                miss.append(f"Hess f(dt,dt) {hess[0, 0]} != {exact} at K={K}")
    return miss


def convergence_op(timer, scen, pts, seed):
    spec = comparison.SampleSpec(points=pts, n_timelike=SCAN_DIRECTIONS,
                                 seed=seed, chi_max=1.0)
    rep = timer.timed(comparison.check_timelike_convergence, scen.metric,
                      scen.weight, scen.params, spec)
    fd_metric, fd_weight = _fd_copy(scen)
    fd = timer.timed(comparison.check_timelike_convergence, fd_metric,
                     fd_weight, scen.params, spec)
    miss = []
    if rep.n_samples != len(pts) * SCAN_DIRECTIONS:
        miss.append(f"{rep.n_samples} samples assessed")
    if scen.name.startswith("minkowski") and rep.min_value != 0.0:
        miss.append(f"flat minimum {rep.min_value}, expected 0")
    if scen.name == "de_sitter4" and not _close(rep.min_value, -(N - 1), 1e-12):
        miss.append(f"unweighted de Sitter minimum {rep.min_value}, expected -3")
    if scen.name in ("de_sitter4_weighted", "weighted_de_sitter_family4"):
        # Hess f(v, v) >= 2K^2 for unit timelike v when K >= 1/2
        if rep.min_value < 2 * K_WEIGHT ** 2 - (N - 1) - 1e-9:
            miss.append(f"weighted minimum {rep.min_value} below 2K^2-(n-1)")
    if not _close(fd.min_value, rep.min_value, FD_RTOL):
        miss.append(f"finite-difference minimum {fd.min_value} vs {rep.min_value}")
    return miss


def pointwise_scan_round(timer, seed, oracles, record):
    rng = np.random.default_rng(seed)
    scens = {name: timer.timed(scenarios.BUILTIN_SCENARIOS[name])
             for name in SCAN_SCENARIOS}
    record("certify_weighted_de_sitter", certify_op, timer)
    record("einstein/de_sitter4", einstein_op, timer, scens["de_sitter4"],
           _scan_points(scens["de_sitter4"], rng, SCAN_POINTS))
    for name in SCAN_SCENARIOS:
        pts = _scan_points(scens[name], rng, SCAN_POINTS)
        record(f"convergence/{name}", convergence_op, timer, scens[name], pts,
               int(rng.integers(2 ** 31)))


ROUNDS = {"congruence_sweep": (congruence_sweep_round, sweep_oracles),
          "pointwise_scan": (pointwise_scan_round, dict)}
