"""Built-in spacetimes, weight functions, and certified scenario bundles.

Every scenario carries a manifest of expected values with provenance tags
("closed-form", "derived", "certified"); Scenario.validate() re-checks the
manifest entries numerically, so a corrupted construction fails on load.

The spheres are charted by standard angles with a small margin away from the
polar coordinate singularities; the declared geodesics run along the equator
where the chart is uniformly regular.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field, replace
from itertools import accumulate
from operator import mul

import numpy as np

from . import manifold
from .comparison import SampleSpec, finite_samples, sample_plan
from .manifold import (INFINITE_M, BakryEmeryParams, MetricField, ScalarField,
                       christoffel, constant_scalar)

POLE_MARGIN = 1e-3


# ---------------------------------------------------------------------------
# warped products over the round sphere
# ---------------------------------------------------------------------------

def _warped_domain(n):
    dom = [(-np.inf, np.inf)]
    for _ in range(n - 2):
        dom.append((POLE_MARGIN, math.pi - POLE_MARGIN))
    dom.append((-np.inf, np.inf))  # azimuthal angle
    return tuple(dom)


def _warped_metric(n, w, dw, ddw, name):
    """-dt^2 + w(t)^2 h on R x S^{n-1}, with analytic derivatives.

    The unit round sphere is diagonal in the angular chart: g_ii = w^2 h_i
    for i >= 1, with h_i = prod_{j<i} sin^2 a_j over the polar angles before
    the i-th coordinate.  Every derivative of g_ii is h_i times a factor:
    d_j h_i = q_j h_i with q_j = 2 cot a_j and
    d_j d_l h_i = (q_j q_l - 2 delta_jl / sin^2 a_j) h_i for j, l < i, while
    the time derivatives fall on w^2 alone.  Each callback builds h once.
    """
    diag = slice(n + 1, None, n + 1)  # g_ii, i >= 1, of a flattened n x n
    # before[c, i - 1]: coordinate c is the time or a polar angle before the
    # i-th, so d_c g_ii can be nonzero; the rest stay +0.0, as in np.zeros
    before = np.triu(np.ones((n, n - 1), dtype=bool))
    both = before[:, None] & before

    def sphere(p):
        """The time, the polar angles, their sin^2, and h[i - 1] = h_i
        multiplied out as a running product."""
        t, *polar, _ = np.asarray(p, dtype=float).tolist()
        sin2 = [math.sin(a) ** 2 for a in polar]
        return t, polar, sin2, [*accumulate(sin2, mul, initial=1.0)]

    def log_derivatives(polar):
        """q_c = 2 cot a_c = d_c h_i / h_i for the polar angles a_c."""
        return [2.0 / math.tan(a) for a in polar]

    def matrix(p):
        t, _, _, h = sphere(p)
        w2 = w(t) ** 2
        g = np.zeros((n, n))
        g.reshape(-1)[::n + 1] = [-1.0, *(w2 * h_i for h_i in h)]
        return g

    def d_matrix(p):
        t, polar, _, h = sphere(p)
        wt = w(t)
        w2 = wt ** 2
        # d_c g_ii / h_i by rows c: the time, the polar angles, the azimuth
        rows = np.array([[2.0 * wt * dw(t)],
                         *([w2 * q] for q in log_derivatives(polar)), [0.0]])
        dg = np.zeros((n, n, n))
        dg.reshape(n, -1)[:, diag] = np.where(before, rows * h, 0.0)
        return dg

    def dd_matrix(p):
        t, polar, sin2, h = sphere(p)
        wt, dwt, ddwt = w(t), dw(t), ddw(t)
        coef = np.full((n, n), wt ** 2)
        coef[0, :] = coef[:, 0] = 2.0 * wt * dwt
        coef[0, 0] = 2.0 * (dwt ** 2 + wt * ddwt)
        q = np.array([1.0, *log_derivatives(polar), 0.0])  # 1: the time row
        qq = q[:, None] * q
        qq.reshape(-1)[::n + 1] -= [0.0, *(2.0 / s for s in sin2), 0.0]
        ddg = np.zeros((n, n, n, n))
        ddg.reshape(n, n, -1)[:, :, diag] = np.where(
            both, (coef * qq)[:, :, None] * h, 0.0)
        return ddg

    return MetricField(dim=n, matrix=matrix, d_matrix=d_matrix,
                       dd_matrix=dd_matrix, domain=_warped_domain(n), name=name)


def equator_point(n, t=0.0, azimuth=1.0):
    """Chart point on the equator of the sphere factor at time t."""
    p = np.full(n, math.pi / 2.0)
    p[0] = t
    p[-1] = azimuth
    return p


# ---------------------------------------------------------------------------
# weight functions
# ---------------------------------------------------------------------------

def sinh_squared_f(K: float) -> ScalarField:
    """f(t, .) = sinh^2(K t), depending only on the time coordinate."""
    K = float(K)
    if K <= 0.0:
        raise ValueError("K must be positive")

    def value(p):
        return math.sinh(K * p[0]) ** 2

    def grad(p):
        out = np.zeros(len(p))
        out[0] = K * math.sinh(2.0 * K * p[0])
        return out

    def hess(p):
        out = np.zeros((len(p), len(p)))
        out[0, 0] = 2.0 * K ** 2 * math.cosh(2.0 * K * p[0])
        return out

    return ScalarField(value=value, grad=grad, hess=hess,
                       name=f"sinh_squared(K={K})")


def linear_time_f(a: float) -> ScalarField:
    a = float(a)

    def grad(p):
        out = np.zeros(len(p))
        out[0] = a
        return out

    return ScalarField(value=lambda p: a * p[0], grad=grad,
                       hess=lambda p: np.zeros((len(p), len(p))),
                       name=f"linear(a={a})")


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

@dataclass
class GeodesicSpec:
    label: str
    p0: np.ndarray
    v0: np.ndarray
    span: tuple
    character: str


@dataclass
class Scenario:
    name: str
    metric: MetricField
    weight: ScalarField
    params: BakryEmeryParams
    geodesics: list
    manifest: dict
    uniqueness: object = None
    default_checks: tuple = ()
    expectations: dict = field(default_factory=dict)
    notes: str = ""

    def geodesic(self, label):
        for spec in self.geodesics:
            if spec.label == label:
                return spec
        raise KeyError(label)

    def manifest_json(self):
        return {"name": self.name, "manifest": self.manifest,
                "default_checks": list(self.default_checks)}

    def validate(self):
        """Re-check every manifest entry; raises AssertionError on mismatch."""
        for key, entry in self.manifest.items():
            kind = entry["kind"]
            tol = entry.get("tol", 1e-8)
            if kind == "geodesic_residual":
                # spot check at the start point; full-trajectory residuals are
                # enforced by the integrator's norm and residual guards
                for spec in self.geodesics:
                    gamma = christoffel(self.metric, spec.p0)
                    acc = np.einsum("abc,b,c->a", gamma, spec.v0, spec.v0)
                    res = np.linalg.norm(acc)
                    assert res <= tol, f"{self.name}:{key}:{spec.label} {res}"
                continue
            if kind not in ("flat", "ricci_proportional", "constant_curvature"):
                raise ValueError(f"unknown manifest kind {kind}")
            for p in entry.get("points", []):
                geom = manifold.LocalGeometry(self.metric, p)
                G = geom.G
                if kind == "flat":
                    res = np.max(np.abs(geom.riemann))
                elif kind == "ricci_proportional":
                    res = np.max(np.abs(geom.ricci - entry["lambda"] * G))
                else:
                    expected = entry["K"] * (np.einsum("ac,bd->abcd", G, G)
                                             - np.einsum("ad,bc->abcd", G, G))
                    res = np.max(np.abs(geom.riemann_lowered - expected))
                assert res <= tol, f"{self.name}:{key} residual {res}"
        return True


def minkowski(n: int) -> Scenario:
    """Flat space with zero weight."""
    if n < 2:
        raise ValueError("n >= 2 required")
    eta = np.eye(n)
    eta[0, 0] = -1.0
    g = MetricField(
        dim=n, matrix=lambda p: eta,
        d_matrix=lambda p: np.zeros((n, n, n)),
        dd_matrix=lambda p: np.zeros((n, n, n, n)),
        name=f"minkowski{n}")
    e_t = np.zeros(n)
    e_t[0] = 1.0
    null_v = e_t.copy()
    null_v[1] = 1.0
    geos = [GeodesicSpec("comoving", np.zeros(n), e_t, (0.0, 10.0), "timelike")]
    if n >= 3:  # a null geodesic needs a nonempty quotient bundle
        geos.append(GeodesicSpec("null_x", np.zeros(n), null_v, (0.0, 5.0), "null"))
    pts = [np.zeros(n), 0.3 * np.arange(n, dtype=float) + 0.1]
    manifest = {
        "flat": {"kind": "flat", "points": [p.tolist() for p in pts],
                 "tol": 1e-10, "provenance": "closed-form"},
        "geodesics": {"kind": "geodesic_residual", "tol": 1e-12,
                      "provenance": "closed-form"},
    }
    hyperboloid_base = np.zeros(n)
    hyperboloid_base[0] = 1.0
    expectations = {
        "f_generic": {"comoving": False},
        "conjugate": {"expect": "none"},
        "f_laplacian": {"mode": "flat", "m": 2.0, "rhos": [0.5, 1.0, 2.0, 5.0]},
        "mean_curvature": [{"label": "unit_hyperboloid",
                            "base": hyperboloid_base.tolist(),
                            "normal": hyperboloid_base.tolist(),
                            "shape": "identity", "span": [0.0, 2.0]}],
    }
    return Scenario(
        name=f"minkowski{n}", metric=g, weight=constant_scalar(0.0),
        params=BakryEmeryParams(m=INFINITE_M, k=0.0), geodesics=geos,
        manifest=manifest, uniqueness=lambda a, q: True,
        default_checks=("metric_invariants", "raychaudhuri_residual",
                        "lagrange_conservation", "trace_identity",
                        "check_timelike_convergence", "check_f_generic",
                        "schwarz_gap", "f_laplacian_bounds",
                        "mean_curvature_evolution", "conjugate_points"),
        expectations=expectations,
        notes="flat reference scenario")


def de_sitter(n: int) -> Scenario:
    """Global slicing of de Sitter space, g = -dt^2 + cosh^2(t) h.

    The warp is cosh(t): this is the unique warping of R x S^{n-1} over the
    unit round sphere with Ric = (n-1) g (sectional curvature +1), which the
    manifest re-validates on load.  Unit timelike vectors then have
    Ric(v, v) = -(n-1), so the unweighted timelike convergence condition
    fails everywhere.
    """
    if n < 3:
        raise ValueError("n >= 3 required (needs a sphere factor)")

    g = _warped_metric(n, math.cosh, math.sinh, math.cosh, f"de_sitter{n}")
    e_t = np.zeros(n)
    e_t[0] = 1.0
    p0 = equator_point(n, t=-1.2)
    null_v = e_t.copy()
    null_v[-1] = 1.0 / math.cosh(0.0)
    pts = [equator_point(n, 0.0), equator_point(n, 0.7, azimuth=0.4),
           equator_point(n, -1.3, azimuth=2.0)]
    pts[1][1] = 1.1  # off-equator spot check
    manifest = {
        "einstein": {"kind": "ricci_proportional", "lambda": float(n - 1),
                     "points": [p.tolist() for p in pts], "tol": 1e-6,
                     "provenance": "closed-form"},
        "constant_curvature": {"kind": "constant_curvature", "K": 1.0,
                               "points": [p.tolist() for p in pts], "tol": 1e-6,
                               "provenance": "derived"},
        "geodesics": {"kind": "geodesic_residual", "tol": 1e-10,
                      "provenance": "closed-form"},
    }

    def uniqueness(apex, q):
        apex = np.asarray(apex, dtype=float)
        q = np.asarray(q, dtype=float)
        return (np.max(np.abs(apex[1:] - q[1:])) < 1e-9
                and abs(apex[0]) <= 2.5 and abs(q[0]) <= 2.5)

    slice_base = equator_point(n, 0.0)
    expectations = {
        "f_generic": {"comoving": True},
        "conjugate": {"expect": "none"},
        "mean_curvature": [{"label": "t0_slice", "base": slice_base.tolist(),
                            "normal": e_t.tolist(), "shape": 0.0,
                            "span": [0.0, 1.5]}],
    }
    return Scenario(
        name=f"de_sitter{n}", metric=g, weight=constant_scalar(0.0),
        params=BakryEmeryParams(m=INFINITE_M, k=0.0),
        geodesics=[
            GeodesicSpec("comoving", p0, e_t, (-1.2, 2.2), "timelike"),
            GeodesicSpec("null_equatorial", equator_point(n, 0.0), null_v,
                         (0.0, 2.0), "null"),
        ],
        manifest=manifest, uniqueness=uniqueness,
        default_checks=("metric_invariants", "raychaudhuri_residual",
                        "lagrange_conservation", "trace_identity",
                        "check_f_generic", "schwarz_gap",
                        "mean_curvature_evolution", "conjugate_points"),
        expectations=expectations,
        notes="timelike convergence fails with zero weight; see the weighted variant")


def de_sitter_weighted(n: int, K: float = 2.0) -> Scenario:
    base = de_sitter(n)
    laplacian = {"mode": "bound_infinite", "apex_ts": [0.5, 1.0, 1.5, 2.0],
                 "rhos": [0.4, 0.8, 1.2, 1.6, 2.0]}
    return replace(
        base, name=f"de_sitter{n}_weighted", weight=sinh_squared_f(K),
        params=BakryEmeryParams(m=INFINITE_M, k=None),
        default_checks=base.default_checks + ("check_timelike_convergence",
                                              "f_laplacian_bounds"),
        expectations={**base.expectations, "f_laplacian": laplacian},
        notes=f"de Sitter with weight sinh^2({K} t); convergence certified by sampling")


def warped_product(warp, fiber_einstein_lambda: float, n: int,
                   name: str | None = None) -> Scenario:
    """-dt^2 + phi(t)^2 h_lambda on R x S^{n-1}.

    warp is a triple (phi, phi', phi'') of callables or a key of WARPS; the
    fiber is the round sphere scaled so Ric_fiber = lambda h_lambda.
    """
    if isinstance(warp, str):
        w, dw, ddw, wname = WARPS[warp]
    else:
        w, dw, ddw = warp
        wname = name or "custom"
    lam = float(fiber_einstein_lambda)
    if lam <= 0.0:
        raise ValueError("fiber Einstein constant must be positive")
    r = math.sqrt((n - 2) / lam)
    weff = (lambda t: r * w(t))
    dweff = (lambda t: r * dw(t))
    ddweff = (lambda t: r * ddw(t))
    label = name or f"warped_{wname}_{n}"
    g = _warped_metric(n, weff, dweff, ddweff, label)
    e_t = np.zeros(n)
    e_t[0] = 1.0
    manifest = {
        "geodesics": {"kind": "geodesic_residual", "tol": 1e-10,
                      "provenance": "closed-form"},
    }
    return Scenario(
        name=label, metric=g, weight=constant_scalar(0.0),
        params=BakryEmeryParams(m=INFINITE_M, k=0.0),
        geodesics=[GeodesicSpec("comoving", equator_point(n, 0.0), e_t,
                                (-1.2, 1.2), "timelike")],
        manifest=manifest,
        default_checks=("metric_invariants", "raychaudhuri_residual",
                        "trace_identity"),
        notes="generic warped product")


WARPS = {
    "one": (lambda t: 1.0, lambda t: 0.0, lambda t: 0.0, "one"),
    "cosh": (math.cosh, math.sinh, math.cosh, "cosh"),
    "sech": (lambda t: 1.0 / math.cosh(t),
             lambda t: -math.tanh(t) / math.cosh(t),
             lambda t: (math.tanh(t) ** 2 - 1.0 / math.cosh(t) ** 2) / math.cosh(t),
             "sech"),
    "two_plus_cos": (lambda t: 2.0 + math.cos(t), lambda t: -math.sin(t),
                     lambda t: -math.cos(t), "two_plus_cos"),
}


_FOCUSING_CHECKS = ("metric_invariants", "raychaudhuri_residual",
                    "lagrange_conservation", "trace_identity", "conjugate_points")


def einstein_static(n: int) -> Scenario:
    """Product of a line with a unit round sphere.

    Along a tilted equatorial geodesic (boost parameter chi) the curvature
    endomorphism is diag(sinh^2 chi, sinh^2 chi, 0), so the from-a-point
    congruence has a conjugate point at exactly pi/sinh(chi) with det A
    vanishing to even order (no sign change).
    """
    chi = math.asinh(1.0)
    e_t = np.zeros(n)
    e_t[0] = 1.0
    tilted = np.zeros(n)
    tilted[0] = math.cosh(chi)
    tilted[-1] = math.sinh(chi)  # equatorial azimuthal direction, g-unit there
    null_v = e_t.copy()
    null_v[-1] = 1.0
    return replace(
        warped_product("one", float(n - 2), n, name=f"einstein_static{n}"),
        geodesics=[
            GeodesicSpec("comoving", equator_point(n, 0.0), e_t, (0.0, 6.0),
                         "timelike"),
            GeodesicSpec("tilted", equator_point(n, 0.0), tilted, (0.0, 4.5),
                         "timelike"),
            GeodesicSpec("null_equatorial", equator_point(n, 0.0), null_v,
                         (0.0, 4.2), "null")],
        default_checks=_FOCUSING_CHECKS,
        expectations={"f_generic": {"comoving": False, "tilted": True},
                      "conjugate": {"expect": "even_zero", "at": math.pi,
                                    "geodesic": "tilted"}},
        notes="product spacetime; tilted geodesics focus at pi/sinh(chi)")


def frw_toy(n: int) -> Scenario:
    """Closed-FRW-style toy with scale factor 2 + cos(t).

    Positive Ric(dt, dt) near t = 0 makes converging congruences focus inside
    the chart, which a cos(t) scale factor cannot do (its chart ends exactly
    where the from-a-point congruence would refocus).
    """
    return replace(
        warped_product("two_plus_cos", float(n - 2), n, name=f"frw_toy{n}"),
        geodesics=[GeodesicSpec("comoving", equator_point(n, -1.2),
                                np.eye(n)[0], (-1.2, 1.2), "timelike")],
        default_checks=_FOCUSING_CHECKS,
        expectations={"conjugate": {"expect": "converging", "t1": -1.0,
                                    "theta1": -float(n - 1)}},
        notes="toy cosmology with focusing converging congruences")


# ---------------------------------------------------------------------------
# certification of the weighted de Sitter family
# ---------------------------------------------------------------------------

@dataclass
class WeightCertification:
    n: int
    K_grid: np.ndarray
    results: list
    K_star: float | None
    findings: list = field(default_factory=list)


def certify_weighted_de_sitter(n: int = 4, K_grid=None, spec: SampleSpec | None = None,
                               threshold=-1e-9) -> WeightCertification:
    """Scan weights sinh^2(K t) on de Sitter for the convergence certificate.

    For each K the sampled minimum of Ric_f(v, v) over unit timelike v is
    reported, with the smallest passing K as K_star.  Two pointwise lower
    bounds are tracked alongside: the time-direction bound
    Ric_f(dt, dt) >= 2 K^2 - (n-1), which is asserted, and the all-direction
    display 4 K^2 cosh^2(Kt) - 2 K^2 - K cosh^2(Kt), whose slack is logged
    (it goes negative at small K and at large |t| for boosted directions, so
    violations are findings rather than failures).  A sample that is not
    finite raises NonFiniteSample.
    """
    scen = de_sitter(n)
    g = scen.metric
    if K_grid is None:
        K_grid = np.arange(0.5, 6.01, 0.5)
    K_grid = np.asarray(K_grid, dtype=float)
    if spec is None:
        # chi_max = 1 keeps the small-K minimum comparable to the unweighted
        # limit -(n-1); the pass/fail outcome at each K is insensitive to the
        # boost range because the deciding direction sits at chi = 0
        ts = np.arange(-3.0, 3.0001, 0.1)
        pts = np.array([equator_point(n, t) for t in ts])
        spec = SampleSpec(points=pts, n_timelike=16, seed=20240, chi_max=1.0)

    points, dirs = sample_plan(g, spec)
    weights = [sinh_squared_f(K) for K in K_grid]
    # tensors[i, k] = Ric + Hess f at points[i] for K_grid[k], from one
    # geometry and Ric per block of points
    tensors = manifold.blockwise(
        g, points, lambda geom: np.stack([geom.ricci + geom.hessian(f)
                                          for f in weights], axis=1)
    ) if weights else np.empty((len(points), 0, n, n))

    results = []
    findings = []
    for K, tensor in zip(K_grid, np.moveaxis(tensors, 1, 0)):
        vals = finite_samples(manifold._dot(dirs, dirs, tensor[:, None]),
                              points, dirs)
        best = vals.min()
        # Ric_f(dt, dt) is the (0, 0) component
        ineq1_min = np.min(tensor[:, 0, 0] - (2.0 * K ** 2 - (n - 1.0)))
        cosh2 = np.array([math.cosh(K * t) ** 2 for t in points[:, 0]])
        rhs2 = 4.0 * K ** 2 * cosh2 - 2.0 * K ** 2 - K * cosh2
        slack2 = vals - rhs2[:, None]
        ineq2_min = slack2.min()
        ineq2_viol = np.count_nonzero(slack2 < -1e-9)
        passed = best >= threshold
        results.append({"K": float(K), "passed": bool(passed),
                        "min_value": float(best),
                        "ineq1_min_slack": float(ineq1_min),
                        "ineq2_min_slack": float(ineq2_min),
                        "ineq2_violations": int(ineq2_viol)})
        if ineq2_viol:
            findings.append(
                f"K={K:g}: all-direction display bound violated at "
                f"{ineq2_viol} samples (min slack {ineq2_min:.3e})")
        if ineq1_min < -1e-9:
            findings.append(f"K={K:g}: time-direction bound violated "
                            f"(min slack {ineq1_min:.3e})")

    passing = [row["K"] for row in results if row["passed"]]
    K_star = min(passing) if passing else None
    # once the certificate passes it should keep passing on the same samples
    seen_pass = False
    for row in results:
        if row["passed"]:
            seen_pass = True
        elif seen_pass:
            findings.append(f"monotonicity violated at K={row['K']:g}")
    return WeightCertification(n=n, K_grid=K_grid, results=results,
                               K_star=K_star, findings=findings)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def _weighted_family(n=4):
    return replace(de_sitter_weighted(n), name=f"weighted_de_sitter_family{n}",
                   default_checks=("certify_weighted_de_sitter",))


BUILTIN_SCENARIOS = {
    "minkowski2": lambda: minkowski(2),
    "minkowski4": lambda: minkowski(4),
    "de_sitter4": lambda: de_sitter(4),
    "de_sitter4_weighted": lambda: de_sitter_weighted(4),
    "einstein_static4": lambda: einstein_static(4),
    "frw_toy4": lambda: frw_toy(4),
    "weighted_de_sitter_family4": _weighted_family,
}

# weight factories by config "type"; a parameter they do not take is an error
WEIGHTS = {
    "zero": lambda: constant_scalar(0.0),
    "constant": lambda c=0.0: constant_scalar(c),
    "linear_time": lambda a=1.0: linear_time_f(a),
    "sinh_squared": lambda K=2.0: sinh_squared_f(K),
}


def _reject_unknown(given, allowed, what):
    unknown = sorted(set(given) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {what}(s) {unknown}; expected some of "
                         f"{sorted(allowed)}")


def scenario_from_config(source) -> Scenario:
    """Resolve a scenario from a built-in name or a declarative dict."""
    if isinstance(source, str):
        if source not in BUILTIN_SCENARIOS:
            raise KeyError(f"unknown scenario {source!r}")
        return BUILTIN_SCENARIOS[source]()
    _reject_unknown(source, ("builtin", "weight", "m", "k_bound"),
                    "scenario field")
    builtin = source.get("builtin")
    if builtin not in BUILTIN_SCENARIOS:
        raise KeyError(f"unknown builtin {builtin!r}")
    scen = BUILTIN_SCENARIOS[builtin]()
    if "weight" in source:
        wcfg = dict(source["weight"])
        wtype = wcfg.pop("type")
        _reject_unknown(wcfg, inspect.signature(WEIGHTS[wtype]).parameters,
                        f"{wtype} weight parameter")
        scen.weight = WEIGHTS[wtype](**wcfg)
    if "m" in source or "k_bound" in source:
        m = source.get("m", "inf")
        m = INFINITE_M if m in ("inf", "infinity", None) else float(m)
        scen.params = BakryEmeryParams(m=m, k=source.get("k_bound"))
    return scen
