"""Pointwise pseudo-Riemannian computations from a user-supplied metric field.

Conventions, fixed once and validated by the constant-curvature checks in the
scenario library:

* signature (-, +, ..., +); a vector v is timelike/null/spacelike as g(v, v)
  is negative/zero/positive;
* curvature R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z,
  components R(e_c, e_d) e_b = R^a_{bcd} e_a, so that
  R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb}
              + Gamma^a_{ce} Gamma^e_{db} - Gamma^a_{de} Gamma^e_{cb};
* Ricci Ric_bd = R^a_{bad}; with these choices the cosh-warped global slicing
  of de Sitter space satisfies Ric = (n-1) g and a unit round sphere has
  sectional curvature +1;
* Hessian (Hess f)_ab = d_a d_b f - Gamma^c_{ab} d_c f.

Derivative access is either analytic (callbacks supplied with the field) or
central finite differences: step h*max(1,|x_c|) for first derivatives and the
widened step sqrt(h)*max(1,|x_c|) for second derivatives, which balances
truncation against roundoff in double precision.

Validation: one routine checks a metric matrix, or a stack of them, to be
finite, symmetric to 1e-12 relative and of signature (-,+,...,+) with no
eigenvalue within 1e-12 of zero, and raises SingularMetric otherwise.  Each
point is checked once: LocalGeometry validates G on construction and takes
the conditioning test of G^{-1} (min |eigenvalue| >= 1e-12 max |eigenvalue|)
from the same eigenvalues.  It is the one source of Gamma, Riem, Ric and
Hess f; christoffel, riemann, ricci, hessian_scalar and bakry_emery_ricci
are views of it.  It also takes an (N, n) stack of points: callbacks are
still called once per row, and every contraction carries a leading row
axis, so each row comes out bit for bit as its point alone would.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DomainViolation, SingularMetric, ZeroVector


class MInfinity(enum.Enum):
    """Distinguished value for the synthetic-dimension parameter m = infinity."""

    INF = "infinity"


INFINITE_M = MInfinity.INF


@dataclass(frozen=True)
class BakryEmeryParams:
    """Parameters (m, k) of the weighted curvature tensor Ric_f^m.

    m is a positive real or INFINITE_M.  k is an optional upper bound for the
    weight f, required by the bound-dependent operations when m is infinite.
    """

    m: float | MInfinity
    k: float | None = None

    def __post_init__(self):
        if self.m is not INFINITE_M:
            m = float(self.m)
            if not math.isfinite(m) or m <= 0.0:
                raise ValueError("m must be a positive real or INFINITE_M")
            object.__setattr__(self, "m", m)

    @property
    def finite(self) -> bool:
        return self.m is not INFINITE_M

    def require_bound(self) -> float:
        if self.k is None:
            raise ValueError("an upper bound k for f is required when m is infinite")
        return float(self.k)


@dataclass(frozen=True)
class MetricField:
    """A Lorentzian metric on a single coordinate chart.

    matrix(p) returns the symmetric matrix g_ab at the length-n point p.
    d_matrix / dd_matrix, when given, return the coordinate derivatives with
    the derivative indices first: d_matrix(p)[c, a, b] = d_c g_ab and
    dd_matrix(p)[c, d, a, b] = d_c d_d g_ab.  Missing callbacks fall back to
    central finite differences.
    """

    dim: int
    matrix: Callable[[np.ndarray], np.ndarray]
    d_matrix: Callable[[np.ndarray], np.ndarray] | None = None
    dd_matrix: Callable[[np.ndarray], np.ndarray] | None = None
    domain: tuple[tuple[float, float], ...] | None = None
    fd_step: float = 1e-5
    name: str = ""

    # -- evaluation ------------------------------------------------------

    def in_domain(self, p):
        """Whether p lies in the chart; row by row for a stack of points."""
        p = np.asarray(p, dtype=float)
        if self.domain is None:
            return np.ones(p.shape[:-1], dtype=bool)
        lo, hi = np.array(self.domain, dtype=float).T
        return ((lo <= p) & (p <= hi)).all(axis=-1)

    def _checked(self, p):
        """(p, G, eigenvalues of G): the point, or a stack of points, checked
        against the chart, and the metric there validated by _lorentzian."""
        p = np.asarray(p, dtype=float)
        if p.shape[-1:] != (self.dim,):
            raise ValueError(f"point must have length {self.dim}")
        inside = self.in_domain(p)
        if not inside.all():
            raise DomainViolation(f"point {_first(p, inside)} outside "
                                  "coordinate domain")
        G, eig = _lorentzian(_rows(self.matrix, p), p)
        return p, G, eig

    def at(self, p) -> np.ndarray:
        """The validated metric at p, or at each row of a stack of points."""
        return self._checked(p)[1]

    def inverse_at(self, p) -> np.ndarray:
        return LocalGeometry(self, p).G_inv

    # -- derivatives -----------------------------------------------------

    def first_derivatives(self, p) -> np.ndarray:
        """dg[c, a, b] = d_c g_ab; row by row for a stack of points."""
        return _rows(self.d_matrix or _differences(self.matrix, self.fd_step), p)

    def second_derivatives(self, p) -> np.ndarray:
        """ddg[c, d, a, b] = d_c d_d g_ab; row by row for a stack of points."""
        return _rows(self.dd_matrix
                     or _differences(self.matrix, self.fd_step, second=True), p)

    def inner(self, p, v, w) -> float:
        g = self.at(p)
        return float(np.asarray(v) @ g @ np.asarray(w))


@dataclass(frozen=True)
class ScalarField:
    """A weight function with gradient and coordinate-Hessian access."""

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray] | None = None
    hess: Callable[[np.ndarray], np.ndarray] | None = None
    bound: float | None = None
    fd_step: float = 1e-5
    name: str = ""

    def at(self, p) -> float:
        v = float(self.value(np.asarray(p, dtype=float)))
        if not math.isfinite(v):
            raise ValueError(f"weight function not finite at {p}")
        return v

    def gradient(self, p) -> np.ndarray:
        """d_a f; row by row for a stack of points."""
        return _rows(self.grad or _differences(self.value, self.fd_step), p)

    def coordinate_hessian(self, p) -> np.ndarray:
        """Plain second partials d_a d_b f (no connection term); row by row
        for a stack of points."""
        return _rows(self.hess
                     or _differences(self.value, self.fd_step, second=True), p)


def _rows(fn, p) -> np.ndarray:
    """fn at the point p, or stacked over the rows of a stack of points:
    callbacks take one point, so a stack costs one call per row."""
    p = np.asarray(p, dtype=float)
    if p.ndim == 1:
        return np.asarray(fn(p), dtype=float)
    return np.array([fn(x) for x in p], dtype=float)


def _differences(fn, step, second=False):
    """The finite-difference fallback for a missing derivative callback."""
    return lambda p: _central_differences(fn, p, step, second)


def _central_differences(fn, p, step, second=False) -> np.ndarray:
    """d_c fn(p), or d_c d_d fn(p) when second is set, derivative indices
    first, by central differences with the steps of the module docstring."""
    n = len(p)
    h = (math.sqrt(step) if second else step) * np.maximum(1.0, np.abs(p))
    shifts = np.diag(h)

    def ev(x):
        v = fn(x)  # scalar weights stay floats: 0-d array arithmetic is slow
        return v if isinstance(v, float) else np.asarray(v, dtype=float)

    if not second:
        return np.array([(ev(p + shifts[c]) - ev(p - shifts[c])) / (2.0 * h[c])
                         for c in range(n)])
    f0 = ev(p)
    out = np.empty((n, n) + np.shape(f0))
    for c in range(n):
        ec = shifts[c]
        out[c, c] = (ev(p + ec) - 2.0 * f0 + ev(p - ec)) / h[c] ** 2
        for d in range(c + 1, n):
            ed = shifts[d]
            out[c, d] = out[d, c] = (
                ev(p + ec + ed) - ev(p + ec - ed) - ev(p - ec + ed)
                + ev(p - ec - ed)) / (4.0 * h[c] * h[d])
    return out


def constant_scalar(c: float = 0.0) -> ScalarField:
    cval = float(c)
    return ScalarField(
        value=lambda p, _c=cval: _c,
        grad=lambda p: np.zeros(len(p)),
        hess=lambda p: np.zeros((len(p), len(p))),
        bound=cval,
        name=f"constant({cval})",
    )


# ---------------------------------------------------------------------------
# pointwise operations
# ---------------------------------------------------------------------------

def _bracket(dg):
    # d_b g_dc + d_c g_db - d_d g_bc on the last three indices of dg
    return (np.einsum("...bdc->...dbc", dg) + np.einsum("...cdb->...dbc", dg)
            - dg)


def _christoffel_core(ginv, bracket):
    # Gamma^a_bc = g^ad bracket_dbc / 2, row by row for stacks
    return 0.5 * np.einsum("...ad,...dbc->...abc", ginv, bracket)


def _lorentzian(g, points):
    """The symmetrized metric matrices g[..., n, n] and their eigenvalues.

    Raises SingularMetric, naming the first offending row of points, unless
    every matrix is finite, symmetric and Lorentzian as the module docstring
    states.
    """
    scale = np.abs(g).max(axis=(-2, -1))
    ok = scale < np.inf
    if not ok.all():
        raise SingularMetric(f"metric not finite at {_first(points, ok)}")
    gt = np.swapaxes(g, -1, -2)
    ok = np.abs(g - gt).max(axis=(-2, -1)) <= 1e-12 * np.maximum(1.0, scale)
    if not ok.all():
        raise SingularMetric(f"metric not symmetric at {_first(points, ok)}")
    sym = 0.5 * (g + gt)
    eig = np.linalg.eigvalsh(sym)
    # ascending eigenvalues: exactly one below zero, none within 1e-12 of it
    ok = (eig[..., 0] < -1e-12) & (eig[..., 1] > 1e-12)
    if not ok.all():
        raise SingularMetric(f"metric at {_first(points, ok)} does not have "
                             "Lorentzian signature (-,+,...,+)")
    return sym, eig


def _first(points, ok):
    """The first point, of one or a stack, where ok is False."""
    return np.atleast_2d(points)[np.argmin(ok)]


def _dot(v, w, M=None):
    """v @ M @ w, or v @ w, row by row for stacks.  One point and a stack go
    through the same matmul, so a stacked row rounds as that point alone."""
    v = v[..., None, :] if M is None else v[..., None, :] @ M
    return (v @ w[..., :, None])[..., 0, 0]


class LocalGeometry:
    """The geometry of a metric at one chart point, or at each row of an
    (N, n) stack of points, validated once.

    G, G_inv, dG[c, a, b] = d_c g_ab and gamma[a, b, c] = Gamma^a_{bc} are
    built on construction; riemann and ricci the first time one is read, so
    consumers of gamma alone (Hessians) never evaluate second derivatives.
    For a stack every array gains a leading row axis, and each row is equal,
    bit for bit, to the geometry of that point alone.  The stack is checked
    by one validation that names the first offending row.  Its riemann holds
    several (N, n, n, n, n) temporaries, so long grids are best taken in
    blocks of rows.
    """

    def __init__(self, metric: MetricField, p):
        self.metric = metric
        self.p, self.G, eig = metric._checked(p)
        mag = np.abs(eig)  # for symmetric G, the singular values
        ok = mag.min(axis=-1) >= 1e-12 * mag.max(axis=-1)
        if not ok.all():
            raise SingularMetric(
                f"metric numerically singular at {_first(self.p, ok)}")
        self.G_inv = np.linalg.inv(self.G)
        self.dG = metric.first_derivatives(self.p)
        self.gamma = _christoffel_core(self.G_inv, _bracket(self.dG))

    @cached_property
    def riemann(self) -> np.ndarray:
        """R[a, b, c, d] = R^a_{bcd}."""
        ginv, ddg = self.G_inv, self.metric.second_derivatives(self.p)
        # d_e g^{ad} = -g^{af} (d_e g_fh) g^{hd}
        dginv = -np.einsum("...af,...efh,...hd->...ead", ginv, self.dG, ginv)
        dgamma = (0.5 * np.einsum("...ead,...dbc->...eabc", dginv,
                                  _bracket(self.dG))
                  + _christoffel_core(ginv[..., None, :, :], _bracket(ddg)))
        quad = np.einsum("...ace,...edb->...abcd", self.gamma, self.gamma)
        return (np.einsum("...cadb->...abcd", dgamma)
                - np.einsum("...dacb->...abcd", dgamma)
                + quad - np.einsum("...abdc->...abcd", quad))

    @cached_property
    def ricci(self) -> np.ndarray:
        """Ric_bd = R^a_{bad}."""
        ric = np.einsum("...abad->...bd", self.riemann)
        return 0.5 * (ric + ric.swapaxes(-1, -2))

    def hessian(self, f: ScalarField) -> np.ndarray:
        """(Hess f)_ab = d_a d_b f - Gamma^c_{ab} d_c f."""
        hess = (f.coordinate_hessian(self.p)
                - np.einsum("...cab,...c->...ab", self.gamma, f.gradient(self.p)))
        return 0.5 * (hess + hess.swapaxes(-1, -2))

    def bakry_emery(self, f: ScalarField, params: BakryEmeryParams, v, w):
        """Ric_f^m(v, w) = Ric(v, w) + Hess f(v, w) - (1/m) df(v) df(w).

        The last term is omitted for m = INFINITE_M.  On a stack, v and w
        have one row per point and the result is an array.
        """
        v, w = np.asarray(v, dtype=float), np.asarray(w, dtype=float)
        out = _dot(v, w, self.ricci + self.hessian(f))
        if params.finite:
            df = f.gradient(self.p)
            out = out - _dot(df, v) * _dot(df, w) / params.m
        return out if out.ndim else float(out)

    def curvature_matrix(self, v, E_in, E_out) -> np.ndarray:
        """M[j, i] = g(R(E_in_i, v) v, E_out_j) for the rows of E_in, E_out."""
        # (R(E_i, v) v)^a = R^a_{bcd} v^b E_i^c v^d
        img = np.einsum("...abcd,...b,...ic,...d->...ia", self.riemann, v, E_in, v)
        return np.einsum("...jb,...ab,...ia->...ji", E_out, self.G, img)


def local_geometry(g: MetricField, p) -> LocalGeometry:
    """The validated geometry of g at p."""
    return LocalGeometry(g, p)


def christoffel(g: MetricField, p) -> np.ndarray:
    """Levi-Civita symbols Gamma[a, b, c] = Gamma^a_{bc}."""
    return local_geometry(g, p).gamma


def christoffel_unchecked(g: MetricField, p) -> np.ndarray:
    """Christoffel symbols without domain/signature validation.

    Adaptive integrators localize boundary events by probing marginally past
    the declared domain; those transient evaluations must not raise.
    """
    p = np.asarray(p, dtype=float)
    m = np.asarray(g.matrix(p), dtype=float)
    return _christoffel_core(np.linalg.inv(0.5 * (m + m.T)),
                             _bracket(g.first_derivatives(p)))


def riemann(g: MetricField, p) -> np.ndarray:
    """Curvature tensor components R[a, b, c, d] = R^a_{bcd}."""
    return local_geometry(g, p).riemann


def riemann_lowered(g: MetricField, p) -> np.ndarray:
    """Fully covariant R[a, b, c, d] = g_ae R^e_{bcd}."""
    geom = local_geometry(g, p)
    return np.einsum("ae,ebcd->abcd", geom.G, geom.riemann)


def ricci(g: MetricField, p) -> np.ndarray:
    """Ric_bd = R^a_{bad}."""
    return local_geometry(g, p).ricci


def hessian_scalar(g: MetricField, f: ScalarField, p) -> np.ndarray:
    """(Hess f)_ab = d_a d_b f - Gamma^c_{ab} d_c f."""
    return local_geometry(g, p).hessian(f)


def bakry_emery_ricci(g: MetricField, f: ScalarField, params: BakryEmeryParams,
                      p, v, w) -> float:
    """Ric_f^m(v, w); see LocalGeometry.bakry_emery."""
    return local_geometry(g, p).bakry_emery(f, params, v, w)


def causal_character(g: MetricField, p, v, eps_null: float = 1e-9) -> str:
    v = np.asarray(v, dtype=float)
    aux = float(v @ v)
    if aux == 0.0:
        raise ZeroVector("cannot classify the zero vector")
    q = g.inner(p, v, v)
    if abs(q) <= eps_null * aux:
        return "null"
    return "timelike" if q < 0.0 else "spacelike"
