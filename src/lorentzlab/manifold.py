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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
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

    def in_domain(self, p) -> bool:
        if self.domain is None:
            return True
        p = np.asarray(p, dtype=float)
        return all(lo <= x <= hi for x, (lo, hi) in zip(p, self.domain))

    def at(self, p, validate: bool = True) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if p.shape != (self.dim,):
            raise ValueError(f"point must have length {self.dim}")
        if not self.in_domain(p):
            raise DomainViolation(f"point {p} outside coordinate domain")
        g = np.asarray(self.matrix(p), dtype=float)
        if validate:
            if np.max(np.abs(g - g.T)) > 1e-12 * max(1.0, np.max(np.abs(g))):
                raise SingularMetric(f"metric not symmetric at {p}")
            eig = np.linalg.eigvalsh(0.5 * (g + g.T))
            if np.sum(eig < 0.0) != 1 or np.any(np.isclose(eig, 0.0, atol=1e-12)):
                raise SingularMetric(
                    f"metric at {p} does not have Lorentzian signature (-,+,...,+)")
        return 0.5 * (g + g.T)

    def inverse_at(self, p) -> np.ndarray:
        g = self.at(p)
        sv = np.linalg.svd(g, compute_uv=False)
        if sv[-1] < 1e-12 * sv[0]:
            raise SingularMetric(f"metric numerically singular at {p}")
        return np.linalg.inv(g)

    # -- derivatives -----------------------------------------------------

    def first_derivatives(self, p) -> np.ndarray:
        """dg[c, a, b] = d_c g_ab."""
        p = np.asarray(p, dtype=float)
        if self.d_matrix is not None:
            return np.asarray(self.d_matrix(p), dtype=float)
        return _central_differences(self.matrix, p, self.fd_step)

    def second_derivatives(self, p) -> np.ndarray:
        """ddg[c, d, a, b] = d_c d_d g_ab."""
        p = np.asarray(p, dtype=float)
        if self.dd_matrix is not None:
            return np.asarray(self.dd_matrix(p), dtype=float)
        return _central_differences(self.matrix, p, self.fd_step, second=True)

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
        p = np.asarray(p, dtype=float)
        if self.grad is not None:
            return np.asarray(self.grad(p), dtype=float)
        return _central_differences(self.value, p, self.fd_step)

    def coordinate_hessian(self, p) -> np.ndarray:
        """Plain second partials d_a d_b f (no connection term)."""
        p = np.asarray(p, dtype=float)
        if self.hess is not None:
            return np.asarray(self.hess(p), dtype=float)
        return _central_differences(self.value, p, self.fd_step, second=True)


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
    # Gamma^a_bc = g^ad bracket_dbc / 2, after any leading derivative index
    return 0.5 * np.einsum("ad,...dbc->...abc", ginv, bracket)


def christoffel(g: MetricField, p) -> np.ndarray:
    """Levi-Civita symbols Gamma[a, b, c] = Gamma^a_{bc}."""
    p = np.asarray(p, dtype=float)
    return _christoffel_core(g.inverse_at(p), _bracket(g.first_derivatives(p)))


def christoffel_unchecked(g: MetricField, p) -> np.ndarray:
    """Christoffel symbols without domain/signature validation.

    Adaptive integrators localize boundary events by probing marginally past
    the declared domain; those transient evaluations must not raise.
    """
    p = np.asarray(p, dtype=float)
    m = np.asarray(g.matrix(p), dtype=float)
    return _christoffel_core(np.linalg.inv(0.5 * (m + m.T)),
                             _bracket(g.first_derivatives(p)))


def _christoffel_and_derivative(g: MetricField, p):
    p = np.asarray(p, dtype=float)
    ginv = g.inverse_at(p)
    dg = g.first_derivatives(p)
    bracket = _bracket(dg)
    # d_e g^{ad} = -g^{af} (d_e g_fh) g^{hd}
    dginv = -np.einsum("af,efh,hd->ead", ginv, dg, ginv)
    dgamma = (0.5 * np.einsum("ead,dbc->eabc", dginv, bracket)
              + _christoffel_core(ginv, _bracket(g.second_derivatives(p))))
    return _christoffel_core(ginv, bracket), dgamma


def riemann(g: MetricField, p) -> np.ndarray:
    """Curvature tensor components R[a, b, c, d] = R^a_{bcd}."""
    gamma, dgamma = _christoffel_and_derivative(g, p)
    quad = np.einsum("ace,edb->abcd", gamma, gamma)
    return (np.einsum("cadb->abcd", dgamma) - np.einsum("dacb->abcd", dgamma)
            + quad - np.einsum("abdc->abcd", quad))


def riemann_lowered(g: MetricField, p) -> np.ndarray:
    """Fully covariant R[a, b, c, d] = g_ae R^e_{bcd}."""
    return np.einsum("ae,ebcd->abcd", g.at(p), riemann(g, p))


def ricci(g: MetricField, p) -> np.ndarray:
    """Ric_bd = R^a_{bad}."""
    R = riemann(g, p)
    ric = np.einsum("abad->bd", R)
    return 0.5 * (ric + ric.T)


def hessian_scalar(g: MetricField, f: ScalarField, p) -> np.ndarray:
    """(Hess f)_ab = d_a d_b f - Gamma^c_{ab} d_c f."""
    gamma = christoffel(g, p)
    hess = f.coordinate_hessian(p) - np.einsum("cab,c->ab", gamma, f.gradient(p))
    return 0.5 * (hess + hess.T)


def bakry_emery_ricci(g: MetricField, f: ScalarField, params: BakryEmeryParams,
                      p, v, w) -> float:
    """Ric_f^m(v, w) = Ric(v, w) + Hess f(v, w) - (1/m) df(v) df(w).

    The last term is omitted for m = INFINITE_M.
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    tensor = ricci(g, p) + hessian_scalar(g, f, p)
    out = float(v @ tensor @ w)
    if params.finite:
        df = f.gradient(p)
        out -= float(df @ v) * float(df @ w) / params.m
    return out


def causal_character(g: MetricField, p, v, eps_null: float = 1e-9) -> str:
    v = np.asarray(v, dtype=float)
    aux = float(v @ v)
    if aux == 0.0:
        raise ZeroVector("cannot classify the zero vector")
    q = g.inner(p, v, v)
    if abs(q) <= eps_null * aux:
        return "null"
    return "timelike" if q < 0.0 else "spacelike"
