"""End-to-end congruence runs: metric -> geodesic -> frame -> R(t) -> Jacobi,
and the hypersurface mean-curvature evolution built on them."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .congruence import GeodesicTrajectory, FrameField, parallel_frame
from .jacobi import (CongruenceDiagnostics, JacobiTrajectory, integrate_jacobi,
                     kinematics)
from .manifold import (INFINITE_M, BakryEmeryParams, MetricField, ScalarField,
                       blockwise)
from .numerics import DEFAULT_ATOL, DEFAULT_RTOL, stencil_derivative

_DIAG_SAMPLES = 801  # size of the default uniform diagnostics grid


@dataclass
class CongruenceRun:
    frame: FrameField
    trajectory: JacobiTrajectory
    diagnostics: CongruenceDiagnostics

    @property
    def series(self):
        """R(t) along the geodesic, t -> frame.curvature(t)."""
        return self.frame.curvature

    @property
    def geodesic(self) -> GeodesicTrajectory:  # solved with the frame
        return self.frame.geodesic

    def ric_fm_series(self, g, f, params, ts=None):
        """Pointwise Ric_f^m(c', c') along the geodesic (independent of the
        frame route), from stacked geometry on blocks of the grid."""
        ts = self.diagnostics.ts if ts is None else ts
        xs, vs = self.geodesic.state(np.asarray(ts, dtype=float))
        return blockwise(g, xs, lambda geom, v: geom.bakry_emery(f, params, v, v),
                         vs)


def run_point_congruence(g: MetricField, p0, v0, span, f: ScalarField | None = None,
                         jacobi_init=None, jacobi_span=None, diag_ts=None,
                         rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL) -> CongruenceRun:
    """Full pipeline along one geodesic.

    jacobi_init defaults to the from-a-point Lagrange data A = 0, A' = E at
    the start of the (sub)span; diagnostics are produced on a uniform grid so
    the stencil differentiation downstream is valid.
    """
    frame = parallel_frame(g, p0, v0, span, rtol=rtol, atol=atol)
    geo = frame.geodesic
    k = frame.k
    if jacobi_init is None:
        A0, A0p = np.zeros((k, k)), np.eye(k)
    else:
        A0, A0p = jacobi_init
    jacobi_span = jacobi_span or geo.span
    if diag_ts is None:
        diag_ts = np.linspace(jacobi_span[0], jacobi_span[1], _DIAG_SAMPLES)

    fprime = None
    if f is not None:
        # (f o c)' = df(c') on the whole grid from one dense evaluation
        xs, vs = geo.state(np.asarray(diag_ts, dtype=float))
        fprime = np.einsum("ia,ia->i", f.gradient(xs), vs)

    traj, diag = run_synthetic_congruence(
        frame.curvature, k, A0, A0p, jacobi_span, fprime=fprime, diag_ts=diag_ts,
        rtol=rtol, atol=atol)
    return CongruenceRun(frame=frame, trajectory=traj, diagnostics=diag)


def run_synthetic_congruence(R_source, k, A0, A0p, span, fprime=None,
                             diag_ts=None, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL):
    """Prescribed-curvature congruence: returns (trajectory, diagnostics)."""
    traj = integrate_jacobi(R_source, A0, A0p, span, rtol=rtol, atol=atol)
    if diag_ts is None:
        diag_ts = np.linspace(span[0], span[1], _DIAG_SAMPLES)
    diag = kinematics(traj, fprime=fprime, ts=diag_ts)
    return traj, diag


# ---------------------------------------------------------------------------
# hypersurface mean-curvature evolution
# ---------------------------------------------------------------------------

@dataclass
class NormalCongruenceSpec:
    """One normal geodesic of a spacelike hypersurface.

    base_point lies on the hypersurface, normal is the future unit normal
    there, and shape_operator is the matrix of grad N on the tangent space in
    the parallel frame (sign convention H = div N = tr shape_operator).
    """

    base_point: np.ndarray
    normal: np.ndarray
    shape_operator: np.ndarray
    span: tuple
    label: str = ""


@dataclass
class MeanCurvatureReport:
    ts: np.ndarray
    H_f: np.ndarray
    residual: np.ndarray
    max_residual: float
    diagnostics: CongruenceDiagnostics | None = None


def mean_curvature_evolution(g: MetricField, f: ScalarField,
                             spec: NormalCongruenceSpec,
                             rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL) -> MeanCurvatureReport:
    """Residual of dH_f/dt = -Ric(N,N) - Hess f(N,N) - |grad N|^2.

    The normal congruence is the Jacobi flow with A(0) = E and A'(0) equal to
    the initial shape operator; H_f(t) = tr(A' A^{-1}) - <grad f, N> along
    each normal geodesic, differentiated by the uniform-grid stencil.
    """
    shape = np.asarray(spec.shape_operator, dtype=float)
    run = run_point_congruence(g, spec.base_point, spec.normal, spec.span, f=f,
                               jacobi_init=(np.eye(len(shape)), shape),
                               rtol=rtol, atol=atol)
    diag = run.diagnostics
    H_f = diag.theta_f
    t_in, dH = stencil_derivative(diag.ts, H_f)
    sel = slice(2, -2)
    # B = A' A^{-1} = B_f + ((f o c)'/d) E, NaN on masked samples
    k = diag.k
    B = diag.B_f[sel] + (diag.fprime[sel] / k)[:, None, None] * np.eye(k)
    # Ric(N, N) + Hess f(N, N) is Ric_f^m(N, N) for m = infinity
    ric_hess = run.ric_fm_series(g, f, BakryEmeryParams(INFINITE_M), ts=t_in)
    rhs = -ric_hess - np.sum(B * B, axis=(1, 2))
    residual = np.where(diag.mask[sel], dH - rhs, np.nan)
    return MeanCurvatureReport(ts=t_in, H_f=H_f[sel], residual=residual,
                               max_residual=float(np.nanmax(np.abs(residual))),
                               diagnostics=diag)
