"""End-to-end congruence runs: metric -> geodesic -> frame -> R(t) -> Jacobi,
and the hypersurface mean-curvature evolution built on them."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .congruence import (EndomorphismSeries, GeodesicTrajectory, FrameField,
                         integrate_geodesic, parallel_frame)
from .jacobi import (CongruenceDiagnostics, JacobiTrajectory, integrate_jacobi,
                     kinematics)
from .manifold import (INFINITE_M, BakryEmeryParams, LocalGeometry,
                       MetricField, ScalarField)
from .numerics import DEFAULT_ATOL, DEFAULT_RTOL, stencil_derivative

# rows per stacked LocalGeometry: its Riemann tensor holds several
# (rows, n, n, n, n) temporaries, so a whole grid at once costs memory,
# while blocks of 32 rows are as fast
_BLOCK = 32


def _blockwise(g, xs, vs, fn):
    """fn(geometry, velocities) on consecutive blocks of rows of the points
    xs and velocities vs, concatenated."""
    return np.concatenate([fn(LocalGeometry(g, xs[i:i + _BLOCK]), vs[i:i + _BLOCK])
                           for i in range(0, len(xs), _BLOCK)])


@dataclass
class CongruenceRun:
    frame: FrameField
    series: EndomorphismSeries
    trajectory: JacobiTrajectory
    diagnostics: CongruenceDiagnostics

    @property
    def geodesic(self) -> GeodesicTrajectory:  # solved with the frame
        return self.frame.geodesic

    def ric_fm_series(self, g, f, params, ts=None):
        """Pointwise Ric_f^m(c', c') along the geodesic (independent of the
        frame route), from stacked geometry on blocks of the grid."""
        ts = self.diagnostics.ts if ts is None else ts
        xs, vs = self.geodesic.state(np.asarray(ts, dtype=float))
        return _blockwise(g, xs, vs,
                          lambda geom, v: geom.bakry_emery(f, params, v, v))


def run_point_congruence(g: MetricField, p0, v0, span, f: ScalarField | None = None,
                         jacobi_init=None, jacobi_span=None, diag_ts=None,
                         rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL,
                         diag_n=801) -> CongruenceRun:
    """Full pipeline along one geodesic.

    jacobi_init defaults to the from-a-point Lagrange data A = 0, A' = E at
    the start of the (sub)span; diagnostics are produced on a uniform grid so
    the stencil differentiation downstream is valid.
    """
    geo = integrate_geodesic(g, p0, v0, span, rtol=rtol, atol=atol)
    frame = parallel_frame(g, geo, rtol=rtol, atol=atol)
    geo = frame.geodesic  # the joint solution, which every stage reads
    series = EndomorphismSeries(g, frame, f)
    k = frame.k
    if jacobi_init is None:
        A0, A0p = np.zeros((k, k)), np.eye(k)
    else:
        A0, A0p = jacobi_init
    jacobi_span = jacobi_span or geo.span
    if diag_ts is None:
        diag_ts = np.linspace(jacobi_span[0], jacobi_span[1], diag_n)

    fprime = None
    if f is not None:
        # (f o c)' = df(c') on the whole grid from one dense evaluation
        xs, vs = geo.state(np.asarray(diag_ts, dtype=float))
        fprime = np.einsum("ia,ia->i", f.gradient(xs), vs)

    traj, diag = run_synthetic_congruence(
        series, k, A0, A0p, jacobi_span, fprime=fprime, diag_ts=diag_ts,
        rtol=rtol, atol=atol)
    return CongruenceRun(frame=frame, series=series, trajectory=traj,
                         diagnostics=diag)


def run_synthetic_congruence(R_source, k, A0, A0p, span, fprime=None,
                             diag_ts=None, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL,
                             diag_n=801):
    """Prescribed-curvature congruence: returns (trajectory, diagnostics)."""
    traj = integrate_jacobi(R_source, A0, A0p, span, rtol=rtol, atol=atol)
    if diag_ts is None:
        diag_ts = np.linspace(span[0], span[1], diag_n)
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
    m_inf = BakryEmeryParams(INFINITE_M)
    ric_hess = _blockwise(g, *run.geodesic.state(t_in),
                          lambda geom, v: geom.bakry_emery(f, m_inf, v, v))
    rhs = -ric_hess - np.sum(B * B, axis=(1, 2))
    residual = np.where(diag.mask[sel], dH - rhs, np.nan)
    return MeanCurvatureReport(ts=t_in, H_f=H_f[sel], residual=residual,
                               max_residual=float(np.nanmax(np.abs(residual))),
                               diagnostics=diag)
