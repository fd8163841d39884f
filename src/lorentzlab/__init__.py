"""lorentzlab: numerical checks for weighted curvature on Lorentzian spacetimes."""

from .manifold import (INFINITE_M, BakryEmeryParams, MetricField, ScalarField,
                       bakry_emery_ricci, causal_character, christoffel,
                       constant_scalar, hessian_scalar, ricci, riemann,
                       riemann_lowered)
from .congruence import (FrameField, GeodesicTrajectory, integrate_geodesic,
                         parallel_frame)
from .jacobi import (CongruenceDiagnostics, ConjugateReport, JacobiTrajectory,
                     asymptotic_lagrange, boundary_jacobi, d_s_integral_formula,
                     detect_conjugate, integrate_jacobi, kinematics,
                     lagrange_defect, raychaudhuri_residual,
                     verify_interval_finite_m, verify_interval_infinite,
                     verify_null_focal_bound)
from .comparison import (ConditionReport, SampleSpec, check_f_generic,
                         check_timelike_convergence, f_laplacian_distance,
                         schwarz_equality_residual, schwarz_gap,
                         trace_identity_check)
from .pipeline import (CongruenceRun, NormalCongruenceSpec,
                       mean_curvature_evolution, run_point_congruence,
                       run_synthetic_congruence)
from .scenarios import (BUILTIN_SCENARIOS, Scenario, certify_weighted_de_sitter,
                        de_sitter, de_sitter_weighted, einstein_static, frw_toy,
                        linear_time_f, minkowski, scenario_from_config,
                        sinh_squared_f, warped_product)

__version__ = "0.1.0"
