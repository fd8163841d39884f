"""Exception types shared across the package."""


class LorentzLabError(Exception):
    """Base class for all package errors."""


class SingularMetric(LorentzLabError):
    """Metric is numerically degenerate at a queried point."""


class DomainViolation(LorentzLabError):
    """Point lies outside the declared coordinate domain."""


class ZeroVector(LorentzLabError):
    """A direction argument vanished."""


class IntegratorFailure(LorentzLabError):
    """Adaptive ODE integration failed (step-size collapse or solver error)."""


class FrameDegeneracy(LorentzLabError):
    """Gram-Schmidt pivot dropped below tolerance during frame construction."""


class InvalidInitialData(LorentzLabError):
    """Initial data violates the kernel-intersection (Jacobi) condition."""


class ConjugatePointInRange(LorentzLabError):
    """A boundary-value construction hit a conjugate point (singular shooting map)."""


class QuadratureNearSingularity(LorentzLabError):
    """Quadrature requested inside the collar around a singular endpoint."""


class InsufficientSamples(LorentzLabError):
    """Too few samples for the requested numerical differentiation."""


class NonFiniteSample(LorentzLabError):
    """A sampled certificate's value is NaN or infinite."""


class NoMaximalGeodesic(LorentzLabError):
    """Shooting from apex to target did not converge to a timelike geodesic."""


class OutsideUniquenessRegion(LorentzLabError):
    """Point pair lies outside the scenario's declared uniqueness region."""


class ConfigError(LorentzLabError):
    """Base class for CLI configuration problems."""


class ParseError(ConfigError):
    """Config text is not valid JSON."""


class ValidationError(ConfigError):
    """Config parsed but violates the schema; collects all violations."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
