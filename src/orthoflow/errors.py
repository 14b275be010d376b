"""Exception hierarchy shared across the package."""


class OrthoflowError(Exception):
    """Base class for all orthoflow errors."""


class ParameterError(OrthoflowError):
    """A polynomial-family parameter record violates its invariants."""


class DegenerateParameters(OrthoflowError):
    """A Pochhammer denominator in a series prefactor vanishes."""


class PrecisionLoss(OrthoflowError):
    """Imaginary residue of a nominally real quantity exceeds tolerance."""


class DomainViolation(OrthoflowError):
    """A configuration left the domain of definition of a potential."""


class StepUnderflow(OrthoflowError):
    """Step halving in the integrator dropped below the minimum step."""


class SingularHessian(OrthoflowError):
    """Newton's method hit a numerically singular Hessian."""


class MaxIterations(OrthoflowError):
    """An iterative solver exhausted its iteration budget."""


class ComplexRoots(OrthoflowError):
    """Companion-matrix roots have imaginary parts above tolerance."""


class SingularFactor(OrthoflowError):
    """A residual-product denominator is too close to zero."""


class InsufficientSamples(OrthoflowError):
    """Too few usable trajectory samples to fit a decay rate."""
