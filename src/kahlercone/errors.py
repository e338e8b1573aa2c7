"""Exception types shared across the package."""


class KahlerConeError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(KahlerConeError):
    """Operands have incompatible dimensions."""


class ParseError(KahlerConeError):
    """Polynomial source text is malformed.

    Carries the 0-based position of the offending token in `position`.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotHomogeneousCubic(KahlerConeError):
    """Input polynomial is not a homogeneous form of degree 3."""


class SingularHessian(KahlerConeError):
    """The Hessian of the form is singular at the requested point."""


class NotInCone(KahlerConeError):
    """The point is not in the interior of the index cone."""


class SamplingExhausted(KahlerConeError):
    """The interior-point sampler ran out of attempts.

    The index cone is empty or too thin for grid search; supply an interior
    hint point to sample by ray scaling.
    """


class ZeroLambda(KahlerConeError):
    """The fibre coordinate of the cone metric must be nonzero."""


class ZeroVector(KahlerConeError):
    """A direction vector must be nonzero."""
