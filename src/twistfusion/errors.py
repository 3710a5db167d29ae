"""Exception types shared across the package."""


class TwistFusionError(Exception):
    """Base class for all package-specific errors."""


class PoleAtPoint(TwistFusionError, ArithmeticError):
    """A rational function was evaluated at a zero of its denominator."""


class ZeroFunction(TwistFusionError, ValueError):
    """The zero rational function has no Laurent order."""


class PoleAtInfinity(TwistFusionError, ArithmeticError):
    """Expansion at infinity requested for a function with a pole there."""


class MalformedInput(TwistFusionError, ValueError):
    """A value given to the program (a rational, a module spec, a truncation
    order) is not valid input."""


class MalformedShape(TwistFusionError, ValueError):
    """Text or data does not describe a valid skew Young diagram."""


class ShapeTooTall(TwistFusionError, ValueError):
    """A diagram column exceeds the site dimension N."""


class BoxCapExceeded(TwistFusionError, ValueError):
    """Total number of boxes exceeds the configured safety cap."""


class SharpInconsistent(TwistFusionError, RuntimeError):
    """The rotation shift constant failed its constancy check (a bug, never valid input)."""


class IndexOutOfRange(TwistFusionError, IndexError):
    """A tensor leg index lies outside 1..n."""


class NotInvariant(TwistFusionError, ValueError):
    """An operator does not map the given domain span into the codomain span."""


class DimensionMismatch(TwistFusionError, ValueError):
    """Matrix or tensor dimensions are incompatible."""


class LimitSingular(TwistFusionError, ArithmeticError):
    """The regularized fusion limit has a pole (signals a convention bug)."""


class SlopeCollision(TwistFusionError, ValueError):
    """Two columns were assigned the same approach slope."""


class SingularParameter(TwistFusionError, ArithmeticError):
    """A parameter point makes a required denominator vanish."""


class SingularFamily(TwistFusionError, ArithmeticError):
    """A factor denominator vanishes identically in the deformation variable."""


class InternalInconsistency(TwistFusionError, RuntimeError):
    """Two results that must agree by theory disagree (always a bug)."""


class WorkerLost(TwistFusionError, RuntimeError):
    """A scan worker process exited before it returned its points."""


class SizeLimit(TwistFusionError, RuntimeError):
    """A module is too large for the memory its verdict would need."""
