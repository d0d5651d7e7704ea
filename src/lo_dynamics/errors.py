"""Exception types shared across the package."""


class LoDynamicsError(Exception):
    """Base class for all package-specific errors."""


class DomainError(LoDynamicsError, ValueError):
    """A triple (n, p, k) violates the basic domain constraints."""


class InadmissibleTriple(LoDynamicsError, ValueError):
    """(n, p, k) is not in the admissibility table and overriding was not requested."""


class EpsNonpositive(LoDynamicsError, ValueError):
    """Shooting offset eps must be strictly positive."""


class BlowupDetected(LoDynamicsError, RuntimeError):
    """Integration left the bounded region; the true orbit is bounded, so this
    signals an integration bug or grossly wrong parameters."""


class StepSizeUnderflow(LoDynamicsError, RuntimeError):
    """The adaptive step fell below its floor without meeting the error test,
    e.g. under a relative tolerance far below the rounding of the state."""


class RadiusOutOfRange(LoDynamicsError, ValueError):
    """Requested ball radius lies outside the radial span of the profile."""


class NotTypeI(LoDynamicsError, ValueError):
    """Operation requires parameters whose equilibrium is of the real-eigenvalue type."""


class NotTypeII(LoDynamicsError, ValueError):
    """Operation requires parameters whose equilibrium is of the spiral type."""


class InsufficientHits(LoDynamicsError, ValueError):
    """Not enough slope crossings on the orbit to build the requested report."""


class COutOfRange(LoDynamicsError, ValueError):
    """Barrier constant c must lie in (0, 1]."""


class LengthMismatch(LoDynamicsError, ValueError):
    """A singular-value list or a profile column does not have the expected length."""


class NotOnSphere(LoDynamicsError, ValueError):
    """Input point is not on the unit sphere."""


class StepOutOfRange(LoDynamicsError, ValueError):
    """Finite-difference step size outside the supported range."""


class NotMonotone(LoDynamicsError, RuntimeError):
    """A quantity that must be monotone along the orbit failed a runtime check."""
