"""Exception types shared across the package."""


class NodalError(Exception):
    """Base class for all package-specific errors."""


class RetrogradeSingularity(NodalError, ValueError):
    """Relative inclination is at (or numerically too close to) pi.

    The inclination-vector components carry a tan(gamma/2) factor, so purely
    retrograde orbit pairs cannot be represented (an input error).
    """


class GeometryError(NodalError):
    """State implies a non-elliptic or otherwise invalid instantaneous geometry."""


class StepFailure(NodalError):
    """Numerical integration failed (step size underflow or solver abort)."""


class ZetaUndefined(NodalError):
    """Collision safety margin requested for a coplanar pair (|dh| = 0)."""


class ZeroSensitivity(NodalError):
    """Impulse direction undefined: the safety-margin sensitivity vector is zero."""


class ZeroRange(NodalError):
    """Angles-only measurement requested at zero inter-satellite distance."""


class InfeasibleEncounter(NodalError, ValueError):
    """Requested encounter geometry cannot be met with closed orbits (an
    input error)."""
