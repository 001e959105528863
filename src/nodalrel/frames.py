"""Elementary rotations, direction cosine matrices, and the relative
orientation of two closed orbits about a common primary.

Conventions
-----------
All rotations are coordinate-basis (passive) rotations: ``rot_z(t) @ x``
gives the components of the fixed vector ``x`` in a frame rotated by ``t``
about Z.  Angles are radians, wrapped to (-pi, pi].  The relative node is
the ascending crossing of satellite 2 through the orbital plane of
satellite 1; all nodal angles (alpha, lambda, theta) are measured from it,
positive along each satellite's direction of motion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RetrogradeSingularity

#: Relative inclination below which the relative line of nodes is treated as
#: undefined and the degenerate node convention (alpha1 = 0) applies.
COPLANAR_GAMMA_TOL = 1e-9

#: Margin kept from the retrograde singularity at gamma = pi.
RETROGRADE_GAMMA_TOL = 1e-6


def wrap_angle(x):
    """Wrap an angle or array of angles to (-pi, pi].

    Python (and numpy) float scalars take a ``math`` path whose ``%`` has
    the floor-modulo semantics of ``np.mod``, so both paths agree bitwise.
    """
    if isinstance(x, (int, float)):
        w = (float(x) + math.pi) % (2.0 * math.pi) - math.pi
        return math.pi if w == -math.pi else w
    w = np.mod(np.asarray(x, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
    w = np.where(w == -np.pi, np.pi, w)
    return float(w) if w.ndim == 0 else w


def rot_x(theta: float) -> np.ndarray:
    """Coordinate-basis rotation about the X axis by ``theta``."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[1.0, 0.0, 0.0],
                     [0.0, c, s],
                     [0.0, -s, c]])


def rot_z(theta: float) -> np.ndarray:
    """Coordinate-basis rotation about the Z axis by ``theta``."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s, 0.0],
                     [-s, c, 0.0],
                     [0.0, 0.0, 1.0]])


@dataclass(frozen=True)
class ClassicalElements:
    """Classical orbital elements of a closed orbit in the primary-centered
    inertial frame.

    Attributes
    ----------
    a : float
        Semimajor axis, km.  Must be finite and positive.
    e : float
        Eccentricity, in [0, 1).
    i : float
        Inclination, rad, in [0, pi].
    raan : float
        Right ascension of the ascending node, rad.
    argp : float
        Argument of periapsis, rad.
    nu : float
        True anomaly, rad.

    The three angles must be finite; they are wrapped to (-pi, pi] on
    construction.  A bad field raises ValueError naming it.
    """

    a: float
    e: float
    i: float
    raan: float
    argp: float
    nu: float

    def __post_init__(self):
        if not 0.0 < self.a < math.inf:
            raise ValueError(f"semimajor axis a must be finite and > 0, "
                             f"got {self.a}")
        if not 0.0 <= self.e < 1.0:
            raise ValueError(f"eccentricity must be in [0, 1), got {self.e}")
        if not 0.0 <= self.i <= math.pi:
            raise ValueError(f"inclination must be in [0, pi], got {self.i}")
        for name in ("raan", "argp", "nu"):
            angle = getattr(self, name)
            if not math.isfinite(angle):
                raise ValueError(f"{name} must be finite, got {angle}")
            object.__setattr__(self, name, wrap_angle(angle))

    @property
    def p(self) -> float:
        """Semiparameter a(1 - e^2), km."""
        return self.a * (1.0 - self.e * self.e)


@dataclass(frozen=True)
class RelativeOrientation:
    """Mutual orientation of two orbits expressed through the relative node.

    ``gamma`` is the dihedral angle between the orbital planes, in [0, pi).
    ``alpha_j`` locates the relative node from the ascending node of orbit j,
    ``lambda_j = argp_j - alpha_j`` locates each periapsis from the relative
    node and ``theta_j = nu_j + lambda_j`` each satellite.  When ``coplanar``
    is set, gamma is below the node-definition threshold and the alpha split
    follows the degenerate convention alpha1 = 0.
    """

    gamma: float
    alpha1: float
    alpha2: float
    lambda1: float
    lambda2: float
    theta1: float
    theta2: float
    coplanar: bool = False


def pci_to_pqw(el: ClassicalElements) -> np.ndarray:
    """DCM taking primary-centered inertial coordinates to the orbit's
    perifocal (PQW) frame: rot_z(argp) @ rot_x(i) @ rot_z(raan)."""
    return rot_z(el.argp) @ rot_x(el.i) @ rot_z(el.raan)


def relative_orientation(el1: ClassicalElements,
                         el2: ClassicalElements) -> RelativeOrientation:
    """Extract the relative inclination and nodal angles of an orbit pair.

    Solves the matrix identity

        rot_z(-alpha1) @ rot_x(-gamma) @ rot_z(alpha2)
            = rot_x(i1) @ rot_z(raan1 - raan2) @ rot_x(-i2)

    for gamma in [0, pi) and the node offsets alpha1, alpha2.  Writing M for
    the right-hand side, the extraction uses

        gamma  = atan2(hypot(M[0,2], M[1,2]), M[2,2])
        alpha1 = atan2(M[0,2], -M[1,2])
        alpha2 = atan2(-M[2,0], M[2,1])

    For gamma below ``COPLANAR_GAMMA_TOL`` the node is undefined; the
    convention alpha1 = 0, alpha2 = atan2(M[0,1], M[0,0]) is applied and the
    result is flagged coplanar.

    Raises
    ------
    RetrogradeSingularity
        If gamma exceeds pi - RETROGRADE_GAMMA_TOL.
    """
    m = rot_x(el1.i) @ rot_z(el1.raan - el2.raan) @ rot_x(-el2.i)
    sin_gamma = math.hypot(m[0, 2], m[1, 2])
    gamma = math.atan2(sin_gamma, m[2, 2])
    if gamma > math.pi - RETROGRADE_GAMMA_TOL:
        raise RetrogradeSingularity(
            f"relative inclination {gamma!r} rad is too close to pi")

    coplanar = gamma < COPLANAR_GAMMA_TOL
    if coplanar:
        alpha1 = 0.0
        alpha2 = math.atan2(m[0, 1], m[0, 0])
    else:
        alpha1 = math.atan2(m[0, 2], -m[1, 2])
        alpha2 = math.atan2(-m[2, 0], m[2, 1])

    lambda1 = wrap_angle(el1.argp - alpha1)
    lambda2 = wrap_angle(el2.argp - alpha2)
    return RelativeOrientation(
        gamma=gamma,
        alpha1=wrap_angle(alpha1),
        alpha2=wrap_angle(alpha2),
        lambda1=lambda1,
        lambda2=lambda2,
        theta1=wrap_angle(el1.nu + lambda1),
        theta2=wrap_angle(el2.nu + lambda2),
        coplanar=coplanar,
    )

