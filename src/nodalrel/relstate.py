"""The six-state nodal relative parametrization, its inverse invariant
recovery, relative eccentricity/inclination vectors, and the exact mapping
to local (RTN1) position and velocity.

State conventions, with satellite 1 as the reference:

    dtheta          theta2 - theta1 (phase from the relative node)
    dp              (p2 - p1) / p1
    dxi_x, dxi_y    e2*(cos, sin)(theta1 - lambda2) - e1*(cos, sin)(nu1)
    dh_x, dh_y      tan(gamma/2) * (cos, sin)(theta1)

The reference parameters are p1 and the eccentricity phasor
(e1*cos nu1, e1*sin nu1), which together with the six relative states fully
determine the orbit-pair geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .frames import (
    COPLANAR_GAMMA_TOL,
    ClassicalElements,
    RelativeOrientation,
    relative_orientation,
    wrap_angle,
)


@dataclass(frozen=True)
class NodalRelativeState:
    """Relative state of satellite 2 with respect to reference satellite 1."""

    dtheta: float
    dp: float
    dxi_x: float
    dxi_y: float
    dh_x: float
    dh_y: float

    def __post_init__(self):
        vals = (self.dtheta, self.dp, self.dxi_x, self.dxi_y,
                self.dh_x, self.dh_y)
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"nonfinite relative state {vals}")
        if not self.dp > -1.0:
            raise ValueError(f"dp must exceed -1 (p2 > 0), got {self.dp}")
        object.__setattr__(self, "dtheta", wrap_angle(self.dtheta))

    def as_array(self) -> np.ndarray:
        return np.array([self.dtheta, self.dp, self.dxi_x, self.dxi_y,
                         self.dh_x, self.dh_y])

    @classmethod
    def from_array(cls, x) -> "NodalRelativeState":
        return cls(*np.asarray(x, dtype=float).tolist())

    @property
    def dxi(self) -> float:
        """Magnitude of the relative eccentricity vector."""
        return math.hypot(self.dxi_x, self.dxi_y)

    @property
    def dh(self) -> float:
        """Magnitude of the relative inclination vector, tan(gamma/2)."""
        return math.hypot(self.dh_x, self.dh_y)


@dataclass(frozen=True)
class ReferenceParams:
    """Reference-orbit parameters: semiparameter and eccentricity phasor."""

    p1: float
    ec: float  # e1 * cos(nu1)
    es: float  # e1 * sin(nu1)

    def __post_init__(self):
        if not self.p1 > 0.0:
            raise ValueError(f"p1 must be positive, got {self.p1}")
        if not self.ec * self.ec + self.es * self.es < 1.0:
            raise ValueError("eccentricity phasor magnitude must be < 1")

    def as_array(self) -> np.ndarray:
        return np.array([self.p1, self.ec, self.es])

    @classmethod
    def from_array(cls, x) -> "ReferenceParams":
        x = np.asarray(x, dtype=float)
        return cls(float(x[0]), float(x[1]), float(x[2]))

    @property
    def e1(self) -> float:
        return math.hypot(self.ec, self.es)

    @property
    def nu1(self) -> float:
        """True anomaly of the reference; 0 by convention when e1 = 0."""
        if self.ec == 0.0 and self.es == 0.0:
            return 0.0
        return math.atan2(self.es, self.ec)

    @property
    def r1(self) -> float:
        """Reference orbital radius p1 / (1 + e1 cos nu1), km."""
        return self.p1 / (1.0 + self.ec)


@dataclass(frozen=True)
class EccIncVectors:
    """Relative eccentricity/inclination vectors in the node-aligned frame.

    ``de`` and ``di`` are expressed in a planar frame whose X axis points
    along the relative line of nodes.  ``dphi`` is the phase angle between
    the inclination and eccentricity vectors; ``dphi_defined`` is False when
    either vector vanishes (the phase is then meaningless and dphi is nan).
    """

    de: np.ndarray
    di: np.ndarray
    dxi_mag: float
    dh_mag: float
    dphi: float
    dphi_defined: bool


@dataclass(frozen=True)
class RelativePosition:
    """Output of the state-to-position mapping.

    ``dr`` is the RTN1 position of satellite 2 relative to satellite 1 (km);
    ``b`` is the unit direction of satellite 2 in RTN1 axes and ``q`` the
    radius ratio r2/r1.
    """

    dr: np.ndarray
    r1: float
    r2: float
    q: float
    b: np.ndarray


@dataclass(frozen=True)
class LocalState:
    """Relative position (km) and velocity (km/s) in the RTN1 frame."""

    dr: np.ndarray
    dv: np.ndarray


@dataclass(frozen=True)
class RecoveredInvariants:
    """Keplerian invariants recovered from a nodal relative state.

    When ``theta1_degenerate`` is set (gamma below the coplanar threshold),
    theta1 cannot be recovered from the inclination vector and the fields
    theta1, theta2, lambda1, lambda2 are nan; dlambda remains well defined.
    """

    a2: float
    e2: float
    gamma: float
    dlambda: float
    lambda1: float
    lambda2: float
    theta1: float
    theta2: float
    dtheta: float
    theta1_degenerate: bool


def oe_from_classical(el1: ClassicalElements, el2: ClassicalElements,
                      ) -> tuple[NodalRelativeState, ReferenceParams]:
    """Map a classical-element pair to the nodal relative state and the
    reference parameters.

    Raises
    ------
    RetrogradeSingularity
        Propagated from the relative-orientation extraction.
    """
    rel = relative_orientation(el1, el2)
    return oe_from_orientation(el1, el2, rel), ReferenceParams(
        p1=el1.p, ec=el1.e * math.cos(el1.nu), es=el1.e * math.sin(el1.nu))


def oe_from_orientation(el1: ClassicalElements, el2: ClassicalElements,
                        rel: RelativeOrientation) -> NodalRelativeState:
    """Nodal relative state from elements plus a precomputed orientation."""
    t_half = math.tan(0.5 * rel.gamma)
    return NodalRelativeState(
        dtheta=wrap_angle(rel.theta2 - rel.theta1),
        dp=(el2.p - el1.p) / el1.p,
        dxi_x=(el2.e * math.cos(rel.theta1 - rel.lambda2)
               - el1.e * math.cos(el1.nu)),
        dxi_y=(el2.e * math.sin(rel.theta1 - rel.lambda2)
               - el1.e * math.sin(el1.nu)),
        dh_x=t_half * math.cos(rel.theta1),
        dh_y=t_half * math.sin(rel.theta1),
    )


def classical_from_oe(oe: NodalRelativeState, eta: ReferenceParams,
                      ) -> RecoveredInvariants:
    """Recover the Keplerian invariants of satellite 2 and the nodal angles.

    The eccentricity phasor of satellite 2 is (dxi_x + ec, dxi_y + es), from
    which e2 and the periapsis offset dlambda follow; a2 comes from the
    semiparameter ratio, gamma from |dh|, and theta1 from the direction of
    the inclination vector whenever gamma is at least COPLANAR_GAMMA_TOL.

    For a circular reference (e1 = 0) the split of theta1 into nu1 + lambda1
    uses the nu1 = 0 convention of :class:`ReferenceParams`.

    Raises
    ------
    GeometryError
        If the recovered e2 is not below 1 (no closed orbit matches).
    """
    e1 = eta.e1
    nu1 = eta.nu1
    e2 = math.hypot(oe.dxi_x + eta.ec, oe.dxi_y + eta.es)
    if not e2 < 1.0:
        raise GeometryError(f"recovered eccentricity e2 = {e2} is not < 1")
    dlambda = math.atan2(
        oe.dxi_x * math.sin(nu1) - oe.dxi_y * math.cos(nu1),
        oe.dxi_x * math.cos(nu1) + oe.dxi_y * math.sin(nu1) + e1)
    a2 = eta.p1 * (1.0 + oe.dp) / (1.0 - e2 * e2)
    dh = oe.dh
    gamma = 2.0 * math.atan(dh)

    degenerate = gamma < COPLANAR_GAMMA_TOL
    if degenerate:
        theta1 = theta2 = lambda1 = lambda2 = math.nan
    else:
        theta1 = math.atan2(oe.dh_y, oe.dh_x)
        lambda1 = wrap_angle(theta1 - nu1)
        lambda2 = wrap_angle(lambda1 + dlambda)
        theta2 = wrap_angle(theta1 + oe.dtheta)

    return RecoveredInvariants(
        a2=a2, e2=e2, gamma=gamma, dlambda=dlambda,
        lambda1=lambda1, lambda2=lambda2, theta1=theta1, theta2=theta2,
        dtheta=oe.dtheta, theta1_degenerate=degenerate)


def ecc_inc_vectors(oe: NodalRelativeState, eta: ReferenceParams,
                    ) -> EccIncVectors:
    """Relative eccentricity/inclination vectors, magnitudes, and phase.

    The state components (dxi_x, dxi_y) and (dh_x, dh_y) are the node-frame
    vectors rotated by theta1 (with the eccentricity Y component reflected),
    so the magnitudes transfer directly and the node-frame vectors follow by
    back-rotation.  When |dh| = 0 the node direction is unknown and de is
    reported in the theta1 = 0 convention.
    """
    dxi_mag = oe.dxi
    dh_mag = oe.dh
    if dh_mag > 0.0:
        theta1 = math.atan2(oe.dh_y, oe.dh_x)
        c, s = math.cos(theta1), math.sin(theta1)
        ex = c * oe.dxi_x + s * oe.dxi_y
        ey = -(-s * oe.dxi_x + c * oe.dxi_y)
        de = np.array([ex, ey])
        di = np.array([dh_mag, 0.0])
    else:
        de = np.array([oe.dxi_x, -oe.dxi_y])
        di = np.array([0.0, 0.0])

    defined = dxi_mag > 0.0 and dh_mag > 0.0
    dphi = (wrap_angle(theta1 - math.atan2(oe.dxi_y, oe.dxi_x)) if defined
            else math.nan)
    return EccIncVectors(de=de, di=di, dxi_mag=dxi_mag, dh_mag=dh_mag,
                         dphi=dphi, dphi_defined=defined)


def _radius_denominator(c, s, dxi_x, dxi_y, ec, es):
    """1 + e2 cos(nu2) at phase dtheta (cos c, sin s): r2 = p1 (1 + dp) / it.
    Arithmetic only, like the kernels below: floats and arrays share it."""
    return 1.0 + (dxi_x + ec) * c - (dxi_y + es) * s


def _position_kernel(c, s, denom, dp, dxi_x, dxi_y, hx, hy, p1, ec, es,
                     jacobians=False):
    """(r1, r2, q, b, dr, j_oe, j_eta) of the RTN1 position dr = r1*(q*b -
    [1, 0, 0]), q = r2/r1, from cos and sin of dtheta and the checked
    radius denominator.  b and dr are 3-tuples; the 3x6 state and 3x3
    reference Jacobians of dr are tuples of rows, or None."""
    r1 = p1 / (1.0 + ec)
    r2 = p1 * (1.0 + dp) / denom
    q = r2 / r1
    smag = 1.0 + hx * hx + hy * hy
    a_ = 1.0 + hx * hx - hy * hy
    b_ = 1.0 - hx * hx + hy * hy
    cc = 2.0 * hx * hy
    b0 = (a_ * c - cc * s) / smag
    b1 = (b_ * s - cc * c) / smag
    b2 = (2.0 * hy * c + 2.0 * hx * s) / smag
    dr = (r1 * (q * b0 - 1.0), r1 * (q * b1), r1 * (q * b2))
    if not jacobians:
        return r1, r2, q, (b0, b1, b2), dr, None, None

    dbt0 = (-a_ * s - cc * c) / smag
    dbt1 = (b_ * c + cc * s) / smag
    dbt2 = (-2.0 * hy * s + 2.0 * hx * c) / smag
    # d(b)/d(hx), d(b)/d(hy) by quotient rule; the numerators of b carry
    # +-2h factors and the denominator contributes -2h/S * b.
    dbx0 = (2.0 * hx * c - 2.0 * hy * s) / smag - b0 * 2.0 * hx / smag
    dbx1 = (-2.0 * hx * s - 2.0 * hy * c) / smag - b1 * 2.0 * hx / smag
    dbx2 = 2.0 * s / smag - b2 * 2.0 * hx / smag
    dby0 = (-2.0 * hy * c - 2.0 * hx * s) / smag - b0 * 2.0 * hy / smag
    dby1 = (2.0 * hy * s - 2.0 * hx * c) / smag - b1 * 2.0 * hy / smag
    dby2 = 2.0 * c / smag - b2 * 2.0 * hy / smag

    ddenom_ddtheta = -(dxi_x + ec) * s - (dxi_y + es) * c
    w0 = -r2 / denom * ddenom_ddtheta
    w1 = p1 / denom
    w2 = -r2 * c / denom
    w3 = r2 * s / denom
    j_oe = (
        (w0 * b0 + r2 * dbt0, w1 * b0, w2 * b0, w3 * b0, r2 * dbx0, r2 * dby0),
        (w0 * b1 + r2 * dbt1, w1 * b1, w2 * b1, w3 * b1, r2 * dbx1, r2 * dby1),
        (w0 * b2 + r2 * dbt2, w1 * b2, w2 * b2, w3 * b2, r2 * dbx2, r2 * dby2),
    )
    e0 = (1.0 + dp) / denom
    j_eta = ((e0 * b0 - 1.0 / (1.0 + ec), w2 * b0 + p1 / (1.0 + ec) ** 2,
              w3 * b0),
             (e0 * b1, w2 * b1, w3 * b1),
             (e0 * b2, w2 * b2, w3 * b2))
    return r1, r2, q, (b0, b1, b2), dr, j_oe, j_eta


def _scalar_position(oe: NodalRelativeState, eta: ReferenceParams,
                     jacobians: bool = False):
    """:func:`_position_kernel` on one state; GeometryError if the radius
    denominator is not positive."""
    c, s = math.cos(oe.dtheta), math.sin(oe.dtheta)
    denom = _radius_denominator(c, s, oe.dxi_x, oe.dxi_y, eta.ec, eta.es)
    if not denom > 0.0:
        raise GeometryError(
            f"radius denominator {denom} <= 0: state outside elliptic geometry")
    return _position_kernel(c, s, denom, oe.dp, oe.dxi_x, oe.dxi_y,
                            oe.dh_x, oe.dh_y, eta.p1, eta.ec, eta.es,
                            jacobians)


def _position_arrays(oe_arr, eta_arr, jacobians: bool = False):
    """:func:`_position_kernel` over states (..., 6) and references
    (..., 3); rows with a non-positive radius denominator come out nan."""
    dtheta, dp, dxx, dxy, hx, hy = np.moveaxis(
        np.asarray(oe_arr, dtype=float), -1, 0)
    p1, ec, es = np.moveaxis(np.asarray(eta_arr, dtype=float), -1, 0)
    c, s = np.cos(dtheta), np.sin(dtheta)
    denom = _radius_denominator(c, s, dxx, dxy, ec, es)
    return _position_kernel(c, s, np.where(denom > 0.0, denom, np.nan),
                            dp, dxx, dxy, hx, hy, p1, ec, es, jacobians)


def relative_position(oe: NodalRelativeState, eta: ReferenceParams,
                      ) -> RelativePosition:
    """Exact RTN1 relative position of satellite 2.

    dr = r1 * (q*b - [1, 0, 0]) with b the unit direction of satellite 2 in
    RTN1 axes (a function of dtheta and the inclination vector only) and
    q = r2/r1.

    Raises
    ------
    GeometryError
        If the radius denominator of satellite 2 is not positive.
    """
    r1, r2, q, b, dr, _, _ = _scalar_position(oe, eta)
    return RelativePosition(dr=np.array(dr), r1=r1, r2=r2, q=q,
                            b=np.array(b))


def relative_position_batch(oe_arr: np.ndarray,
                            eta_arr: np.ndarray) -> np.ndarray:
    """RTN1 relative positions for stacked states.

    Parameters
    ----------
    oe_arr : ndarray, shape (n, 6)
    eta_arr : ndarray, shape (n, 3)

    Returns
    -------
    ndarray, shape (n, 3)
        Relative positions in km.  Rows with non-elliptic geometry are nan.
    """
    dr = _position_arrays(np.atleast_2d(oe_arr), np.atleast_2d(eta_arr))[4]
    return np.stack(dr, axis=-1)


def _separation(r1, r2, sin_half, cos_half, hx, hy):
    """Distance between satellites at radii r1 and r2, a phase dtheta apart
    (given as sin and cos of dtheta/2), with inclination vector (hx, hy):

        d^2 = (r1 - r2)^2
              + 4 r1 r2 [sin^2(dtheta/2) + (hx sin(dtheta/2)
                                            + hy cos(dtheta/2))^2] / S,

    S = 1 + hx^2 + hy^2.  This is r1^2 (1 + q^2 - 2 q b1) with 1 - b1 and
    1 - q written out, so km-scale misses at heliocentric radii do not
    cancel.  Arithmetic only: float and array arguments share it.
    """
    w = hx * sin_half + hy * cos_half
    d2 = ((r1 - r2) ** 2 + 4.0 * r1 * r2 * (sin_half * sin_half + w * w)
          / (1.0 + hx * hx + hy * hy))
    return d2 ** 0.5


def separation_distance(oe_arr: np.ndarray, eta_arr: np.ndarray) -> np.ndarray:
    """Inter-satellite distance for stacked states, from the radii and the
    half-phase form of :func:`_separation` (no cancellation at close
    approach, whatever the orbit radius).

    Parameters
    ----------
    oe_arr : ndarray, shape (n, 6)
    eta_arr : ndarray, shape (n, 3)

    Returns
    -------
    ndarray, shape (n,)
        Distances in km.  Entries with non-elliptic geometry are nan.
    """
    oe_arr = np.atleast_2d(np.asarray(oe_arr, dtype=float))
    r1, r2 = _position_arrays(oe_arr, np.atleast_2d(eta_arr))[:2]
    half = 0.5 * oe_arr[:, 0]
    return _separation(r1, r2, np.sin(half), np.cos(half),
                       oe_arr[:, 4], oe_arr[:, 5])


def _position_and_jacobians(oe: NodalRelativeState, eta: ReferenceParams,
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """RTN1 position dr = r1*(q*b - [1, 0, 0]) with its 3x6 state Jacobian
    and 3x3 reference Jacobian, from one evaluation of the geometry and b."""
    *_, dr, j_oe, j_eta = _scalar_position(oe, eta, jacobians=True)
    return np.array(dr), np.array(j_oe), np.array(j_eta)


def position_jacobians(oe: NodalRelativeState, eta: ReferenceParams,
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Analytic partials of the position mapping.

    Returns
    -------
    (j_oe, j_eta)
        ``j_oe`` is the 3x6 Jacobian of dr with respect to the relative
        state ordering (dtheta, dp, dxi_x, dxi_y, dh_x, dh_y); ``j_eta`` the
        3x3 Jacobian with respect to (p1, ec, es).
    """
    return _position_and_jacobians(oe, eta)[1:]


def relative_velocity(oe: NodalRelativeState, eta: ReferenceParams,
                      mu: float) -> np.ndarray:
    """Time derivative of the RTN1 relative position under unperturbed
    motion, by the chain rule through the analytic position Jacobians."""
    from .dynamics import perturbed_derivative  # deferred: dynamics imports this module

    doe, deta = perturbed_derivative(oe, eta, None, mu)
    j_oe, j_eta = position_jacobians(oe, eta)
    return j_oe @ doe + j_eta @ deta


def local_state(oe: NodalRelativeState, eta: ReferenceParams,
                mu: float) -> LocalState:
    """Relative position and velocity in RTN1."""
    return LocalState(dr=relative_position(oe, eta).dr,
                      dv=relative_velocity(oe, eta, mu))


def haversine_psi(theta1: float, theta2: float, gamma: float) -> float:
    """Central angle between the two satellite position directions.

    Uses hav(psi) = hav(theta2 - theta1) + sin(theta1) sin(theta2) hav(gamma)
    with hav(x) = sin^2(x/2); the result is clamped to a valid haversine
    before inversion and returned in [0, pi].
    """
    hav = (math.sin(0.5 * (theta2 - theta1)) ** 2
           + math.sin(theta1) * math.sin(theta2)
           * math.sin(0.5 * gamma) ** 2)
    hav = min(max(hav, 0.0), 1.0)
    return 2.0 * math.asin(math.sqrt(hav))
