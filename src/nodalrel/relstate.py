"""The six-state nodal relative parametrization, its inverse invariant
recovery, and the exact mapping to local (RTN1) position with its
Jacobians.

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
    ClassicalElements,
    RelativeOrientation,
    relative_orientation,
    wrap_angle,
)


#: The dtype of the arrays the checks read without a conversion.
_FLOAT64 = np.dtype(float)


def _checked_state(x) -> list:
    """The six floats of a relative state x with dtheta wrapped to (-pi,
    pi]: the check of every state, validated or filtered.  A float64 array
    is read with one ``tolist()``, anything else converted to one first.
    A checked state comes back bitwise unchanged.  ValueError unless x
    holds exactly six entries, each finite, and dp > -1 (p2 > 0)."""
    arr = (x if type(x) is np.ndarray and x.dtype is _FLOAT64
           else np.asarray(x, dtype=float))
    vals = arr.tolist()
    if arr.ndim != 1 or len(vals) != 6:
        raise ValueError(f"a relative state has 6 entries on one axis, got "
                         f"{arr.size} in shape {arr.shape}")
    if not all(map(math.isfinite, vals)):
        raise ValueError(f"nonfinite relative state {tuple(vals)}")
    if not vals[1] > -1.0:
        raise ValueError(f"dp must exceed -1 (p2 > 0), got {vals[1]}")
    vals[0] = wrap_angle(vals[0])
    return vals


def _checked_reference(eta) -> list:
    """The three floats (p1, ec, es) of a reference eta: the check of
    every reference, validated or filtered, read as :func:`_checked_state`
    reads a state.  ValueError unless eta holds exactly three entries, p1
    is finite and > 0, and ec^2 + es^2 < 1."""
    arr = (eta if type(eta) is np.ndarray and eta.dtype is _FLOAT64
           else np.asarray(eta, dtype=float))
    vals = arr.tolist()
    if arr.ndim != 1 or len(vals) != 3:
        raise ValueError(f"a reference has 3 entries on one axis, got "
                         f"{arr.size} in shape {arr.shape}")
    p1, ec, es = vals
    if not 0.0 < p1 < math.inf:
        raise ValueError(f"p1 must be finite and > 0, got {p1}")
    if not ec * ec + es * es < 1.0:
        raise ValueError("eccentricity phasor magnitude must be < 1")
    return vals


def _reference_anomaly(ec: float, es: float) -> float:
    """True anomaly nu1 of the reference from its eccentricity phasor; 0
    by convention when e1 = 0."""
    if ec == 0.0 and es == 0.0:
        return 0.0
    return math.atan2(es, ec)


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
        object.__setattr__(self, "dtheta", _checked_state(
            (self.dtheta, self.dp, self.dxi_x, self.dxi_y, self.dh_x,
             self.dh_y))[0])

    def as_array(self) -> np.ndarray:
        return np.array([self.dtheta, self.dp, self.dxi_x, self.dxi_y,
                         self.dh_x, self.dh_y])

    @classmethod
    def from_array(cls, x) -> "NodalRelativeState":
        return cls(*_checked_state(x))

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
        _checked_reference((self.p1, self.ec, self.es))

    def as_array(self) -> np.ndarray:
        return np.array([self.p1, self.ec, self.es])

    @classmethod
    def from_array(cls, x) -> "ReferenceParams":
        return cls(*_checked_reference(x))


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


def _floats(oe: NodalRelativeState, eta: ReferenceParams) -> tuple:
    """The nine floats (dtheta, dp, dxi_x, dxi_y, dh_x, dh_y, p1, ec, es)
    of a state and its reference, the arguments of the float kernels."""
    return (oe.dtheta, oe.dp, oe.dxi_x, oe.dxi_y, oe.dh_x, oe.dh_y,
            eta.p1, eta.ec, eta.es)


def _kepler_pair(dtheta, dp, dxi_x, dxi_y, dh_x, dh_y, p1, ec, es):
    """Kepler timing invariants of both orbits, (nu1, e1, a1, nu2, e2, a2,
    dlambda), nu2 = nu1 + dtheta - dlambda being satellite 2's true anomaly,
    from the nine floats of :func:`_floats` (dh unused).  The eccentricity
    phasor of satellite 2 is (dxi_x + ec, dxi_y + es), from which e2 and
    the periapsis offset dlambda follow; a2 comes from the semiparameter
    ratio.  GeometryError if e2 is not below 1 (no closed orbit matches).
    """
    e1, nu1 = math.hypot(ec, es), _reference_anomaly(ec, es)
    e2 = math.hypot(dxi_x + ec, dxi_y + es)
    if not e2 < 1.0:
        raise GeometryError(f"recovered eccentricity e2 = {e2} is not < 1")
    dlambda = math.atan2(
        dxi_x * math.sin(nu1) - dxi_y * math.cos(nu1),
        dxi_x * math.cos(nu1) + dxi_y * math.sin(nu1) + e1)
    return (nu1, e1, p1 / (1.0 - e1 * e1), nu1 + dtheta - dlambda,
            e2, p1 * (1.0 + dp) / (1.0 - e2 * e2), dlambda)


def _radius_denominator(c, s, dxi_x, dxi_y, ec, es):
    """1 + e2 cos(nu2) at phase dtheta (cos c, sin s): r2 = p1 (1 + dp) / it.
    Arithmetic only, like the kernels below: floats and arrays share it."""
    return 1.0 + (dxi_x + ec) * c - (dxi_y + es) * s


def _position_kernel(c, s, denom, dp, dxi_x, dxi_y, hx, hy, p1, ec, es,
                     jacobians=False):
    """(r1, r2, q, b, dr, j_oe) of the RTN1 position dr = r1*(q*b - [1, 0,
    0]), q = r2/r1, from cos and sin of dtheta and the checked radius
    denominator.  b and dr are 3-tuples; the 3x6 state Jacobian of dr is a
    tuple of rows, or None (:func:`_reference_jacobian` gives the
    reference's)."""
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
        return r1, r2, q, (b0, b1, b2), dr, None

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
    return r1, r2, q, (b0, b1, b2), dr, j_oe


def _reference_jacobian(c, s, denom, dp, p1, ec, r2, b):
    """The 3x3 Jacobian of dr with respect to (p1, ec, es), as a tuple of
    rows, from the arguments of :func:`_position_kernel` and its r2 and b.
    Arithmetic only: floats and arrays share it."""
    b0, b1, b2 = b
    e0 = (1.0 + dp) / denom
    w2 = -r2 * c / denom
    w3 = r2 * s / denom
    return ((e0 * b0 - 1.0 / (1.0 + ec), w2 * b0 + p1 / (1.0 + ec) ** 2,
             w3 * b0),
            (e0 * b1, w2 * b1, w3 * b1),
            (e0 * b2, w2 * b2, w3 * b2))


def _scalar_position(dtheta, dp, dxi_x, dxi_y, dh_x, dh_y, p1, ec, es,
                     jacobians: bool = False):
    """:func:`_position_kernel` on the nine floats of one state (see
    :func:`_floats`); GeometryError if the radius denominator is not
    positive."""
    c, s = math.cos(dtheta), math.sin(dtheta)
    denom = _radius_denominator(c, s, dxi_x, dxi_y, ec, es)
    if not denom > 0.0:
        raise GeometryError(
            f"radius denominator {denom} <= 0: state outside elliptic geometry")
    return _position_kernel(c, s, denom, dp, dxi_x, dxi_y, dh_x, dh_y,
                            p1, ec, es, jacobians)


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
    r1, r2, q, b, dr, _ = _scalar_position(*_floats(oe, eta))
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
    dtheta, dp, dxi_x, dxi_y, *_, p1, ec, es = vals = _floats(oe, eta)
    _, r2, _, b, _, j_oe = _scalar_position(*vals, jacobians=True)
    c, s = math.cos(dtheta), math.sin(dtheta)
    denom = _radius_denominator(c, s, dxi_x, dxi_y, ec, es)
    return np.array(j_oe), np.array(
        _reference_jacobian(c, s, denom, dp, p1, ec, r2, b))

