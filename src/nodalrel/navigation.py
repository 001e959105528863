"""Angles-only measurement model and extended Kalman filter over the nodal
relative state.

Satellite 1 measures the azimuth and elevation of the line of sight to
satellite 2 in its own RTN frame, plus the apparent angular size of the
(spherical, known-diameter) target.  The filter propagates the relative
state in closed form by Kepler timing of both recovered orbits: dp is
held, the eccentricity/inclination pairs are rotated by the reference
anomaly sweep, and dtheta follows from the two anomaly sweeps, so every
row of the 6x6 state transition matrix is exact (its dtheta row from the
partials of that timing).  The reference parameters are perfectly known:
a coast reads satellite 1's anomaly at its end from them, not by a solve.

The filter works on plain arrays: x is the six state floats (dtheta, dp,
dxi_x, dxi_y, dh_x, dh_y), P their 6x6 covariance, eta the three reference
floats (p1, ec, es) and a measurement the three floats (az, el, beta).

Each input of a step is converted to floats once, at the public entry,
and each output array is built once, from floats or in place.  A step
(one update, one coast) checks three states: the update's x and its
posterior, and the coast's x; and the three references it is given.
The coast's own output needs no check: from a checked state over a
finite dt its entries are finite and dp is unchanged.

Each small product of a step is an ``ndarray.dot`` call: the BLAS routine
of ``@`` at about half its dispatch cost, which dominates on 6x6.  None
passes one buffer as both operands (``A.dot(A.T)`` goes to ``syrk``, which
can round differently from ``gemm``); sums accumulate only into arrays the
step made, and none adds an array to a view of itself (``P += P.T`` makes
numpy copy the overlapping operand first).  The gain's 3x3 solve is float
arithmetic, Gaussian elimination without row swaps of the symmetric
positive definite innovation covariance: numpy's BLAS is the filter's only
linear-algebra library.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ZeroRange
from .dynamics import _anomaly_sweep
from .frames import wrap_angle
from .relstate import (_checked_reference, _checked_state, _kepler_pair,
                       _reference_anomaly, _scalar_position)

#: |elevation| within this distance of pi/2 flags an ill-conditioned azimuth.
GIMBAL_EL_TOL = 1e-9

_EYE6 = np.eye(6)
_EYE6.flags.writeable = False


@dataclass(frozen=True)
class NoiseSpec:
    """1-sigma standard deviations of the white measurement noise, rad."""

    sigma_az: float
    sigma_el: float
    sigma_beta: float

    def __post_init__(self):
        bad = [k for k, s in vars(self).items() if not 0.0 < s < math.inf]
        if bad:
            raise ValueError(f"{', '.join(bad)} must be finite and > 0")

    def covariance(self) -> np.ndarray:
        return np.diag([self.sigma_az ** 2, self.sigma_el ** 2,
                        self.sigma_beta ** 2])


def _angles(x: float, y: float, z: float, d: float,
            ) -> tuple[float, float, float, float, float]:
    """(az, el, beta, rho, rho_RT^2) of an RTN1 relative position (x, y, z):
    the noiseless measurement, the range and the squared radial-transverse
    range.  ZeroRange if the satellites are co-located."""
    rho_rt2 = x * x + y * y
    rho = math.sqrt(rho_rt2 + z * z)
    if not rho > 0.0:
        raise ZeroRange("measurement undefined at zero separation")
    return math.atan2(y, x), math.asin(z / rho), d / rho, rho, rho_rt2


def measure(dr: np.ndarray, d: float, noise: NoiseSpec,
            rng: np.random.Generator) -> np.ndarray:
    """Noisy (az, el, beta) of RTN1 relative positions dr (..., 3), as an
    array of the same shape.  The noiseless angles are those of
    :func:`_angles`, computed for all rows at once: rho sums x*x + y*y + z*z
    in the same order, so beta has the same bits, and numpy's arctan2 and
    arcsin agree with libm's atan2 and asin within an ulp.  The noise is
    one standard-normal draw of that shape, so n rows take the draws of n
    single-row calls, in row order.

    Raises
    ------
    ValueError
        If the last axis of dr is not of length 3.
    ZeroRange
        If the satellites are co-located in any row.
    """
    dr = np.asarray(dr, dtype=float)
    if dr.shape[-1:] != (3,):
        raise ValueError(f"positions must have shape (..., 3), got {dr.shape}")
    x, y, z = dr[..., 0], dr[..., 1], dr[..., 2]
    rho = np.sqrt(x * x + y * y + z * z)
    if not np.all(rho > 0.0):
        raise ZeroRange("measurement undefined at zero separation")
    angles = np.stack((np.arctan2(y, x), np.arcsin(z / rho), d / rho), axis=-1)
    sigma = np.array([noise.sigma_az, noise.sigma_el, noise.sigma_beta])
    return angles + sigma * rng.standard_normal(dr.shape)


def predict_measurement(x, eta, d: float,
                        ) -> tuple[np.ndarray, np.ndarray, bool]:
    """(y, H, gimbal_degenerate): the noiseless (az, el, beta) of state x at
    reference eta, its 3x6 Jacobian with respect to x by the chain rule
    through the position mapping, and whether the elevation lies within
    GIMBAL_EL_TOL of a pole.

    Raises
    ------
    ValueError
        If x or eta is not valid (see :func:`relstate._checked_state` and
        :func:`relstate._checked_reference`).
    ZeroRange
        If the predicted separation is zero.
    """
    y, h, gimbal = _predict(_checked_state(x), _checked_reference(eta), d)
    return np.array(y), h, gimbal


def _predict(state, ref, d: float) -> tuple[tuple, np.ndarray, bool]:
    """:func:`predict_measurement` of the checked floats of a state and its
    reference, with y as a 3-tuple."""
    *_, (rx, ry, rz), j_oe = _scalar_position(*state, *ref, jacobians=True)
    az, el, beta, rho, rho_rt2 = _angles(rx, ry, rz, d)
    gimbal = abs(abs(el) - 0.5 * math.pi) < GIMBAL_EL_TOL

    # d(az, el, beta)/d(dr), its angle rows vanishing on the normal axis,
    # and j_oe in one flat array
    rho3 = rho ** 3
    angle_rows = (0.0,) * 6
    if rho_rt2 > 0.0:
        rho_rt = math.sqrt(rho_rt2)
        zk = rho * rho * rho_rt
        angle_rows = (-ry / rho_rt2, rx / rho_rt2, 0.0,
                      -rz * rx / zk, -rz * ry / zk,
                      1.0 / rho_rt - rz * rz / zk)
    flat = np.array((*angle_rows, -d * rx / rho3, -d * ry / rho3,
                     -d * rz / rho3, *j_oe[0], *j_oe[1], *j_oe[2]))
    h = flat[:9].reshape(3, 3).dot(flat[9:].reshape(3, 6))
    return (az, el, beta), h, gimbal


def _coast(state, ref, ref_next, dt: float, mu: float,
           ) -> tuple[np.ndarray, np.ndarray]:
    """Mean and 6x6 state transition matrix Phi after dt seconds (see
    :func:`ekf_propagate`) from the checked floats of a state and its
    reference at both ends: the mean is the coast kernel's at satellite 1's
    anomaly in ref_next (n1 dt past nu10 when e1 is 0 or subnormal: too
    small to hold the anomaly, or to move it), Phi is built here.

    Phi's row 0 differentiates dtheta_t = dtheta + (nu2t - nu20) - (nu1t -
    nu10) through Kepler timing of satellite 2, whose phasor (dxi_x + ec,
    dxi_y + es) = e2 (cos, sin) phi has nu20 = phi + dtheta: at fixed mean
    anomaly dnu/dM = (1 + e cos nu)^2 / (1 - e^2)^1.5 and dnu/de = sin nu
    (2 + e cos nu) / (1 - e^2), and n2 scales as ((1 - e2^2) / (1 + dp))^1.5.
    The phi column, (r - 1)/e2 = q, has no division by e2."""
    _, dp, _, _, hx, hy = state
    pair = _kepler_pair(*state, *ref)
    nu10, e1, a1, nu20, e2, a2, dlambda = pair
    nu1t = (_reference_anomaly(*ref_next[1:]) if e1 >= sys.float_info.min
            else nu10 + math.sqrt(mu / a1 ** 3) * dt)
    _, nu2t, c, s, dtheta, *dxi_dh, _, _ = _anomaly_sweep(
        pair, (hx, hy), dt, mu, nu1t)

    om = 1.0 - e2 * e2
    n2dt = math.sqrt(mu / a2 ** 3) * dt
    c0, ct = math.cos(nu20), math.cos(nu2t)
    w0, wt = 1.0 + e2 * c0, 1.0 + e2 * ct
    r = (wt / w0) ** 2  # d(nu2t)/d(nu20)
    gt = wt * wt / om ** 1.5  # d(nu2t)/d(M2t)
    q = (ct - c0) * (2.0 + e2 * (ct + c0)) / (w0 * w0)
    de = ((math.sin(nu2t) * (1.0 + wt) - r * math.sin(nu20) * (1.0 + w0))
          / om - 3.0 * gt * n2dt * e2 / om)
    cp, sp = math.cos(nu10 - dlambda), math.sin(nu10 - dlambda)  # phi

    phi = np.array((r, -1.5 * gt * n2dt / (1.0 + dp),
                    -sp * q + de * cp, cp * q + de * sp, 0.0, 0.0,
                    0.0, 1.0, 0.0, 0.0, 0.0, 0.0,
                    0.0, 0.0, c, -s, 0.0, 0.0,
                    0.0, 0.0, s, c, 0.0, 0.0,
                    0.0, 0.0, 0.0, 0.0, c, -s,
                    0.0, 0.0, 0.0, 0.0, s, c)).reshape(6, 6)
    return np.array((wrap_angle(dtheta), dp, *dxi_dh)), phi


def _inverse3(s: np.ndarray) -> np.ndarray:
    """The inverse of a 3x3 matrix s by Gaussian elimination without row
    swaps, s = L U, in float arithmetic: column j of U^-1 L^-1, by forward
    and back substitution on e_j, is column j of s^-1, and the result is
    built from these columns, a transposed view.

    s is the innovation covariance, symmetric positive definite up to the
    rounding that formed it, so its pivots, those of s = L D L^T with
    U = D L^T, are positive and no row need swap: the elimination is
    invariant to the scaling of s's diagonal, where partial pivoting by
    magnitude is not.  LinAlgError names the first pivot that is not
    positive (s is singular or indefinite); a nan s passes as nan."""
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = s.tolist()
    if a00 <= 0.0:
        raise np.linalg.LinAlgError("singular innovation covariance (1)")
    l10, l20 = a10 / a00, a20 / a00
    a11, a12 = a11 - l10 * a01, a12 - l10 * a02
    a21, a22 = a21 - l20 * a01, a22 - l20 * a02
    if a11 <= 0.0:
        raise np.linalg.LinAlgError("singular innovation covariance (2)")
    l21 = a21 / a11
    a22 -= l21 * a12
    if a22 <= 0.0:
        raise np.linalg.LinAlgError("singular innovation covariance (3)")
    # L^-1 e_j, then back substitution, for j = 0, 1, 2
    z2 = (l10 * l21 - l20) / a22
    z1 = (-l10 - a12 * z2) / a11
    y2 = -l21 / a22
    y1 = (1.0 - a12 * y2) / a11
    x2 = 1.0 / a22
    x1 = -a12 * x2 / a11
    return np.array(((1.0 - a01 * z1 - a02 * z2) / a00, z1, z2,
                     -(a01 * y1 + a02 * y2) / a00, y1, y2,
                     -(a01 * x1 + a02 * x2) / a00, x1, x2)).reshape(3, 3).T


def ekf_propagate(x, P: np.ndarray, eta, eta_next, dt: float, Q: np.ndarray,
                  mu: float) -> tuple[np.ndarray, np.ndarray]:
    """Propagate mean and covariance over dt seconds of coasting.

    The mean is the exact unperturbed flow at any dt and eccentricity: dp
    is constant, the difference vectors rotate by the reference anomaly
    sweep from eta to eta_next (dt later) and dtheta follows from it and
    Kepler timing of satellite 2.  The state transition matrix Phi is exact
    too: the identity row of dp, two rotation blocks and the analytic
    partials of dtheta.  The covariance update is P <- Phi P Phi^T + Q dt,
    Q a per-second rate.

    Returns (x, P) after dt.  ValueError if dt is not positive and finite,
    Q is not 6x6, or x, eta or eta_next is not valid (see
    :func:`relstate._checked_state` and
    :func:`relstate._checked_reference`); GeometryError if the recovered e2
    is not below 1.
    """
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if np.shape(Q) != (6, 6):
        raise ValueError(f"Q must have shape (6, 6), got {np.shape(Q)}")
    x_new, phi = _coast(_checked_state(x), _checked_reference(eta),
                        _checked_reference(eta_next), dt, mu)
    p_new = phi.dot(P).dot(phi.T)
    p_new += np.asarray(Q, dtype=float) * dt
    p_new = p_new + p_new.T
    p_new *= 0.5
    return x_new, p_new


def ekf_update(x, P: np.ndarray, eta, z, r_cov: np.ndarray, d: float,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standard EKF measurement update with Joseph-form covariance, for the
    measurement z with noise covariance r_cov (3x3).

    The azimuth residual is wrapped to (-pi, pi]; elevation and angular
    size are plain scalars.

    The gain solves the innovation covariance S = H P H^T + r_cov, which
    must be symmetric positive definite, by :func:`_inverse3`.

    Returns (x, P, innovation).  ValueError if r_cov is not 3x3, or eta, x
    or the posterior mean (a nan measurement makes it nan) is not valid
    (see :func:`relstate._checked_state` and
    :func:`relstate._checked_reference`); LinAlgError if a pivot of S is
    not positive.
    """
    if np.shape(r_cov) != (3, 3):
        raise ValueError(f"r_cov must have shape (3, 3), got "
                         f"{np.shape(r_cov)}")
    state = _checked_state(x)
    (az, el, beta), h, _ = _predict(state, _checked_reference(eta), d)
    z_az, z_el, z_beta = np.asarray(z, dtype=float).tolist()
    d_az = z_az - az
    innov = np.array((math.atan2(math.sin(d_az), math.cos(d_az)),
                      z_el - el, z_beta - beta))

    hp = h.dot(P)
    s_cov = hp.dot(h.T)
    s_cov += r_cov
    gain = _inverse3(s_cov).dot(hp).T  # S symmetric

    x_new = np.array(state)
    x_new += gain.dot(innov)
    x_new[0] = _checked_state(x_new)[0]
    ikh = gain.dot(h)
    np.subtract(_EYE6, ikh, out=ikh)
    p_new = ikh.dot(P).dot(ikh.T)
    p_new += gain.dot(r_cov).dot(gain.T)
    p_new = p_new + p_new.T
    p_new *= 0.5
    return x_new, p_new, innov
