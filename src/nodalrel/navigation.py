"""Angles-only measurement model and extended Kalman filter over the nodal
relative state.

Satellite 1 measures the azimuth and elevation of the line of sight to
satellite 2 in its own RTN frame, plus the apparent angular size of the
(spherical, known-diameter) target.  The filter propagates the relative
state in closed form by Kepler timing of both recovered orbits: dp is
held, the eccentricity/inclination pairs are rotated by the reference
anomaly sweep, and dtheta follows from the two anomaly sweeps, so every
row of the 6x6 state transition matrix is exact (its dtheta row from the
partials of that timing).  The reference parameters are treated as
perfectly known and advanced alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dgesv

from .errors import ZeroRange
from .dynamics import _anomaly_sweep
from .relstate import (
    NodalRelativeState,
    ReferenceParams,
    _kepler_pair,
    _scalar_position,
)

#: |elevation| within this distance of pi/2 flags an ill-conditioned azimuth.
GIMBAL_EL_TOL = 1e-9

_EYE6 = np.eye(6)
_EYE6.flags.writeable = False


@dataclass(frozen=True)
class MeasurementTriple:
    """Azimuth, elevation (rad) and apparent angular size (rad)."""

    az: float
    el: float
    beta: float

    def as_array(self) -> np.ndarray:
        return np.array([self.az, self.el, self.beta])


@dataclass(frozen=True)
class NoiseSpec:
    """1-sigma standard deviations of the white measurement noise, rad."""

    sigma_az: float
    sigma_el: float
    sigma_beta: float

    def __post_init__(self):
        if not (self.sigma_az > 0 and self.sigma_el > 0 and self.sigma_beta > 0):
            raise ValueError("noise standard deviations must be positive")

    def covariance(self) -> np.ndarray:
        return np.diag([self.sigma_az ** 2, self.sigma_el ** 2,
                        self.sigma_beta ** 2])


@dataclass(frozen=True)
class FilterState:
    """Estimate of the relative state with its 6x6 error covariance."""

    oe_hat: NodalRelativeState
    P: np.ndarray


@dataclass(frozen=True)
class PredictedMeasurement:
    """Noiseless measurement prediction with its state Jacobian."""

    y: MeasurementTriple
    H: np.ndarray
    gimbal_degenerate: bool


@dataclass(frozen=True)
class EkfUpdate:
    """Posterior state, innovation (az wrapped), and the chi-square gate flag."""

    state: FilterState
    innovation: np.ndarray
    outlier: bool


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
            rng: np.random.Generator) -> MeasurementTriple:
    """Synthesize a noisy angles-plus-size measurement from an RTN1
    relative position.

    Raises
    ------
    ZeroRange
        If the satellites are co-located.
    """
    az, el, beta, _, _ = _angles(*np.asarray(dr, dtype=float).tolist(), d)
    return MeasurementTriple(
        az=az + noise.sigma_az * rng.standard_normal(),
        el=el + noise.sigma_el * rng.standard_normal(),
        beta=beta + noise.sigma_beta * rng.standard_normal(),
    )


def predict_measurement(oe: NodalRelativeState, eta: ReferenceParams,
                        d: float) -> PredictedMeasurement:
    """Noiseless measurement and its 3x6 Jacobian with respect to the
    relative state, by the chain rule through the position mapping.

    Raises
    ------
    ZeroRange
        If the predicted separation is zero.
    """
    *_, (x, y, z), j_oe, _ = _scalar_position(oe, eta, jacobians=True)
    az, el, beta, rho, rho_rt2 = _angles(x, y, z, d)
    gimbal = abs(abs(el) - 0.5 * math.pi) < GIMBAL_EL_TOL

    # d(az, el, beta)/d(dr); the angle rows vanish on the normal axis
    rho3 = rho ** 3
    dy_ddr = [(0.0,) * 3, (0.0,) * 3, (-d * x / rho3, -d * y / rho3,
                                      -d * z / rho3)]
    if rho_rt2 > 0.0:
        rho_rt = math.sqrt(rho_rt2)
        zk = rho * rho * rho_rt
        dy_ddr[:2] = ((-y / rho_rt2, x / rho_rt2, 0.0),
                      (-z * x / zk, -z * y / zk, 1.0 / rho_rt - z * z / zk))
    return PredictedMeasurement(y=MeasurementTriple(az=az, el=el, beta=beta),
                                H=np.array(dy_ddr) @ np.array(j_oe),
                                gimbal_degenerate=gimbal)


def _coast(oe0: NodalRelativeState, eta: ReferenceParams, dt: float,
           mu: float,
           ) -> tuple[NodalRelativeState, np.ndarray, ReferenceParams]:
    """Mean, 6x6 state transition matrix Phi and reference after dt
    seconds (see :func:`ekf_propagate`): the mean and the reference are the
    coast kernel's, Phi is assembled here.

    Phi's row 0 differentiates dtheta_t = dtheta + (nu2t - nu20) - (nu1t -
    nu10) through Kepler timing of satellite 2, whose phasor (dxi_x + ec,
    dxi_y + es) = e2 (cos, sin) phi has nu20 = phi + dtheta: at fixed mean
    anomaly dnu/dM = (1 + e cos nu)^2 / (1 - e^2)^1.5 and dnu/de = sin nu
    (2 + e cos nu) / (1 - e^2), and n2 scales as ((1 - e2^2) / (1 + dp))^1.5.
    The phi column, (r - 1)/e2 = q, has no division by e2."""
    pair = _kepler_pair(oe0, eta)
    nu10, _, _, nu20, e2, a2, dlambda = pair
    _, nu2t, c, s, dtheta, *dxi_dh, ec, es = _anomaly_sweep(
        pair, (oe0.dh_x, oe0.dh_y), dt, mu)

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

    phi = np.array([[r, -1.5 * gt * n2dt / (1.0 + oe0.dp),
                     -sp * q + de * cp, cp * q + de * sp, 0.0, 0.0],
                    [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, c, -s, 0.0, 0.0],
                    [0.0, 0.0, s, c, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 0.0, c, -s],
                    [0.0, 0.0, 0.0, 0.0, s, c]])
    return (NodalRelativeState(dtheta, oe0.dp, *dxi_dh), phi,
            ReferenceParams(p1=eta.p1, ec=ec, es=es))


def ekf_propagate(fs: FilterState, eta: ReferenceParams, dt: float,
                  Q: np.ndarray, mu: float,
                  ) -> tuple[FilterState, ReferenceParams]:
    """Propagate mean and covariance over dt seconds of coasting.

    The mean is the exact unperturbed flow at any dt and eccentricity: dp
    is constant, the difference vectors rotate by the reference anomaly
    sweep and dtheta follows from Kepler timing of both recovered orbits.
    The state transition matrix Phi is exact too: the identity row of dp,
    two rotation blocks and the analytic partials of dtheta.  The
    covariance update is P <- Phi P Phi^T + Q dt, Q a per-second rate.

    Returns the propagated filter state together with the coasted
    reference parameters; GeometryError if the recovered e2 is not below 1.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    oe_new, phi, eta_new = _coast(fs.oe_hat, eta, dt, mu)
    p_new = phi @ fs.P @ phi.T + np.asarray(Q, dtype=float) * dt
    p_new = 0.5 * (p_new + p_new.T)
    return FilterState(oe_hat=oe_new, P=p_new), eta_new


def ekf_update(fs: FilterState, eta: ReferenceParams, z: MeasurementTriple,
               noise: NoiseSpec, d: float,
               chi2_gate: Optional[float] = None) -> EkfUpdate:
    """Standard EKF measurement update with Joseph-form covariance.

    The azimuth residual is wrapped to (-pi, pi]; elevation and angular
    size are plain scalars.  When ``chi2_gate`` is given, the innovation
    Mahalanobis distance squared is compared against it and the result is
    flagged (never dropped) if it exceeds the gate.
    """
    pred = predict_measurement(fs.oe_hat, eta, d)
    y = pred.y
    daz = z.az - y.az
    innov = np.array([math.atan2(math.sin(daz), math.cos(daz)),
                      z.el - y.el, z.beta - y.beta])

    r_cov = noise.covariance()
    h = pred.H
    hp = h @ fs.P
    # one LAPACK solve with S for the gain and, when gated, the innovation
    *_, sol, info = dgesv(hp @ h.T + r_cov, hp if chi2_gate is None
                          else np.column_stack((hp, innov)))
    if info != 0:
        raise np.linalg.LinAlgError(f"singular innovation covariance ({info})")
    gain = sol[:, :6].T  # S symmetric
    outlier = chi2_gate is not None and float(innov @ sol[:, 6]) > chi2_gate

    x = fs.oe_hat.as_array() + gain @ innov
    ikh = _EYE6 - gain @ h
    p_new = ikh @ fs.P @ ikh.T + gain @ r_cov @ gain.T
    p_new = 0.5 * (p_new + p_new.T)
    return EkfUpdate(
        state=FilterState(oe_hat=NodalRelativeState.from_array(x), P=p_new),
        innovation=innov, outlier=outlier)
