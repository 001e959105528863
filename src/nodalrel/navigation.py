"""Angles-only measurement model and extended Kalman filter over the nodal
relative state.

Satellite 1 measures the azimuth and elevation of the line of sight to
satellite 2 in its own RTN frame, plus the apparent angular size of the
(spherical, known-diameter) target.  The filter propagates the relative
state with the exact reference-anomaly timing: dp is held and the
eccentricity/inclination pairs are rotated analytically, so the matching
rows of the 6x6 state transition matrix are exact (the identity row of dp
and two rotation blocks).  Only dtheta and the transition matrix's dtheta
row are integrated numerically (RK4 substeps).  The reference parameters
are treated as perfectly known and advanced alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ZeroRange
from .dynamics import advance_true_anomaly
from .relstate import (
    NodalRelativeState,
    ReferenceParams,
    _position_and_jacobians,
)

#: |elevation| within this distance of pi/2 flags an ill-conditioned azimuth.
GIMBAL_EL_TOL = 1e-9


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


def measure(dr: np.ndarray, d: float, noise: NoiseSpec,
            rng: np.random.Generator) -> MeasurementTriple:
    """Synthesize a noisy angles-plus-size measurement from an RTN1
    relative position.

    Raises
    ------
    ZeroRange
        If the satellites are co-located.
    """
    dr = np.asarray(dr, dtype=float)
    rho = float(np.linalg.norm(dr))
    if not rho > 0.0:
        raise ZeroRange("measurement undefined at zero separation")
    return MeasurementTriple(
        az=math.atan2(dr[1], dr[0]) + noise.sigma_az * rng.standard_normal(),
        el=math.asin(dr[2] / rho) + noise.sigma_el * rng.standard_normal(),
        beta=d / rho + noise.sigma_beta * rng.standard_normal(),
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
    dr, j_oe, _ = _position_and_jacobians(oe, eta)
    x, y_, z_ = dr.tolist()
    rho_rt2 = x * x + y_ * y_
    rho = math.sqrt(rho_rt2 + z_ * z_)
    if not rho > 0.0:
        raise ZeroRange("prediction undefined at zero separation")
    el = math.asin(z_ / rho)
    gimbal = abs(abs(el) - 0.5 * math.pi) < GIMBAL_EL_TOL

    y = MeasurementTriple(az=math.atan2(y_, x), el=el, beta=d / rho)

    # d(az, el, beta)/d(dr)
    dy_ddr = np.zeros((3, 3))
    if rho_rt2 > 0.0:
        dy_ddr[0] = np.array([-y_, x, 0.0]) / rho_rt2
        rho_rt = math.sqrt(rho_rt2)
        dy_ddr[1] = (np.array([0.0, 0.0, 1.0]) / rho_rt
                     - z_ * dr / (rho * rho * rho_rt))
    dy_ddr[2] = -d * dr / rho ** 3
    return PredictedMeasurement(y=y, H=dy_ddr @ j_oe, gimbal_degenerate=gimbal)


def _coast(oe0: NodalRelativeState, eta: ReferenceParams, dt: float,
           mu: float, substeps: int,
           ) -> tuple[NodalRelativeState, np.ndarray, ReferenceParams]:
    """Mean, 6x6 state transition matrix Phi and reference after dt
    seconds (see :func:`ekf_propagate`).  The rate of Phi's row 0 involves
    rows 0-3 only, so its dh columns stay zero."""
    e1 = eta.e1
    nu0 = eta.nu1
    a1 = eta.p1 / (1.0 - e1 * e1)
    k = math.sqrt(mu / eta.p1 ** 3)
    opd = 1.0 + oe0.dp
    opd15 = opd ** 1.5
    dxx, dxy = oe0.dxi_x, oe0.dxi_y

    def stage(nu: float) -> tuple[float, ...]:
        """(nu, cos dnu, sin dnu, e2 phasor x, y, 1 + e1 cos nu) at the
        reference anomaly nu (dtheta-independent part of the rates)."""
        c, s = math.cos(nu - nu0), math.sin(nu - nu0)
        ec = e1 * math.cos(nu)
        return (nu, c, s, c * dxx - s * dxy + ec,
                s * dxx + c * dxy + e1 * math.sin(nu), 1.0 + ec)

    def at(tau: float) -> tuple[float, ...]:
        return stage(advance_true_anomaly(nu0, e1, a1, tau, mu))

    def rates(st, dtheta: float, row: tuple[float, ...],
              ) -> tuple[float, tuple[float, ...]]:
        _, cn, sn, ex, ey, one_ec = st
        c, s = math.cos(dtheta), math.sin(dtheta)
        denom = 1.0 + ex * c - ey * s
        kd = 2.0 * k * denom / opd15
        j00 = kd * (-ex * s - ey * c)
        j01 = -1.5 * k * denom * denom / (opd15 * opd)
        j02, j03 = kd * c, -kd * s
        return (k * (denom * denom / opd15 - one_ec * one_ec),
                (j00 * row[0], j00 * row[1] + j01,
                 j00 * row[2] + j02 * cn + j03 * sn,
                 j00 * row[3] - j02 * sn + j03 * cn))

    def plus(row: tuple[float, ...], a: float, d: tuple[float, ...]):
        return (row[0] + a * d[0], row[1] + a * d[1],
                row[2] + a * d[2], row[3] + a * d[3])

    h = dt / substeps
    dtheta = oe0.dtheta
    row = (1.0, 0.0, 0.0, 0.0)  # Phi[0, :4]
    st_end = stage(nu0)
    for i in range(substeps):
        st0 = st_end
        st_half = at((i + 0.5) * h)
        st_end = at((i + 1) * h)
        k1t, k1p = rates(st0, dtheta, row)
        k2t, k2p = rates(st_half, dtheta + 0.5 * h * k1t,
                         plus(row, 0.5 * h, k1p))
        k3t, k3p = rates(st_half, dtheta + 0.5 * h * k2t,
                         plus(row, 0.5 * h, k2p))
        k4t, k4p = rates(st_end, dtheta + h * k3t, plus(row, h, k3p))
        dtheta += h / 6.0 * (k1t + 2.0 * k2t + 2.0 * k3t + k4t)
        row = tuple(r + h / 6.0 * (a + 2.0 * b + 2.0 * c + d)
                    for r, a, b, c, d in zip(row, k1p, k2p, k3p, k4p))

    nu, c, s = st_end[:3]
    oe_new = NodalRelativeState(
        dtheta=dtheta, dp=oe0.dp,
        dxi_x=c * dxx - s * dxy, dxi_y=s * dxx + c * dxy,
        dh_x=c * oe0.dh_x - s * oe0.dh_y, dh_y=s * oe0.dh_x + c * oe0.dh_y)
    phi = np.array([[*row, 0.0, 0.0],
                    [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, c, -s, 0.0, 0.0],
                    [0.0, 0.0, s, c, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 0.0, c, -s],
                    [0.0, 0.0, 0.0, 0.0, s, c]])
    return oe_new, phi, ReferenceParams(
        p1=eta.p1, ec=e1 * math.cos(nu), es=e1 * math.sin(nu))


def ekf_propagate(fs: FilterState, eta: ReferenceParams, dt: float,
                  Q: np.ndarray, mu: float, substeps: int = 1,
                  ) -> tuple[FilterState, ReferenceParams]:
    """Propagate mean and covariance over dt seconds of coasting.

    The mean uses the analytic sub-solutions: dp is constant and the
    difference vectors are rotated by the exact anomaly sweep, so rows 1-5
    of the state transition matrix Phi are exact too (e_1 and the two
    rotation blocks).  Only dtheta and Phi's row 0 are advanced by RK4
    substeps along the analytic mean history.  The covariance update is
    P <- Phi P Phi^T + Q dt, with Q a per-second disturbance rate matrix.

    Returns the propagated filter state together with the coasted
    reference parameters.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    oe_new, phi, eta_new = _coast(fs.oe_hat, eta, dt, mu, substeps)
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
    innov = z.as_array() - pred.y.as_array()
    innov[0] = math.atan2(math.sin(innov[0]), math.cos(innov[0]))

    r_cov = noise.covariance()
    h = pred.H
    hp = h @ fs.P
    s_cov = hp @ h.T + r_cov
    gain = np.linalg.solve(s_cov, hp).T  # S symmetric

    outlier = False
    if chi2_gate is not None:
        maha2 = float(innov @ np.linalg.solve(s_cov, innov))
        outlier = maha2 > chi2_gate

    x = fs.oe_hat.as_array() + gain @ innov
    ikh = np.eye(6) - gain @ h
    p_new = ikh @ fs.P @ ikh.T + gain @ r_cov @ gain.T
    p_new = 0.5 * (p_new + p_new.T)
    return EkfUpdate(
        state=FilterState(oe_hat=NodalRelativeState.from_array(x), P=p_new),
        innovation=innov, outlier=outlier)
