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
from .dynamics import _dtheta_rate, advance_true_anomaly
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


def _angles(dr, d: float) -> tuple[float, float, float, float, float]:
    """(az, el, beta, rho, rho_RT^2) of an RTN1 relative position dr: the
    noiseless measurement, the range and the squared radial-transverse
    range.  ZeroRange if the satellites are co-located."""
    x, y, z = np.asarray(dr, dtype=float).tolist()
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
    az, el, beta, _, _ = _angles(dr, d)
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
    dr, j_oe, _ = _position_and_jacobians(oe, eta)
    az, el, beta, rho, rho_rt2 = _angles(dr, d)
    gimbal = abs(abs(el) - 0.5 * math.pi) < GIMBAL_EL_TOL

    # d(az, el, beta)/d(dr)
    dy_ddr = np.zeros((3, 3))
    if rho_rt2 > 0.0:
        dy_ddr[0] = np.array([-dr[1], dr[0], 0.0]) / rho_rt2
        rho_rt = math.sqrt(rho_rt2)
        dy_ddr[1] = (np.array([0.0, 0.0, 1.0]) / rho_rt
                     - dr[2] * dr / (rho * rho * rho_rt))
    dy_ddr[2] = -d * dr / rho ** 3
    return PredictedMeasurement(y=MeasurementTriple(az=az, el=el, beta=beta),
                                H=dy_ddr @ j_oe, gimbal_degenerate=gimbal)


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
        """(cos dnu, sin dnu, the dxi rotated by dnu, ec, es) at the
        reference anomaly nu (dtheta-independent part of the rates)."""
        c, s = math.cos(nu - nu0), math.sin(nu - nu0)
        return (c, s, c * dxx - s * dxy, s * dxx + c * dxy,
                e1 * math.cos(nu), e1 * math.sin(nu))

    def at(tau: float) -> tuple[float, ...]:
        return stage(advance_true_anomaly(nu0, e1, a1, tau, mu))

    def rates(st, dtheta: float, row: tuple[float, ...],
              ) -> tuple[float, tuple[float, ...]]:
        cn, sn = st[:2]
        rate, (j00, j01, j02, j03) = _dtheta_rate(
            k, math.cos(dtheta), math.sin(dtheta), *st[2:], opd, opd15,
            gradient=True)
        return rate, (j00 * row[0], j00 * row[1] + j01,
                      j00 * row[2] + j02 * cn + j03 * sn,
                      j00 * row[3] - j02 * sn + j03 * cn)

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

    c, s, dxi_x, dxi_y, ec, es = st_end
    oe_new = NodalRelativeState(
        dtheta=dtheta, dp=oe0.dp, dxi_x=dxi_x, dxi_y=dxi_y,
        dh_x=c * oe0.dh_x - s * oe0.dh_y, dh_y=s * oe0.dh_x + c * oe0.dh_y)
    phi = np.array([[*row, 0.0, 0.0],
                    [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, c, -s, 0.0, 0.0],
                    [0.0, 0.0, s, c, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 0.0, c, -s],
                    [0.0, 0.0, 0.0, 0.0, s, c]])
    return oe_new, phi, ReferenceParams(p1=eta.p1, ec=ec, es=es)


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
