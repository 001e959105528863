"""Exact time evolution of the nodal relative state and reference
parameters: unperturbed vector fields and their analytic sub-solutions,
input matrices for perturbing RTN accelerations, variational equations for
the nodal angles, adaptive propagation, and an independent Cowell
(inertial two-body) oracle with standard element conversions.

All propagation uses an adaptive embedded Runge-Kutta 5(4) pair
(scipy's RK45) at a configurable relative tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from scipy.integrate import solve_ivp

from .errors import CoplanarNormalInput, GeometryError, StepFailure
from .frames import ClassicalElements, pci_to_pqw, wrap_angle
from .relstate import (NodalRelativeState, ReferenceParams,
                       _radius_denominator, classical_from_oe)

#: Eccentricity below which an orbit is treated as circular when extracting
#: elements from a Cartesian state (argp = 0, phase folded into nu).
CIRCULAR_E_TOL = 1e-11

#: Inclination below which the ascending node is undefined (raan = 0).
EQUATORIAL_I_TOL = 1e-11

#: sin(gamma) guard for the nodal variational equations.
COPLANAR_SIN_TOL = 1e-9


@dataclass(frozen=True)
class PerturbationInput:
    """Perturbing accelerations on the two satellites, km/s^2, each in the
    satellite's own RTN frame (radial, transverse, normal)."""

    u1: np.ndarray
    u2: np.ndarray

    @classmethod
    def zero(cls) -> "PerturbationInput":
        return cls(u1=np.zeros(3), u2=np.zeros(3))


@dataclass(frozen=True)
class CartesianState:
    """Inertial (PCI) position (km) and velocity (km/s)."""

    r: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r", np.asarray(self.r, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        if not np.linalg.norm(self.r) > 0.0:
            raise ValueError("position vector must be nonzero")


@dataclass(frozen=True)
class AnalyticAdvance:
    """Closed-form part of the unperturbed flow: dp and the rotated
    eccentricity/inclination difference vectors (dtheta has no closed form)."""

    dp: float
    dxi_x: float
    dxi_y: float
    dh_x: float
    dh_y: float


@dataclass(frozen=True)
class NodalRates:
    """Time derivatives of the relative-orientation angles under perturbing
    accelerations (fields are rates of the like-named angles, rad/s)."""

    alpha1: float
    alpha2: float
    gamma: float
    theta1: float
    theta2: float
    lambda1: float
    lambda2: float


@dataclass(frozen=True)
class Trajectory:
    """Sampled nodal-state trajectory: times (s), relative states (n, 6) and
    reference parameters (n, 3)."""

    t: np.ndarray
    oe: np.ndarray
    eta: np.ndarray


@dataclass(frozen=True)
class CowellTrajectory:
    """Sampled inertial trajectories of the two satellites."""

    t: np.ndarray
    r1: np.ndarray
    v1: np.ndarray
    r2: np.ndarray
    v2: np.ndarray


# --- Kepler timing ---

def _trig(x):
    """(x, sin, cos, atan2, amax, out) for bodies written once for both
    number types: a Python float x keeps the ``math`` functions and ``abs``;
    any other x becomes a float array with numpy's functions, amax being
    the largest |entry|.  out gives a result the type of x (a Python float
    for a 0-d array)."""
    if isinstance(x, (int, float)):
        return x, math.sin, math.cos, math.atan2, abs, float
    x = np.asarray(x, dtype=float)
    return (x, np.sin, np.cos, np.arctan2, lambda step: np.abs(step).max(),
            np.asarray if x.ndim else float)


def true_to_mean_anomaly(nu, e: float):
    """Mean anomaly from true anomaly for eccentricity e in [0, 1),
    vectorized over nu (see :func:`_trig`)."""
    nu, sin, cos, atan2, _, out = _trig(nu)
    ecc_anom = atan2(math.sqrt(1.0 - e * e) * sin(nu), e + cos(nu))
    return out(ecc_anom - e * sin(ecc_anom))


def mean_to_true_anomaly(m, e: float, tol: float = 1e-14, max_iter: int = 60):
    """True anomaly from mean anomaly by Newton iteration on Kepler's
    equation, vectorized over m (see :func:`_trig`); an array iterates
    until its worst element converges.

    Raises
    ------
    StepFailure
        If the Newton step is not below tol after max_iter iterations.
    """
    m, sin, cos, atan2, amax, out = _trig(m)
    m_wrapped = (m + math.pi) % (2.0 * math.pi) - math.pi
    # Danby starter E = M + 0.85 e sign(sin M) keeps Newton safe up to high
    # eccentricity.
    sin_m = sin(m_wrapped)
    ecc_anom = m_wrapped + 0.85 * e * ((sin_m > 0.0) * 1.0 - (sin_m < 0.0))
    for _ in range(max_iter):
        step = ((ecc_anom - e * sin(ecc_anom) - m_wrapped)
                / (1.0 - e * cos(ecc_anom)))
        ecc_anom = ecc_anom - step
        if amax(step) < tol:
            break
    else:
        raise StepFailure(
            f"Kepler solve not converged in {max_iter} iterations")
    return out(atan2(math.sqrt(1.0 - e * e) * sin(ecc_anom),
                     cos(ecc_anom) - e))


def advance_true_anomaly(nu0: float, e: float, a: float, dt, mu: float):
    """True anomaly after coasting dt seconds on a fixed ellipse.

    dt may be an array; the returned anomaly is unwrapped only modulo 2 pi.
    """
    m = true_to_mean_anomaly(nu0, e) + math.sqrt(mu / a ** 3) * _trig(dt)[0]
    return mean_to_true_anomaly(m, e)


def kepler_advance(el: ClassicalElements, dt: float, mu: float,
                   ) -> ClassicalElements:
    """Coast a classical-element set by dt seconds (only nu changes)."""
    return replace(el, nu=float(advance_true_anomaly(el.nu, el.e, el.a, dt, mu)))


def orbital_period(a: float, mu: float) -> float:
    """Keplerian period 2 pi sqrt(a^3 / mu), s."""
    return 2.0 * math.pi * math.sqrt(a ** 3 / mu)


# --- Element conversions (oracle bridge) ---

def elements_to_cartesian(el: ClassicalElements, mu: float) -> CartesianState:
    """Inertial state from classical elements (standard perifocal route)."""
    p = el.p
    r_mag = p / (1.0 + el.e * math.cos(el.nu))
    r_pqw = np.array([r_mag * math.cos(el.nu), r_mag * math.sin(el.nu), 0.0])
    v_pqw = math.sqrt(mu / p) * np.array(
        [-math.sin(el.nu), el.e + math.cos(el.nu), 0.0])
    dcm = pci_to_pqw(el).T  # PQW -> PCI
    return CartesianState(r=dcm @ r_pqw, v=dcm @ v_pqw)


def cartesian_to_elements(state: CartesianState, mu: float,
                          ) -> ClassicalElements:
    """Osculating classical elements from an inertial state.

    Degenerate conventions: for e < CIRCULAR_E_TOL the periapsis is
    undefined and argp = 0 with the phase folded into nu (measured from the
    node); for i < EQUATORIAL_I_TOL the node is undefined and raan = 0 with
    the inertial X axis as the node direction.

    Raises
    ------
    GeometryError
        If the state is not a closed (elliptic) orbit.
    """
    r, v = state.r, state.v
    r_mag = float(np.linalg.norm(r))
    h_vec = np.cross(r, v)
    h_mag = float(np.linalg.norm(h_vec))
    if h_mag == 0.0:
        raise GeometryError("rectilinear trajectory: angular momentum is zero")
    h_hat = h_vec / h_mag

    energy = 0.5 * float(v @ v) - mu / r_mag
    if not energy < 0.0:
        raise GeometryError(f"state is not elliptic (energy {energy} >= 0)")
    a = -mu / (2.0 * energy)

    e_vec = np.cross(v, h_vec) / mu - r / r_mag
    e = float(np.linalg.norm(e_vec))
    if not e < 1.0:
        raise GeometryError(f"eccentricity {e} is not < 1")

    inc = math.atan2(math.hypot(h_vec[0], h_vec[1]), h_vec[2])
    if inc < EQUATORIAL_I_TOL:
        raan = 0.0
        node = np.array([1.0, 0.0, 0.0])
    else:
        raan = math.atan2(h_vec[0], -h_vec[1])
        node = np.array([math.cos(raan), math.sin(raan), 0.0])

    def angle_about_h(u: np.ndarray, w: np.ndarray) -> float:
        return math.atan2(float(np.cross(u, w) @ h_hat), float(u @ w))

    if e < CIRCULAR_E_TOL:
        argp = 0.0
        nu = angle_about_h(node, r / r_mag)
        e = 0.0
    else:
        argp = angle_about_h(node, e_vec / e)
        nu = angle_about_h(e_vec / e, r / r_mag)

    return ClassicalElements(a=a, e=e, i=inc, raan=raan, argp=argp, nu=nu)


# --- Unperturbed vector fields ---

def _dtheta_rate(k, c, s, dxi_x, dxi_y, ec, es, opd, opd15, gradient=False):
    """Rate k [D^2 / opd15 - (1 + ec)^2] of dtheta, k = sqrt(mu / p1^3),
    D the radius denominator at phase dtheta (cos c, sin s), opd = 1 + dp,
    opd15 = opd^1.5; with ``gradient`` also its partials in (dtheta, dp,
    dxi_x, dxi_y), else None.  Arithmetic only: floats and arrays share it.
    """
    denom = _radius_denominator(c, s, dxi_x, dxi_y, ec, es)
    rate = k * (denom * denom / opd15 - (1.0 + ec) * (1.0 + ec))
    if not gradient:
        return rate, None
    kd = 2.0 * k * denom / opd15
    return rate, (kd * (-(dxi_x + ec) * s - (dxi_y + es) * c),
                  -1.5 * k * denom * denom / (opd15 * opd), kd * c, -kd * s)


def _unperturbed_rates(dtheta, dp, dxx, dxy, hx, hy, p1, ec, es, mu):
    """Keplerian derivative of the six relative states and of (p1, ec, es),
    as a 9-tuple, from the nine components as floats."""
    k = math.sqrt(mu / p1 ** 3)
    nudot = k * (1.0 + ec) ** 2
    return (_dtheta_rate(k, math.cos(dtheta), math.sin(dtheta), dxx, dxy,
                         ec, es, 1.0 + dp, (1.0 + dp) ** 1.5)[0], 0.0,
            -nudot * dxy, nudot * dxx, -nudot * hy, nudot * hx,
            0.0, -nudot * es, nudot * ec)


def f_unperturbed(oe: NodalRelativeState, eta: ReferenceParams,
                  mu: float) -> np.ndarray:
    """Exact Keplerian derivative of the six relative states.

    dp is constant; the eccentricity/inclination pairs rotate at the
    reference anomaly rate; dtheta evolves with the anomaly-rate mismatch
    of the two orbits.
    """
    return perturbed_derivative(oe, eta, None, mu)[0]


def f_eta(eta: ReferenceParams, mu: float) -> np.ndarray:
    """Unperturbed derivative of (p1, e1 cos nu1, e1 sin nu1): p1 is constant
    and the eccentricity phasor rotates at the anomaly rate.  It does not
    depend on the relative state, taken here as zero."""
    return np.array(_unperturbed_rates(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, eta.p1,
                                       eta.ec, eta.es, mu)[6:])


def f_unperturbed_jacobian(oe: NodalRelativeState, eta: ReferenceParams,
                           mu: float) -> np.ndarray:
    """Analytic Jacobian of :func:`f_unperturbed` with respect to the
    relative state (used for covariance transition in the filter)."""
    k = math.sqrt(mu / eta.p1 ** 3)
    opd = 1.0 + oe.dp
    _, grad = _dtheta_rate(k, math.cos(oe.dtheta), math.sin(oe.dtheta),
                           oe.dxi_x, oe.dxi_y, eta.ec, eta.es, opd,
                           opd ** 1.5, gradient=True)
    nudot = k * (1.0 + eta.ec) ** 2

    jac = np.zeros((6, 6))
    jac[0, :4] = grad
    jac[[2, 4], [3, 5]] = -nudot  # the two rotations at the anomaly rate
    jac[[3, 5], [2, 4]] = nudot
    return jac


def analytic_step(oe: NodalRelativeState, dnu1: float) -> AnalyticAdvance:
    """Closed-form advance of the solvable relative states over a reference
    true-anomaly sweep dnu1: dp is unchanged and both difference vectors
    rotate by dnu1.  dtheta has no closed form and is not returned."""
    c, s = math.cos(dnu1), math.sin(dnu1)
    return AnalyticAdvance(
        dp=oe.dp,
        dxi_x=c * oe.dxi_x - s * oe.dxi_y,
        dxi_y=s * oe.dxi_x + c * oe.dxi_y,
        dh_x=c * oe.dh_x - s * oe.dh_y,
        dh_y=s * oe.dh_x + c * oe.dh_y,
    )


def unperturbed_flow(oe: NodalRelativeState, eta: ReferenceParams,
                     mu: float, t) -> tuple[np.ndarray, np.ndarray]:
    """Exact unperturbed flow of (oe, eta) at times t (s, relative to the
    state epoch), via Kepler timing of both recovered orbits.

    Returns
    -------
    (oe_arr, eta_arr)
        Arrays of shape (n, 6) and (n, 3).
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    e1, nu10, p1 = eta.e1, eta.nu1, eta.p1
    a1 = p1 / (1.0 - e1 * e1)

    rec = classical_from_oe(oe, eta)
    e2, a2, dlam = rec.e2, rec.a2, rec.dlambda
    nu20 = nu10 + oe.dtheta - dlam

    nu1t = advance_true_anomaly(nu10, e1, a1, t, mu)
    nu2t = advance_true_anomaly(nu20, e2, a2, t, mu)

    dnu1 = nu1t - nu10
    cd, sd = np.cos(dnu1), np.sin(dnu1)
    oe_arr = np.empty((t.size, 6))
    oe_arr[:, 0] = wrap_angle(nu2t - nu1t + dlam)
    oe_arr[:, 1] = oe.dp
    oe_arr[:, 2] = e2 * np.cos(nu1t - dlam) - e1 * np.cos(nu1t)
    oe_arr[:, 3] = e2 * np.sin(nu1t - dlam) - e1 * np.sin(nu1t)
    oe_arr[:, 4] = cd * oe.dh_x - sd * oe.dh_y
    oe_arr[:, 5] = sd * oe.dh_x + cd * oe.dh_y

    eta_arr = np.empty((t.size, 3))
    eta_arr[:, 0] = p1
    eta_arr[:, 1] = e1 * np.cos(nu1t)
    eta_arr[:, 2] = e1 * np.sin(nu1t)
    return oe_arr, eta_arr


# --- Input matrices and perturbed dynamics ---

def _input_kernel(dtheta, dp, dxx, dxy, hx, hy, p1, ec, es, mu: float,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(G1, G2, Geta) of :func:`input_matrices` from the nine state and
    reference components as floats."""
    c, s = math.cos(dtheta), math.sin(dtheta)
    denom = _radius_denominator(c, s, dxx, dxy, ec, es)
    if not denom > 0.0:
        raise GeometryError(
            f"radius denominator {denom} <= 0: state outside elliptic geometry")
    r1 = p1 / (1.0 + ec)
    p2 = p1 * (1.0 + dp)
    r2 = p2 / denom

    smag = 1.0 + hx * hx + hy * hy
    dh_theta = hx * s + hy * c
    e_theta = (dxx + ec) * s + (dxy + es) * c

    pre2 = r2 / math.sqrt(mu * p2)
    g2 = pre2 * np.array([
        [0.0, 0.0, dh_theta],
        [0.0, 2.0 * (1.0 + dp), 0.0],
        [denom * s, 2.0 * denom * c + e_theta * s, (dxy + es) * dh_theta],
        [denom * c, -2.0 * denom * s + e_theta * c, -(dxx + ec) * dh_theta],
        [0.0, 0.0, 0.5 * smag * c],
        [0.0, 0.0, -0.5 * smag * s],
    ])

    pre1 = r1 / math.sqrt(mu * p1)
    g1 = pre1 * np.array([
        [0.0, 0.0, -hy],
        [0.0, 2.0 * (1.0 + dp), 0.0],
        [0.0, 2.0 * (1.0 + ec), -(dxy + es) * hy],
        [1.0 + ec, es, (dxx + ec) * hy],
        [0.0, 0.0, 0.5 * (1.0 + hx * hx - hy * hy)],
        [0.0, 0.0, hx * hy],
    ])

    geta = pre1 * np.array([
        [0.0, 2.0 * p1, 0.0],
        [0.0, 2.0 * (1.0 + ec), 0.0],
        [1.0 + ec, es, 0.0],
    ])
    return g1, g2, geta


def input_matrices(oe: NodalRelativeState, eta: ReferenceParams, mu: float,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Acceleration input matrices (G1, G2, Geta) for the perturbed
    relative dynamics d(oe)/dt = f + G2 u2 - G1 u1 and
    d(eta)/dt = f_eta + Geta u1.

    Columns follow the RTN ordering of the respective satellite's
    acceleration.  Internal radii use the state-geometry expressions with
    p2 = p1 (1 + dp).

    Raises
    ------
    GeometryError
        If the radius denominator of satellite 2 is not positive.
    """
    return _input_kernel(oe.dtheta, oe.dp, oe.dxi_x, oe.dxi_y, oe.dh_x,
                         oe.dh_y, eta.p1, eta.ec, eta.es, mu)


def perturbed_derivative(oe: NodalRelativeState, eta: ReferenceParams,
                         u: Optional[PerturbationInput], mu: float,
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Full derivative of (oe, eta) under perturbing RTN accelerations: the
    propagator's right-hand side with the input held at u."""
    dy = _nodal_rhs(0.0, np.concatenate([oe.as_array(), eta.as_array()]),
                    None if u is None else lambda t: u, mu)
    return dy[:6], dy[6:]


def nodal_variational(theta1: float, theta2: float, gamma: float,
                      i1: float, i2: float, alpha1: float, alpha2: float,
                      elements: tuple[ClassicalElements, ClassicalElements],
                      u: PerturbationInput, mu: float) -> NodalRates:
    """Gauss-style variational rates of the relative-orientation angles.

    The accelerations are scaled by r_j / sqrt(mu p_j) internally.  Node
    coupling terms divide by sin(gamma), periapsis terms by e_j; the caller
    must keep away from gamma ~ 0 (with normal inputs), i_j ~ 0, and
    e_j ~ 0 (with in-plane inputs).

    Raises
    ------
    CoplanarNormalInput
        If sin(gamma) < COPLANAR_SIN_TOL while a normal acceleration is
        nonzero.
    """
    el1, el2 = elements
    p1, e1, nu1 = el1.p, el1.e, el1.nu
    p2, e2, nu2 = el2.p, el2.e, el2.nu
    r1 = p1 / (1.0 + e1 * math.cos(nu1))
    r2 = p2 / (1.0 + e2 * math.cos(nu2))

    ur1, ut1, un1 = (r1 / math.sqrt(mu * p1)) * np.asarray(u.u1, dtype=float)
    ur2, ut2, un2 = (r2 / math.sqrt(mu * p2)) * np.asarray(u.u2, dtype=float)

    theta1_rate = math.sqrt(mu * p1) / r1 ** 2
    theta2_rate = math.sqrt(mu * p2) / r2 ** 2
    gamma_rate = 0.0
    alpha1_rate = 0.0
    alpha2_rate = 0.0
    node1 = 0.0  # sin(theta1) cot(gamma) u_N1 - sin(theta2)/sin(gamma) u_N2
    node2 = 0.0  # the satellite-2 counterpart

    if un1 != 0.0 or un2 != 0.0:
        sing = math.sin(gamma)
        if abs(sing) < COPLANAR_SIN_TOL:
            raise CoplanarNormalInput(
                "normal acceleration with sin(gamma) ~ 0: node rates singular")
        cotg = math.cos(gamma) / sing
        gamma_rate = math.cos(theta2) * un2 - math.cos(theta1) * un1
        node1 = math.sin(theta1) * cotg * un1 - math.sin(theta2) / sing * un2
        node2 = -math.sin(theta2) * cotg * un2 + math.sin(theta1) / sing * un1
        alpha1_rate = (math.sin(theta2) / sing * un2
                       - (math.sin(theta1) * cotg
                          + math.sin(theta1 + alpha1) / math.tan(i1)) * un1)
        alpha2_rate = ((math.sin(theta2) * cotg
                        - math.sin(theta2 + alpha2) / math.tan(i2)) * un2
                       - math.sin(theta1) / sing * un1)

    lambda1_rate = node1
    lambda2_rate = node2
    if ur1 != 0.0 or ut1 != 0.0:
        lambda1_rate = ((p1 + r1) / (r1 * e1) * math.sin(nu1) * ut1
                        - p1 / (r1 * e1) * math.cos(nu1) * ur1 + node1)
    if ur2 != 0.0 or ut2 != 0.0:
        lambda2_rate = ((p2 + r2) / (r2 * e2) * math.sin(nu2) * ut2
                        - p2 / (r2 * e2) * math.cos(nu2) * ur2 + node2)

    return NodalRates(
        alpha1=alpha1_rate, alpha2=alpha2_rate, gamma=gamma_rate,
        theta1=theta1_rate + node1, theta2=theta2_rate + node2,
        lambda1=lambda1_rate, lambda2=lambda2_rate)


# --- Propagation ---

def _nodal_rhs(t: float, y: np.ndarray,
               u: Optional[Callable[[float], PerturbationInput]],
               mu: float) -> np.ndarray:
    y = y.tolist()  # floats: faster scalar arithmetic than numpy scalars
    dy = np.array(_unperturbed_rates(*y, mu))
    if u is not None:
        g1, g2, geta = _input_kernel(*y, mu)
        uin = u(t)
        dy[:6] += g2 @ uin.u2 - g1 @ uin.u1
        dy[6:] += geta @ uin.u1
    return dy


def _solve_nodal(oe: NodalRelativeState, eta: ReferenceParams,
                 t0: float, tf: float, mu: float,
                 u: Optional[Callable[[float], PerturbationInput]],
                 rtol: float, t_eval, dense_output: bool):
    """scipy RK45 solution of the nodal dynamics over [t0, tf] (state rows
    0-5, reference rows 6-8); see :func:`propagate`.

    Raises
    ------
    StepFailure
        If the integrator cannot complete the interval.
    """
    y0 = np.concatenate([oe.as_array(), eta.as_array()])
    atol = rtol * np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
                            max(eta.p1, 1.0), 1.0, 1.0])
    sol = solve_ivp(_nodal_rhs, (t0, tf), y0, method="RK45",
                    t_eval=np.asarray(t_eval, dtype=float),
                    dense_output=dense_output,
                    rtol=rtol, atol=atol, args=(u, mu))
    if not sol.success:
        raise StepFailure(f"nodal propagation failed: {sol.message}")
    return sol


def propagate(oe: NodalRelativeState, eta: ReferenceParams,
              t0: float, tf: float, mu: float,
              u: Optional[Callable[[float], PerturbationInput]] = None,
              rtol: float = 1e-12, t_eval=None, n_samples: int = 1000,
              ) -> Trajectory:
    """Integrate the (perturbed) nodal dynamics from t0 to tf.

    Parameters
    ----------
    u : callable or None
        Acceleration callback u(t) -> PerturbationInput; None for Keplerian
        motion.
    rtol : float
        Relative tolerance of the embedded RK 5(4) pair.  Absolute
        tolerances are rtol-scaled per component (p1 carries km units).
    t_eval : array or None
        Sample times; defaults to n_samples points spanning [t0, tf].

    Raises
    ------
    StepFailure
        If the integrator cannot complete the interval.
    """
    if not tf > t0:
        raise ValueError("tf must exceed t0")
    if t_eval is None:
        t_eval = np.linspace(t0, tf, n_samples)
    sol = _solve_nodal(oe, eta, t0, tf, mu, u, rtol, t_eval,
                       dense_output=False)
    return Trajectory(t=sol.t, oe=sol.y[:6].T.copy(), eta=sol.y[6:].T.copy())


def rtn_basis(r: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rows are the RTN unit vectors of a satellite, expressed in PCI, so
    the matrix maps PCI components to RTN components.

    The cross products h = r x v and t = n x r are written out in float
    arithmetic: this runs once per Cowell RHS evaluation under thrust.
    """
    rx, ry, rz = float(r[0]), float(r[1]), float(r[2])
    vx, vy, vz = float(v[0]), float(v[1]), float(v[2])
    hx, hy, hz = ry * vz - rz * vy, rz * vx - rx * vz, rx * vy - ry * vx
    r_mag = math.sqrt(rx * rx + ry * ry + rz * rz)
    h_mag = math.sqrt(hx * hx + hy * hy + hz * hz)
    rx, ry, rz = rx / r_mag, ry / r_mag, rz / r_mag
    hx, hy, hz = hx / h_mag, hy / h_mag, hz / h_mag
    return np.array([[rx, ry, rz],
                     [hy * rz - hz * ry, hz * rx - hx * rz, hx * ry - hy * rx],
                     [hx, hy, hz]])


def _cowell_rhs(t: float, y: np.ndarray, mu: float,
                u: Optional[Callable[[float], np.ndarray]]) -> np.ndarray:
    r = y[:3]
    v = y[3:]
    acc = -mu / math.sqrt(r @ r) ** 3 * r
    if u is not None:
        acc = acc + rtn_basis(r, v).T @ np.asarray(u(t), dtype=float)
    return np.concatenate([v, acc])


def cowell_propagate(s1: CartesianState, s2: CartesianState,
                     t0: float, tf: float, mu: float,
                     u1: Optional[Callable[[float], np.ndarray]] = None,
                     u2: Optional[Callable[[float], np.ndarray]] = None,
                     rtol: float = 1e-12, t_eval=None, n_samples: int = 1000,
                     ) -> CowellTrajectory:
    """Direct inertial integration of both satellites under two-body
    gravity plus optional RTN acceleration callbacks (rotated to PCI
    internally).  Serves as the independent oracle for the nodal model.

    Raises
    ------
    StepFailure
        If either integration fails.
    """
    if not tf > t0:
        raise ValueError("tf must exceed t0")
    if t_eval is None:
        t_eval = np.linspace(t0, tf, n_samples)
    t_eval = np.asarray(t_eval, dtype=float)

    def run(s: CartesianState, u):
        y0 = np.concatenate([s.r, s.v])
        scale = np.concatenate([np.full(3, np.linalg.norm(s.r)),
                                np.full(3, max(np.linalg.norm(s.v), 1.0))])
        sol = solve_ivp(_cowell_rhs, (t0, tf), y0, method="RK45",
                        t_eval=t_eval, rtol=rtol, atol=rtol * scale,
                        args=(mu, u))
        if not sol.success:
            raise StepFailure(f"Cowell propagation failed: {sol.message}")
        return sol.y[:3].T.copy(), sol.y[3:].T.copy()

    r1, v1 = run(s1, u1)
    r2, v2 = run(s2, u2)
    return CowellTrajectory(t=t_eval, r1=r1, v1=v1, r2=r2, v2=v2)


def apply_impulse(state: CartesianState, dv_rtn: np.ndarray,
                  ) -> CartesianState:
    """Instantaneous velocity change expressed in the satellite's own RTN
    frame, applied in Cartesian coordinates."""
    dv_pci = rtn_basis(state.r, state.v).T @ np.asarray(dv_rtn, dtype=float)
    return CartesianState(r=state.r.copy(), v=state.v + dv_pci)
