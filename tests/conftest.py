"""Shared fixtures and independent oracles for the test suite."""

import math
from dataclasses import dataclass

import numpy as np
import pytest

from nodalrel import (
    MU_EARTH,
    ClassicalElements,
    NodalError,
    NodalRelativeState,
    PerturbationInput,
    ReferenceParams,
    elements_to_cartesian,
    pci_to_pqw,
    position_jacobians,
    predict_measurement,
    relative_position_batch,
    rot_z,
    unperturbed_flow,
)
from nodalrel.navigation import ekf_propagate
from nodalrel.relstate import _reference_anomaly


def pytest_configure(config):
    """One hypothesis profile for every property test: no per-example
    deadline, which a loaded machine trips on timing noise rather than on
    a fault.  Set in this hook, so that modules importing the oracles
    below (the benchmark does) do not load hypothesis."""
    from hypothesis import settings
    settings.register_profile("nodalrel", deadline=None)
    settings.load_profile("nodalrel")


# The two fixed orbits used throughout the validation experiments.
EL1 = ClassicalElements(a=8.9e3, e=0.5, i=math.radians(10.0),
                        raan=math.radians(20.0), argp=0.0,
                        nu=math.radians(30.0))
EL2 = ClassicalElements(a=6.8e3, e=0.1, i=math.radians(40.0),
                        raan=math.radians(90.0), argp=math.radians(30.0),
                        nu=math.radians(70.0))


@pytest.fixture
def validation_pair():
    return EL1, EL2


# Magnitudes and anomalies that the tests read off the dataclasses; the
# package forms them inside its kernels from the components.

def orbit_radius(el: ClassicalElements) -> float:
    """Instantaneous orbital radius p / (1 + e cos nu), km."""
    return el.p / (1.0 + el.e * math.cos(el.nu))


def dxi_magnitude(oe) -> float:
    """Magnitude of the relative eccentricity vector."""
    return math.hypot(oe.dxi_x, oe.dxi_y)


def reference_e1(eta) -> float:
    """Eccentricity e1 of the reference orbit."""
    return math.hypot(eta.ec, eta.es)


def reference_nu1(eta) -> float:
    """True anomaly of the reference; 0 by convention when e1 = 0."""
    return _reference_anomaly(eta.ec, eta.es)


def random_elements(rng, a_range=(7e3, 5e4), e_range=(0.01, 0.8),
                    i_range=(0.05, 3.0)) -> ClassicalElements:
    return ClassicalElements(
        a=rng.uniform(*a_range), e=rng.uniform(*e_range),
        i=rng.uniform(*i_range), raan=rng.uniform(-math.pi, math.pi),
        argp=rng.uniform(-math.pi, math.pi), nu=rng.uniform(-math.pi, math.pi))


def random_pair(rng, min_gamma=1e-4, **kwargs):
    """Random non-retrograde, noncoplanar element pair."""
    from nodalrel import RetrogradeSingularity, relative_orientation
    while True:
        el1 = random_elements(rng, **kwargs)
        el2 = random_elements(rng, **kwargs)
        try:
            rel = relative_orientation(el1, el2)
        except RetrogradeSingularity:
            continue
        if rel.gamma >= min_gamma:
            return el1, el2


def orbit_normal(el: ClassicalElements) -> np.ndarray:
    """Unit orbit normal in PCI (third row of the PCI->PQW DCM)."""
    return pci_to_pqw(el)[2]


def cartesian_node_oracle(el1: ClassicalElements, el2: ClassicalElements,
                          mu: float = MU_EARTH):
    """Independent relative-node geometry from Cartesian states.

    The ascending relative node (satellite 2 rising through plane 1) lies
    along h1 x h2; angles are measured in each orbit plane from that
    direction, and gamma is the angle between the plane normals.
    """
    s1 = elements_to_cartesian(el1, mu)
    s2 = elements_to_cartesian(el2, mu)
    h1 = np.cross(s1.r, s1.v)
    h2 = np.cross(s2.r, s2.v)
    h1 /= np.linalg.norm(h1)
    h2 /= np.linalg.norm(h2)
    node = np.cross(h1, h2)
    node /= np.linalg.norm(node)

    def signed_angle(u, w, axis):
        return math.atan2(float(np.cross(u, w) @ axis), float(u @ w))

    gamma = math.atan2(float(np.linalg.norm(np.cross(h1, h2))),
                       float(h1 @ h2))
    theta1 = signed_angle(node, s1.r / np.linalg.norm(s1.r), h1)
    theta2 = signed_angle(node, s2.r / np.linalg.norm(s2.r), h2)
    return gamma, theta1, theta2, node


def rtn1_chain_oracle(el1: ClassicalElements,
                      el2: ClassicalElements) -> np.ndarray:
    """RTN2->RTN1 DCM by the full classical-element rotation chain."""
    return (rot_z(el1.nu) @ pci_to_pqw(el1)
            @ pci_to_pqw(el2).T @ rot_z(-el2.nu))


def rtn_frame(r: np.ndarray, v: np.ndarray) -> np.ndarray:
    """PCI->RTN DCM built directly from a Cartesian state."""
    rhat = r / np.linalg.norm(r)
    nhat = np.cross(r, v)
    nhat = nhat / np.linalg.norm(nhat)
    return np.vstack([rhat, np.cross(nhat, rhat), nhat])


def cartesian_relative_state(el1, el2, mu=MU_EARTH):
    """RTN1 relative position and component-rate velocity from Cartesian
    differencing (the transport-rate term handles the rotating frame)."""
    s1 = elements_to_cartesian(el1, mu)
    s2 = elements_to_cartesian(el2, mu)
    basis = rtn_frame(s1.r, s1.v)
    dr = basis @ (s2.r - s1.r)
    omega = np.cross(s1.r, s1.v) / float(s1.r @ s1.r)
    dv = basis @ ((s2.v - s1.v) - np.cross(omega, s2.r - s1.r))
    return dr, dv


def perturbed_derivative(oe, eta, u, mu):
    """Full derivative (d oe/dt, d eta/dt) under perturbing RTN
    accelerations held at u (None: Keplerian motion): the propagator's
    right-hand side at one state."""
    from nodalrel.dynamics import _nodal_rhs
    dy = _nodal_rhs(0.0, np.concatenate([oe.as_array(), eta.as_array()]),
                    None if u is None else lambda t: u, mu)
    return dy[:6], dy[6:]


def f_unperturbed_jacobian(oe, eta, mu) -> np.ndarray:
    """Analytic Jacobian of the Keplerian state derivative
    ``perturbed_derivative(oe, eta, None, mu)[0]`` with respect to the
    relative state: the reference of the filter's closed-form transition."""
    k = math.sqrt(mu / eta.p1 ** 3)
    c, s = math.cos(oe.dtheta), math.sin(oe.dtheta)
    opd = 1.0 + oe.dp
    opd15 = opd ** 1.5
    denom = 1.0 + (oe.dxi_x + eta.ec) * c - (oe.dxi_y + eta.es) * s
    kd = 2.0 * k * denom / opd15
    nudot = k * (1.0 + eta.ec) ** 2

    jac = np.zeros((6, 6))
    jac[0, :4] = (kd * (-(oe.dxi_x + eta.ec) * s - (oe.dxi_y + eta.es) * c),
                  -1.5 * k * denom * denom / (opd15 * opd), kd * c, -kd * s)
    jac[[2, 4], [3, 5]] = -nudot  # the two rotations at the anomaly rate
    jac[[3, 5], [2, 4]] = nudot
    return jac


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


def ecc_inc_vectors(oe, eta) -> EccIncVectors:
    """Relative eccentricity/inclination vectors, magnitudes, and phase.

    The state components (dxi_x, dxi_y) and (dh_x, dh_y) are the node-frame
    vectors rotated by theta1 (with the eccentricity Y component reflected),
    so the magnitudes transfer directly and the node-frame vectors follow by
    back-rotation.  When |dh| = 0 the node direction is unknown and de is
    reported in the theta1 = 0 convention.
    """
    from nodalrel import wrap_angle
    dxi_mag = dxi_magnitude(oe)
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


def classical_from_oe(oe, eta) -> RecoveredInvariants:
    """Recover the Keplerian invariants of satellite 2 and the nodal angles:
    e2, dlambda and a2 from the package's Kepler-timing kernel, gamma from
    |dh|, and theta1 from the direction of the inclination vector whenever
    gamma is at least COPLANAR_GAMMA_TOL.

    For a circular reference (e1 = 0) the split of theta1 into nu1 + lambda1
    uses the nu1 = 0 convention of ReferenceParams.  GeometryError if the
    recovered e2 is not below 1 (no closed orbit matches).
    """
    from nodalrel.frames import COPLANAR_GAMMA_TOL, wrap_angle
    from nodalrel.relstate import _floats, _kepler_pair
    nu1, _, _, _, e2, a2, dlambda = _kepler_pair(*_floats(oe, eta))
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


#: sin(gamma) guard of :func:`nodal_variational`.
COPLANAR_SIN_TOL = 1e-9


class CoplanarNormalInput(NodalError):
    """Nodal variational equations requested with sin(gamma) ~ 0 and a
    nonzero normal acceleration, which makes the node drift rates singular."""


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


def nodal_variational(theta1: float, theta2: float, gamma: float,
                      i1: float, i2: float, alpha1: float, alpha2: float,
                      elements: tuple[ClassicalElements, ClassicalElements],
                      u: PerturbationInput, mu: float) -> NodalRates:
    """Gauss-style variational rates of the relative-orientation angles,
    written in the angles rather than in the nodal state: an oracle for
    the input matrices, which write the same physics in nodal coordinates.

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


def crlb_final_range_sigma(cfg, truth) -> float:
    """Cramer-Rao bound on the range error at the last sample time.

    Batch Fisher information of the initial relative state, with the P0
    prior, the configured measurement noise and no process noise.  The
    az/el/beta sensitivities to the initial state come from central
    differences through the exact flow, so this route shares neither the
    filter's state transition matrix nor its measurement Jacobian.
    """
    t = truth.t - truth.t[0]
    eta0 = ReferenceParams.from_array(truth.eta[0])

    def sweep(x):
        oe_arr, eta_arr = unperturbed_flow(NodalRelativeState.from_array(x),
                                           eta0, cfg.mu, t)
        dr = relative_position_batch(oe_arr, eta_arr)
        rho = np.linalg.norm(dr, axis=1)
        y = np.stack([np.arctan2(dr[:, 1], dr[:, 0]),
                      np.arcsin(dr[:, 2] / rho), cfg.d / rho], axis=1)
        return y, rho[-1]

    h_stack = np.empty((t.size, 3, 6))
    grad_rho = np.empty(6)
    for i, step in enumerate(1e-3 * np.sqrt(cfg.p0_diag)):
        dx = np.zeros(6)
        dx[i] = step
        y_plus, rho_plus = sweep(truth.oe[0] + dx)
        y_minus, rho_minus = sweep(truth.oe[0] - dx)
        dy = y_plus - y_minus
        dy[:, 0] = np.arctan2(np.sin(dy[:, 0]), np.cos(dy[:, 0]))
        h_stack[:, :, i] = dy / (2.0 * step)
        grad_rho[i] = (rho_plus - rho_minus) / (2.0 * step)

    r_inv = 1.0 / np.diag(cfg.noise.covariance())
    info = (np.diag(1.0 / np.asarray(cfg.p0_diag))
            + np.einsum("kai,a,kaj->ij", h_stack, r_inv, h_stack))
    return math.sqrt(float(grad_rho @ np.linalg.solve(info, grad_rho)))


def recursion_final_range_sigma(cfg, truth) -> float:
    """Final range sigma of the filter's covariance recursion linearized
    along the truth: the Joseph-form update with the predict_measurement
    Jacobian and the ekf_propagate transition with the configured q_diag.

    The update is written out here rather than taken from ekf_update, so
    that a fault in the filter's update leaves this bound unchanged.
    """
    q_rate = np.diag(cfg.q_diag)
    r_cov = cfg.noise.covariance()
    p_cov = np.diag(cfg.p0_diag)
    n = truth.t.size
    for k in range(n):
        oe_k = NodalRelativeState.from_array(truth.oe[k])
        eta_k = ReferenceParams.from_array(truth.eta[k])
        h = predict_measurement(oe_k.as_array(), eta_k.as_array(),
                                cfg.d)[1]
        gain = np.linalg.solve(h @ p_cov @ h.T + r_cov, h @ p_cov).T
        ikh = np.eye(6) - gain @ h
        p_cov = ikh @ p_cov @ ikh.T + gain @ r_cov @ gain.T
        if k < n - 1:
            p_cov = ekf_propagate(oe_k.as_array(), p_cov, eta_k.as_array(),
                                  truth.eta[k + 1], cfg.sample_dt, q_rate,
                                  cfg.mu)[1]
    j_oe, _ = position_jacobians(oe_k, eta_k)
    grad_rho = (truth.dr[-1] / truth.range_km[-1]) @ j_oe
    return math.sqrt(float(grad_rho @ p_cov @ grad_rho))
