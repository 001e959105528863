"""Exact time evolution of the nodal relative state and reference
parameters: unperturbed vector fields and their analytic sub-solutions,
input matrices for perturbing RTN accelerations, adaptive propagation,
and an independent Cowell (inertial two-body) oracle with standard
element conversions.

Keplerian motion is advanced in closed form by Kepler timing of both
orbits (:func:`_anomaly_sweep`, the one coast kernel of the truth, the
filter and the C2 search); perturbed motion and the Cowell oracle are
integrated by the adaptive Dormand-Prince 8(5,3) method (scipy's DOP853),
one solve per trajectory at its sample times, at relative tolerance RTOL by
default; only the forced C2 search and the maneuver replay keep its dense
interpolant.  ``scipy.integrate`` is imported on the first solve, not with
this module, so the closed-form paths (the truth, the filter, the
unperturbed C2 search and the exported flow of :func:`unperturbed_flow`)
never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import GeometryError, StepFailure
from .frames import ClassicalElements, pci_to_pqw, wrap_angle
from .relstate import (NodalRelativeState, ReferenceParams, _floats,
                       _kepler_pair, _radius_denominator)

#: Eccentricity below which an orbit is treated as circular when extracting
#: elements from a Cartesian state (argp = 0, phase folded into nu).
CIRCULAR_E_TOL = 1e-11

#: Inclination below which the ascending node is undefined (raan = 0).
EQUATORIAL_I_TOL = 1e-11

#: Relative tolerance of the DOP853 solves: the propagators' default, the
#: forced C2 search's and the maneuver replay's.
RTOL = 1e-12


@dataclass(frozen=True)
class PerturbationInput:
    """Perturbing accelerations on the two satellites, km/s^2, each in the
    satellite's own RTN frame (radial, transverse, normal)."""

    u1: np.ndarray
    u2: np.ndarray


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

#: Newton step size (rad) below which a Kepler solve has converged, and
#: the iterations it may take.
KEPLER_TOL = 1e-14
KEPLER_MAX_ITER = 60

#: The float functions of :func:`_trig`.
_MATH = (math.sin, math.cos, math.atan2, abs, float)


def _trig(x):
    """(x, sin, cos, atan2, amax, out) for bodies written once for both
    number types: a number keeps the ``math`` functions and ``abs`` and a
    0-d array becomes a float; any other x becomes a float array with
    numpy's functions, amax being the largest |entry|.  out gives a result
    the type of x."""
    if isinstance(x, (int, float)):
        return (x, *_MATH)
    x = np.asarray(x, dtype=float)
    if not x.ndim:
        return (float(x), *_MATH)
    return (x, np.sin, np.cos, np.arctan2, lambda step: np.abs(step).max(),
            np.asarray)


def true_to_mean_anomaly(nu, e: float, fns=None):
    """Mean anomaly from true anomaly for eccentricity e in [0, 1),
    vectorized over nu (see :func:`_trig`; fns are the functions of
    ``_trig(nu)`` when the caller has dispatched nu already)."""
    if fns is None:
        nu, *fns = _trig(nu)
    sin, cos, atan2, _, out = fns
    ecc_anom = atan2(math.sqrt(1.0 - e * e) * sin(nu), e + cos(nu))
    return out(ecc_anom - e * sin(ecc_anom))


def mean_to_true_anomaly(m, e: float, fns=None):
    """True anomaly from mean anomaly by Newton iteration on Kepler's
    equation, vectorized over m (see :func:`_trig`; fns as in
    :func:`true_to_mean_anomaly`); an array iterates until its worst
    element converges.

    Raises
    ------
    StepFailure
        If the Newton step is not below KEPLER_TOL after KEPLER_MAX_ITER
        iterations.
    """
    if fns is None:
        m, *fns = _trig(m)
    sin, cos, atan2, amax, out = fns
    m_wrapped = (m + math.pi) % (2.0 * math.pi) - math.pi
    # Danby starter E = M + 0.85 e sign(sin M) keeps Newton safe up to high
    # eccentricity.
    sin_m = sin(m_wrapped)
    ecc_anom = m_wrapped + 0.85 * e * ((sin_m > 0.0) * 1.0 - (sin_m < 0.0))
    for _ in range(KEPLER_MAX_ITER):
        step = ((ecc_anom - e * sin(ecc_anom) - m_wrapped)
                / (1.0 - e * cos(ecc_anom)))
        ecc_anom = ecc_anom - step
        if amax(step) < KEPLER_TOL:
            break
    else:
        raise StepFailure(
            f"Kepler solve not converged in {KEPLER_MAX_ITER} iterations")
    return out(atan2(math.sqrt(1.0 - e * e) * sin(ecc_anom),
                     cos(ecc_anom) - e))


def advance_true_anomaly(nu0: float, e: float, a: float, dt, mu: float,
                         fns=None):
    """True anomaly after coasting dt seconds on a fixed ellipse from the
    float anomaly nu0 (fns as in :func:`true_to_mean_anomaly`).

    dt may be an array; the returned anomaly is unwrapped only modulo 2 pi.
    """
    if fns is None:
        dt, *fns = _trig(dt)
    m = true_to_mean_anomaly(nu0, e, _MATH) + math.sqrt(mu / a ** 3) * dt
    return mean_to_true_anomaly(m, e, fns=fns)


def _phase_sweep(pair, dh, t, mu: float, fns):
    """The part of :func:`_anomaly_sweep` that the C2 distance needs:
    (nu1t, nu2t, c, s, dtheta_t, dh_x, dh_y, ec), as named there, with t
    and fns from one :func:`_trig` dispatch."""
    nu10, e1, a1, nu20, e2, a2, dlambda = pair
    sin, cos = fns[:2]
    nu1t = advance_true_anomaly(nu10, e1, a1, t, mu, fns)
    nu2t = advance_true_anomaly(nu20, e2, a2, t, mu, fns)
    c, s = cos(nu1t - nu10), sin(nu1t - nu10)
    hx, hy = dh
    return (nu1t, nu2t, c, s, nu2t - nu1t + dlambda,
            c * hx - s * hy, s * hx + c * hy, e1 * cos(nu1t))


def _anomaly_sweep(pair, dh, t, mu: float):
    """Keplerian coast of a nodal state t s after its epoch: the one closed
    form of the unperturbed flow, the filter's coast and the C2 distance.

    pair is the state's :func:`relstate._kepler_pair` and dh its (dh_x,
    dh_y); t is a float or an array (see :func:`_trig`).  Returns (nu1t,
    nu2t, c, s, dtheta_t, dxi_x, dxi_y, dh_x, dh_y, ec, es) at t: both true
    anomalies, the cosine and sine of the reference sweep nu1t - nu10,
    dtheta_t = nu2t - nu1t + dlambda unwrapped, the eccentricity difference
    e2 (cos, sin)(nu1t - dlambda) - e1 (cos, sin) nu1t, the inclination
    vector rotated by the sweep, and the reference phasor e1 (cos, sin)
    nu1t.  dp and p1 do not change."""
    _, e1, _, _, e2, _, dlambda = pair
    t, *fns = _trig(t)
    sin, cos = fns[:2]
    nu1t, nu2t, c, s, dtheta, hx, hy, ec = _phase_sweep(pair, dh, t, mu,
                                                        fns)
    es = e1 * sin(nu1t)
    return (nu1t, nu2t, c, s, dtheta,
            e2 * cos(nu1t - dlambda) - ec, e2 * sin(nu1t - dlambda) - es,
            hx, hy, ec, es)


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

def _unperturbed_rates(dtheta, dp, dxx, dxy, hx, hy, p1, ec, es, mu):
    """Keplerian derivative of the six relative states and of (p1, ec, es),
    as a 9-tuple, from the nine components as floats: dtheta moves at the
    anomaly-rate mismatch k [D^2 / (1 + dp)^1.5 - (1 + ec)^2], k =
    sqrt(mu / p1^3) and D the radius denominator, dp and p1 are constant,
    and both eccentricity phasors and the inclination vector rotate at the
    reference anomaly rate.  Raises GeometryError if p1 or 1 + dp is not
    positive, as a coarse trial step can make them."""
    if not p1 > 0.0:
        raise GeometryError(f"p1 {p1} <= 0: state outside elliptic geometry")
    if not 1.0 + dp > 0.0:
        raise GeometryError(
            f"1 + dp = {1.0 + dp} <= 0: state outside elliptic geometry")
    k = math.sqrt(mu / p1 ** 3)
    nudot = k * (1.0 + ec) ** 2
    denom = _radius_denominator(math.cos(dtheta), math.sin(dtheta), dxx, dxy,
                                ec, es)
    return (k * (denom * denom / (1.0 + dp) ** 1.5 - (1.0 + ec) * (1.0 + ec)),
            0.0, -nudot * dxy, nudot * dxx, -nudot * hy, nudot * hx,
            0.0, -nudot * es, nudot * ec)


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
    *_, dtheta, dxx, dxy, hx, hy, ec, es = _anomaly_sweep(
        _kepler_pair(*_floats(oe, eta)), (oe.dh_x, oe.dh_y), t, mu)
    oe_arr = np.stack([wrap_angle(dtheta), np.full(t.size, oe.dp),
                       dxx, dxy, hx, hy], axis=1)
    eta_arr = np.stack([np.full(t.size, eta.p1), ec, es], axis=1)
    return oe_arr, eta_arr


# --- Input matrices and perturbed dynamics ---

def _forcing(dtheta, dp, dxx, dxy, hx, hy, p1, ec, es, mu: float,
             u1, u2) -> tuple:
    """The nine forcing increments G2 u2 - G1 u1 (the relative states) and
    Geta u1 (p1, ec, es) of :func:`input_matrices`, from the nine state and
    reference components and the two RTN inputs as floats, written out over
    the nonzero entries; each entry pre * g multiplies its input as
    (pre * g) * u."""
    c, s = math.cos(dtheta), math.sin(dtheta)
    denom = _radius_denominator(c, s, dxx, dxy, ec, es)
    if not denom > 0.0:
        raise GeometryError(
            f"radius denominator {denom} <= 0: state outside elliptic geometry")
    r1 = p1 / (1.0 + ec)
    p2 = p1 * (1.0 + dp)
    r2 = p2 / denom
    pre1 = r1 / math.sqrt(mu * p1)
    pre2 = r2 / math.sqrt(mu * p2)

    smag = 1.0 + hx * hx + hy * hy
    dh_theta = hx * s + hy * c
    e_theta = (dxx + ec) * s + (dxy + es) * c
    opd2, ope, ope2 = 2.0 * (1.0 + dp), 1.0 + ec, 2.0 * (1.0 + ec)
    ur1, ut1, un1 = u1
    ur2, ut2, un2 = u2
    return (
        pre2 * dh_theta * un2 - pre1 * -hy * un1,
        pre2 * opd2 * ut2 - pre1 * opd2 * ut1,
        (pre2 * (denom * s) * ur2
         + pre2 * (2.0 * denom * c + e_theta * s) * ut2
         + pre2 * ((dxy + es) * dh_theta) * un2)
        - (pre1 * ope2 * ut1 + pre1 * (-(dxy + es) * hy) * un1),
        (pre2 * (denom * c) * ur2
         + pre2 * (-2.0 * denom * s + e_theta * c) * ut2
         + pre2 * (-(dxx + ec) * dh_theta) * un2)
        - (pre1 * ope * ur1 + pre1 * es * ut1
           + pre1 * ((dxx + ec) * hy) * un1),
        pre2 * (0.5 * smag * c) * un2
        - pre1 * (0.5 * (1.0 + hx * hx - hy * hy)) * un1,
        pre2 * (-0.5 * smag * s) * un2 - pre1 * (hx * hy) * un1,
        pre1 * (2.0 * p1) * ut1,
        pre1 * ope2 * ut1,
        pre1 * ope * ur1 + pre1 * es * ut1)


def input_matrices(oe: NodalRelativeState, eta: ReferenceParams, mu: float,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Acceleration input matrices (G1, G2, Geta) for the perturbed
    relative dynamics d(oe)/dt = f + G2 u2 - G1 u1 and
    d(eta)/dt = f_eta + Geta u1.

    Columns follow the RTN ordering of the respective satellite's
    acceleration.  Internal radii use the state-geometry expressions with
    p2 = p1 (1 + dp).  The columns are the forcing increments of unit
    inputs.

    Raises
    ------
    GeometryError
        If the radius denominator of satellite 2 is not positive.
    """
    y = (*oe.as_array().tolist(), *eta.as_array().tolist(), mu)
    unit, zero = np.eye(3).tolist(), [0.0] * 3
    by_u1 = np.array([_forcing(*y, e, zero) for e in unit]).T
    by_u2 = np.array([_forcing(*y, zero, e) for e in unit]).T
    return -by_u1[:6], by_u2[:6], by_u1[6:]


# --- Propagation ---

def _nodal_rhs(t: float, y: np.ndarray,
               u: Optional[Callable[[float], PerturbationInput]],
               mu: float) -> np.ndarray:
    y = y.tolist()  # floats: faster scalar arithmetic than numpy scalars
    rates = _unperturbed_rates(*y, mu)
    if u is None:
        return np.array(rates)
    uin = u(t)
    return np.array([a + b for a, b in zip(rates, _forcing(
        *y, mu, np.asarray(uin.u1, dtype=float).tolist(),
        np.asarray(uin.u2, dtype=float).tolist()))])


def _scipy_solve_ivp(*args, **kwargs):
    """scipy's solve_ivp, imported on its first call."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    return scipy_solve_ivp(*args, **kwargs)


#: The integrator :func:`_dop853` looks up at each call, so that it can be
#: wrapped (the benchmark's tracer counts its right-hand sides here).
solve_ivp = _scipy_solve_ivp


def _dop853(rhs, y0, t, rtol: float, atol, args, what: str, dense: bool):
    """The package's one integration: DOP853 over (t[0], t[-1]), sampled at
    the increasing times t in ``sol.y`` (solve_ivp rejects unsorted ones),
    and dense in ``sol.sol`` only when ``dense``: the interpolant costs 3
    more right-hand sides on each step that holds no sample.  Raises
    ValueError unless 0 < rtol < 1, and StepFailure naming ``what`` if the
    solve fails."""
    if not 0.0 < rtol < 1.0:
        raise ValueError(f"rtol must be finite, > 0 and < 1, got {rtol}")
    t = np.asarray(t, dtype=float)
    if not (t.size > 1 and t[-1] > t[0]):
        raise ValueError("sample times must increase")
    sol = solve_ivp(rhs, (t[0], t[-1]), y0, method="DOP853", t_eval=t,
                    dense_output=dense, rtol=rtol, atol=atol, args=args)
    if not sol.success:
        raise StepFailure(f"{what} propagation failed: {sol.message}")
    return sol


def _solve_nodal(oe: NodalRelativeState, eta: ReferenceParams, t, mu: float,
                 u: Optional[Callable[[float], PerturbationInput]],
                 rtol: float, dense: bool):
    """DOP853 solution of the nodal dynamics sampled at t (state rows 0-5,
    reference rows 6-8); see :func:`propagate` and :func:`_dop853`."""
    atol = rtol * np.array([1.0] * 6 + [max(eta.p1, 1.0), 1.0, 1.0])
    y0 = np.concatenate([oe.as_array(), eta.as_array()])
    return _dop853(_nodal_rhs, y0, t, rtol, atol, (u, mu), "nodal", dense)


def propagate(oe: NodalRelativeState, eta: ReferenceParams, t, mu: float,
              u: Optional[Callable[[float], PerturbationInput]] = None,
              rtol: float = RTOL) -> Trajectory:
    """Integrate the (perturbed) nodal dynamics of (oe, eta), given at t[0],
    to the increasing sample times t (s).

    Parameters
    ----------
    u : callable or None
        Acceleration callback u(t) -> PerturbationInput; None for Keplerian
        motion.
    rtol : float
        Relative tolerance of the Dormand-Prince 8(5,3) integrator.  Absolute
        tolerances are rtol-scaled per component (p1 carries km units).

    Raises
    ------
    ValueError
        If t does not increase, or rtol is not finite, > 0 and < 1.
    StepFailure
        If the integrator cannot complete the interval.
    """
    sol = _solve_nodal(oe, eta, t, mu, u, rtol, False)
    return Trajectory(t=sol.t, oe=sol.y[:6].T.copy(), eta=sol.y[6:].T.copy())


def _rtn_rows(rx, ry, rz, vx, vy, vz) -> tuple:
    """The RTN unit vectors (rows R, T, N, each a 3-tuple) of a satellite at
    PCI position r and velocity v given as floats: h = r x v and t = n x r
    written out in float arithmetic, as the Cowell right-hand side needs
    them once per evaluation under thrust."""
    hx, hy, hz = ry * vz - rz * vy, rz * vx - rx * vz, rx * vy - ry * vx
    r_mag = math.sqrt(rx * rx + ry * ry + rz * rz)
    h_mag = math.sqrt(hx * hx + hy * hy + hz * hz)
    rx, ry, rz = rx / r_mag, ry / r_mag, rz / r_mag
    hx, hy, hz = hx / h_mag, hy / h_mag, hz / h_mag
    return ((rx, ry, rz),
            (hy * rz - hz * ry, hz * rx - hx * rz, hx * ry - hy * rx),
            (hx, hy, hz))


def rtn_basis(r: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rows are the RTN unit vectors of a satellite, expressed in PCI, so
    the matrix maps PCI components to RTN components."""
    return np.array(_rtn_rows(*map(float, r), *map(float, v)))


def _cowell_rhs(t: float, y: np.ndarray, mu: float,
                u: Optional[Callable[[float], np.ndarray]]) -> np.ndarray:
    """Two-body acceleration plus the RTN input u(t) rotated to PCI, in
    float arithmetic (faster than numpy on 3-vectors)."""
    rx, ry, rz, vx, vy, vz = y.tolist()
    k = -mu / math.sqrt(rx * rx + ry * ry + rz * rz) ** 3
    ax, ay, az = k * rx, k * ry, k * rz
    if u is not None:
        ur, ut, un = np.asarray(u(t), dtype=float).tolist()
        ax, ay, az = (acc + (cr * ur + ct * ut + cn * un)
                      for acc, cr, ct, cn in zip(
                          (ax, ay, az), *_rtn_rows(rx, ry, rz, vx, vy, vz)))
    return np.array([vx, vy, vz, ax, ay, az])


def _solve_cowell(s: CartesianState, t, mu: float,
                  u: Optional[Callable[[float], np.ndarray]],
                  rtol: float, dense: bool):
    """DOP853 solution of one satellite's inertial motion sampled at t
    (position rows 0-2, velocity rows 3-5); see :func:`cowell_propagate`
    and :func:`_dop853`."""
    scale = np.concatenate([np.full(3, np.linalg.norm(s.r)),
                            np.full(3, max(np.linalg.norm(s.v), 1.0))])
    return _dop853(_cowell_rhs, np.concatenate([s.r, s.v]), t, rtol,
                   rtol * scale, (mu, u), "Cowell", dense)


def cowell_propagate(s1: CartesianState, s2: CartesianState, t, mu: float,
                     u1: Optional[Callable[[float], np.ndarray]] = None,
                     u2: Optional[Callable[[float], np.ndarray]] = None,
                     rtol: float = RTOL) -> CowellTrajectory:
    """Direct inertial integration of both satellites, given at t[0], to the
    increasing sample times t (s), under two-body gravity plus optional RTN
    acceleration callbacks (rotated to PCI internally).  Serves as the
    independent oracle for the nodal model.

    Raises
    ------
    ValueError
        If t does not increase, or rtol is not finite, > 0 and < 1.
    StepFailure
        If either integration fails.
    """
    y1, y2 = (_solve_cowell(s, t, mu, u, rtol, False).y
              for s, u in ((s1, u1), (s2, u2)))
    return CowellTrajectory(t=np.asarray(t, dtype=float), r1=y1[:3].T.copy(),
                            v1=y1[3:].T.copy(), r2=y2[:3].T.copy(),
                            v2=y2[3:].T.copy())


def apply_impulse(state: CartesianState, dv_rtn: np.ndarray,
                  ) -> CartesianState:
    """Instantaneous velocity change expressed in the satellite's own RTN
    frame, applied in Cartesian coordinates."""
    dv_pci = rtn_basis(state.r, state.v).T @ np.asarray(dv_rtn, dtype=float)
    return CartesianState(r=state.r.copy(), v=state.v + dv_pci)
