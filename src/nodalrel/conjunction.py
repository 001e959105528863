"""Passive-safety screening and collision-avoidance planning.

Two conditions are necessary for a collision: the orbits must intersect
(C1, a pure function of the Keplerian invariants) and the satellites must
reach the intersection simultaneously (C2, checked by propagation).  For
noncoplanar pairs the intersection can only occur on the relative line of
nodes, which reduces C1 to scalar margins at the two node crossings; the
ascending margin is the collision safety margin zeta used for maneuver
planning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import ZeroSensitivity, ZetaUndefined
from .dynamics import (
    PerturbationInput,
    _solve_nodal,
    _trig,
    advance_true_anomaly,
    input_matrices,
    orbital_period,
)
from .relstate import (
    NodalRelativeState,
    ReferenceParams,
    _separation,
    classical_from_oe,
    separation_distance,
)

#: |dh| threshold selecting the coplanar branch of C1.
DEFAULT_COPLANAR_TOL = 1e-9

#: Default tolerance on the noncoplanar node-crossing margins.
DEFAULT_NODE_TOL = 1e-9


@dataclass(frozen=True)
class C1Verdict:
    """Outcome of the orbit-intersection test.

    ``coplanar`` selects which branch applies.  The coplanar margin is
    dp^2 - drho^2 (intersection possible iff <= 0); the noncoplanar margins
    are the signed node-crossing mismatches, zero (within tolerance) when
    the orbits meet at that crossing.  Inapplicable margins are nan and
    their satisfied flags False.
    """

    coplanar: bool
    margin_coplanar: float
    margin_ascending: float
    margin_descending: float
    satisfied_coplanar: bool
    satisfied_ascending: bool
    satisfied_descending: bool

    @property
    def satisfied(self) -> bool:
        """True when any applicable branch indicates possible intersection."""
        return (self.satisfied_coplanar or self.satisfied_ascending
                or self.satisfied_descending)


@dataclass(frozen=True)
class C2Result:
    """Minimum separation over the checked window."""

    collides: bool
    t_min: float
    d_min: float


@dataclass(frozen=True)
class ManeuverPlan:
    """Minimum-norm impulse on satellite 1 changing zeta by delta_zeta.

    ``delta_v`` (RTN1, km/s) is parallel to the sensitivity vector
    ``g_vec`` and has magnitude |delta_zeta| / ||g_vec||.
    """

    t_m: float
    delta_v: np.ndarray
    delta_zeta: float
    g_vec: np.ndarray


def coplanar_radial_terms(oe: NodalRelativeState, eta: ReferenceParams,
                          ) -> tuple[float, float]:
    """Amplitude and phase (drho, phi_c) of the coplanar radial mismatch
    dp + drho cos(nu1 + phi_c); intersection is possible iff |dp| <= drho.
    GeometryError, as in :func:`classical_from_oe`, if e2 is not below 1."""
    rec = classical_from_oe(oe, eta)
    a_ = (1.0 + oe.dp) * eta.e1 - rec.e2 * math.cos(rec.dlambda)
    b_ = rec.e2 * math.sin(rec.dlambda)
    drho = math.hypot(a_, b_)
    phi_c = math.atan2(b_, a_)
    return drho, phi_c


def _margin_kernel(dp, dxi_x, dxi_y, hx, hy, ec, es, dh, gradient=False):
    """Signed radial-mismatch margins at the ascending and descending
    relative-node crossings,

        dp -+ [dh_x (dxi_x - dp ec) + dh_y (dxi_y - dp es)] / |dh|,

    each zero exactly when the orbits intersect at that crossing, given
    |dh| > 0.  Returns (ascending, descending, d_oe, d_eta), the last two
    the ascending margin's partials (tuples) with ``gradient``, else None.
    Arithmetic only: float and array arguments share it.
    """
    ax = dxi_x - dp * ec
    ay = dxi_y - dp * es
    num = hx * ax + hy * ay
    x = num / dh
    if not gradient:
        return dp - x, dp + x, None, None
    d_oe = (0.0, 1.0 + (hx * ec + hy * es) / dh, -hx / dh, -hy / dh,
            -ax / dh + num * hx / dh ** 3, -ay / dh + num * hy / dh ** 3)
    d_eta = (0.0, dp * hx / dh, dp * hy / dh)
    return dp - x, dp + x, d_oe, d_eta


def _node_margins(oe: NodalRelativeState, eta: ReferenceParams,
                  gradient: bool = False):
    """:func:`_margin_kernel` on one state; ZetaUndefined if coplanar."""
    dh = oe.dh
    if not dh > 0.0:
        raise ZetaUndefined("zeta requires a noncoplanar pair (|dh| > 0)")
    return _margin_kernel(oe.dp, oe.dxi_x, oe.dxi_y, oe.dh_x, oe.dh_y,
                          eta.ec, eta.es, dh, gradient)


def _node_margin_arrays(oe_arr, eta_arr, gradient: bool = False):
    """:func:`_margin_kernel` over states (..., 6) and references (..., 3);
    ZetaUndefined if any state is coplanar."""
    _, dp, dxx, dxy, hx, hy = np.moveaxis(np.asarray(oe_arr, dtype=float),
                                          -1, 0)
    _, ec, es = np.moveaxis(np.asarray(eta_arr, dtype=float), -1, 0)
    dh = np.hypot(hx, hy)
    if not np.all(dh > 0.0):
        raise ZetaUndefined("zeta requires a noncoplanar pair (|dh| > 0)")
    return _margin_kernel(dp, dxx, dxy, hx, hy, ec, es, dh, gradient)


def c1_test(oe: NodalRelativeState, eta: ReferenceParams,
            node_tol: float = DEFAULT_NODE_TOL) -> C1Verdict:
    """Orbit-intersection test on the Keplerian invariants.

    Coplanar pairs (|dh| <= DEFAULT_COPLANAR_TOL) intersect iff dp^2 -
    drho^2 <= 0.  Noncoplanar pairs can only meet on the relative line of
    nodes; each node-crossing margin must vanish (|margin| <= node_tol) for
    an intersection there.  Margins are reported signed so that callers may
    apply scenario-level thresholds (e.g. filter confidence bands).
    """
    dh = oe.dh
    if dh <= DEFAULT_COPLANAR_TOL:
        drho, _ = coplanar_radial_terms(oe, eta)
        margin = oe.dp * oe.dp - drho * drho
        return C1Verdict(
            coplanar=True, margin_coplanar=margin,
            margin_ascending=math.nan, margin_descending=math.nan,
            satisfied_coplanar=margin <= 0.0,
            satisfied_ascending=False, satisfied_descending=False)

    asc, desc, _, _ = _node_margins(oe, eta)
    return C1Verdict(
        coplanar=False, margin_coplanar=math.nan,
        margin_ascending=asc, margin_descending=desc,
        satisfied_coplanar=False,
        satisfied_ascending=abs(asc) <= node_tol,
        satisfied_descending=abs(desc) <= node_tol)


def zeta(oe: NodalRelativeState, eta: ReferenceParams) -> float:
    """Collision safety margin: the ascending node-crossing margin of
    :func:`_margin_kernel`, zero exactly when the orbits intersect at the
    ascending relative node.

    Raises
    ------
    ZetaUndefined
        For coplanar states (|dh| = 0).
    """
    return _node_margins(oe, eta)[0]


def zeta_descending(oe: NodalRelativeState, eta: ReferenceParams) -> float:
    """Descending-node analogue of :func:`zeta` (same margins, opposite
    crossing)."""
    return _node_margins(oe, eta)[1]


def zeta_gradient(oe: NodalRelativeState, eta: ReferenceParams,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Analytic partials of zeta with respect to the relative state
    (dtheta, dp, dxi_x, dxi_y, dh_x, dh_y) and to (p1, ec, es).

    Raises
    ------
    ZetaUndefined
        For coplanar states (|dh| = 0).
    """
    _, _, d_oe, d_eta = _node_margins(oe, eta, gradient=True)
    return np.array(d_oe), np.array(d_eta)


def plan_avoidance(oe: NodalRelativeState, eta: ReferenceParams,
                   delta_zeta: float, mu: float, t_m: float = 0.0,
                   min_sensitivity: float = 1e-12) -> ManeuverPlan:
    """Minimum-norm impulse on satellite 1 producing a first-order change
    delta_zeta in the safety margin.

    The sensitivity of zeta to an impulse is
    g = (dzeta/deta Geta - dzeta/doe G1)^T, and the minimum-norm solution
    of g . dv = delta_zeta is dv = g delta_zeta / ||g||^2.

    Raises
    ------
    ZeroSensitivity
        If ||g|| falls below min_sensitivity.
    ZetaUndefined
        For coplanar states.
    """
    d_oe, d_eta = zeta_gradient(oe, eta)
    g1, _, geta = input_matrices(oe, eta, mu)
    g = (d_eta @ geta - d_oe @ g1)
    gnorm = float(np.linalg.norm(g))
    if gnorm < min_sensitivity:
        raise ZeroSensitivity(f"|g| = {gnorm} below {min_sensitivity}")
    return ManeuverPlan(t_m=t_m, delta_v=g / gnorm ** 2 * delta_zeta,
                        delta_zeta=delta_zeta, g_vec=g)


def c2_check(oe: NodalRelativeState, eta: ReferenceParams,
             t0: float, tf: float, mu: float, miss_tol: float,
             u: Optional[Callable[[float], PerturbationInput]] = None,
             n_samples: Optional[int] = None, rtol: float = 1e-12,
             ) -> C2Result:
    """Search the window [t0, tf] for an actual close approach.

    The separation history is sampled densely (1/200 of the shorter orbital
    period, floored at 2000 window samples so that fast encounters are not
    stepped over) and the best sample is refined by a bounded Brent search
    between its two neighbours.  The bounds are times only: a golden
    bracket checked on single-time evaluations can fail against grid values
    from one vectorized Kepler solve, which differ in the last digits.
    A collision is declared when the refined minimum distance is at most
    miss_tol (km).

    Without ``u`` the motion is the exact unperturbed flow: one distance
    function advances both recovered orbits by Kepler timing and takes the
    distance from the radii, the phase and the rotated inclination vector
    through the kernel of :func:`separation_distance`; the grid calls it
    on the array of times and the refinement on single times.
    With ``u`` the window is integrated once (RK45 at tolerance rtol): the
    samples are that solve's outputs at the grid times and the refinement
    evaluates its dense interpolant, so the objective and the grid come
    from one source.

    Raises
    ------
    GeometryError
        If the recovered e2 of satellite 2 is not below 1.
    """
    if not tf > t0:
        raise ValueError("tf must exceed t0")
    e1, nu10, p1 = eta.e1, eta.nu1, eta.p1
    a1 = p1 / (1.0 - e1 * e1)
    rec = classical_from_oe(oe, eta)
    p_short = min(orbital_period(a1, mu), orbital_period(rec.a2, mu))
    if n_samples is None:
        n_samples = int(max(math.ceil((tf - t0) / (p_short / 200.0)), 2000))
    t_grid = np.linspace(t0, tf, n_samples)

    if u is None:
        e2, a2, dlam = rec.e2, rec.a2, rec.dlambda
        p2 = p1 * (1.0 + oe.dp)
        nu20 = nu10 + oe.dtheta - dlam

        def distance(t):
            _, sin, cos, *_ = _trig(t)
            nu1 = advance_true_anomaly(nu10, e1, a1, t - t0, mu)
            nu2 = advance_true_anomaly(nu20, e2, a2, t - t0, mu)
            c, s = cos(nu1 - nu10), sin(nu1 - nu10)
            half = 0.5 * (nu2 - nu1 + dlam)
            return _separation(p1 / (1.0 + e1 * cos(nu1)),
                               p2 / (1.0 + e2 * cos(nu2)),
                               sin(half), cos(half),
                               c * oe.dh_x - s * oe.dh_y,
                               s * oe.dh_x + c * oe.dh_y)

        d_grid = distance(t_grid)
    else:
        sol = _solve_nodal(oe, eta, t0, tf, mu, u, rtol, t_grid,
                           dense_output=True)
        d_grid = separation_distance(sol.y[:6].T, sol.y[6:].T)

        def distance(t):
            y = sol.sol(t)
            return float(separation_distance(y[:6], y[6:])[0])

    k = int(np.nanargmin(d_grid))
    t_best, d_best = float(t_grid[k]), float(d_grid[k])

    if 0 < k < n_samples - 1 and d_best < d_grid[k - 1] and d_best < d_grid[k + 1]:
        res = minimize_scalar(
            distance,
            bounds=(float(t_grid[k - 1]), float(t_grid[k + 1])),
            method="bounded", options={"xatol": 1e-9, "maxiter": 200})
        if res.fun < d_best:
            t_best, d_best = float(res.x), float(res.fun)

    return C2Result(collides=d_best <= miss_tol, t_min=t_best, d_min=d_best)
