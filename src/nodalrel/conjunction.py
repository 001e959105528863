"""Passive-safety screening and collision-avoidance planning.

Two conditions are necessary for a collision: the orbits must intersect
(C1, a pure function of the Keplerian invariants) and the satellites must
reach the intersection simultaneously (C2, checked by propagation).  For
noncoplanar pairs the intersection can only occur on the relative line of
nodes, which reduces C1 to scalar margins at the two node crossings; the
ascending margin is the collision safety margin zeta used for maneuver
planning.

The C2 refinement's bounded Brent search imports ``scipy.optimize`` on its
first call, not with this module: screening by C1 and zeta, and the filter
that reads zeta, never load it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ZeroSensitivity, ZetaUndefined
from .dynamics import (
    _MATH,
    PerturbationInput,
    _check_mu,
    _phase_sweep,
    _solve_nodal,
    _trig,
    input_matrices,
    orbital_period,
    true_to_mean_anomaly,
)
from .relstate import (
    NodalRelativeState,
    ReferenceParams,
    _floats,
    _kepler_pair,
    _position_kernel,
    _radius_denominator,
    _separation,
    separation_distance,
)

#: |dh| threshold selecting the coplanar branch of C1.
DEFAULT_COPLANAR_TOL = 1e-9

#: Tolerance on the noncoplanar node-crossing margins.
DEFAULT_NODE_TOL = 1e-9

#: ||g|| below which :func:`plan_avoidance` finds no impulse direction.
MIN_SENSITIVITY = 1e-12


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

    delta_v: np.ndarray
    delta_zeta: float
    g_vec: np.ndarray


def coplanar_radial_terms(oe: NodalRelativeState, eta: ReferenceParams,
                          ) -> tuple[float, float]:
    """Amplitude and phase (drho, phi_c) of the coplanar radial mismatch
    dp + drho cos(nu1 + phi_c); intersection is possible iff |dp| <= drho.
    GeometryError, as in :func:`relstate._kepler_pair`, if e2 is not below
    1."""
    _, e1, _, _, e2, _, dlambda = _kepler_pair(*_floats(oe, eta))
    a_ = (1.0 + oe.dp) * e1 - e2 * math.cos(dlambda)
    b_ = e2 * math.sin(dlambda)
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


def c1_test(oe: NodalRelativeState, eta: ReferenceParams) -> C1Verdict:
    """Orbit-intersection test on the Keplerian invariants.

    Coplanar pairs (|dh| <= DEFAULT_COPLANAR_TOL) intersect iff dp^2 -
    drho^2 <= 0.  Noncoplanar pairs can only meet on the relative line of
    nodes; each node-crossing margin must vanish (|margin| <=
    DEFAULT_NODE_TOL) for an intersection there.  Margins are reported
    signed so that callers may apply scenario-level thresholds (e.g.
    filter confidence bands).
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
        satisfied_ascending=abs(asc) <= DEFAULT_NODE_TOL,
        satisfied_descending=abs(desc) <= DEFAULT_NODE_TOL)


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
                   delta_zeta: float, mu: float) -> ManeuverPlan:
    """Minimum-norm impulse on satellite 1 producing a first-order change
    delta_zeta in the safety margin.

    The sensitivity of zeta to an impulse is
    g = (dzeta/deta Geta - dzeta/doe G1)^T, and the minimum-norm solution
    of g . dv = delta_zeta is dv = g delta_zeta / ||g||^2.

    Raises
    ------
    ZeroSensitivity
        If ||g|| falls below MIN_SENSITIVITY.
    ZetaUndefined
        For coplanar states.
    """
    d_oe, d_eta = zeta_gradient(oe, eta)
    g1, _, geta = input_matrices(oe, eta, mu)
    g = (d_eta @ geta - d_oe @ g1)
    gnorm = float(np.linalg.norm(g))
    if gnorm < MIN_SENSITIVITY:
        raise ZeroSensitivity(f"|g| = {gnorm} below {MIN_SENSITIVITY}")
    return ManeuverPlan(delta_v=g / gnorm ** 2 * delta_zeta,
                        delta_zeta=delta_zeta, g_vec=g)


# --- C2: the close-approach search ---

#: Relative slack on the plane bound's distance threshold.
PLANE_BOUND_SLACK = 1e-12

#: Rounding allowance of the plane bound, in units of eps: on distances
#: (times the larger apoapsis radius) and on Kepler-timed window ends
#: (times |t0| + |tf| + the orbital period).
ROUNDING_ULPS = 64.0


def _scipy_minimize_scalar(*args, **kwargs):
    """scipy's minimize_scalar, imported on its first call."""
    from scipy.optimize import minimize_scalar as scipy_minimize_scalar
    return scipy_minimize_scalar(*args, **kwargs)


#: The minimizer :func:`_refine` looks up at each call, so that it can be
#: wrapped (the benchmark's tracer counts its evaluations here).
minimize_scalar = _scipy_minimize_scalar


def _refine(distance, lo, hi) -> tuple[float, float]:
    """(t, d) of a bounded Brent search on s = t - lo in [0, hi - lo]: on t
    itself scipy's tolerance sqrt(eps) |t| + xatol / 3 would grow with |t|."""
    lo = float(lo)
    res = minimize_scalar(lambda s: distance(lo + s),
                          bounds=(0.0, float(hi) - lo), method="bounded",
                          options={"xatol": 1e-9, "maxiter": 200})
    return lo + float(res.x), float(res.fun)


def _grid_minimum(distance, t_grid, d_grid) -> tuple[float, float]:
    """(t, d) of the best grid sample, refined by :func:`_refine` between
    its two neighbours when it is an interior strict local minimum."""
    k = int(np.nanargmin(d_grid))
    t_best, d_best = float(t_grid[k]), float(d_grid[k])
    if (0 < k < t_grid.size - 1 and d_best < d_grid[k - 1]
            and d_best < d_grid[k + 1]):
        t_ref, d_ref = _refine(distance, t_grid[k - 1], t_grid[k + 1])
        if d_ref < d_best:
            t_best, d_best = t_ref, d_ref
    return t_best, d_best


def _mean_anomaly(nu: float, e: float) -> float:
    """Mean anomaly of the unwrapped true anomaly nu: continuous and
    increasing in nu, so differences time arcs of any length."""
    wrapped = (nu + math.pi) % (2.0 * math.pi) - math.pi
    return true_to_mean_anomaly(wrapped, e, _MATH) + (nu - wrapped)


def _node_passages(nu0: float, e: float, a: float, theta0: float,
                   offsets: tuple, span: float, mu: float) -> list:
    """Times, in s after the epoch, at which one satellite's argument from
    the relative node theta equals k pi + each of the ascending offsets
    (all within pi/2 of 0): one tuple per node passage k whose times reach
    into [0, span], in time order.

    nu0 and theta0 are the true anomaly and theta at the epoch.  theta
    advances with the true anomaly, which Kepler timing turns into time;
    the passages repeat at the orbital period.
    """
    n = math.sqrt(mu / a ** 3)
    period = 2.0 * math.pi / n
    m0 = _mean_anomaly(nu0, e)
    k0 = math.floor(theta0 / math.pi)  # the last passage at the epoch
    base = [[(_mean_anomaly(nu0 + k * math.pi - theta0 + off, e) - m0) / n
             for off in offsets] for k in (k0, k0 + 1)]
    out = []
    for rev in range(int((span - base[0][0]) // period) + 1):
        for times in base:
            shifted = tuple(x + rev * period for x in times)
            if shifted[0] <= span and shifted[-1] >= 0.0:
                out.append(shifted)
    return out


def _merge(windows: list) -> list:
    """Union of time-ordered windows (lo, hi) as disjoint windows."""
    out = []
    for lo, hi in windows:
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(hi, out[-1][1]))
        else:
            out.append((lo, hi))
    return out


def _intersect(a: list, b: list) -> list:
    """Intersection of two lists of disjoint time-ordered windows."""
    out, i, j = [], 0, 0
    while i < len(a) and j < len(b):
        lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
        if lo <= hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def _plane_geometry(oe: NodalRelativeState, pair) -> tuple:
    """(sin gamma, sats) of the plane bound of :func:`c2_check`: gamma =
    2 atan|dh| and, per satellite, (nu, e, a, theta) at the epoch, theta
    being its argument from the relative node; pair as in
    :func:`relstate._kepler_pair`."""
    nu1, e1, a1, nu2, e2, a2, _ = pair
    dh = oe.dh
    theta1 = math.atan2(oe.dh_y, oe.dh_x)
    return 2.0 * dh / (1.0 + dh * dh), ((nu1, e1, a1, theta1),
                                        (nu2, e2, a2, theta1 + oe.dtheta))


def _plane_windows(sin_gamma: float, sats: tuple, reach: float, t0: float,
                   tf: float, mu: float) -> Optional[list]:
    """Disjoint time-ordered windows reaching into [t0, tf] outside which
    the separation exceeds reach: the plane bound of :func:`c2_check`,
    with sin_gamma and sats from :func:`_plane_geometry`.  None when
    neither satellite's bound excludes any time."""
    eps = sys.float_info.epsilon
    bounded = []
    for nu0, e, a, theta0 in sats:
        floor = a * (1.0 - e) * sin_gamma  # r_p sin(gamma)
        if not reach < floor:
            continue
        beta = math.asin(reach / floor)
        pad = ROUNDING_ULPS * eps * (abs(t0) + abs(tf)
                                     + orbital_period(a, mu))
        bounded.append(_merge([
            (t0 + lo - pad, t0 + hi + pad)
            for lo, hi in _node_passages(nu0, e, a, theta0, (-beta, beta),
                                         tf - t0, mu)]))
    if not bounded:
        return None
    return bounded[0] if len(bounded) == 1 else _intersect(*bounded)


def _closing_speed(sats: tuple, mu: float) -> float:
    """The sum of the two periapsis speeds, sats as from
    :func:`_plane_geometry`: a bound on |d'(t)|, which is at most
    |v1 - v2| <= |v1| + |v2|."""
    return sum(math.sqrt(mu / (a * (1.0 - e * e))) * (1.0 + e)
               for _, e, a, _ in sats)


def _node_bound(oe: NodalRelativeState, pair, distance, t0: float,
                tf: float, mu: float):
    """(cand, windows, speed): cand the (d, t) of the window ends and of
    both satellites' relative-node crossings, windows the
    :func:`_plane_windows` of the best cand distance D with its slack, and
    speed the :func:`_closing_speed`; None when those windows would be."""
    sin_gamma, sats = _plane_geometry(oe, pair)
    if not sin_gamma > 0.0:
        return None
    cand = [(distance(t), t) for t in [t0, tf] + [
        t0 + tc for sat in sats
        for (tc,) in _node_passages(*sat, (0.0,), tf - t0, mu)
        if 0.0 <= tc <= tf - t0]]
    apo = max(a * (1.0 + e) for _, e, a, _ in sats)
    reach = (min(cand)[0] * (1.0 + PLANE_BOUND_SLACK)
             + ROUNDING_ULPS * sys.float_info.epsilon * apo)
    windows = _plane_windows(sin_gamma, sats, reach, t0, tf, mu)
    return (None if windows is None
            else (cand, windows, _closing_speed(sats, mu)))


def _node_window_minimum(distance, t_grid, cand: list, windows: list,
                         speed: float) -> tuple[float, float]:
    """(t, d) of the closest approach given the plane bound.

    Each window's samples are the window grid's own inside it and the cand
    crossings in it.  Its best sample is refined by :func:`_refine` between
    its two neighbours, a window end counting as a neighbour at distance D
    (the bound's), and a window without samples is refined whole.  No
    refinement is made where the best sample is the search's own first or
    last (as on the whole grid), or where no time in the bracket can beat
    the best distance so far: between (ta, da) and (tb, db) the distance
    is at least (da + db - speed (tb - ta)) / 2."""
    t0, tf = float(t_grid[0]), float(t_grid[-1])
    d_best, t_best = map(float, min(cand))
    d_node = d_best
    first = np.searchsorted(t_grid, [max(w[0], t0) for w in windows], "right")
    stop = np.searchsorted(t_grid, [min(w[1], tf) for w in windows], "left")
    sampled = np.concatenate([np.arange(i, j) for i, j in zip(first, stop)]
                             + [np.zeros(0, dtype=int)])
    d_grid = np.full(t_grid.size, np.inf)
    if sampled.size:
        d_grid[sampled] = distance(t_grid[sampled])
    for (lo, hi), i, j in zip(windows, first.tolist(), stop.tolist()):
        ends = [(d_node, t) for t in (lo, hi) if t0 < t < tf]
        pts = [(d, t) for d, t in cand if lo <= t <= hi]
        if j > i:
            g = i + int(np.argmin(d_grid[i:j]))
            pts.append((float(d_grid[g]), float(t_grid[g])))
        if pts:
            d_k, t_k = min(pts)
            if d_k < d_best:
                d_best, t_best = d_k, t_k
            if t_k in (t0, tf):
                continue
            m = int(np.searchsorted(t_grid, t_k))
            around = ends + pts + [(float(d_grid[n]), float(t_grid[n]))
                                   for n in (m - 1, m, m + 1) if i <= n < j]
            bracket = [max((p for p in around if p[1] < t_k),
                           key=lambda p: p[1], default=(d_k, t_k)),
                       (d_k, t_k),
                       min((p for p in around if p[1] > t_k),
                           key=lambda p: p[1], default=(d_k, t_k))]
        else:
            bracket = ends
        if min(da + db - speed * (tb - ta) for (da, ta), (db, tb)
               in zip(bracket, bracket[1:])) < 2.0 * d_best:
            t_ref, d_ref = _refine(distance, bracket[0][1], bracket[-1][1])
            if d_ref < d_best:
                d_best, t_best = d_ref, t_ref
    return t_best, d_best


def c2_check(oe: NodalRelativeState, eta: ReferenceParams,
             t0: float, tf: float, mu: float, miss_tol: float,
             u: Optional[Callable[[float], PerturbationInput]] = None,
             ) -> C2Result:
    """Search the window [t0, tf] for an actual close approach.

    The window grid has one sample per 1/200 of the shorter orbital period,
    and at least 2000.  A search refines its best sample by a bounded Brent
    minimization between the sample's two neighbours.  The bounds are times
    only: a golden bracket checked on single-time evaluations can fail
    against grid values from one vectorized Kepler solve, which differ in
    the last digits.  A collision is declared when the minimum distance is
    at most miss_tol (km).

    Without ``u`` the motion is the exact unperturbed flow, and one distance
    function serves every sample: radii, phase and rotated inclination
    vector from the coast kernel (:func:`dynamics._phase_sweep`), distance
    from the kernel of :func:`separation_distance`.  The planes then stay
    fixed, which bounds the search (Hoots, Crawford & Roehrich 1984, in
    nodal form):

    - Bound.  Satellite j lies r_j |sin theta_j| sin(gamma) from the other
      plane, theta_j its argument from the relative node and gamma =
      2 atan|dh|, so d(t) >= r_p,j sin(gamma) |sin theta_j(t)| with r_p,j
      its periapsis radius.  D is the best distance at the window ends and
      at both satellites' node crossings (theta_j = 0 mod pi, timed in
      closed form).  d < D is then possible only where |sin theta_j| <
      s_j = D / (r_p,j sin gamma) for both satellites; D carries a relative
      slack of PLANE_BOUND_SLACK and ROUNDING_ULPS of rounding allowance.
    - Intervals.  Kepler timing turns each satellite's angle intervals
      into time intervals, padded by ROUNDING_ULPS of timing rounding; the
      search covers the intersection of the two satellites' sets.  A
      satellite with s_j >= 1 constrains nothing and is dropped.
    - Search.  Each interval is searched: its samples are the window
      grid's own inside it and the node crossings in it, and its best
      sample is refined between its two neighbours, an interval end
      counting as a neighbour at distance D (the bound puts it there or
      above).  An interval without samples is refined whole.  A bracket is
      skipped where no time in it can beat the best distance so far, the
      rate of change of d being at most the sum of the periapsis speeds.
    - Fallback.  If both satellites are dropped (near-coplanar or
      far-apart pairs), the whole window grid is searched and refined,
      which is the result without the bound, bit for bit.

    With ``u`` the planes move, so the window grid is searched whole: the
    window is integrated once (DOP853 at relative tolerance RTOL), the
    samples are that solve's outputs at the grid times, and the refinement
    evaluates its dense interpolant in float arithmetic, so the objective
    and the grid come from one source.

    Raises
    ------
    ValueError
        If t0 or tf is not finite, tf does not exceed t0, miss_tol is
        not finite and >= 0, or mu is not finite and > 0.
    GeometryError
        If the recovered e2 of satellite 2 is not below 1.
    """
    for name, value in (("t0", t0), ("tf", tf)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not tf > t0:
        raise ValueError("tf must exceed t0")
    if not 0.0 <= miss_tol < math.inf:
        raise ValueError(f"miss_tol must be finite and >= 0, got {miss_tol}")
    _check_mu(mu)
    pair = _kepler_pair(*_floats(oe, eta))
    _, _, a1, _, e2, a2, _ = pair
    p_short = min(orbital_period(a1, mu), orbital_period(a2, mu))
    n_samples = int(max(math.ceil((tf - t0) / (p_short / 200.0)), 2000))
    t_grid = np.linspace(t0, tf, n_samples)

    if u is None:
        p1, p2 = eta.p1, eta.p1 * (1.0 + oe.dp)

        def distance(t):
            t, *fns = _trig(t)
            sin, cos = fns[:2]
            _, nu2, _, _, dtheta, hx, hy, ec = _phase_sweep(
                pair, (oe.dh_x, oe.dh_y), t - t0, mu, fns)
            half = 0.5 * dtheta
            return _separation(p1 / (1.0 + ec), p2 / (1.0 + e2 * cos(nu2)),
                               sin(half), cos(half), hx, hy)

        bound = _node_bound(oe, pair, distance, t0, tf, mu)
        if bound is None:
            t_best, d_best = _grid_minimum(distance, t_grid,
                                           distance(t_grid))
        else:
            t_best, d_best = _node_window_minimum(distance, t_grid, *bound)
    else:
        sol = _solve_nodal(oe, eta, t_grid, mu, u, True)

        def distance(t):
            dtheta, dp, dxx, dxy, hx, hy, p1, ec, es = sol.sol(t).tolist()
            c, s = math.cos(dtheta), math.sin(dtheta)
            denom = _radius_denominator(c, s, dxx, dxy, ec, es)
            if not denom > 0.0:
                return math.nan
            r1, r2 = _position_kernel(c, s, denom, dp, dxx, dxy, hx, hy,
                                      p1, ec, es)[:2]
            half = 0.5 * dtheta
            return _separation(r1, r2, math.sin(half), math.cos(half),
                               hx, hy)

        t_best, d_best = _grid_minimum(
            distance, t_grid,
            separation_distance(sol.y[:6].T, sol.y[6:].T))

    return C2Result(collides=d_best <= miss_tol, t_min=t_best, d_min=d_best)
