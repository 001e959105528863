import math
from dataclasses import replace

import numpy as np
import pytest

from scipy.optimize import brentq, minimize_scalar

from nodalrel import (
    MU_EARTH,
    C1Verdict,
    C2Result,
    CartesianState,
    ClassicalElements,
    GeometryError,
    NodalRelativeState,
    ReferenceParams,
    ZeroSensitivity,
    ZetaUndefined,
    apply_impulse,
    c1_test,
    c2_check,
    cartesian_to_elements,
    PerturbationInput,
    cowell_propagate,
    elements_to_cartesian,
    input_matrices,
    kepler_advance,
    oe_from_classical,
    orbital_period,
    plan_avoidance,
    propagate,
    relative_orientation,
    separation_distance,
    unperturbed_flow,
    zeta,
    zeta_gradient,
)

from nodalrel import conjunction
from nodalrel.dynamics import _anomaly_sweep, true_to_mean_anomaly
from nodalrel.missionsim import SCREENING_ROWS, ScenarioConfig, run_flyby
from nodalrel.relstate import _floats, _kepler_pair, _separation

from conftest import (EL1, EL2, classical_from_oe, ecc_inc_vectors,
                      random_elements)

MU = MU_EARTH


def pair_through_common_point(rng, coplanar=False):
    """Two elliptic orbits through a common random point (guaranteed C1)."""
    while True:
        r = rng.uniform(7e3, 2e4, size=3) * rng.choice([-1.0, 1.0], size=3)
        r_mag = np.linalg.norm(r)
        v_circ = math.sqrt(MU / r_mag)

        def random_velocity():
            v = rng.normal(size=3)
            v -= (v @ r) / (r_mag ** 2) * r * rng.uniform(0.0, 0.5)
            v = v / np.linalg.norm(v) * v_circ * rng.uniform(0.75, 1.15)
            return v

        v1 = random_velocity()
        if coplanar:
            h = np.cross(r, v1)
            v2 = random_velocity()
            v2 -= (v2 @ h) / (h @ h) * h  # force same plane
            if np.linalg.norm(v2) < 0.5 * v_circ:
                continue
            # keep the same orbit sense so gamma = 0, not pi
            if np.cross(r, v2) @ h < 0:
                v2 = -v2
        else:
            v2 = random_velocity()
        try:
            el1 = cartesian_to_elements(CartesianState(r=r, v=v1), MU)
            el2 = cartesian_to_elements(CartesianState(r=r, v=v2), MU)
        except Exception:
            continue
        if el1.e > 0.85 or el2.e > 0.85:
            continue
        try:
            rel = relative_orientation(el1, el2)
        except Exception:
            continue
        if not coplanar and rel.gamma < 1e-3:
            continue
        return el1, el2, r


def node_crossing_radii(el1, el2):
    """Independent geometric oracle: radii of both orbits at the two
    relative-node crossings, from the Cartesian node line."""
    s1 = elements_to_cartesian(el1, MU)
    s2 = elements_to_cartesian(el2, MU)
    h1 = np.cross(s1.r, s1.v)
    h2 = np.cross(s2.r, s2.v)
    node = np.cross(h1 / np.linalg.norm(h1), h2 / np.linalg.norm(h2))
    node /= np.linalg.norm(node)

    def radius_toward(el, direction):
        s = elements_to_cartesian(el, MU)
        h = np.cross(s.r, s.v)
        e_vec = np.cross(s.v, h) / MU - s.r / np.linalg.norm(s.r)
        e = np.linalg.norm(e_vec)
        p = el.p
        if e < 1e-14:
            return p
        cos_nu = float(e_vec @ direction) / e
        return p / (1.0 + e * cos_nu)

    out = {}
    for name, direction in (("asc", node), ("desc", -node)):
        out[name] = (radius_toward(el1, direction),
                     radius_toward(el2, direction))
    return out


def random_state(rng, dh_min=1e-3):
    while True:
        oe = NodalRelativeState(
            dtheta=rng.uniform(-2.5, 2.5), dp=rng.uniform(-0.5, 1.0),
            dxi_x=rng.uniform(-0.3, 0.3), dxi_y=rng.uniform(-0.3, 0.3),
            dh_x=rng.uniform(-0.6, 0.6), dh_y=rng.uniform(-0.6, 0.6))
        e1 = rng.uniform(0.0, 0.6)
        nu1 = rng.uniform(-math.pi, math.pi)
        eta = ReferenceParams(p1=rng.uniform(7e3, 5e4),
                              ec=e1 * math.cos(nu1), es=e1 * math.sin(nu1))
        if oe.dh < dh_min:
            continue
        if math.hypot(oe.dxi_x + eta.ec, oe.dxi_y + eta.es) >= 0.9:
            continue
        return oe, eta


class TestC1Branches:
    def test_equal_semiparameter_coplanar_always_intersects(self):
        oe = NodalRelativeState(0.4, 0.0, 0.1, -0.05, 0.0, 0.0)
        eta = ReferenceParams(p1=1e4, ec=0.2, es=0.1)
        verdict = c1_test(oe, eta)
        assert verdict.coplanar
        assert verdict.margin_coplanar <= 0.0
        assert verdict.satisfied

    def test_coplanar_nonelliptic_satellite_2_rejected(self):
        # e2 = |(dxi_x + ec, dxi_y + es)| = 1: no closed orbit matches.
        oe = NodalRelativeState(0.4, 0.0, 0.8, -0.1, 0.0, 0.0)
        eta = ReferenceParams(p1=1e4, ec=0.2, es=0.1)
        with pytest.raises(GeometryError, match="e2"):
            c1_test(oe, eta)

    def test_unsafe_at_quarter_phase(self):
        # dp = 0 with the eccentricity/inclination vectors at right angles:
        # the node-crossing mismatch vanishes.
        oe = NodalRelativeState(0.3, 0.0, 0.15, 0.0, 0.0, 0.2)
        eta = ReferenceParams(p1=1e4, ec=0.0, es=0.0)
        out = ecc_inc_vectors(oe, eta)
        assert abs(abs(out.dphi) - math.pi / 2) < 1e-12
        verdict = c1_test(oe, eta)
        assert abs(verdict.margin_ascending) < 1e-15
        assert verdict.satisfied_ascending

    def test_safe_at_parallel_phase(self):
        oe = NodalRelativeState(0.3, 0.0, 0.15, 0.0, 0.2, 0.0)
        eta = ReferenceParams(p1=1e4, ec=0.0, es=0.0)
        out = ecc_inc_vectors(oe, eta)
        assert abs(out.dphi) < 1e-12
        verdict = c1_test(oe, eta)
        assert abs(verdict.margin_ascending + 0.15) < 1e-15
        assert abs(verdict.margin_descending - 0.15) < 1e-15
        assert not verdict.satisfied

    def test_circular_reference_reduction(self):
        # e1 = 0 coplanar margin reduces to dp^2 - dxi^2.
        rng = np.random.default_rng(50)
        for _ in range(50):
            oe = NodalRelativeState(
                dtheta=rng.uniform(-2, 2), dp=rng.uniform(-0.4, 0.8),
                dxi_x=rng.uniform(-0.4, 0.4), dxi_y=rng.uniform(-0.4, 0.4),
                dh_x=0.0, dh_y=0.0)
            eta = ReferenceParams(p1=1e4, ec=0.0, es=0.0)
            verdict = c1_test(oe, eta)
            assert verdict.coplanar
            assert abs(verdict.margin_coplanar
                       - (oe.dp ** 2 - oe.dxi ** 2)) < 1e-14

    def test_coplanar_margin_solvability_oracle(self):
        # dp^2 - drho^2 <= 0 must coincide with the existence of a radial
        # crossing of the two coplanar orbits (dense sweep oracle).
        rng = np.random.default_rng(51)
        for _ in range(200):
            el1, el2, _ = pair_through_common_point(rng, coplanar=True)
            oe, eta = oe_from_classical(el1, el2)
            rec = classical_from_oe(oe, eta)
            # sweep true longitude: radii of both orbits about the common
            # focus; intersection iff the radial gap changes sign
            phi = np.linspace(-math.pi, math.pi, 4001)
            nu1_grid = phi  # measured from orbit-1 periapsis
            r1 = el1.p / (1 + el1.e * np.cos(nu1_grid))
            # orbit-2 anomaly at the same inertial direction
            nu2_grid = nu1_grid - rec.dlambda
            r2 = el2.p / (1 + rec.e2 * np.cos(nu2_grid))
            gap = r2 - r1
            intersects = bool(np.nanmin(gap) <= 0.0 <= np.nanmax(gap))
            verdict = c1_test(oe, eta)
            assert verdict.coplanar
            assert verdict.satisfied_coplanar == intersects or \
                abs(verdict.margin_coplanar) < 1e-10

    def test_constructed_intersecting_pairs_satisfy_c1(self):
        rng = np.random.default_rng(52)
        for _ in range(300):
            el1, el2, r = pair_through_common_point(rng)
            oe, eta = oe_from_classical(el1, el2)
            verdict = c1_test(oe, eta)
            s1 = elements_to_cartesian(el1, MU)
            h1 = np.cross(s1.r, s1.v)
            s2 = elements_to_cartesian(el2, MU)
            h2 = np.cross(s2.r, s2.v)
            node = np.cross(h1, h2)
            ascending = float(r @ node) > 0.0
            if ascending:
                assert abs(verdict.margin_ascending) <= 1e-9
            else:
                assert abs(verdict.margin_descending) <= 1e-9
            assert verdict.satisfied

    def test_separated_pairs_fail_c1(self):
        # pairs with genuine radial separation at both node crossings,
        # verified by the independent Cartesian node-radius oracle
        rng = np.random.default_rng(53)
        count = 0
        while count < 300:
            el1 = random_elements(rng, e_range=(0.0, 0.5))
            el2 = random_elements(rng, e_range=(0.0, 0.5))
            try:
                rel = relative_orientation(el1, el2)
            except Exception:
                continue
            if rel.gamma < 1e-3:
                continue
            radii = node_crossing_radii(el1, el2)
            sep = min(abs(radii["asc"][0] - radii["asc"][1]),
                      abs(radii["desc"][0] - radii["desc"][1]))
            if sep < 1.0:  # km; too close to the intersection manifold
                continue
            oe, eta = oe_from_classical(el1, el2)
            verdict = c1_test(oe, eta)
            assert not verdict.satisfied
            count += 1


def reference_c2(oe, eta, t0, tf, mu, miss_tol, grid_distance,
                 scalar_distance):
    """c2_check's grid and bounded-Brent refinement written out, with the
    separation history given by the caller: grid_distance(t_grid) for the
    samples and scalar_distance(t) for each refinement evaluation.  Brent
    runs on the offset s = t - lo from the bracket's lower end."""
    e1 = eta.e1
    a1 = eta.p1 / (1.0 - e1 * e1)
    e2 = math.hypot(oe.dxi_x + eta.ec, oe.dxi_y + eta.es)
    a2 = eta.p1 * (1.0 + oe.dp) / (1.0 - e2 * e2)
    p_short = min(orbital_period(a1, mu), orbital_period(a2, mu))
    n_samples = int(max(math.ceil((tf - t0) / (p_short / 200.0)), 2000))
    t_grid = np.linspace(t0, tf, n_samples)
    d_grid = grid_distance(t_grid)

    k = int(np.nanargmin(d_grid))
    t_best, d_best = float(t_grid[k]), float(d_grid[k])

    if 0 < k < n_samples - 1 and d_best < d_grid[k - 1] and d_best < d_grid[k + 1]:
        lo = float(t_grid[k - 1])
        res = minimize_scalar(
            lambda s: scalar_distance(lo + s),
            bounds=(0.0, float(t_grid[k + 1]) - lo),
            method="bounded", options={"xatol": 1e-9, "maxiter": 200})
        if res.fun < d_best:
            t_best, d_best = lo + float(res.x), float(res.fun)

    return C2Result(collides=d_best <= miss_tol, t_min=t_best, d_min=d_best)


def reference_c2_perturbed(oe, eta, t0, tf, mu, miss_tol, u, rtol=1e-12):
    """c2_check with a perturbing input as it was before the refinement
    evaluated the grid solve's dense output: the grid comes from one
    propagate call and every refinement evaluation re-integrates from t0.
    Kept as the reference for the perturbed path."""
    def grid_distance(t_grid):
        traj = propagate(oe, eta, t_grid, mu, u=u, rtol=rtol)
        return separation_distance(traj.oe, traj.eta)

    def scalar_distance(t):
        sub = propagate(oe, eta, [t0, max(t, t0 + 1e-9)], mu, u=u,
                        rtol=rtol)
        return float(separation_distance(sub.oe, sub.eta)[-1])

    return reference_c2(oe, eta, t0, tf, mu, miss_tol, grid_distance,
                        scalar_distance)


def reference_c2_unperturbed(oe, eta, t0, tf, mu, miss_tol):
    """c2_check without input as it was before the refinement evaluated
    scalar Kepler timing: every objective evaluation is a vectorized
    unperturbed_flow and separation_distance call on a one-element time
    array.  Kept as the reference for the unperturbed path."""
    def distance_at(t):
        return separation_distance(
            *unperturbed_flow(oe, eta, mu, np.atleast_1d(t) - t0))

    return reference_c2(oe, eta, t0, tf, mu, miss_tol, distance_at,
                        lambda t: float(distance_at(t)[0]))


#: Perturbed-screen pairs: common-point pairs coasted back LEAD seconds and
#: screened over [0, WINDOW] under a constant RTN acceleration of ACCEL
#: (km/s^2) on each satellite.
PERTURBED_LEAD, PERTURBED_WINDOW, PERTURBED_ACCEL = 400.0, 1000.0, 1e-6


def perturbed_pairs(seed, count):
    """(el1, el2, a1, a2) at t = 0: elements and RTN accelerations."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        el1, el2, _ = pair_through_common_point(rng)
        a1, a2 = (PERTURBED_ACCEL * v / np.linalg.norm(v)
                  for v in rng.normal(size=(2, 3)))
        out.append((kepler_advance(el1, -PERTURBED_LEAD, MU),
                    kepler_advance(el2, -PERTURBED_LEAD, MU), a1, a2))
    return out


def constant_input(a1, a2):
    pin = PerturbationInput(u1=a1, u2=a2)
    return lambda _t: pin


def cowell_min_distance(el1, el2, tf, a1, a2):
    """Minimum separation over [0, tf] from the Cowell oracle: the best
    sample of a 4001-point grid, resampled over its two neighbouring
    intervals every 5e-4 s or finer, and the vertex of the parabola in d^2
    through the best resample and its neighbours."""
    s1, s2 = (elements_to_cartesian(el, MU) for el in (el1, el2))
    kw = dict(u1=lambda _t: a1, u2=lambda _t: a2, rtol=1e-12)
    coarse = cowell_propagate(s1, s2, np.linspace(0.0, tf, 4001), MU, **kw)
    k = int(np.argmin(np.linalg.norm(coarse.r1 - coarse.r2, axis=1)))
    lo, hi = coarse.t[max(k - 1, 0)], coarse.t[min(k + 1, coarse.t.size - 1)]
    t_fine = np.linspace(lo, hi, 2001)
    fine = cowell_propagate(s1, s2, np.union1d(0.0, t_fine), MU, **kw)
    d2 = np.sum((fine.r1 - fine.r2)[-t_fine.size:] ** 2, axis=1)
    j = min(max(int(np.argmin(d2)), 1), d2.size - 2)
    curv = d2[j + 1] - 2.0 * d2[j] + d2[j - 1]
    d2_min = d2[j] - (d2[j + 1] - d2[j - 1]) ** 2 / (8.0 * curv)
    return math.sqrt(max(d2_min, 0.0))


class TestC2:
    def test_phase_offset_on_same_orbit_never_collides(self):
        el1 = EL1
        el2 = ClassicalElements(a=EL1.a, e=EL1.e, i=EL1.i, raan=EL1.raan,
                                argp=EL1.argp, nu=EL1.nu + 0.3)
        oe, eta = oe_from_classical(el1, el2)
        period = orbital_period(EL1.a, MU)
        res = c2_check(oe, eta, 0.0, 2 * period, MU, miss_tol=1.0)
        assert not res.collides
        assert res.d_min > 100.0

    @pytest.mark.parametrize("t0, tf, miss_tol, name", [
        (0.0, math.inf, 1.0, "tf"), (0.0, math.nan, 1.0, "tf"),
        (-math.inf, 3000.0, 1.0, "t0"), (math.nan, 3000.0, 1.0, "t0"),
        # a negative tolerance would report collides=False on every pair
        (0.0, 3000.0, -5.0, "miss_tol"), (0.0, 3000.0, math.nan, "miss_tol"),
        (0.0, 3000.0, math.inf, "miss_tol"),
    ])
    def test_invalid_window_or_tolerance_rejected(self, t0, tf, miss_tol,
                                                  name):
        oe, eta = oe_from_classical(EL1, EL2)
        with pytest.raises(ValueError, match=rf"^{name} must be finite"):
            c2_check(oe, eta, t0, tf, MU, miss_tol=miss_tol)

    def test_constructed_impact_is_found(self):
        rng = np.random.default_rng(54)
        el1, el2, r = pair_through_common_point(rng)
        # both satellites placed AT the common point now: collision at t=0;
        # move satellite 2 back along its own orbit by a small time offset
        # so the collision happens inside the window
        from nodalrel import kepler_advance
        t_hit = 600.0
        el1_start = kepler_advance(el1, -t_hit, MU)
        el2_start = kepler_advance(el2, -t_hit, MU)
        oe, eta = oe_from_classical(el1_start, el2_start)
        res = c2_check(oe, eta, 0.0, 3000.0, MU, miss_tol=1.0)
        assert res.collides
        assert abs(res.t_min - t_hit) < 5.0
        assert res.d_min <= 1.0

    def test_collision_midway_between_samples(self):
        # Pairs whose closest approach falls midway between two grid
        # samples: a golden bracket built from the vectorized grid failed
        # scipy's check on single-time evaluations and raised ValueError.
        from nodalrel import kepler_advance
        rng = np.random.default_rng(7)
        drawn = [pair_through_common_point(rng) for _ in range(174)]
        for i in (45, 134, 139, 173):
            el1, el2, _ = drawn[i]
            oe, eta = oe_from_classical(kepler_advance(el1, -3000.0, MU),
                                        kepler_advance(el2, -3000.0, MU))
            res = c2_check(oe, eta, 0.0, 6000.0, MU, miss_tol=1.0)
            assert res.collides
            assert abs(res.t_min - 3000.0) <= 1e-3

    def test_refinement_goes_through_the_hook(self, monkeypatch):
        # The benchmark counts conjunction.golden_evals by wrapping
        # conjunction.minimize_scalar, so _refine must look it up per call.
        from nodalrel import kepler_advance
        el1, el2, _ = pair_through_common_point(np.random.default_rng(54))
        oe, eta = oe_from_classical(kepler_advance(el1, -600.0, MU),
                                    kepler_advance(el2, -600.0, MU))
        expected = c2_check(oe, eta, 0.0, 3000.0, MU, miss_tol=1.0)
        original, evals = conjunction.minimize_scalar, []

        def recording(*args, **kwargs):
            res = original(*args, **kwargs)
            evals.append(res.nfev)
            return res

        monkeypatch.setattr(conjunction, "minimize_scalar", recording)
        assert c2_check(oe, eta, 0.0, 3000.0, MU, miss_tol=1.0) == expected
        assert expected.collides and evals and min(evals) > 0

    def test_unperturbed_matches_vectorized_reference(self):
        lead = PERTURBED_LEAD
        for el1, el2, _, _ in perturbed_pairs(63, 4):
            for dt2 in (0.0, 2.0):
                # dt2 > 0 moves satellite 2 back along its orbit: a near
                # miss instead of a collision.
                oe, eta = oe_from_classical(
                    el1, kepler_advance(el2, -dt2, MU))
                res = c2_check(oe, eta, 0.0, PERTURBED_WINDOW, MU,
                               miss_tol=1.0)
                if dt2 == 0.0:
                    assert res.collides
                    assert res.d_min <= 1e-4
                    assert abs(res.t_min - lead) <= 1e-3
                else:
                    ref = reference_c2_unperturbed(
                        oe, eta, 0.0, PERTURBED_WINDOW, MU, 1.0)
                    assert abs(res.d_min - ref.d_min) <= 1e-6
                    assert abs(res.t_min - ref.t_min) <= 1e-6
                    assert res.collides == ref.collides

    def test_perturbed_matches_reintegrating_reference(self):
        for el1, el2, a1, a2 in perturbed_pairs(60, 4):
            oe, eta = oe_from_classical(el1, el2)
            u = constant_input(a1, a2)
            res = c2_check(oe, eta, 0.0, PERTURBED_WINDOW, MU, miss_tol=1.0,
                           u=u)
            ref = reference_c2_perturbed(oe, eta, 0.0, PERTURBED_WINDOW, MU,
                                         1.0, u)
            assert abs(res.t_min - ref.t_min) <= 1e-4
            assert abs(res.d_min - ref.d_min) <= 1e-5
            assert res.collides == ref.collides

    def test_perturbed_matches_cowell_oracle(self):
        misses = []
        for el1, el2, a1, a2 in perturbed_pairs(61, 4):
            oe, eta = oe_from_classical(el1, el2)
            res = c2_check(oe, eta, 0.0, PERTURBED_WINDOW, MU, miss_tol=1.0,
                           u=constant_input(a1, a2))
            d_ref = cowell_min_distance(el1, el2, PERTURBED_WINDOW, a1, a2)
            assert abs(res.d_min - d_ref) <= 1e-3
            misses.append(d_ref)
        # The thrust moves every pair off its unperturbed collision.
        assert min(misses) > 1e-3

    def test_zero_input_matches_unperturbed_path(self):
        zero = PerturbationInput(u1=np.zeros(3), u2=np.zeros(3))
        for el1, el2, _, _ in perturbed_pairs(62, 4):
            for dt2 in (0.0, 0.2, 2.0):
                # dt2 > 0 moves satellite 2 back along its orbit: a near
                # miss instead of a collision.
                oe, eta = oe_from_classical(
                    el1, kepler_advance(el2, -dt2, MU))
                free = c2_check(oe, eta, 0.0, PERTURBED_WINDOW, MU,
                                miss_tol=1.0)
                res = c2_check(oe, eta, 0.0, PERTURBED_WINDOW, MU,
                               miss_tol=1.0, u=lambda _t: zero)
                # The refinement evaluates the DOP853 dense interpolant: on
                # these near misses it is off the exact flow by 4.2e-8 km.
                tol = 1e-6 if dt2 == 0.0 else 1e-5
                assert abs(res.d_min - free.d_min) <= tol
                assert abs(res.t_min - free.t_min) <= 1e-3
                assert res.collides == free.collides

    def test_collision_implies_c1(self):
        rng = np.random.default_rng(55)
        hits = 0
        for _ in range(60):
            el1 = random_elements(rng, e_range=(0.0, 0.4))
            el2 = random_elements(rng, e_range=(0.0, 0.4))
            try:
                oe, eta = oe_from_classical(el1, el2)
            except Exception:
                continue
            period = max(orbital_period(el1.a, MU),
                         orbital_period(el2.a, MU))
            res = c2_check(oe, eta, 0.0, period, MU, miss_tol=200.0)
            if res.collides:
                verdict = c1_test(oe, eta)
                assert not verdict.coplanar
                assert min(abs(verdict.margin_ascending),
                           abs(verdict.margin_descending)) <= 1e-2
                hits += 1
        # statistics only; random pairs rarely pass within 200 km
        del hits


def coast_distance(oe, eta, t0):
    """c2_check's unperturbed distance as the whole-window grid search
    evaluated it: the coast kernel's anomalies, phase and rotated
    inclination vector, and the half-phase separation, on float or array
    times."""
    pair = _kepler_pair(*_floats(oe, eta))
    p1, p2, e2 = eta.p1, eta.p1 * (1.0 + oe.dp), pair[4]

    def distance(t):
        sin, cos = (np.sin, np.cos) if np.ndim(t) else (math.sin, math.cos)
        _, nu2, _, _, dtheta, _, _, hx, hy, ec, _ = _anomaly_sweep(
            pair, (oe.dh_x, oe.dh_y), t - t0, MU)
        half = 0.5 * dtheta
        return _separation(p1 / (1.0 + ec), p2 / (1.0 + e2 * cos(nu2)),
                           sin(half), cos(half), hx, hy)

    return distance


def assert_no_worse_than_grid(oe, eta, t0, tf, mu, miss_tol):
    """The node-window search against the whole-window grid reference:
    never a larger minimum (beyond rounding), the same verdict."""
    res = c2_check(oe, eta, t0, tf, mu, miss_tol=miss_tol)
    ref = reference_c2_unperturbed(oe, eta, t0, tf, mu, miss_tol)
    assert res.d_min <= ref.d_min * (1.0 + 1e-7) + 1e-9
    assert res.collides == ref.collides
    return res


@pytest.fixture(scope="module")
def desk_flyby():
    """The desk flyby at a 600 s cadence: its config and run."""
    cfg = replace(ScenarioConfig(), sample_dt=600.0)
    return cfg, run_flyby(cfg)


class TestNodeWindowSearch:
    """The unperturbed C2 search over the plane bound's node windows,
    against the whole-window grid and Brent reference."""

    def test_common_point_collisions_and_near_misses(self):
        rng = np.random.default_rng(64)
        for _ in range(6):
            el1, el2, _ = pair_through_common_point(rng)
            el1 = kepler_advance(el1, -PERTURBED_LEAD, MU)
            for dt2 in (0.0, 0.3, 2.0, 20.0):
                # dt2 > 0 moves satellite 2 back along its orbit: a near
                # miss instead of a collision.
                oe, eta = oe_from_classical(
                    el1, kepler_advance(el2, -PERTURBED_LEAD - dt2, MU))
                res = assert_no_worse_than_grid(oe, eta, 0.0,
                                                PERTURBED_WINDOW, MU, 1.0)
                if dt2 == 0.0:
                    assert res.d_min <= 1e-6
                    assert abs(res.t_min - PERTURBED_LEAD) <= 1e-6

    def test_separated_pairs(self):
        # Random states over up to five periods: thousands of km apart, some
        # bounded and some falling back to the whole grid; the longer
        # windows have more node crossings than are timed one by one.
        rng = np.random.default_rng(65)
        for _ in range(20):
            oe, eta = random_state(rng)
            a1 = eta.p1 / (1.0 - eta.e1 ** 2)
            tf = rng.uniform(0.1, 5.0) * orbital_period(a1, MU)
            assert_no_worse_than_grid(oe, eta, 0.0, tf, MU, 1.0)

    def test_midway_fault_pairs(self):
        rng = np.random.default_rng(7)
        drawn = [pair_through_common_point(rng) for _ in range(174)]
        for i in (45, 134, 139, 173):
            el1, el2, _ = drawn[i]
            oe, eta = oe_from_classical(kepler_advance(el1, -3000.0, MU),
                                        kepler_advance(el2, -3000.0, MU))
            assert_no_worse_than_grid(oe, eta, 0.0, 6000.0, MU, 1.0)

    def test_desk_screening_rows(self, desk_flyby):
        # The flyby's screening rows: the filter's estimate at ~2.4 AU,
        # screened to 6 h past the encounter.
        cfg, flyby = desk_flyby
        n = flyby.truth.t.size
        for k in range(0, n, 10 * max(1, n // SCREENING_ROWS)):
            assert_no_worse_than_grid(
                NodalRelativeState.from_array(flyby.run.oe_hat[k]),
                ReferenceParams.from_array(flyby.truth.eta[k]),
                float(flyby.truth.t[k]), -cfg.t_end, cfg.mu, 1.0)

    def test_refinement_does_not_depend_on_time_origin(self, desk_flyby):
        # One desk estimate row screened over the same span with its times
        # shifted: scipy's bounded Brent tolerance grows with the magnitude
        # of its variable, so the refinement must run on offsets.
        cfg, flyby = desk_flyby
        k = 2800
        oe = NodalRelativeState.from_array(flyby.run.oe_hat[k])
        eta = ReferenceParams.from_array(flyby.truth.eta[k])
        t0, tf = float(flyby.truth.t[k]), -cfg.t_end
        ref = c2_check(oe, eta, t0, tf, cfg.mu, miss_tol=1.0)
        for shift in (1.7e6, 1.7e8):
            res = c2_check(oe, eta, t0 + shift, tf + shift, cfg.mu,
                           miss_tol=1.0)
            assert abs(res.d_min - ref.d_min) <= 1e-6 * ref.d_min
            assert abs(res.t_min - shift - ref.t_min) <= 1e-3

    @pytest.mark.parametrize("dt_a, dr, miss_tol", [(0.15, 0.5, 0.3),
                                                     (0.3, 0.65, 0.6)])
    def test_closer_encounter_with_larger_crossing_distances(self, dt_a, dr,
                                                             miss_tol):
        # Near misses at both relative nodes of one window.  At node A the
        # orbits cross and satellite 2 trails by dt_a, nearly head-on, so
        # the minimum is a quarter of the crossing distances.  At node B
        # both arrive together dr apart radially: its crossing distance is
        # D, and A's interval is narrower than the grid spacing.  With
        # dt_a = 0.3 s it holds neither crossing, so it has no samples.
        def orbit(p, c, s, i):
            # (c, s) = e (cos, sin) of periapsis from the node line (raan)
            e, w = math.hypot(c, s), math.atan2(s, c)
            return ClassicalElements(a=p / (1.0 - e * e), e=e, i=i,
                                     raan=0.4, argp=w, nu=-w)

        def a_to_b(el):
            m_a, m_b = (true_to_mean_anomaly(nu, el.e)
                        for nu in (-el.argp, math.pi - el.argp))
            return (m_b - m_a) % (2.0 * math.pi) / math.sqrt(MU / el.a ** 3)

        p, c = 9000.0, 0.1
        r_a, r_b = p / (1.0 + c), p / (1.0 - c) + dr
        p2 = 2.0 * r_a * r_b / (r_a + r_b)
        el1 = orbit(p, c, 0.2, 0.3)
        s2 = brentq(lambda s: a_to_b(orbit(p2, p2 / r_a - 1.0, s, 3.1))
                    + dt_a - a_to_b(el1), 0.0, 0.4)
        el2 = orbit(p2, p2 / r_a - 1.0, s2, 3.1)
        t_a, t_b = 200.0, 200.0 + a_to_b(el1)
        oe, eta = oe_from_classical(kepler_advance(el1, -t_a, MU),
                                    kepler_advance(el2, -t_a - dt_a, MU))
        distance = coast_distance(oe, eta, 0.0)
        near_a = minimize_scalar(distance, bounds=(t_a - 1.0, t_a + 1.0),
                                 method="bounded", options={"xatol": 1e-9})
        assert (near_a.fun < miss_tol < distance(t_b)
                < min(distance(t_a), distance(t_a + dt_a)))
        res = c2_check(oe, eta, 0.0, t_b + 200.0, MU, miss_tol=miss_tol)
        assert res.collides
        assert res.d_min <= near_a.fun * (1.0 + 1e-7) + 1e-9

    @pytest.mark.parametrize("case", ["coplanar", "far_apart"])
    def test_fallback_is_the_grid_result_bitwise(self, case):
        # Where the bound excludes no time, the search is the whole-window
        # grid and its refinement, bit for bit.
        el1 = ClassicalElements(a=7000.0, e=0.01, i=0.9, raan=0.3, argp=0.2,
                                nu=0.1)
        if case == "coplanar":
            el2 = replace(el1, a=7100.0, e=0.02, nu=2.0)
        else:
            el2 = replace(el1, a=7100.0, i=2.0, raan=-1.0, nu=2.5)
        oe, eta = oe_from_classical(el1, el2)
        t0, tf = 100.0, 700.0
        distance = coast_distance(oe, eta, t0)
        assert conjunction._node_bound(oe, _kepler_pair(*_floats(oe, eta)),
                                       distance, t0, tf, MU) is None
        ref = reference_c2(oe, eta, t0, tf, MU, 1.0, distance, distance)
        assert c2_check(oe, eta, t0, tf, MU, miss_tol=1.0) == ref


class TestZeta:
    def test_zero_at_origin_shape(self):
        oe = NodalRelativeState(0.2, 0.0, 0.0, 0.0, 0.1, 0.05)
        eta = ReferenceParams(p1=1e4, ec=0.2, es=0.0)
        assert zeta(oe, eta) == 0.0

    def test_circular_reference_form(self):
        rng = np.random.default_rng(56)
        for _ in range(25):
            oe, _ = random_state(rng)
            eta = ReferenceParams(p1=1e4, ec=0.0, es=0.0)
            oe0 = NodalRelativeState(oe.dtheta, 0.0, oe.dxi_x, oe.dxi_y,
                                     oe.dh_x, oe.dh_y)
            out = ecc_inc_vectors(oe0, eta)
            if not out.dphi_defined:
                continue
            assert abs(zeta(oe0, eta)
                       + out.dxi_mag * math.cos(out.dphi)) < 1e-12

    def test_two_printed_forms_agree(self):
        rng = np.random.default_rng(57)
        for _ in range(200):
            oe, eta = random_state(rng)
            rec = classical_from_oe(oe, eta)
            out = ecc_inc_vectors(oe, eta)
            form1 = (oe.dp * (1.0 + eta.e1 * math.cos(rec.lambda1))
                     - out.dxi_mag * math.cos(out.dphi)
                     if out.dphi_defined else
                     oe.dp * (1.0 + eta.e1 * math.cos(rec.lambda1)))
            assert abs(zeta(oe, eta) - form1) < 1e-12

    def test_matches_ascending_margin(self):
        rng = np.random.default_rng(58)
        for _ in range(50):
            oe, eta = random_state(rng)
            verdict = c1_test(oe, eta)
            assert abs(zeta(oe, eta) - verdict.margin_ascending) < 1e-15
            assert abs(conjunction._node_margins(oe, eta)[1]
                       - verdict.margin_descending) < 1e-15

    def test_invariant_along_unperturbed_flow(self):
        oe, eta = oe_from_classical(EL1, EL2)
        z0 = zeta(oe, eta)
        t = np.linspace(0.0, 3 * orbital_period(EL1.a, MU), 50)
        oe_arr, eta_arr = unperturbed_flow(oe, eta, MU, t)
        for k in range(t.size):
            zk = zeta(NodalRelativeState.from_array(oe_arr[k]),
                      ReferenceParams.from_array(eta_arr[k]))
            assert abs(zk - z0) < 1e-12

    def test_undefined_for_coplanar(self):
        oe = NodalRelativeState(0.1, 0.2, 0.1, 0.0, 0.0, 0.0)
        eta = ReferenceParams(p1=1e4, ec=0.0, es=0.0)
        with pytest.raises(ZetaUndefined):
            zeta(oe, eta)
        with pytest.raises(ZetaUndefined):
            zeta_gradient(oe, eta)


class TestZetaGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            oe, eta = random_state(rng, dh_min=0.05)
            d_oe, d_eta = zeta_gradient(oe, eta)
            x = np.concatenate([oe.as_array(), eta.as_array()])
            grad = np.concatenate([d_oe, d_eta])

            def f(z):
                return zeta(NodalRelativeState.from_array(z[:6]),
                            ReferenceParams.from_array(z[6:]))

            for col in range(9):
                step = 1e-7 * max(abs(x[col]), 1.0)
                xp, xm = x.copy(), x.copy()
                xp[col] += step
                xm[col] -= step
                fd = (f(xp) - f(xm)) / (2 * step)
                scale = max(np.abs(grad).max(), 1e-9)
                assert abs(grad[col] - fd) / scale < 1e-6

    def test_dp_partial_circular_reference(self):
        oe = NodalRelativeState(0.1, 0.05, 0.1, -0.2, 0.2, 0.1)
        eta = ReferenceParams(p1=1e4, ec=0.0, es=0.0)
        d_oe, _ = zeta_gradient(oe, eta)
        assert abs(d_oe[1] - 1.0) < 1e-15

    def test_dtheta_partial_vanishes(self):
        rng = np.random.default_rng(60)
        oe, eta = random_state(rng)
        d_oe, d_eta = zeta_gradient(oe, eta)
        assert d_oe[0] == 0.0
        assert d_eta[0] == 0.0


class TestPlanAvoidance:
    def test_linearity_in_delta_zeta(self):
        oe, eta = oe_from_classical(EL1, EL2)
        p1 = plan_avoidance(oe, eta, 1e-4, MU)
        p2 = plan_avoidance(oe, eta, 2e-4, MU)
        assert np.abs(p2.delta_v - 2.0 * p1.delta_v).max() < 1e-18
        assert abs(np.linalg.norm(p2.delta_v)
                   - 2.0 * np.linalg.norm(p1.delta_v)) < 1e-18

    def test_plan_invariants(self):
        oe, eta = oe_from_classical(EL1, EL2)
        plan = plan_avoidance(oe, eta, 5e-4, MU)
        gnorm = np.linalg.norm(plan.g_vec)
        cross = np.cross(plan.delta_v, plan.g_vec)
        assert np.abs(cross).max() < 1e-12 * gnorm * np.linalg.norm(
            plan.delta_v) + 1e-300
        assert abs(np.linalg.norm(plan.delta_v)
                   - abs(plan.delta_zeta) / gnorm) < 1e-12

    def test_first_order_zeta_change(self):
        # apply the impulse through the Cartesian machinery and verify the
        # zeta change converges to delta_zeta at first order
        el1, el2 = EL1, EL2
        oe0, eta0 = oe_from_classical(el1, el2)
        z0 = zeta(oe0, eta0)

        def achieved(dz):
            plan = plan_avoidance(oe0, eta0, dz, MU)
            s1 = apply_impulse(elements_to_cartesian(el1, MU), plan.delta_v)
            el1_new = cartesian_to_elements(s1, MU)
            oe1, eta1 = oe_from_classical(el1_new, el2)
            return zeta(oe1, eta1) - z0

        dz = 2e-4
        err_full = abs(achieved(dz) - dz)
        err_half = abs(achieved(dz / 2) - dz / 2)
        assert err_full / dz < 0.05
        # quadratic remainder: halving dz cuts the error ~4x
        assert err_half < 0.4 * err_full

    def test_minimum_norm_among_feasible_directions(self):
        rng = np.random.default_rng(61)
        oe, eta = oe_from_classical(EL1, EL2)
        dz = 1e-4
        plan = plan_avoidance(oe, eta, dz, MU)
        best = np.linalg.norm(plan.delta_v)
        for _ in range(100):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            g_dot = float(plan.g_vec @ d)
            if abs(g_dot) < 1e-12:
                continue
            candidate = dz / g_dot * d
            assert np.linalg.norm(candidate) >= best - 1e-15

    def test_zero_sensitivity_raises(self, monkeypatch):
        oe = NodalRelativeState(0.0, 0.0, 0.0, 0.0, 0.1, 0.0)
        eta = ReferenceParams(p1=1e4, ec=0.0, es=0.0)
        monkeypatch.setattr(conjunction, "MIN_SENSITIVITY", 1e9)
        with pytest.raises(ZeroSensitivity):
            plan_avoidance(oe, eta, 1e-4, MU)
