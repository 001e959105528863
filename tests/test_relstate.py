import math

import numpy as np
import pytest

from nodalrel import (
    MU_EARTH,
    ClassicalElements,
    GeometryError,
    NodalRelativeState,
    ReferenceParams,
    oe_from_classical,
    position_jacobians,
    relative_orientation,
    relative_position,
    relative_position_batch,
    separation_distance,
    unperturbed_flow,
    wrap_angle,
)
from nodalrel.relstate import _floats, _scalar_position

from conftest import (EL1, EL2, cartesian_relative_state, classical_from_oe,
                      dxi_magnitude, ecc_inc_vectors, haversine_psi,
                      orbit_radius, perturbed_derivative, random_pair,
                      reference_e1, reference_nu1)


def relative_velocity(oe, eta, mu) -> np.ndarray:
    """Time derivative of the RTN1 relative position under unperturbed
    motion, by the chain rule through the analytic position Jacobians."""
    doe, deta = perturbed_derivative(oe, eta, None, mu)
    j_oe, j_eta = position_jacobians(oe, eta)
    return j_oe @ doe + j_eta @ deta


def random_state(rng, dh_min=0.0):
    while True:
        oe = NodalRelativeState(
            dtheta=rng.uniform(-2.5, 2.5), dp=rng.uniform(-0.5, 1.5),
            dxi_x=rng.uniform(-0.4, 0.4), dxi_y=rng.uniform(-0.4, 0.4),
            dh_x=rng.uniform(-0.8, 0.8), dh_y=rng.uniform(-0.8, 0.8))
        e1 = rng.uniform(0.0, 0.7)
        nu1 = rng.uniform(-math.pi, math.pi)
        eta = ReferenceParams(p1=rng.uniform(7e3, 5e4),
                              ec=e1 * math.cos(nu1), es=e1 * math.sin(nu1))
        if oe.dh < dh_min:
            continue
        if math.hypot(oe.dxi_x + eta.ec, oe.dxi_y + eta.es) >= 0.95:
            continue
        denom = (1.0 + (oe.dxi_x + eta.ec) * math.cos(oe.dtheta)
                 - (oe.dxi_y + eta.es) * math.sin(oe.dtheta))
        if denom < 0.05:
            continue
        return oe, eta


class TestForwardMap:
    def test_identical_orbits_map_to_zero(self):
        oe, eta = oe_from_classical(EL1, EL1)
        assert np.abs(oe.as_array()).max() < 1e-12
        assert abs(eta.p1 - EL1.p) < 1e-9
        assert abs(reference_e1(eta) - EL1.e) < 1e-12

    def test_validation_pair_against_direct_formula(self):
        rel = relative_orientation(EL1, EL2)
        oe, eta = oe_from_classical(EL1, EL2)
        assert abs(oe.dtheta - wrap_angle(rel.theta2 - rel.theta1)) < 1e-12
        assert abs(oe.dp - (EL2.p - EL1.p) / EL1.p) < 1e-12
        assert abs(oe.dxi_x - (EL2.e * math.cos(rel.theta1 - rel.lambda2)
                               - EL1.e * math.cos(EL1.nu))) < 1e-12
        assert abs(oe.dxi_y - (EL2.e * math.sin(rel.theta1 - rel.lambda2)
                               - EL1.e * math.sin(EL1.nu))) < 1e-12
        t_half = math.tan(0.5 * rel.gamma)
        assert abs(oe.dh_x - t_half * math.cos(rel.theta1)) < 1e-12
        assert abs(oe.dh_y - t_half * math.sin(rel.theta1)) < 1e-12
        assert abs(eta.ec - EL1.e * math.cos(EL1.nu)) < 1e-15
        assert abs(eta.es - EL1.e * math.sin(EL1.nu)) < 1e-15

    def test_circular_coplanar_phase_offset(self):
        phase = 0.8
        el1 = ClassicalElements(a=1e4, e=0.0, i=0.7, raan=0.2, argp=0.0,
                                nu=0.1)
        el2 = ClassicalElements(a=1e4, e=0.0, i=0.7, raan=0.2, argp=0.0,
                                nu=0.1 + phase)
        oe, _ = oe_from_classical(el1, el2)
        assert abs(oe.dtheta - phase) < 1e-12
        assert np.abs(oe.as_array()[1:]).max() < 1e-12

    def test_nonsingular_at_circular_and_near_coplanar(self):
        # e = 0 and gamma -> 0 must pass through without special handling.
        el1 = ClassicalElements(a=1e4, e=0.0, i=0.3, raan=0.1, argp=0.0,
                                nu=0.5)
        for gamma_off in (1e-13, 1e-10, 1e-7, 1e-4):
            el2 = ClassicalElements(a=1.1e4, e=0.0, i=0.3 + gamma_off,
                                    raan=0.1, argp=0.0, nu=0.9)
            oe, eta = oe_from_classical(el1, el2)
            assert np.all(np.isfinite(oe.as_array()))
            assert abs(oe.dh - math.tan(0.5 * gamma_off)) < 1e-12

    def test_continuity_across_coplanar_threshold(self):
        el1 = ClassicalElements(a=1e4, e=0.3, i=0.4, raan=0.2, argp=0.6,
                                nu=1.1)
        states = []
        for di in (5e-10, 2e-9):
            el2 = ClassicalElements(a=1.2e4, e=0.25, i=0.4 + di, raan=0.2,
                                    argp=-0.3, nu=0.7)
            oe, _ = oe_from_classical(el1, el2)
            states.append(oe.as_array())
        assert np.abs(states[0] - states[1]).max() < 1e-8


class TestInverseMap:
    def test_zero_state_recovers_reference(self):
        oe = NodalRelativeState(0, 0, 0, 0, 0, 0)
        eta = ReferenceParams(p1=1e4, ec=0.3, es=0.2)
        rec = classical_from_oe(oe, eta)
        assert abs(rec.e2 - reference_e1(eta)) < 1e-15
        assert abs(rec.a2 - eta.p1 / (1 - reference_e1(eta) ** 2)) < 1e-9
        assert rec.gamma == 0.0
        assert rec.theta1_degenerate

    def test_circular_pair_zero_xi(self):
        oe = NodalRelativeState(0.3, 0.1, 0, 0, 0.05, 0.02)
        eta = ReferenceParams(p1=1e4, ec=0.0, es=0.0)
        rec = classical_from_oe(oe, eta)
        assert rec.e2 == 0.0

    def test_e2_matches_printed_formula(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            oe, eta = random_state(rng)
            rec = classical_from_oe(oe, eta)
            e1, nu1 = reference_e1(eta), reference_nu1(eta)
            printed = math.sqrt(
                dxi_magnitude(oe) ** 2 + e1 ** 2
                + 2 * e1 * (oe.dxi_x * math.cos(nu1)
                            + oe.dxi_y * math.sin(nu1)))
            assert abs(rec.e2 - printed) < 1e-12

    def test_round_trip_validation_pair(self):
        rel = relative_orientation(EL1, EL2)
        oe, eta = oe_from_classical(EL1, EL2)
        rec = classical_from_oe(oe, eta)
        assert abs(rec.a2 - EL2.a) / EL2.a < 1e-10
        assert abs(rec.e2 - EL2.e) < 1e-10
        assert abs(rec.gamma - rel.gamma) < 1e-10
        assert abs(wrap_angle(rec.lambda1 - rel.lambda1)) < 1e-10
        assert abs(wrap_angle(rec.lambda2 - rel.lambda2)) < 1e-10
        assert abs(wrap_angle(rec.theta1 - rel.theta1)) < 1e-10
        assert abs(wrap_angle(rec.theta2 - rel.theta2)) < 1e-10

    def test_unclosed_recovered_orbit_rejected(self):
        oe = NodalRelativeState(0.0, 0.5, 0.9, 0.0, 0.1, 0.0)
        eta = ReferenceParams(p1=1e4, ec=0.3, es=0.0)
        with pytest.raises(GeometryError):
            classical_from_oe(oe, eta)


class TestEccIncVectors:
    def test_aligned_vectors_zero_phase(self):
        oe = NodalRelativeState(0.1, 0.0, 0.2, 0.0, 0.3, 0.0)
        eta = ReferenceParams(p1=1e4, ec=0.1, es=0.0)
        out = ecc_inc_vectors(oe, eta)
        assert out.dphi_defined
        assert abs(out.dphi) < 1e-15

    def test_magnitudes_invariant_under_common_rotation(self):
        rng = np.random.default_rng(11)
        oe, eta = random_state(rng, dh_min=0.05)
        base = ecc_inc_vectors(oe, eta)
        for ang in rng.uniform(-math.pi, math.pi, size=10):
            c, s = math.cos(ang), math.sin(ang)
            rotated = NodalRelativeState(
                oe.dtheta, oe.dp,
                c * oe.dxi_x - s * oe.dxi_y, s * oe.dxi_x + c * oe.dxi_y,
                c * oe.dh_x - s * oe.dh_y, s * oe.dh_x + c * oe.dh_y)
            out = ecc_inc_vectors(rotated, eta)
            assert abs(out.dxi_mag - base.dxi_mag) < 1e-12
            assert abs(out.dh_mag - base.dh_mag) < 1e-12
            assert abs(wrap_angle(out.dphi - base.dphi)) < 1e-12

    def test_magnitude_identities(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            oe, eta = random_state(rng, dh_min=1e-3)
            out = ecc_inc_vectors(oe, eta)
            assert abs(out.dxi_mag - np.linalg.norm(out.de)) < 1e-12
            assert abs(out.dh_mag - np.linalg.norm(out.di)) < 1e-12

    def test_two_path_phase_consistency(self):
        # dphi from the state components equals the phase of the node-frame
        # eccentricity vector rebuilt from recovered invariants.
        rng = np.random.default_rng(13)
        for _ in range(25):
            el1, el2 = random_pair(rng, min_gamma=1e-3,
                                   e_range=(0.05, 0.6))
            oe, eta = oe_from_classical(el1, el2)
            rec = classical_from_oe(oe, eta)
            out = ecc_inc_vectors(oe, eta)
            if not out.dphi_defined:
                continue
            e1 = reference_e1(eta)
            de_node = np.array([
                rec.e2 * math.cos(rec.lambda2) - e1 * math.cos(rec.lambda1),
                rec.e2 * math.sin(rec.lambda2) - e1 * math.sin(rec.lambda1)])
            assert abs(wrap_angle(out.dphi
                                  - math.atan2(de_node[1], de_node[0]))) < 1e-9
            assert np.abs(out.de - de_node).max() < 1e-12

    def test_degenerate_phase_flagged(self):
        oe = NodalRelativeState(0.1, 0.0, 0.2, 0.1, 0.0, 0.0)
        eta = ReferenceParams(p1=1e4, ec=0.1, es=0.0)
        out = ecc_inc_vectors(oe, eta)
        assert not out.dphi_defined
        assert math.isnan(out.dphi)


class TestPositionMapping:
    def test_zero_state(self):
        oe = NodalRelativeState(0, 0, 0, 0, 0, 0)
        eta = ReferenceParams(p1=1e4, ec=0.2, es=0.1)
        rp = relative_position(oe, eta)
        assert np.abs(rp.dr).max() < 1e-12
        assert abs(rp.q - 1.0) < 1e-15
        assert np.abs(rp.b - np.array([1.0, 0.0, 0.0])).max() < 1e-15

    def test_coplanar_aligned(self):
        oe = NodalRelativeState(0.0, 0.3, 0.05, -0.02, 0.0, 0.0)
        eta = ReferenceParams(p1=1e4, ec=0.2, es=0.1)
        rp = relative_position(oe, eta)
        assert np.abs(rp.b - np.array([1.0, 0.0, 0.0])).max() < 1e-15
        assert abs(np.linalg.norm(rp.dr) - rp.r1 * abs(rp.q - 1.0)) < 1e-9

    def test_b_unit_norm(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            oe, eta = random_state(rng)
            rp = relative_position(oe, eta)
            assert abs(np.linalg.norm(rp.b) - 1.0) < 1e-12

    def test_matches_cartesian_difference_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            el1, el2 = random_pair(rng)
            oe, eta = oe_from_classical(el1, el2)
            rp = relative_position(oe, eta)
            dr_oracle, _ = cartesian_relative_state(el1, el2)
            assert np.abs(rp.dr - dr_oracle).max() < 1e-9 * rp.r1

    def test_radii_against_elements(self):
        oe, eta = oe_from_classical(EL1, EL2)
        rp = relative_position(oe, eta)
        assert abs(rp.r1 - orbit_radius(EL1)) < 1e-9
        assert abs(rp.r2 - orbit_radius(EL2)) < 1e-9

    def test_geometry_error_on_nonpositive_denominator(self):
        oe = NodalRelativeState(math.pi, 0.0, 0.9, 0.0, 0.0, 0.0)
        eta = ReferenceParams(p1=1e4, ec=0.25, es=0.0)
        with pytest.raises(GeometryError):
            relative_position(oe, eta)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(16)
        rows_oe, rows_eta, expected = [], [], []
        for _ in range(20):
            oe, eta = random_state(rng)
            rows_oe.append(oe.as_array())
            rows_eta.append(eta.as_array())
            expected.append(relative_position(oe, eta).dr)
        batch = relative_position_batch(np.array(rows_oe), np.array(rows_eta))
        assert np.abs(batch - np.array(expected)).max() < 1e-9

    def test_kernel_position_matches_relative_position(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            oe, eta = random_state(rng)
            dr = np.array(_scalar_position(*_floats(oe, eta),
                                           jacobians=True)[4])
            rp = relative_position(oe, eta)
            scale = max(np.linalg.norm(rp.dr), 1e-12 * rp.r1)
            assert np.abs(dr - rp.dr).max() <= 1e-12 * scale

    def test_separation_distance_identity(self):
        rng = np.random.default_rng(17)
        rows_oe, rows_eta = [], []
        for _ in range(20):
            oe, eta = random_state(rng)
            rows_oe.append(oe.as_array())
            rows_eta.append(eta.as_array())
        oe_arr, eta_arr = np.array(rows_oe), np.array(rows_eta)
        d = separation_distance(oe_arr, eta_arr)
        dr = relative_position_batch(oe_arr, eta_arr)
        assert np.abs(d - np.linalg.norm(dr, axis=1)).max() < 1e-9


class TestVelocityAndJacobians:
    def test_colocated_circular_velocity_zero(self):
        oe = NodalRelativeState(0, 0, 0, 0, 0, 0)
        eta = ReferenceParams(p1=1e4, ec=0.0, es=0.0)
        assert np.abs(relative_velocity(oe, eta, MU_EARTH)).max() < 1e-15

    def test_velocity_matches_flow_finite_difference(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            oe, eta = random_state(rng)
            h = 1e-3
            oep, etap = unperturbed_flow(oe, eta, MU_EARTH, [h])
            oem, etam = unperturbed_flow(oe, eta, MU_EARTH, [-h])
            fd = (relative_position_batch(oep, etap)[0]
                  - relative_position_batch(oem, etam)[0]) / (2 * h)
            dv = relative_velocity(oe, eta, MU_EARTH)
            scale = max(np.abs(dv).max(), 1e-6)
            assert np.abs(dv - fd).max() / scale < 1e-6

    def test_velocity_matches_cartesian_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            el1, el2 = random_pair(rng)
            oe, eta = oe_from_classical(el1, el2)
            _, dv_oracle = cartesian_relative_state(el1, el2)
            dv = relative_velocity(oe, eta, MU_EARTH)
            scale = max(np.abs(dv_oracle).max(), 1e-9)
            assert np.abs(dv - dv_oracle).max() / scale < 1e-9

    def test_jacobians_match_finite_differences(self):
        rng = np.random.default_rng(20)
        for _ in range(30):
            oe, eta = random_state(rng)
            j_oe, j_eta = position_jacobians(oe, eta)
            x = np.concatenate([oe.as_array(), eta.as_array()])

            def dr_of(z):
                oe_z = NodalRelativeState.from_array(z[:6])
                eta_z = ReferenceParams.from_array(z[6:])
                return relative_position(oe_z, eta_z).dr

            jac = np.hstack([j_oe, j_eta])
            for col in range(9):
                step = 1e-7 * max(abs(x[col]), 1.0)
                xp, xm = x.copy(), x.copy()
                xp[col] += step
                xm[col] -= step
                fd = (dr_of(xp) - dr_of(xm)) / (2 * step)
                scale = max(np.abs(jac[:, col]).max(), 1e-3 * eta.p1)
                assert np.abs(jac[:, col] - fd).max() / scale < 1e-6

    def test_dp_partial_at_origin(self):
        eta = ReferenceParams(p1=1e4, ec=0.0, es=0.0)
        oe = NodalRelativeState(0, 0, 0, 0, 0, 0)
        j_oe, _ = position_jacobians(oe, eta)
        r1 = relative_position(oe, eta).r1
        assert abs(j_oe[0, 1] - r1) < 1e-9

    def test_dtheta_partial_at_origin(self):
        eta = ReferenceParams(p1=1e4, ec=0.0, es=0.0)
        oe = NodalRelativeState(0, 0, 0, 0, 0, 0)
        j_oe, _ = position_jacobians(oe, eta)
        r1 = relative_position(oe, eta).r1
        assert np.abs(j_oe[:, 0] - np.array([0.0, r1, 0.0])).max() < 1e-9


class TestHaversine:
    def test_coplanar_reduces_to_phase(self):
        assert abs(haversine_psi(0.4, 1.3, 0.0) - 0.9) < 1e-12

    def test_both_on_node(self):
        assert haversine_psi(0.0, 0.0, 1.1) == 0.0

    def test_matches_direction_angle_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            theta1 = rng.uniform(-math.pi, math.pi)
            theta2 = rng.uniform(-math.pi, math.pi)
            gamma = rng.uniform(0.0, 2.5)
            t_half = math.tan(0.5 * gamma)
            oe = NodalRelativeState(
                dtheta=wrap_angle(theta2 - theta1), dp=0.0,
                dxi_x=0.0, dxi_y=0.0,
                dh_x=t_half * math.cos(theta1),
                dh_y=t_half * math.sin(theta1))
            eta = ReferenceParams(p1=1e4, ec=0.0, es=0.0)
            b = relative_position(oe, eta).b
            psi_oracle = math.atan2(np.linalg.norm(b[1:]), b[0])
            psi = haversine_psi(theta1, theta2, gamma)
            assert abs(psi - psi_oracle) < 1e-9
