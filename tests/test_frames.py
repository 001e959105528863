import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from nodalrel import (
    ClassicalElements,
    RetrogradeSingularity,
    pci_to_pqw,
    relative_orientation,
    rot_x,
    rot_z,
    wrap_angle,
)

from conftest import (
    EL1,
    EL2,
    cartesian_node_oracle,
    random_pair,
    rtn1_chain_oracle,
)


def dcm_rtn2_to_rtn1(theta1: float, gamma: float, theta2: float) -> np.ndarray:
    """Minimal rotation sequence taking RTN2 coordinates to RTN1:
    rot_z(theta1) @ rot_x(-gamma) @ rot_z(-theta2)."""
    return rot_z(theta1) @ rot_x(-gamma) @ rot_z(-theta2)


def assert_dcm_valid(m, tol=1e-12):
    assert np.abs(m @ m.T - np.eye(3)).max() < tol
    assert abs(np.linalg.det(m) - 1.0) < tol


class TestElementaryRotations:
    def test_rot_z_zero_is_identity(self):
        assert np.abs(rot_z(0.0) - np.eye(3)).max() == 0.0

    def test_rot_x_inverse_composition(self):
        assert np.abs(rot_x(math.pi) @ rot_x(-math.pi) - np.eye(3)).max() < 1e-15

    def test_rot_z_is_coordinate_rotation(self):
        # Components of the fixed X unit vector in a frame rotated by 0.3.
        out = rot_z(0.3) @ np.array([1.0, 0.0, 0.0])
        expected = np.array([math.cos(0.3), -math.sin(0.3), 0.0])
        assert np.abs(out - expected).max() < 1e-15

    def test_rotations_are_valid_dcms(self):
        rng = np.random.default_rng(1)
        for theta in rng.uniform(-10, 10, size=20):
            assert_dcm_valid(rot_x(theta))
            assert_dcm_valid(rot_z(theta))


class TestPciToPqw:
    def test_zero_angles_identity(self):
        el = ClassicalElements(a=1e4, e=0.1, i=0.0, raan=0.0, argp=0.0, nu=0.0)
        assert np.abs(pci_to_pqw(el) - np.eye(3)).max() < 1e-15

    def test_matches_elementary_product_for_validation_orbit(self):
        expected = rot_z(EL1.argp) @ rot_x(EL1.i) @ rot_z(EL1.raan)
        assert np.abs(pci_to_pqw(EL1) - expected).max() == 0.0

    def test_composition_with_transpose_is_identity(self):
        m = pci_to_pqw(EL2)
        assert np.abs(m @ m.T - np.eye(3)).max() < 1e-14
        assert_dcm_valid(m)


class TestRelativeOrientation:
    def test_identical_orbits_are_coplanar(self):
        rel = relative_orientation(EL1, EL1)
        assert rel.coplanar
        assert rel.gamma < 1e-12
        assert abs(wrap_angle(rel.theta1 - rel.theta2)) < 1e-12

    def test_validation_pair_gamma_matches_spherical_law(self):
        rel = relative_orientation(EL1, EL2)
        cos_gamma = (math.cos(EL1.i) * math.cos(EL2.i)
                     + math.sin(EL1.i) * math.sin(EL2.i)
                     * math.cos(EL1.raan - EL2.raan))
        assert abs(rel.gamma - math.acos(cos_gamma)) < 1e-12

    def test_gamma_symmetric_under_swap(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            el1, el2 = random_pair(rng)
            g12 = relative_orientation(el1, el2).gamma
            g21 = relative_orientation(el2, el1).gamma
            assert abs(g12 - g21) < 1e-12

    def test_identity_resynthesis(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            el1, el2 = random_pair(rng)
            rel = relative_orientation(el1, el2)
            lhs = rot_z(-rel.alpha1) @ rot_x(-rel.gamma) @ rot_z(rel.alpha2)
            rhs = (rot_x(el1.i) @ rot_z(el1.raan - el2.raan)
                   @ rot_x(-el2.i))
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_nodal_angle_relations_hold(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            el1, el2 = random_pair(rng)
            rel = relative_orientation(el1, el2)
            assert abs(wrap_angle(rel.lambda1 - (el1.argp - rel.alpha1))) < 1e-12
            assert abs(wrap_angle(rel.lambda2 - (el2.argp - rel.alpha2))) < 1e-12
            assert abs(wrap_angle(rel.theta1 - (el1.nu + rel.lambda1))) < 1e-12
            assert abs(wrap_angle(rel.theta2 - (el2.nu + rel.lambda2))) < 1e-12

    def test_node_is_ascending_crossing_of_satellite_2(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            el1, el2 = random_pair(rng, min_gamma=1e-3)
            rel = relative_orientation(el1, el2)
            gamma, theta1, theta2, _ = cartesian_node_oracle(el1, el2)
            assert abs(rel.gamma - gamma) < 1e-10
            assert abs(wrap_angle(rel.theta1 - theta1)) < 1e-10
            assert abs(wrap_angle(rel.theta2 - theta2)) < 1e-10

    def test_retrograde_pair_rejected(self):
        el1 = ClassicalElements(a=1e4, e=0.1, i=0.0, raan=0.0, argp=0.0,
                                nu=0.0)
        el2 = ClassicalElements(a=1e4, e=0.1, i=math.pi, raan=0.0, argp=0.0,
                                nu=0.0)
        with pytest.raises(RetrogradeSingularity):
            relative_orientation(el1, el2)

    def test_coplanar_convention_alpha1_zero(self):
        el1 = ClassicalElements(a=1e4, e=0.2, i=0.4, raan=0.5, argp=0.3,
                                nu=1.0)
        el2 = ClassicalElements(a=1.2e4, e=0.1, i=0.4, raan=0.5, argp=-0.7,
                                nu=2.0)
        rel = relative_orientation(el1, el2)
        assert rel.coplanar
        assert rel.alpha1 == 0.0
        # theta difference still reflects the in-plane phase difference
        dth = wrap_angle(rel.theta2 - rel.theta1)
        expected = wrap_angle((el2.argp + el2.nu) - (el1.argp + el1.nu))
        assert abs(wrap_angle(dth - expected)) < 1e-12


class TestRtnChain:
    def test_coplanar_same_theta_is_identity(self):
        m = dcm_rtn2_to_rtn1(0.7, 0.0, 0.7)
        assert np.abs(m - np.eye(3)).max() < 1e-15

    def test_pure_tilt_structure(self):
        g = 0.31
        assert np.abs(dcm_rtn2_to_rtn1(0.0, g, 0.0) - rot_x(-g)).max() < 1e-15

    def test_matches_full_classical_chain(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            el1, el2 = random_pair(rng)
            rel = relative_orientation(el1, el2)
            minimal = dcm_rtn2_to_rtn1(rel.theta1, rel.gamma, rel.theta2)
            assert np.abs(minimal - rtn1_chain_oracle(el1, el2)).max() < 1e-10
            assert_dcm_valid(minimal, tol=1e-12)

    def test_pqw_chain_matches_lambda_form(self):
        # The PQW2->PQW1 transform equals the minimal lambda/gamma sequence.
        rng = np.random.default_rng(7)
        for _ in range(25):
            el1, el2 = random_pair(rng, min_gamma=1e-3)
            rel = relative_orientation(el1, el2)
            full = pci_to_pqw(el1) @ pci_to_pqw(el2).T
            minimal = (rot_z(rel.lambda1) @ rot_x(-rel.gamma)
                       @ rot_z(-rel.lambda2))
            assert np.abs(full - minimal).max() < 1e-10


class TestClassicalElementsType:
    def test_angle_wrapping_on_construction(self):
        el = ClassicalElements(a=1e4, e=0.1, i=0.5, raan=3 * math.pi,
                               argp=-3 * math.pi, nu=2 * math.pi)
        assert -math.pi < el.raan <= math.pi
        assert -math.pi < el.argp <= math.pi
        assert abs(el.nu) < 1e-12

    def test_invalid_elements_rejected(self):
        with pytest.raises(ValueError):
            ClassicalElements(a=-1.0, e=0.1, i=0.5, raan=0, argp=0, nu=0)
        with pytest.raises(ValueError):
            ClassicalElements(a=1e4, e=1.0, i=0.5, raan=0, argp=0, nu=0)
        with pytest.raises(ValueError):
            ClassicalElements(a=1e4, e=0.5, i=-0.1, raan=0, argp=0, nu=0)

    @pytest.mark.parametrize("field, value", [
        ("a", math.inf), ("a", math.nan), ("raan", math.nan),
        ("raan", math.inf), ("argp", math.inf), ("argp", math.nan),
        ("nu", math.nan), ("nu", -math.inf)])
    def test_nonfinite_field_rejected(self, field, value):
        # each used to construct (wrapped to NaN), and failed later as a
        # zero position vector or an unconverged Kepler solve
        kw = {**dict(a=7e3, e=0.1, i=0.1, raan=0.0, argp=0.0, nu=0.0),
              field: value}
        with pytest.raises(ValueError, match=rf"\b{field} must be finite"):
            ClassicalElements(**kw)


class TestWrapAngleScalarPath:
    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    @example(math.pi)
    @example(-math.pi)
    @example(3.0 * math.pi)
    @example(-3.0 * math.pi)
    @example(0.0)
    @example(-0.0)
    def test_scalar_matches_array_bitwise(self, x):
        scalar = wrap_angle(x)
        assert type(scalar) is float
        array = wrap_angle(np.array([x]))[0]
        assert struct.pack("<d", scalar) == struct.pack("<d", array)
        assert struct.pack("<d", wrap_angle(np.float64(x))) \
            == struct.pack("<d", scalar)

    def test_minus_pi_folds_to_pi(self):
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(-3.0 * math.pi) == math.pi
        assert wrap_angle(3) == wrap_angle(3.0)
