import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nodalrel import (
    MU_EARTH,
    CartesianState,
    ClassicalElements,
    CoplanarNormalInput,
    NodalRelativeState,
    PerturbationInput,
    ReferenceParams,
    StepFailure,
    analytic_step,
    apply_impulse,
    cartesian_to_elements,
    cowell_propagate,
    elements_to_cartesian,
    f_eta,
    f_unperturbed,
    f_unperturbed_jacobian,
    input_matrices,
    kepler_advance,
    nodal_variational,
    oe_from_classical,
    orbital_period,
    perturbed_derivative,
    propagate,
    relative_orientation,
    rtn_basis,
    unperturbed_flow,
    wrap_angle,
)
from nodalrel.dynamics import (_nodal_rhs, advance_true_anomaly,
                               mean_to_true_anomaly, true_to_mean_anomaly)

from conftest import EL1, EL2, random_elements, random_pair

MU = MU_EARTH


def random_state(rng):
    while True:
        oe = NodalRelativeState(
            dtheta=rng.uniform(-2.5, 2.5), dp=rng.uniform(-0.5, 1.5),
            dxi_x=rng.uniform(-0.3, 0.3), dxi_y=rng.uniform(-0.3, 0.3),
            dh_x=rng.uniform(-0.8, 0.8), dh_y=rng.uniform(-0.8, 0.8))
        e1 = rng.uniform(0.0, 0.6)
        nu1 = rng.uniform(-math.pi, math.pi)
        eta = ReferenceParams(p1=rng.uniform(7e3, 5e4),
                              ec=e1 * math.cos(nu1), es=e1 * math.sin(nu1))
        if math.hypot(oe.dxi_x + eta.ec, oe.dxi_y + eta.es) >= 0.9:
            continue
        denom = (1.0 + (oe.dxi_x + eta.ec) * math.cos(oe.dtheta)
                 - (oe.dxi_y + eta.es) * math.sin(oe.dtheta))
        if denom < 0.1:
            continue
        return oe, eta


class TestUnperturbedField:
    def test_zero_state_is_equilibrium(self):
        oe = NodalRelativeState(0, 0, 0, 0, 0, 0)
        eta = ReferenceParams(p1=1e4, ec=0.3, es=0.1)
        assert np.abs(f_unperturbed(oe, eta, MU)).max() == 0.0

    def test_circular_reference_dtheta_rate(self):
        oe = NodalRelativeState(0.4, 0.2, 0.05, -0.03, 0.0, 0.0)
        eta = ReferenceParams(p1=1e4, ec=0.0, es=0.0)
        f = f_unperturbed(oe, eta, MU)
        nudot = math.sqrt(MU / eta.p1 ** 3)
        expected = nudot * (
            (1 + oe.dxi_x * math.cos(oe.dtheta)
             - oe.dxi_y * math.sin(oe.dtheta)) ** 2
            / math.sqrt((1 + oe.dp) ** 3) - 1.0)
        assert abs(f[0] - expected) < 1e-18

    def test_dp_rate_identically_zero(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            oe, eta = random_state(rng)
            assert f_unperturbed(oe, eta, MU)[1] == 0.0

    def test_rotation_structure_of_tail(self):
        oe = NodalRelativeState(0.1, 0.0, 0.2, -0.1, 0.3, 0.4)
        eta = ReferenceParams(p1=1e4, ec=0.2, es=0.1)
        f = f_unperturbed(oe, eta, MU)
        nudot = math.sqrt(MU / eta.p1 ** 3) * (1 + eta.ec) ** 2
        assert np.abs(f[2:] - nudot * np.array(
            [-oe.dxi_y, oe.dxi_x, -oe.dh_y, oe.dh_x])).max() < 1e-18

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            oe, eta = random_state(rng)
            jac = f_unperturbed_jacobian(oe, eta, MU)
            x = oe.as_array()
            for col in range(6):
                step = 1e-7
                xp, xm = x.copy(), x.copy()
                xp[col] += step
                xm[col] -= step
                fd = (f_unperturbed(NodalRelativeState.from_array(xp), eta, MU)
                      - f_unperturbed(NodalRelativeState.from_array(xm),
                                      eta, MU)) / (2 * step)
                scale = max(np.abs(jac).max(), 1e-12)
                assert np.abs(jac[:, col] - fd).max() / scale < 1e-6


class TestEtaField:
    def test_circular_reference_constant(self):
        eta = ReferenceParams(p1=1e4, ec=0.0, es=0.0)
        assert np.abs(f_eta(eta, MU)).max() == 0.0

    def test_phasor_rotation_preserves_magnitude(self):
        eta = ReferenceParams(p1=1e4, ec=0.3, es=0.2)
        d = f_eta(eta, MU)
        assert abs(d[0]) == 0.0
        # d(ec^2 + es^2)/dt = 2 ec ec_dot + 2 es es_dot = 0
        assert abs(eta.ec * d[1] + eta.es * d[2]) < 1e-20

    def test_anomaly_rate_validation_orbit(self):
        p1 = 8.9e3 * (1 - 0.25)
        eta = ReferenceParams(p1=p1, ec=0.5 * math.cos(math.radians(30)),
                              es=0.5 * math.sin(math.radians(30)))
        d = f_eta(eta, MU)
        nudot = math.sqrt(MU / p1 ** 3) * (1 + 0.5 * math.cos(
            math.radians(30))) ** 2
        assert abs(d[2] - nudot * eta.ec) < 1e-15
        assert abs(d[1] + nudot * eta.es) < 1e-15


class TestAnalyticStep:
    def test_full_revolution_is_identity(self):
        oe = NodalRelativeState(0.1, 0.2, 0.3, -0.2, 0.4, 0.1)
        adv = analytic_step(oe, 2 * math.pi)
        assert abs(adv.dxi_x - oe.dxi_x) < 1e-15
        assert abs(adv.dxi_y - oe.dxi_y) < 1e-15
        assert abs(adv.dh_x - oe.dh_x) < 1e-15
        assert abs(adv.dh_y - oe.dh_y) < 1e-15
        assert adv.dp == oe.dp

    def test_quarter_rotation(self):
        oe = NodalRelativeState(0.0, 0.0, 0.25, 0.0, 0.0, 0.0)
        adv = analytic_step(oe, math.pi / 2)
        assert abs(adv.dxi_x) < 1e-16
        assert abs(adv.dxi_y - 0.25) < 1e-16

    def test_matches_integrated_tail_over_one_orbit(self):
        oe, eta = oe_from_classical(EL1, EL2)
        period = orbital_period(EL1.a, MU)
        traj = propagate(oe, eta, 0.0, period, MU, rtol=1e-12, n_samples=5)
        a1 = eta.p1 / (1 - eta.e1 ** 2)
        for k, t in enumerate(traj.t):
            nu_t = float(advance_true_anomaly(eta.nu1, eta.e1, a1, t, MU))
            # unwrap the sweep using the elapsed fraction of the period
            sweep = nu_t - eta.nu1 + 2 * math.pi * round(
                (t / period) - (nu_t - eta.nu1) / (2 * math.pi))
            adv = analytic_step(oe, sweep)
            got = traj.oe[k]
            assert abs(adv.dxi_x - got[2]) < 1e-10
            assert abs(adv.dxi_y - got[3]) < 1e-10
            assert abs(adv.dh_x - got[4]) < 1e-10
            assert abs(adv.dh_y - got[5]) < 1e-10


class TestInputMatrices:
    def test_colocated_matrices_match(self):
        oe = NodalRelativeState(0, 0, 0, 0, 0, 0)
        eta = ReferenceParams(p1=1e4, ec=0.25, es=0.15)
        g1, g2, _ = input_matrices(oe, eta, MU)
        assert np.abs(g1 - g2).max() < 1e-18

    def test_equal_input_cancels_at_colocation(self):
        oe = NodalRelativeState(0, 0, 0, 0, 0, 0)
        eta = ReferenceParams(p1=1e4, ec=0.25, es=0.15)
        u = PerturbationInput(u1=np.array([1e-4, -2e-4, 3e-4]),
                              u2=np.array([1e-4, -2e-4, 3e-4]))
        doe, _ = perturbed_derivative(oe, eta, u, MU)
        assert np.abs(doe - f_unperturbed(oe, eta, MU)).max() < 1e-18

    def test_row2_transverse_gain(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            oe, eta = random_state(rng)
            g1, g2, _ = input_matrices(oe, eta, MU)
            r1 = eta.p1 / (1 + eta.ec)
            c, s = math.cos(oe.dtheta), math.sin(oe.dtheta)
            denom = (1 + (oe.dxi_x + eta.ec) * c - (oe.dxi_y + eta.es) * s)
            p2 = eta.p1 * (1 + oe.dp)
            r2 = p2 / denom
            pre1 = r1 / math.sqrt(MU * eta.p1)
            pre2 = r2 / math.sqrt(MU * p2)
            assert abs(g1[1, 1] - pre1 * 2 * (1 + oe.dp)) < 1e-15
            assert abs(g2[1, 1] - pre2 * 2 * (1 + oe.dp)) < 1e-15
            assert g1[1, 0] == 0.0 and g1[1, 2] == 0.0
            assert g2[1, 0] == 0.0 and g2[1, 2] == 0.0

    def test_coplanar_normal_column_structure(self):
        # dh = 0: normal input must excite the inclination-vector rows of
        # G2 as (cos, -sin) * denom-scaled prefactor and leave G1 rows 5-6
        # at the half-identity value.
        oe = NodalRelativeState(0.4, 0.1, 0.05, -0.02, 0.0, 0.0)
        eta = ReferenceParams(p1=1e4, ec=0.2, es=0.1)
        g1, g2, _ = input_matrices(oe, eta, MU)
        c, s = math.cos(oe.dtheta), math.sin(oe.dtheta)
        denom = (1 + (oe.dxi_x + eta.ec) * c - (oe.dxi_y + eta.es) * s)
        p2 = eta.p1 * (1 + oe.dp)
        pre2 = (p2 / denom) / math.sqrt(MU * p2)
        assert abs(g2[4, 2] - pre2 * 0.5 * c) < 1e-15
        assert abs(g2[5, 2] + pre2 * 0.5 * s) < 1e-15
        pre1 = (eta.p1 / (1 + eta.ec)) / math.sqrt(MU * eta.p1)
        assert abs(g1[4, 2] - pre1 * 0.5) < 1e-15
        assert g1[5, 2] == 0.0
        assert g1[0, 2] == 0.0  # -dh_y vanishes

    def test_eta_matrix_structure(self):
        rng = np.random.default_rng(33)
        oe, eta = random_state(rng)
        _, _, geta = input_matrices(oe, eta, MU)
        pre1 = (eta.p1 / (1 + eta.ec)) / math.sqrt(MU * eta.p1)
        # p1 row responds only to transverse acceleration
        assert geta[0, 0] == 0.0 and geta[0, 2] == 0.0
        assert abs(geta[0, 1] - pre1 * 2 * eta.p1) < 1e-12
        assert np.abs(geta[:, 2]).max() == 0.0


class TestPerturbedConsistency:
    def test_zero_input_equals_unperturbed(self):
        rng = np.random.default_rng(34)
        oe, eta = random_state(rng)
        doe, deta = perturbed_derivative(oe, eta, PerturbationInput.zero(), MU)
        assert np.abs(doe - f_unperturbed(oe, eta, MU)).max() == 0.0
        assert np.abs(deta - f_eta(eta, MU)).max() == 0.0

    def test_equals_propagator_rhs_bitwise(self):
        # One forced-derivative formula: the propagator's right-hand side
        # with the input held, with and without an input.
        rng = np.random.default_rng(35)
        for _ in range(20):
            oe, eta = random_state(rng)
            y = np.concatenate([oe.as_array(), eta.as_array()])
            u = PerturbationInput(u1=rng.normal(0.0, 1e-4, 3),
                                  u2=rng.normal(0.0, 1e-4, 3))
            for held in (None, u):
                doe, deta = perturbed_derivative(oe, eta, held, MU)
                rhs = _nodal_rhs(0.0, y,
                                 None if held is None else lambda t: held, MU)
                assert np.array_equal(np.concatenate([doe, deta]), rhs)

    def test_nodal_variational_keplerian_rates(self):
        el1, el2 = EL1, EL2
        rel = relative_orientation(el1, el2)
        rates = nodal_variational(rel.theta1, rel.theta2, rel.gamma,
                                  el1.i, el2.i, rel.alpha1, rel.alpha2,
                                  (el1, el2), PerturbationInput.zero(), MU)
        assert rates.gamma == 0.0
        assert rates.lambda1 == 0.0 and rates.lambda2 == 0.0
        assert abs(rates.theta1
                   - math.sqrt(MU * el1.p) / el1.radius ** 2) < 1e-18
        assert abs(rates.theta2
                   - math.sqrt(MU * el2.p) / el2.radius ** 2) < 1e-18

    def test_nodal_variational_normal_coupling_case(self):
        # theta2 = pi/2, gamma = pi/2, normal input on satellite 2 only:
        # gamma rate vanishes and the node regresses at the scaled rate.
        el1 = ClassicalElements(a=1.2e4, e=0.2, i=0.9, raan=0.3, argp=0.4,
                                nu=0.2)
        el2 = ClassicalElements(a=1.0e4, e=0.15, i=1.1, raan=0.9, argp=0.1,
                                nu=0.6)
        rel = relative_orientation(el1, el2)
        u_n2 = 2e-4
        u = PerturbationInput(u1=np.zeros(3),
                              u2=np.array([0.0, 0.0, u_n2]))
        rates = nodal_variational(rel.theta1, math.pi / 2, math.pi / 2,
                                  el1.i, el2.i, rel.alpha1, rel.alpha2,
                                  (el1, el2), u, MU)
        scaled = el2.radius / math.sqrt(MU * el2.p) * u_n2
        assert abs(rates.gamma) < 1e-18
        assert abs(rates.alpha1 - scaled) < 1e-15

    def test_coplanar_normal_input_rejected(self):
        el1 = ClassicalElements(a=1e4, e=0.2, i=0.5, raan=0.1, argp=0.2,
                                nu=0.3)
        el2 = ClassicalElements(a=1.1e4, e=0.1, i=0.5, raan=0.1, argp=0.6,
                                nu=0.9)
        u = PerturbationInput(u1=np.array([0.0, 0.0, 1e-4]), u2=np.zeros(3))
        with pytest.raises(CoplanarNormalInput):
            nodal_variational(0.5, 0.9, 0.0, el1.i, el2.i, 0.0, 0.0,
                              (el1, el2), u, MU)

    def test_assembled_rates_match_input_matrices(self):
        # d/dt of the parametrization assembled from the variational rates
        # plus the standard in-plane GVEs must equal f + G2 u2 - G1 u1.
        rng = np.random.default_rng(35)
        checked = 0
        while checked < 25:
            el1, el2 = random_pair(rng, min_gamma=5e-2,
                                   e_range=(0.05, 0.6), i_range=(0.2, 2.6))
            rel = relative_orientation(el1, el2)
            u = PerturbationInput(u1=rng.normal(size=3) * 1e-4,
                                  u2=rng.normal(size=3) * 1e-4)
            oe, eta = oe_from_classical(el1, el2)
            doe, _ = perturbed_derivative(oe, eta, u, MU)
            rates = nodal_variational(
                rel.theta1, rel.theta2, rel.gamma, el1.i, el2.i,
                rel.alpha1, rel.alpha2, (el1, el2), u, MU)

            def p_e_rates(el, uvec):
                p, e, nu = el.p, el.e, el.nu
                r = el.radius
                ur, ut, _ = (r / math.sqrt(MU * p)) * np.asarray(uvec)
                pdot = 2 * p * ut
                edot = ((p / r) * math.sin(nu) * ur
                        + (((p + r) * math.cos(nu) + r * e) / r) * ut)
                return pdot, edot

            p1dot, e1dot = p_e_rates(el1, u.u1)
            p2dot, e2dot = p_e_rates(el2, u.u2)
            a21 = rel.theta1 - rel.lambda2
            a11 = el1.nu
            th1d, th2d = rates.theta1, rates.theta2
            t_half = math.tan(rel.gamma / 2)
            assembled = np.array([
                th2d - th1d,
                p2dot / el1.p - el2.p / el1.p ** 2 * p1dot,
                (e2dot * math.cos(a21)
                 - el2.e * math.sin(a21) * (th1d - rates.lambda2)
                 - e1dot * math.cos(a11)
                 + el1.e * math.sin(a11) * (th1d - rates.lambda1)),
                (e2dot * math.sin(a21)
                 + el2.e * math.cos(a21) * (th1d - rates.lambda2)
                 - e1dot * math.sin(a11)
                 - el1.e * math.cos(a11) * (th1d - rates.lambda1)),
                (rates.gamma / (2 * math.cos(rel.gamma / 2) ** 2)
                 * math.cos(rel.theta1)
                 - t_half * math.sin(rel.theta1) * th1d),
                (rates.gamma / (2 * math.cos(rel.gamma / 2) ** 2)
                 * math.sin(rel.theta1)
                 + t_half * math.cos(rel.theta1) * th1d),
            ])
            scale = max(np.abs(doe).max(), 1e-12)
            assert np.abs(assembled - doe).max() / scale < 1e-9
            checked += 1

    def test_first_order_response_to_constant_input(self):
        # (oe(h) - oe(0))/h converges to the perturbed derivative at first
        # order in h.
        oe, eta = oe_from_classical(EL1, EL2)
        u_const = PerturbationInput(u1=np.array([2e-4, -1e-4, 3e-4]),
                                    u2=np.array([-1e-4, 2e-4, 1e-4]))
        doe, _ = perturbed_derivative(oe, eta, u_const, MU)
        errs = []
        for h in (2.0, 1.0, 0.5):
            traj = propagate(oe, eta, 0.0, h, MU, u=lambda t: u_const,
                             rtol=1e-12, t_eval=[h])
            fd = (traj.oe[0] - oe.as_array()) / h
            errs.append(np.abs(fd - doe).max())
        # halving h roughly halves the error (first-order convergence)
        assert errs[1] / errs[0] < 0.7
        assert errs[2] / errs[1] < 0.7


class TestPropagation:
    def test_unperturbed_invariants_one_period(self):
        oe, eta = oe_from_classical(EL1, EL2)
        period = orbital_period(EL1.a, MU)
        traj = propagate(oe, eta, 0.0, period, MU, rtol=1e-12, n_samples=100)
        assert np.abs(traj.oe[:, 1] - oe.dp).max() < 1e-12
        dxi = np.hypot(traj.oe[:, 2], traj.oe[:, 3])
        dh = np.hypot(traj.oe[:, 4], traj.oe[:, 5])
        assert np.abs(dxi - dxi[0]).max() < 1e-10
        assert np.abs(dh - dh[0]).max() < 1e-10

    def test_flow_matches_integration(self):
        oe, eta = oe_from_classical(EL1, EL2)
        span = 2.0e4
        t_eval = np.linspace(0.0, span, 50)
        traj = propagate(oe, eta, 0.0, span, MU, rtol=1e-12, t_eval=t_eval)
        oe_flow, eta_flow = unperturbed_flow(oe, eta, MU, t_eval)
        d_theta = np.abs(wrap_angle(traj.oe[:, 0] - oe_flow[:, 0])).max()
        assert d_theta < 1e-9
        assert np.abs(traj.oe[:, 1:] - oe_flow[:, 1:]).max() < 1e-9
        assert np.abs(traj.eta - eta_flow).max() < 1e-6  # p1 in km

    def test_invalid_span_rejected(self):
        oe, eta = oe_from_classical(EL1, EL2)
        with pytest.raises(ValueError):
            propagate(oe, eta, 10.0, 0.0, MU)


class TestCowell:
    def test_circular_period(self):
        a = 1.2e4
        s = CartesianState(r=np.array([a, 0.0, 0.0]),
                           v=np.array([0.0, math.sqrt(MU / a), 0.0]))
        period = orbital_period(a, MU)
        traj = cowell_propagate(s, s, 0.0, period, MU, rtol=1e-12,
                                t_eval=[period])
        assert np.abs(traj.r1[0] - s.r).max() < 1e-5

    def test_energy_conservation(self):
        s1 = elements_to_cartesian(EL1, MU)
        s2 = elements_to_cartesian(EL2, MU)
        traj = cowell_propagate(s1, s2, 0.0, 2e4, MU, rtol=1e-12,
                                n_samples=50)
        for r, v in ((traj.r1, traj.v1), (traj.r2, traj.v2)):
            energy = 0.5 * np.sum(v ** 2, axis=1) - MU / np.linalg.norm(
                r, axis=1)
            # global drift is a small multiple of the local tolerance
            assert np.abs(energy - energy[0]).max() / abs(energy[0]) < 1e-10

    def test_elements_constant_except_anomaly(self):
        s1 = elements_to_cartesian(EL1, MU)
        traj = cowell_propagate(s1, s1, 0.0, 5e3, MU, rtol=1e-12,
                                t_eval=[5e3])
        el_end = cartesian_to_elements(
            CartesianState(r=traj.r1[0], v=traj.v1[0]), MU)
        expected = kepler_advance(EL1, 5e3, MU)
        assert abs(el_end.a - EL1.a) / EL1.a < 1e-11
        assert abs(el_end.e - EL1.e) < 1e-11
        assert abs(el_end.i - EL1.i) < 1e-12
        assert abs(wrap_angle(el_end.nu - expected.nu)) < 1e-9


class TestElementConversions:
    def test_round_trip_validation_orbits(self):
        for el in (EL1, EL2):
            rec = cartesian_to_elements(elements_to_cartesian(el, MU), MU)
            assert abs(rec.a - el.a) / el.a < 1e-10
            assert abs(rec.e - el.e) < 1e-10
            assert abs(rec.i - el.i) < 1e-10
            assert abs(wrap_angle(rec.raan - el.raan)) < 1e-10
            assert abs(wrap_angle(rec.argp - el.argp)) < 1e-10
            assert abs(wrap_angle(rec.nu - el.nu)) < 1e-10

    def test_round_trip_random(self):
        rng = np.random.default_rng(36)
        for _ in range(100):
            el = random_elements(rng, i_range=(0.05, 3.0))
            rec = cartesian_to_elements(elements_to_cartesian(el, MU), MU)
            assert abs(rec.a - el.a) / el.a < 1e-9
            assert abs(rec.e - el.e) < 1e-9
            assert abs(wrap_angle(rec.nu - el.nu)) < 1e-7

    def test_circular_equatorial_conventions(self):
        a = 1.5e4
        s = CartesianState(r=np.array([a, 0.0, 0.0]),
                           v=np.array([0.0, math.sqrt(MU / a), 0.0]))
        el = cartesian_to_elements(s, MU)
        assert abs(el.a - a) / a < 1e-12
        assert el.e == 0.0
        assert el.i == 0.0
        assert el.raan == 0.0
        assert el.argp == 0.0
        assert abs(el.nu) < 1e-12

    def test_periapsis_radius_validation_orbit(self):
        peri = kepler_advance(EL1, 0.0, MU)
        s = elements_to_cartesian(
            ClassicalElements(a=EL1.a, e=EL1.e, i=EL1.i, raan=EL1.raan,
                              argp=EL1.argp, nu=0.0), MU)
        assert abs(np.linalg.norm(s.r) - 4450.0) < 1e-6
        del peri

    def test_kepler_anomaly_round_trip(self):
        rng = np.random.default_rng(37)
        for e in (0.0, 0.1, 0.5, 0.9, 0.97):
            nu = rng.uniform(-math.pi, math.pi, size=50)
            m = true_to_mean_anomaly(nu, e)
            back = mean_to_true_anomaly(m, e)
            assert np.abs(wrap_angle(back - nu)).max() < 1e-12


ECC = st.floats(0.0, 0.95, exclude_max=True)
ANGLE = st.floats(-20.0, 20.0)


class TestKeplerScalarPath:
    @given(m=ANGLE, e=ECC)
    def test_mean_to_true_matches_array(self, m, e):
        scalar = mean_to_true_anomaly(m, e)
        assert type(scalar) is float
        array = mean_to_true_anomaly(np.array([m]), e)[0]
        assert abs(wrap_angle(scalar - array)) <= 1e-12

    @given(nu=ANGLE, e=ECC)
    def test_true_to_mean_matches_array(self, nu, e):
        scalar = true_to_mean_anomaly(nu, e)
        assert type(scalar) is float
        array = true_to_mean_anomaly(np.array([nu]), e)[0]
        assert abs(wrap_angle(scalar - array)) <= 1e-12

    @given(nu0=ANGLE, e=ECC, dt=st.floats(-1e5, 1e5))
    def test_advance_matches_array(self, nu0, e, dt):
        a = 1.2e4
        scalar = advance_true_anomaly(nu0, e, a, dt, MU)
        assert type(scalar) is float
        array = advance_true_anomaly(nu0, e, a, np.array([dt]), MU)[0]
        assert abs(wrap_angle(scalar - array)) <= 1e-12

    @pytest.mark.parametrize("m", [0.5, np.array([0.5, -2.0])])
    def test_unconverged_newton_raises(self, m):
        with pytest.raises(StepFailure):
            mean_to_true_anomaly(m, 0.9, max_iter=1)


class TestImpulse:
    def test_rtn_basis_orthonormal(self):
        s = elements_to_cartesian(EL1, MU)
        basis = rtn_basis(s.r, s.v)
        assert np.abs(basis @ basis.T - np.eye(3)).max() < 1e-14

    def test_rtn_basis_matches_cross_product_reference(self):
        rng = np.random.default_rng(70)
        for _ in range(200):
            s = elements_to_cartesian(random_elements(rng), MU)
            rhat = s.r / np.linalg.norm(s.r)
            nhat = np.cross(s.r, s.v)
            nhat = nhat / np.linalg.norm(nhat)
            ref = np.vstack([rhat, np.cross(nhat, rhat), nhat])
            assert np.abs(rtn_basis(s.r, s.v) - ref).max() <= 1e-14

    def test_cowell_oracle_uses_nothing_from_the_nodal_model(self):
        # The oracle checks the nodal model, so none of the globals its
        # functions reach may come from relstate or conjunction.
        import nodalrel.dynamics as dyn
        for fn in (dyn.rtn_basis, dyn._cowell_rhs, dyn.cowell_propagate,
                   dyn.apply_impulse, dyn.elements_to_cartesian):
            names = set(fn.__code__.co_names)
            for const in fn.__code__.co_consts:
                if hasattr(const, "co_names"):
                    names |= set(const.co_names)
            for name in names & set(vars(dyn)):
                home = getattr(vars(dyn)[name], "__module__", "")
                assert home not in ("nodalrel.relstate",
                                    "nodalrel.conjunction"), (fn, name)

    def test_transverse_impulse_raises_energy(self):
        s = elements_to_cartesian(EL1, MU)
        bumped = apply_impulse(s, np.array([0.0, 1e-2, 0.0]))
        el_new = cartesian_to_elements(bumped, MU)
        assert el_new.a > EL1.a

    def test_impulse_matches_input_matrix_map(self):
        # Instantaneous dv on satellite 1 changes oe by -G1 dv and eta by
        # Geta dv, to first order.
        el1, el2 = EL1, EL2
        oe0, eta0 = oe_from_classical(el1, el2)
        g1, _, geta = input_matrices(oe0, eta0, MU)
        dv = np.array([2e-4, -3e-4, 4e-4])
        s1 = apply_impulse(elements_to_cartesian(el1, MU), dv)
        el1_new = cartesian_to_elements(s1, MU)
        oe1, eta1 = oe_from_classical(el1_new, el2)
        d_oe = oe1.as_array() - oe0.as_array()
        d_eta = eta1.as_array() - eta0.as_array()
        pred_oe = -g1 @ dv
        pred_eta = geta @ dv
        assert np.abs(d_oe - pred_oe).max() < 5e-3 * np.abs(pred_oe).max()
        assert np.abs(d_eta - pred_eta).max() < 5e-3 * np.abs(pred_eta).max()
