import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nodalrel import (
    MU_EARTH,
    MU_SUN,
    NodalRelativeState,
    NoiseSpec,
    ReferenceParams,
    ScenarioConfig,
    ZeroRange,
    ekf_propagate,
    ekf_update,
    kepler_advance,
    measure,
    oe_from_classical,
    orbital_period,
    predict_measurement,
    relative_position,
    unperturbed_flow,
    wrap_angle,
)
from nodalrel.dynamics import advance_true_anomaly
from nodalrel.frames import rot_x, rot_z
from nodalrel.missionsim import build_truth, scenario_orbits
from nodalrel.navigation import (GIMBAL_EL_TOL, _EYE6, _angles, _coast,
                                 _inverse3, _predict)
from nodalrel.relstate import (_checked_reference, _checked_state,
                               _scalar_position)

from conftest import (EL1, EL2, f_unperturbed_jacobian, reference_e1,
                      reference_nu1)

MU = MU_EARTH
NOISE = NoiseSpec(sigma_az=math.radians(0.001), sigma_el=math.radians(0.001),
                  sigma_beta=math.radians(0.001))


class _ZeroRng:
    def standard_normal(self, *args):
        return 0.0


def default_state():
    oe, eta = oe_from_classical(EL1, EL2)
    return oe, eta


class TestMeasure:
    def test_radial_target_noiseless(self):
        az, el, beta = measure(np.array([5e3, 0.0, 0.0]), 90.0, NOISE,
                               _ZeroRng())
        assert az == 0.0
        assert el == 0.0
        assert abs(beta - 90.0 / 5e3) < 1e-18

    def test_transverse_target_quarter_azimuth(self):
        az = measure(np.array([0.0, 7e3, 0.0]), 90.0, NOISE, _ZeroRng())[0]
        assert abs(az - math.pi / 2) < 1e-15

    def test_pixel_crossover_scale(self):
        # a 90 km target at 5e6 km subtends about the 0.001 deg noise floor
        beta = measure(np.array([5e6, 0.0, 0.0]), 90.0, NOISE, _ZeroRng())[2]
        assert abs(beta - 1.8e-5) < 1e-12
        assert abs(beta / NOISE.sigma_beta - 1.031) < 0.01

    def test_zero_range_raises(self):
        with pytest.raises(ZeroRange):
            measure(np.zeros(3), 90.0, NOISE, _ZeroRng())

    def test_noise_is_applied_through_rng(self):
        rng = np.random.default_rng(0)
        z1 = measure(np.array([5e3, 1e3, -2e2]), 90.0, NOISE, rng)
        rng = np.random.default_rng(0)
        z2 = measure(np.array([5e3, 1e3, -2e2]), 90.0, NOISE, rng)
        assert np.array_equal(z1, z2)

    def test_single_row_draws_three_normals(self):
        # A (3,) position adds one standard normal to each angle, in order.
        dr = np.array([5e3, 1e3, -2e2])
        rho = math.sqrt(5e3 ** 2 + 1e3 ** 2 + 2e2 ** 2)
        rng = np.random.default_rng(3)
        want = np.array([
            np.arctan2(1e3, 5e3) + NOISE.sigma_az * rng.standard_normal(),
            np.arcsin(-2e2 / rho) + NOISE.sigma_el * rng.standard_normal(),
            90.0 / rho + NOISE.sigma_beta * rng.standard_normal()])
        got = measure(dr, 90.0, NOISE, np.random.default_rng(3))
        assert got.shape == (3,)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64,
                                               np.random.Philox])
    def test_rows_match_single_row_calls(self, bit_generator):
        dr = np.random.default_rng(1).normal(scale=1e4, size=(7, 3))
        bulk = measure(dr, 90.0, NOISE, np.random.Generator(bit_generator(5)))
        rng = np.random.Generator(bit_generator(5))
        rows = np.array([measure(row, 90.0, NOISE, rng) for row in dr])
        assert bulk.shape == (7, 3)
        assert bulk.tobytes() == rows.tobytes()

    def test_co_located_row_raises(self):
        dr = np.array([[5e3, 1e3, -2e2], [0.0, 0.0, 0.0], [1e3, 0.0, 0.0]])
        with pytest.raises(ZeroRange):
            measure(dr, 90.0, NOISE, np.random.default_rng(0))

    def test_last_axis_must_hold_three_components(self):
        with pytest.raises(ValueError):
            measure(np.ones((2, 2)), 90.0, NOISE, np.random.default_rng(0))

    def test_rows_match_row_loop(self):
        # the 28,441 desk rows at 60 s: beta bit for bit, az and el within
        # an ulp of libm's atan2 and asin
        cfg = replace(ScenarioConfig(), sample_dt=60.0)
        dr = build_truth(cfg).dr
        got = measure(dr, cfg.d, cfg.noise, _ZeroRng())
        want = reference_measure(dr, cfg.d, cfg.noise, _ZeroRng())
        assert got.shape == want.shape == dr.shape
        assert got[:, 2].tobytes() == want[:, 2].tobytes()
        assert np.all(np.abs(got[:, :2] - want[:, :2])
                      <= np.spacing(np.abs(want[:, :2])))

    @pytest.mark.parametrize("bad", [0.0, math.nan])
    def test_bad_range_in_any_row_raises(self, bad):
        dr = np.full((2, 4, 3), 1e3)
        dr[1, 2] = bad
        with pytest.raises(ZeroRange):
            measure(dr, 90.0, NOISE, np.random.default_rng(0))


def reference_measure(dr, d: float, noise: NoiseSpec, rng) -> np.ndarray:
    """:func:`measure` as a loop over rows, each row's angles by libm
    through :func:`_angles`."""
    dr = np.asarray(dr, dtype=float)
    z = np.empty(dr.shape)
    for row, pos in zip(z.reshape(-1, 3), dr.reshape(-1, 3)):
        row[:] = _angles(*pos.tolist(), d)[:3]
    sigma = np.array([noise.sigma_az, noise.sigma_el, noise.sigma_beta])
    return z + sigma * rng.standard_normal(dr.shape)


class TestPredictMeasurement:
    def test_jacobian_matches_finite_differences(self):
        oe, eta = default_state()
        _, h, _ = predict_measurement(oe.as_array(), eta.as_array(), 90.0)
        x = oe.as_array()
        for col in range(6):
            step = 1e-7
            xp, xm = x.copy(), x.copy()
            xp[col] += step
            xm[col] -= step
            yp = predict_measurement(xp, eta.as_array(), 90.0)[0]
            ym = predict_measurement(xm, eta.as_array(), 90.0)[0]
            fd = (yp - ym) / (2 * step)
            scale = max(np.abs(h).max(), 1e-12)
            assert np.abs(h[:, col] - fd).max() / scale < 1e-6

    def test_zero_range_raises(self):
        with pytest.raises(ZeroRange):
            predict_measurement(np.zeros(6), [1e4, 0.1, 0.0], 90.0)

    def test_beta_decreases_with_range(self):
        oe, eta = default_state()
        t = np.linspace(0.0, 2000.0, 20)
        oe_arr, eta_arr = unperturbed_flow(oe, eta, MU, t)
        betas, ranges = [], []
        for k in range(t.size):
            oe_k = NodalRelativeState.from_array(oe_arr[k])
            eta_k = ReferenceParams.from_array(eta_arr[k])
            y, _, _ = predict_measurement(oe_arr[k], eta_arr[k], 90.0)
            betas.append(y[2])
            ranges.append(np.linalg.norm(relative_position(oe_k, eta_k).dr))
        betas = np.array(betas)
        ranges = np.array(ranges)
        assert np.all(np.sign(np.diff(betas)) == -np.sign(np.diff(ranges)))

    def test_gimbal_flag(self):
        # gamma = pi/2 (|dh| = 1) with q = 1/cos(dtheta) puts satellite 2
        # exactly on the RTN1 normal axis, so elevation hits the pole
        dtheta = 0.5
        x_polar = [dtheta, 1.0 / math.cos(dtheta) - 1.0, 0.0, 0.0, 1.0, 0.0]
        eta = [1e4, 0.0, 0.0]
        y, _, gimbal = predict_measurement(x_polar, eta, 90.0)
        assert abs(abs(y[1]) - math.pi / 2) < 1e-9
        assert gimbal
        x_benign = [0.3, 0.0, 0.0, 0.0, 0.0, 0.3]
        assert not predict_measurement(x_benign, eta, 90.0)[2]


class TestEkfPropagate:
    def test_zero_error_tracks_truth(self):
        oe, eta = default_state()
        dt = 30.0
        n = 40
        oe_true, eta_true = unperturbed_flow(oe, eta, MU,
                                             dt * np.arange(n + 1))
        x_k, p_k = oe.as_array(), np.eye(6) * 1e-8
        for k in range(n):
            x_k, p_k = ekf_propagate(x_k, p_k, eta_true[k], eta_true[k + 1],
                                     dt, np.zeros((6, 6)), MU)
        err = x_k - oe_true[n]
        err[0] = wrap_angle(err[0])
        assert np.abs(err).max() < 1e-10

    def test_covariance_grows_with_process_noise(self):
        oe, eta = default_state()
        q = np.diag([1e-12] * 6)
        _, p1 = ekf_propagate(oe.as_array(), np.zeros((6, 6)),
                              eta.as_array(),
                              unperturbed_flow(oe, eta, MU, [100.0])[1][0],
                              100.0, q, MU)
        assert np.trace(p1) >= 100.0 * 6 * 1e-12 * 0.5
        assert np.abs(p1 - p1.T).max() == 0.0

    def test_transition_rotates_vector_blocks_full_orbit(self):
        # over one reference period the (dxi, dh) blocks of the transition
        # matrix are full 2-pi rotations, i.e. identity; the reference is
        # circular, so it is the same at both ends
        x = [0.0, 0.0, 1e-6, 0.0, 1e-6, 0.0]
        eta = [1.2e4, 0.0, 0.0]
        period = orbital_period(1.2e4, MU)
        p0 = np.diag([1e-10] * 6)
        _, p1 = ekf_propagate(x, p0, eta, eta, period, np.zeros((6, 6)), MU)
        # the xi and h diagonal blocks must return to their initial values
        assert np.abs(p1[2:4, 2:4] - p0[2:4, 2:4]).max() < 1e-13
        assert np.abs(p1[4:6, 4:6] - p0[4:6, 4:6]).max() < 1e-13

    def test_invalid_dt_rejected(self):
        oe, eta = default_state()
        with pytest.raises(ValueError):
            ekf_propagate(oe.as_array(), np.eye(6), eta.as_array(),
                          eta.as_array(), 0.0, np.zeros((6, 6)), MU)


def reference_propagate(oe0, P, eta, dt, Q, mu, substeps=1):
    """Full 6x6 RK4 of Phi' = (df/dx) Phi with f_unperturbed_jacobian over
    `substeps` steps: the reference for ekf_propagate's closed-form mean
    and transition, from the validated state oe0 with covariance P at the
    reference eta.  Returns (NodalRelativeState, P, ReferenceParams,
    Phi)."""
    e1 = reference_e1(eta)
    nu0 = reference_nu1(eta)
    a1 = eta.p1 / (1.0 - e1 * e1)

    def stage(tau):
        nu = float(advance_true_anomaly(nu0, e1, a1, tau, mu))
        dnu = nu - nu0
        c, s = math.cos(dnu), math.sin(dnu)
        oe = NodalRelativeState(
            dtheta=0.0, dp=oe0.dp,
            dxi_x=c * oe0.dxi_x - s * oe0.dxi_y,
            dxi_y=s * oe0.dxi_x + c * oe0.dxi_y,
            dh_x=c * oe0.dh_x - s * oe0.dh_y,
            dh_y=s * oe0.dh_x + c * oe0.dh_y)
        et = ReferenceParams(p1=eta.p1, ec=e1 * math.cos(nu),
                             es=e1 * math.sin(nu))
        return oe, et

    def rates(cached, dtheta, phi):
        oe_base, et = cached
        oe = NodalRelativeState(
            dtheta=dtheta, dp=oe_base.dp,
            dxi_x=oe_base.dxi_x, dxi_y=oe_base.dxi_y,
            dh_x=oe_base.dh_x, dh_y=oe_base.dh_y)
        k = math.sqrt(mu / et.p1 ** 3)
        c, s = math.cos(oe.dtheta), math.sin(oe.dtheta)
        denom = 1.0 + (oe.dxi_x + et.ec) * c - (oe.dxi_y + et.es) * s
        dth_rate = k * (denom * denom / (1.0 + oe.dp) ** 1.5
                        - (1.0 + et.ec) ** 2)
        return dth_rate, f_unperturbed_jacobian(oe, et, mu) @ phi

    h = dt / substeps
    dtheta = oe0.dtheta
    phi = np.eye(6)
    end_stage = None
    for i in range(substeps):
        tau0 = i * h
        st0 = stage(tau0) if end_stage is None else end_stage
        st_half = stage(tau0 + 0.5 * h)
        end_stage = stage(tau0 + h)
        k1t, k1p = rates(st0, dtheta, phi)
        k2t, k2p = rates(st_half, dtheta + 0.5 * h * k1t,
                         phi + 0.5 * h * k1p)
        k3t, k3p = rates(st_half, dtheta + 0.5 * h * k2t,
                         phi + 0.5 * h * k2p)
        k4t, k4p = rates(end_stage, dtheta + h * k3t, phi + h * k3p)
        dtheta += h / 6.0 * (k1t + 2.0 * k2t + 2.0 * k3t + k4t)
        phi = phi + h / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)

    oe_end, eta_new = end_stage
    oe_new = NodalRelativeState(
        dtheta=dtheta, dp=oe_end.dp,
        dxi_x=oe_end.dxi_x, dxi_y=oe_end.dxi_y,
        dh_x=oe_end.dh_x, dh_y=oe_end.dh_y)
    p_new = phi @ P @ phi.T + np.asarray(Q, dtype=float) * dt
    p_new = 0.5 * (p_new + p_new.T)
    return oe_new, p_new, eta_new, phi


def desk_state():
    """Heliocentric desk scenario 20 days before impact, off the truth by
    the prior's 1-sigma in every component: (state, P, reference, Q)."""
    cfg = ScenarioConfig()
    el1, el2 = scenario_orbits(cfg)
    oe, eta = oe_from_classical(*(kepler_advance(el, cfg.t_start, MU_SUN)
                                  for el in (el1, el2)))
    x = oe.as_array() + np.sqrt(cfg.p0_diag)
    return (NodalRelativeState.from_array(x), np.diag(cfg.p0_diag), eta,
            np.diag(cfg.q_diag))


def assert_matches_reference(oe, P, eta, q, dt, substeps):
    """ekf_propagate and _coast's Phi against reference_propagate, the
    coast given the reference's own end."""
    ref_oe, ref_p, ref_eta, ref_phi = reference_propagate(oe, P, eta, dt, q,
                                                          MU_SUN, substeps)
    ends = eta.as_array(), ref_eta.as_array()
    x_new, p_new = ekf_propagate(oe.as_array(), P, *ends, dt, q, MU_SUN)
    _, phi = _coast(_checked_state(oe.as_array()),
                    *map(_checked_reference, ends), dt, MU_SUN)

    err = x_new - ref_oe.as_array()
    err[0] = wrap_angle(err[0])
    assert np.abs(err).max() <= 1e-12
    assert np.abs(phi - ref_phi).max() <= 1e-10 * np.abs(ref_phi).max()
    # covariance entries against the reference, scaled per pair
    scale = np.sqrt(np.outer(np.diag(ref_p), np.diag(ref_p)))
    assert np.all(np.abs(p_new - ref_p) <= 1e-9 * scale)


class TestEkfPropagateReference:
    """The closed-form transition against the full 6x6 RK4 reference,
    which takes `substeps` RK4 steps over dt."""

    @pytest.mark.parametrize("substeps", [1, 4])
    @pytest.mark.parametrize("dt", [60.0, 86400.0])
    def test_matches_full_rk4_transition(self, dt, substeps):
        assert_matches_reference(*desk_state(), dt, substeps)

    def test_matches_over_one_reference_period(self):
        oe, P, eta, q = desk_state()
        period = orbital_period(eta.p1 / (1.0 - reference_e1(eta) ** 2),
                                MU_SUN)
        assert_matches_reference(oe, P, eta, q, period, substeps=8000)

    @pytest.mark.parametrize("dt", [600.0, 86400.0])
    def test_circular_satellite2(self, dt):
        # dxi = -(ec, es) puts satellite 2 on a circle: e2 = 0 exactly
        oe, P, eta, q = desk_state()
        x = oe.as_array()
        x[2:4] = -eta.ec, -eta.es
        assert_matches_reference(NodalRelativeState.from_array(x), P, eta, q,
                                 dt, substeps=64)

    @pytest.mark.parametrize("dt", [600.0, 86400.0])
    def test_circular_reference(self, dt):
        # e1 = 0: no phasor to read satellite 1's anomaly from, so the coast
        # advances it by n1 dt.  Satellite 2 keeps its orbit about the node.
        oe, P, eta, q = desk_state()
        x = oe.as_array()
        x[2:4] += eta.ec, eta.es
        oe, eta = NodalRelativeState.from_array(x), replace(eta, ec=0.0,
                                                             es=0.0)
        assert_matches_reference(oe, P, eta, q, dt, substeps=4)
        oe_flow, eta_flow = unperturbed_flow(oe, eta, MU_SUN, [dt])
        assert np.array_equal(eta_flow[0], eta.as_array())
        err = ekf_propagate(x, P, eta_flow[0], eta_flow[0], dt, q,
                            MU_SUN)[0] - oe_flow[0]
        err[0] = wrap_angle(err[0])
        assert np.abs(err).max() <= 1e-12


class TestEkfUpdate:
    def test_uninformative_jacobian_leaves_state(self):
        oe, eta = default_state()
        x, e = oe.as_array(), eta.as_array()
        z = predict_measurement(x, e, 90.0)[0]
        x_post, _, innov = ekf_update(x, np.diag([1e-8] * 6), e, z,
                                      NOISE.covariance(), 90.0)
        # zero innovation: posterior mean unchanged
        assert np.abs(innov).max() < 1e-15
        assert np.abs(x_post - x).max() < 1e-14

    def test_large_prior_consistent_with_measurement(self):
        # diffuse prior: posterior must reproduce the measured directions
        oe, eta = default_state()
        e = eta.as_array()
        x_wrong = oe.as_array() + np.array([3e-4, -2e-4, 1e-4, 2e-4,
                                            -1e-4, 2e-4])
        z = predict_measurement(oe.as_array(), e, 90.0)[0]  # truth, noiseless
        x_post = ekf_update(x_wrong, np.diag([1e-2] * 6), e, z,
                            NOISE.covariance(), 90.0)[0]
        y_post = predict_measurement(x_post, e, 90.0)[0]
        resid = z - y_post
        resid[0] = wrap_angle(resid[0])
        # consistent within a few measurement sigmas in all 3 channels
        assert abs(resid[0]) < 3 * NOISE.sigma_az
        assert abs(resid[1]) < 3 * NOISE.sigma_el
        assert abs(resid[2]) < 3 * NOISE.sigma_beta

    def test_innovation_azimuth_wrapping(self):
        oe, eta = default_state()
        x, e = oe.as_array(), eta.as_array()
        z = predict_measurement(x, e, 90.0)[0] + [2 * math.pi, 0.0, 0.0]
        innov = ekf_update(x, np.diag([1e-12] * 6), e, z,
                           NOISE.covariance(), 90.0)[2]
        assert abs(innov[0]) < 1e-12

    def test_covariance_stays_symmetric_psd(self):
        rng = np.random.default_rng(70)
        oe, eta = default_state()
        x, P, e = oe.as_array(), np.diag([1e-8] * 6), eta.as_array()
        for _ in range(50):
            z = measure(relative_position(NodalRelativeState.from_array(x),
                                          eta).dr, 90.0, NOISE, rng)
            x, P, _ = ekf_update(x, P, e, z, NOISE.covariance(), 90.0)
            assert np.abs(P - P.T).max() == 0.0
            assert np.linalg.eigvalsh(P).min() > -1e-18


def exact_solve(s: np.ndarray, b: np.ndarray) -> np.ndarray:
    """s^-1 b for a nonsingular 3x3 s and a 3xn b, in exact rational
    arithmetic on their floats (Gauss-Jordan over fractions.Fraction), each
    entry rounded once to a float."""
    rows = [[Fraction(v) for v in (*si, *bi)]
            for si, bi in zip(s.tolist(), b.tolist())]
    for k in range(3):
        p = next(i for i in range(k, 3) if rows[i][k])
        rows[k], rows[p] = rows[p], rows[k]
        for i in range(3):
            if i != k and rows[i][k]:
                f = rows[i][k] / rows[k][k]
                rows[i] = [a - f * c for a, c in zip(rows[i], rows[k])]
    return np.array([[float(v / r[k]) for v in r[3:]]
                     for k, r in enumerate(rows)])


def assert_gain_within(s: np.ndarray, hp: np.ndarray, tol: float):
    """The update's gain columns, the rows of _inverse3(s).dot(hp), each
    within tol of its largest |entry| of the exact solve."""
    want = exact_solve(s, hp)
    gap = np.abs(_inverse3(s).dot(hp) - want)
    scale = np.abs(want).max(axis=1, keepdims=True)
    assert np.all(gap <= tol * scale), (gap / scale).max()


class TestGainSolve:
    """The closed-form 3x3 solve of the update's gain against the exact
    solve of the same floats, and its pivots that are not positive."""

    def test_desk_chain_matches_exact_solve(self):
        # S and HP of every 20th update of a desk run at 600 s, formed as
        # ekf_update forms them
        cfg = replace(ScenarioConfig(), sample_dt=600.0)
        truth = build_truth(cfg)
        rng = np.random.default_rng(15)
        z = measure(truth.dr, cfg.d, cfg.noise, rng)
        x = truth.oe[0] + cfg.init_perturb_sigma * rng.standard_normal(6)
        P, eta = np.diag(cfg.p0_diag), truth.eta
        r_cov, q = cfg.noise.covariance(), np.diag(cfg.q_diag)
        for k, zk in enumerate(z):
            if k % 20 == 0:
                h = _predict(_checked_state(x), _checked_reference(eta[k]),
                             cfg.d)[1]
                hp = h.dot(P)
                assert_gain_within(hp.dot(h.T) + r_cov, hp, 1e-15)
            x, P, _ = ekf_update(x, P, eta[k], zk, r_cov, cfg.d)
            if k + 1 < len(z):
                x, P = ekf_propagate(x, P, eta[k], eta[k + 1],
                                     cfg.sample_dt, q, cfg.mu)

    @given(st.lists(st.floats(-10.0, -5.0), min_size=3, max_size=3),
           st.lists(st.floats(0.0, 2.0 * math.pi), min_size=3, max_size=3),
           st.lists(st.floats(1.0, 10.0), min_size=3, max_size=3),
           st.lists(st.floats(-1.0, 1.0), min_size=18, max_size=18))
    def test_spd_with_desk_scale_spread(self, log_diag, angles, eig, g):
        # S = D C D: diagonals 1e-10 to 1e-5, as the desk's beta and angle
        # channels, and a correlation C of eigenvalue spread up to 10 (the
        # desk's S reach 6.0); HP's rows on the scale of S's, as H P's are.
        # Elimination without row swaps is scale invariant: with
        # C = L1 U1, D C D factors as (D L1 D^-1) (D U1 D), so the spread
        # of the diagonals costs no digits. Pivoting by magnitude, as
        # LAPACK dgesv does, swaps rows wherever a correlation exceeds the
        # ratio of two scales, and loses up to 4.2e-14 in this space.
        rot = rot_z(angles[0]) @ rot_x(angles[1]) @ rot_z(angles[2])
        m = (rot * eig) @ rot.T
        d = 10.0 ** (0.5 * np.array(log_diag)) / np.sqrt(np.diag(m))
        s = m * np.outer(d, d)
        s = 0.5 * (s + s.T)
        hp = np.array(g).reshape(3, 6) * np.sqrt(np.diag(s))[:, None]
        assert_gain_within(s, hp, 1e-15)

    @pytest.mark.parametrize("s, pivot", [
        ([[0.0, 0.0, 0.0], [0.0, 2.0, 1.0], [0.0, 1.0, 3.0]], 1),
        ([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]], 2),
        ([[4.0, 0.0, 2.0], [0.0, 2.0, 1.0], [2.0, 1.0, 1.5]], 3)])
    def test_zero_pivot_raises(self, s, pivot):
        # symmetric positive semidefinite and singular, the pivot exactly
        # zero in floats
        match = rf"singular innovation covariance \({pivot}\)"
        with pytest.raises(np.linalg.LinAlgError, match=match):
            _inverse3(np.array(s))

    def test_indefinite_raises(self):
        # symmetric, nonsingular and well-conditioned, with one negative
        # eigenvalue: only the last pivot, -5/3, shows it
        s = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, -1.0]])
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"singular innovation covariance \(3\)"):
            _inverse3(s)

    def test_zero_covariances_raise(self):
        oe, eta = default_state()
        x, e = oe.as_array(), eta.as_array()
        z = predict_measurement(x, e, 90.0)[0]
        with pytest.raises(np.linalg.LinAlgError,
                           match="singular innovation covariance"):
            ekf_update(x, np.zeros((6, 6)), e, z, np.zeros((3, 3)), 90.0)

    def test_nan_covariance_fails_the_posterior_check(self):
        oe, eta = default_state()
        x, e = oe.as_array(), eta.as_array()
        z = predict_measurement(x, e, 90.0)[0]
        P = np.diag([1e-8] * 6)
        P[2, 2] = math.nan
        with pytest.raises(ValueError, match="nonfinite relative state"):
            ekf_update(x, P, e, z, NOISE.covariance(), 90.0)


class TestStateCheck:
    """The measurement prediction and the filter step reject, with
    ValueError, the states that NodalRelativeState rejects: a nonfinite
    entry or dp <= -1, on entry or as a posterior (which a nan measurement
    makes nan); and the references that ReferenceParams rejects."""

    def test_nan_measurement_rejected(self):
        oe, eta = default_state()
        x, e = oe.as_array(), eta.as_array()
        for i in range(3):
            z = predict_measurement(x, e, 90.0)[0]
            z[i] = math.nan
            with pytest.raises(ValueError):
                ekf_update(x, np.diag([1e-8] * 6), e, z, NOISE.covariance(),
                           90.0)

    @pytest.mark.parametrize("index, value", [(0, math.nan), (3, math.nan),
                                              (1, -1.0)])
    def test_invalid_state_rejected(self, index, value):
        oe, eta = default_state()
        x, e = oe.as_array(), eta.as_array()
        z = predict_measurement(x, e, 90.0)[0]
        x[index] = value
        with pytest.raises(ValueError):
            NodalRelativeState.from_array(x)
        with pytest.raises(ValueError):
            predict_measurement(x, e, 90.0)
        with pytest.raises(ValueError):
            ekf_update(x, np.diag([1e-8] * 6), e, z, NOISE.covariance(), 90.0)
        with pytest.raises(ValueError):
            ekf_propagate(x, np.diag([1e-8] * 6), e, e, 600.0,
                          np.zeros((6, 6)), MU)

    @pytest.mark.parametrize("eta", [(0.0, 0.1, 0.0), (math.nan, 0.1, 0.0),
                                     (1e4, 0.8, 0.6), (1e4, math.nan, 0.0),
                                     # once passed, freezing the coast
                                     (math.inf, 0.1, 0.0)])
    def test_invalid_reference_rejected(self, eta):
        oe, eta_ok = default_state()
        x, e = oe.as_array(), eta_ok.as_array()
        z = predict_measurement(x, e, 90.0)[0]
        match = (f"p1 must be finite and > 0, got {eta[0]}$"
                 if not 0.0 < eta[0] < math.inf else "eccentricity phasor")
        with pytest.raises(ValueError, match=match):
            ReferenceParams(*eta)
        with pytest.raises(ValueError, match=match):
            predict_measurement(x, eta, 90.0)
        with pytest.raises(ValueError, match=match):
            ekf_update(x, np.diag([1e-8] * 6), eta, z, NOISE.covariance(),
                       90.0)
        for ends in ((eta, e), (e, eta)):
            with pytest.raises(ValueError, match=match):
                ekf_propagate(x, np.diag([1e-8] * 6), *ends, 600.0,
                              np.zeros((6, 6)), MU)

    @pytest.mark.parametrize("x_size, eta_size, match", [
        (5, 3, "a relative state has 6 entries on one axis, got 5 "),
        (7, 3, "a relative state has 6 entries on one axis, got 7 "),
        (6, 2, "a reference has 3 entries on one axis, got 2 "),
        (6, 4, "a reference has 3 entries on one axis, got 4 ")])
    def test_wrong_length_rejected(self, x_size, eta_size, match):
        oe, eta = default_state()
        z = predict_measurement(oe.as_array(), eta.as_array(), 90.0)[0]
        x, e = np.resize(oe.as_array(), x_size), np.resize(eta.as_array(),
                                                            eta_size)
        with pytest.raises(ValueError, match=match):
            if x_size != 6:
                NodalRelativeState.from_array(x)
            else:
                ReferenceParams.from_array(e)
        with pytest.raises(ValueError, match=match):
            predict_measurement(x, e, 90.0)
        with pytest.raises(ValueError, match=match):
            ekf_update(x, np.diag([1e-8] * 6), e, z, NOISE.covariance(), 90.0)
        with pytest.raises(ValueError, match=match):
            ekf_propagate(x, np.diag([1e-8] * 6), e, e, 600.0,
                          np.zeros((6, 6)), MU)

    def test_stacked_states_rejected(self):
        oe, eta = default_state()
        x = np.stack([oe.as_array()] * 2)
        with pytest.raises(ValueError, match=r"got 12 in shape \(2, 6\)"):
            predict_measurement(x, eta.as_array(), 90.0)

    @pytest.mark.parametrize("dt", [math.inf, math.nan])
    def test_nonfinite_dt_rejected(self, dt):
        oe, eta = default_state()
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            ekf_propagate(oe.as_array(), np.diag([1e-8] * 6), eta.as_array(),
                          eta.as_array(), dt, np.zeros((6, 6)), MU)

    def test_process_noise_diagonal_rejected(self):
        # the 6-vector of ScenarioConfig.q_diag, which numpy would broadcast
        # over every row of P
        oe, eta = default_state()
        q_diag = np.array(ScenarioConfig().q_diag)
        with pytest.raises(ValueError,
                           match=r"Q must have shape \(6, 6\), got \(6,\)"):
            ekf_propagate(oe.as_array(), np.diag([1e-8] * 6), eta.as_array(),
                          eta.as_array(), 600.0, q_diag, MU)

    def test_measurement_noise_diagonal_rejected(self):
        oe, eta = default_state()
        x, e = oe.as_array(), eta.as_array()
        z = predict_measurement(x, e, 90.0)[0]
        r_diag = np.diag(NOISE.covariance())
        with pytest.raises(ValueError, match=r"r_cov must have shape "
                           r"\(3, 3\), got \(3,\)"):
            ekf_update(x, np.diag([1e-8] * 6), e, z, r_diag, 90.0)


# The filter step in the ``@`` operator form, one product per operator and
# out-of-place sums: the reference that navigation's step, with
# ndarray.dot products and in-place sums, must match bit for bit.

def reference_predict(state, ref, d: float) -> tuple[tuple, np.ndarray, bool]:
    """:func:`predict_measurement` of the checked floats of a state and its
    reference, with y as a 3-tuple."""
    *_, (rx, ry, rz), j_oe = _scalar_position(*state, *ref, jacobians=True)
    az, el, beta, rho, rho_rt2 = _angles(rx, ry, rz, d)
    gimbal = abs(abs(el) - 0.5 * math.pi) < GIMBAL_EL_TOL

    # d(az, el, beta)/d(dr), its angle rows vanishing on the normal axis,
    # and j_oe in one flat array
    rho3 = rho ** 3
    angle_rows = (0.0,) * 6
    if rho_rt2 > 0.0:
        rho_rt = math.sqrt(rho_rt2)
        zk = rho * rho * rho_rt
        angle_rows = (-ry / rho_rt2, rx / rho_rt2, 0.0,
                      -rz * rx / zk, -rz * ry / zk,
                      1.0 / rho_rt - rz * rz / zk)
    flat = np.array((*angle_rows, -d * rx / rho3, -d * ry / rho3,
                     -d * rz / rho3, *j_oe[0], *j_oe[1], *j_oe[2]))
    return ((az, el, beta), flat[:9].reshape(3, 3) @ flat[9:].reshape(3, 6),
            gimbal)


def reference_ekf_propagate(x, P, eta, eta_next, dt, Q, mu):
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    x_new, phi = _coast(_checked_state(x), _checked_reference(eta),
                        _checked_reference(eta_next), dt, mu)
    p_new = phi @ P @ phi.T + np.asarray(Q, dtype=float) * dt
    return x_new, 0.5 * (p_new + p_new.T)


def reference_ekf_update(x, P, eta, z, r_cov, d):
    state = _checked_state(x)
    (az, el, beta), h, _ = reference_predict(state, _checked_reference(eta),
                                             d)
    z_az, z_el, z_beta = np.asarray(z, dtype=float).tolist()
    d_az = z_az - az
    innov = np.array((math.atan2(math.sin(d_az), math.cos(d_az)),
                      z_el - el, z_beta - beta))

    hp = h @ P
    gain = (_inverse3(hp @ h.T + r_cov) @ hp).T  # S symmetric

    x_new = np.array(state) + gain @ innov
    ikh = _EYE6 - gain @ h
    p_new = ikh @ P @ ikh.T + gain @ r_cov @ gain.T
    return np.array(_checked_state(x_new)), 0.5 * (p_new + p_new.T), innov


class TestStepMatchesReference:
    """The filter step is the reference step, bit for bit, over a chain of
    desk steps: each chain carries its own state, so a difference in any
    last digit shows at the step where it arises and stays."""

    def test_desk_chain_bitwise(self):
        # the first 320 desk samples at 600 s, started as a run is
        cfg = replace(ScenarioConfig(), sample_dt=600.0)
        truth = build_truth(cfg)
        rng = np.random.default_rng(15)
        z = measure(truth.dr[:320], cfg.d, cfg.noise, rng)
        x = truth.oe[0] + cfg.init_perturb_sigma * rng.standard_normal(6)
        P, eta = np.diag(cfg.p0_diag), truth.eta
        r_cov, q = cfg.noise.covariance(), np.diag(cfg.q_diag)
        xr, pr = x, P
        for k, zk in enumerate(z):
            x, P, innov = ekf_update(x, P, eta[k], zk, r_cov, cfg.d)
            xr, pr, innov_r = reference_ekf_update(xr, pr, eta[k], zk, r_cov,
                                                   cfg.d)
            for got, want in ((x, xr), (P, pr), (innov, innov_r)):
                assert np.array_equal(got, want), k
            ends = eta[k], eta[k + 1]
            x, P = ekf_propagate(x, P, *ends, cfg.sample_dt, q, cfg.mu)
            xr, pr = reference_ekf_propagate(xr, pr, *ends, cfg.sample_dt, q,
                                             cfg.mu)
            for got, want in ((x, xr), (P, pr)):
                assert np.array_equal(got, want), k


class TestStepAliasing:
    """A step writes into no array it is given, and returns arrays that
    share no memory with its inputs or with the shared identity: its
    in-place sums run on arrays it made itself."""

    @pytest.mark.parametrize("step", [
        lambda x, P, eta, z, r_cov, Q: ekf_update(x, P, eta, z, r_cov, 90.0),
        lambda x, P, eta, z, r_cov, Q: ekf_propagate(x, P, eta, eta, 600.0,
                                                     Q, MU),
    ], ids=["update", "propagate"])
    def test_inputs_untouched_and_outputs_fresh(self, step):
        # a full (not diagonal) covariance, so that every product carries
        # data, and an innovation of 3 sigma per channel
        oe, eta = default_state()
        x, e = oe.as_array(), eta.as_array()
        m = np.random.default_rng(16).standard_normal((6, 6))
        z = predict_measurement(x, e, 90.0)[0] + 3.0 * np.array(
            [NOISE.sigma_az, -NOISE.sigma_el, NOISE.sigma_beta])
        inputs = dict(x=x, P=1e-9 * (m @ m.T + np.eye(6)), eta=e, z=z,
                      r_cov=NOISE.covariance(),
                      Q=np.diag([1e-16, 1e-20, 1e-20, 1e-20, 1e-20, 1e-20]))
        before = {name: a.copy() for name, a in inputs.items()}
        out = step(**inputs)
        for name, a in inputs.items():
            assert a.tobytes() == before[name].tobytes(), name
        assert np.array_equal(_EYE6, np.eye(6))
        for got in out:
            for a in (*inputs.values(), _EYE6):
                assert not np.shares_memory(got, a)
        assert np.array_equal(out[1], out[1].T)
