import math

import numpy as np
import pytest

from nodalrel import (
    MU_EARTH,
    MU_SUN,
    FilterState,
    MeasurementTriple,
    NodalRelativeState,
    NoiseSpec,
    ReferenceParams,
    ScenarioConfig,
    ZeroRange,
    ekf_propagate,
    ekf_update,
    f_unperturbed_jacobian,
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
from nodalrel.missionsim import scenario_orbits
from nodalrel.navigation import _coast

from conftest import EL1, EL2

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
        z = measure(np.array([5e3, 0.0, 0.0]), 90.0, NOISE, _ZeroRng())
        assert z.az == 0.0
        assert z.el == 0.0
        assert abs(z.beta - 90.0 / 5e3) < 1e-18

    def test_transverse_target_quarter_azimuth(self):
        z = measure(np.array([0.0, 7e3, 0.0]), 90.0, NOISE, _ZeroRng())
        assert abs(z.az - math.pi / 2) < 1e-15

    def test_pixel_crossover_scale(self):
        # a 90 km target at 5e6 km subtends about the 0.001 deg noise floor
        z = measure(np.array([5e6, 0.0, 0.0]), 90.0, NOISE, _ZeroRng())
        assert abs(z.beta - 1.8e-5) < 1e-12
        assert abs(z.beta / NOISE.sigma_beta - 1.031) < 0.01

    def test_zero_range_raises(self):
        with pytest.raises(ZeroRange):
            measure(np.zeros(3), 90.0, NOISE, _ZeroRng())

    def test_noise_is_applied_through_rng(self):
        rng = np.random.default_rng(0)
        z1 = measure(np.array([5e3, 1e3, -2e2]), 90.0, NOISE, rng)
        rng = np.random.default_rng(0)
        z2 = measure(np.array([5e3, 1e3, -2e2]), 90.0, NOISE, rng)
        assert z1 == z2


class TestPredictMeasurement:
    def test_jacobian_matches_finite_differences(self):
        oe, eta = default_state()
        pred = predict_measurement(oe, eta, 90.0)
        x = oe.as_array()
        for col in range(6):
            step = 1e-7
            xp, xm = x.copy(), x.copy()
            xp[col] += step
            xm[col] -= step
            yp = predict_measurement(
                NodalRelativeState.from_array(xp), eta, 90.0).y.as_array()
            ym = predict_measurement(
                NodalRelativeState.from_array(xm), eta, 90.0).y.as_array()
            fd = (yp - ym) / (2 * step)
            scale = max(np.abs(pred.H).max(), 1e-12)
            assert np.abs(pred.H[:, col] - fd).max() / scale < 1e-6

    def test_zero_range_raises(self):
        oe = NodalRelativeState(0, 0, 0, 0, 0, 0)
        eta = ReferenceParams(p1=1e4, ec=0.1, es=0.0)
        with pytest.raises(ZeroRange):
            predict_measurement(oe, eta, 90.0)

    def test_beta_decreases_with_range(self):
        oe, eta = default_state()
        t = np.linspace(0.0, 2000.0, 20)
        oe_arr, eta_arr = unperturbed_flow(oe, eta, MU, t)
        betas, ranges = [], []
        for k in range(t.size):
            oe_k = NodalRelativeState.from_array(oe_arr[k])
            eta_k = ReferenceParams.from_array(eta_arr[k])
            pred = predict_measurement(oe_k, eta_k, 90.0)
            betas.append(pred.y.beta)
            ranges.append(np.linalg.norm(relative_position(oe_k, eta_k).dr))
        betas = np.array(betas)
        ranges = np.array(ranges)
        assert np.all(np.sign(np.diff(betas)) == -np.sign(np.diff(ranges)))

    def test_gimbal_flag(self):
        # gamma = pi/2 (|dh| = 1) with q = 1/cos(dtheta) puts satellite 2
        # exactly on the RTN1 normal axis, so elevation hits the pole
        dtheta = 0.5
        oe_polar = NodalRelativeState(dtheta, 1.0 / math.cos(dtheta) - 1.0,
                                      0.0, 0.0, 1.0, 0.0)
        eta = ReferenceParams(p1=1e4, ec=0.0, es=0.0)
        pred = predict_measurement(oe_polar, eta, 90.0)
        assert abs(abs(pred.y.el) - math.pi / 2) < 1e-9
        assert pred.gimbal_degenerate
        oe_benign = NodalRelativeState(0.3, 0.0, 0.0, 0.0, 0.0, 0.3)
        assert not predict_measurement(oe_benign, eta, 90.0).gimbal_degenerate


class TestEkfPropagate:
    def test_zero_error_tracks_truth(self):
        oe, eta = default_state()
        fs = FilterState(oe_hat=oe, P=np.eye(6) * 1e-8)
        dt = 30.0
        n = 40
        fs_k, eta_k = fs, eta
        for _ in range(n):
            fs_k, eta_k = ekf_propagate(fs_k, eta_k, dt, np.zeros((6, 6)), MU)
        oe_true, eta_true = unperturbed_flow(oe, eta, MU, [n * dt])
        err = fs_k.oe_hat.as_array() - oe_true[0]
        err[0] = wrap_angle(err[0])
        assert np.abs(err).max() < 1e-10
        assert np.abs(eta_k.as_array() - eta_true[0]).max() < 1e-6

    def test_covariance_grows_with_process_noise(self):
        oe, eta = default_state()
        fs = FilterState(oe_hat=oe, P=np.zeros((6, 6)))
        q = np.diag([1e-12] * 6)
        fs1, _ = ekf_propagate(fs, eta, 100.0, q, MU)
        assert np.trace(fs1.P) >= 100.0 * 6 * 1e-12 * 0.5
        assert np.abs(fs1.P - fs1.P.T).max() == 0.0

    def test_transition_rotates_vector_blocks_full_orbit(self):
        # over one reference period the (dxi, dh) blocks of the transition
        # matrix are full 2-pi rotations, i.e. identity
        oe = NodalRelativeState(0.0, 0.0, 1e-6, 0.0, 1e-6, 0.0)
        eta = ReferenceParams(p1=1.2e4, ec=0.0, es=0.0)
        period = orbital_period(1.2e4, MU)
        p0 = np.diag([1e-10] * 6)
        fs = FilterState(oe_hat=oe, P=p0)
        fs1, _ = ekf_propagate(fs, eta, period, np.zeros((6, 6)), MU)
        # the xi and h diagonal blocks must return to their initial values
        assert np.abs(fs1.P[2:4, 2:4] - p0[2:4, 2:4]).max() < 1e-13
        assert np.abs(fs1.P[4:6, 4:6] - p0[4:6, 4:6]).max() < 1e-13

    def test_invalid_dt_rejected(self):
        oe, eta = default_state()
        fs = FilterState(oe_hat=oe, P=np.eye(6))
        with pytest.raises(ValueError):
            ekf_propagate(fs, eta, 0.0, np.zeros((6, 6)), MU)


def reference_propagate(fs, eta, dt, Q, mu, substeps=1):
    """Full 6x6 RK4 of Phi' = (df/dx) Phi with f_unperturbed_jacobian over
    `substeps` steps: the reference for ekf_propagate's closed-form mean
    and transition.  Returns (FilterState, ReferenceParams, Phi)."""
    oe0 = fs.oe_hat
    e1 = eta.e1
    nu0 = eta.nu1
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
    p_new = phi @ fs.P @ phi.T + np.asarray(Q, dtype=float) * dt
    p_new = 0.5 * (p_new + p_new.T)
    return FilterState(oe_hat=oe_new, P=p_new), eta_new, phi


def desk_state():
    """Heliocentric desk scenario 20 days before impact, off the truth by
    the prior's 1-sigma in every component."""
    cfg = ScenarioConfig()
    el1, el2 = scenario_orbits(cfg)
    oe, eta = oe_from_classical(*(kepler_advance(el, cfg.t_start, MU_SUN)
                                  for el in (el1, el2)))
    x = oe.as_array() + np.sqrt(cfg.p0_diag)
    return (FilterState(oe_hat=NodalRelativeState.from_array(x),
                        P=np.diag(cfg.p0_diag)),
            eta, np.diag(cfg.q_diag))


def assert_matches_reference(fs, eta, q, dt, substeps):
    """ekf_propagate and _coast's Phi against reference_propagate."""
    ref_fs, ref_eta, ref_phi = reference_propagate(fs, eta, dt, q, MU_SUN,
                                                   substeps)
    new_fs, new_eta = ekf_propagate(fs, eta, dt, q, MU_SUN)
    _, phi, _ = _coast(fs.oe_hat, eta, dt, MU_SUN)

    err = new_fs.oe_hat.as_array() - ref_fs.oe_hat.as_array()
    err[0] = wrap_angle(err[0])
    assert np.abs(err).max() <= 1e-12
    assert np.abs(new_eta.as_array() - ref_eta.as_array()).max() \
        <= 1e-12 * eta.p1
    assert np.abs(phi - ref_phi).max() <= 1e-10 * np.abs(ref_phi).max()
    # covariance entries against the reference, scaled per pair
    scale = np.sqrt(np.outer(np.diag(ref_fs.P), np.diag(ref_fs.P)))
    assert np.all(np.abs(new_fs.P - ref_fs.P) <= 1e-9 * scale)


class TestEkfPropagateReference:
    """The closed-form transition against the full 6x6 RK4 reference,
    which takes `substeps` RK4 steps over dt."""

    @pytest.mark.parametrize("substeps", [1, 4])
    @pytest.mark.parametrize("dt", [60.0, 86400.0])
    def test_matches_full_rk4_transition(self, dt, substeps):
        assert_matches_reference(*desk_state(), dt, substeps)

    def test_matches_over_one_reference_period(self):
        fs, eta, q = desk_state()
        period = orbital_period(eta.p1 / (1.0 - eta.e1 ** 2), MU_SUN)
        assert_matches_reference(fs, eta, q, period, substeps=8000)

    @pytest.mark.parametrize("dt", [600.0, 86400.0])
    def test_circular_satellite2(self, dt):
        # dxi = -(ec, es) puts satellite 2 on a circle: e2 = 0 exactly
        fs, eta, q = desk_state()
        x = fs.oe_hat.as_array()
        x[2:4] = -eta.ec, -eta.es
        fs = FilterState(oe_hat=NodalRelativeState.from_array(x), P=fs.P)
        assert_matches_reference(fs, eta, q, dt, substeps=64)


class TestEkfUpdate:
    def test_uninformative_jacobian_leaves_state(self):
        oe, eta = default_state()
        fs = FilterState(oe_hat=oe, P=np.diag([1e-8] * 6))
        z = predict_measurement(oe, eta, 90.0).y
        upd = ekf_update(fs, eta, z, NOISE, 90.0)
        # zero innovation: posterior mean unchanged
        assert np.abs(upd.innovation).max() < 1e-15
        assert np.abs(upd.state.oe_hat.as_array() - oe.as_array()).max() < 1e-14

    def test_large_prior_consistent_with_measurement(self):
        # diffuse prior: posterior must reproduce the measured directions
        oe, eta = default_state()
        x_wrong = oe.as_array() + np.array([3e-4, -2e-4, 1e-4, 2e-4,
                                            -1e-4, 2e-4])
        fs = FilterState(oe_hat=NodalRelativeState.from_array(x_wrong),
                         P=np.diag([1e-2] * 6))
        z = predict_measurement(oe, eta, 90.0).y  # truth, noiseless
        upd = ekf_update(fs, eta, z, NOISE, 90.0)
        y_post = predict_measurement(upd.state.oe_hat, eta, 90.0).y.as_array()
        resid = z.as_array() - y_post
        resid[0] = wrap_angle(resid[0])
        # consistent within a few measurement sigmas in all 3 channels
        assert abs(resid[0]) < 3 * NOISE.sigma_az
        assert abs(resid[1]) < 3 * NOISE.sigma_el
        assert abs(resid[2]) < 3 * NOISE.sigma_beta

    def test_innovation_azimuth_wrapping(self):
        oe, eta = default_state()
        fs = FilterState(oe_hat=oe, P=np.diag([1e-12] * 6))
        y = predict_measurement(oe, eta, 90.0).y
        z = MeasurementTriple(az=y.az + 2 * math.pi, el=y.el, beta=y.beta)
        upd = ekf_update(fs, eta, z, NOISE, 90.0)
        assert abs(upd.innovation[0]) < 1e-12

    def test_covariance_stays_symmetric_psd(self):
        rng = np.random.default_rng(70)
        oe, eta = default_state()
        fs = FilterState(oe_hat=oe, P=np.diag([1e-8] * 6))
        for _ in range(50):
            z = measure(relative_position(fs.oe_hat, eta).dr, 90.0, NOISE,
                        rng)
            upd = ekf_update(fs, eta, z, NOISE, 90.0)
            fs = upd.state
            assert np.abs(fs.P - fs.P.T).max() == 0.0
            assert np.linalg.eigvalsh(fs.P).min() > -1e-18

    def test_outlier_gate_flags_not_drops(self):
        oe, eta = default_state()
        fs = FilterState(oe_hat=oe, P=np.diag([1e-12] * 6))
        y = predict_measurement(oe, eta, 90.0).y
        z = MeasurementTriple(az=y.az + 50 * NOISE.sigma_az, el=y.el,
                              beta=y.beta)
        upd = ekf_update(fs, eta, z, NOISE, 90.0, chi2_gate=16.27)
        assert upd.outlier
        # update still applied
        assert np.abs(upd.state.oe_hat.as_array()
                      - oe.as_array()).max() > 0.0

    def test_gate_matches_reference_distance_and_keeps_posterior(self):
        # The flag must match the Mahalanobis distance solved on its own,
        # and a gate must leave the posterior as the ungated update has it.
        rng = np.random.default_rng(71)
        oe, eta = default_state()
        fs = FilterState(oe_hat=oe, P=np.diag([1e-10] * 6))
        pred = predict_measurement(oe, eta, 90.0)
        s_cov = pred.H @ fs.P @ pred.H.T + NOISE.covariance()
        flags = []
        for _ in range(40):
            z = MeasurementTriple(
                *(pred.y.as_array() + rng.normal(scale=3.0, size=3)
                  * np.array([NOISE.sigma_az, NOISE.sigma_el,
                              NOISE.sigma_beta])))
            gated = ekf_update(fs, eta, z, NOISE, 90.0, chi2_gate=7.81)
            plain = ekf_update(fs, eta, z, NOISE, 90.0)
            innov = plain.innovation
            maha2 = float(innov @ np.linalg.solve(s_cov, innov))
            assert gated.outlier == (maha2 > 7.81)
            flags.append(gated.outlier)
            for a, b in ((gated.state.oe_hat.as_array(),
                          plain.state.oe_hat.as_array()),
                         (gated.state.P, plain.state.P)):
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
        assert any(flags) and not all(flags)

