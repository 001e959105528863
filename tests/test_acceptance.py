"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines; the whole suite is also part of the default pytest run.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.stats import chi2

from dataclasses import replace

from nodalrel import (
    MU_EARTH,
    CartesianState,
    ClassicalElements,
    NodalRelativeState,
    ReferenceParams,
    c1_test,
    c2_check,
    cartesian_to_elements,
    elements_to_cartesian,
    oe_from_classical,
    orbital_period,
    position_jacobians,
    predict_measurement,
    propagate,
    relative_orientation,
    relative_position,
    unperturbed_flow,
    wrap_angle,
    zeta,
    zeta_gradient,
)
from nodalrel import missionsim as sim
from nodalrel.dynamics import advance_true_anomaly

from conftest import (
    classical_from_oe,
    crlb_final_range_sigma,
    dxi_magnitude,
    haversine_psi,
    random_elements,
    recursion_final_range_sigma,
    reference_e1,
    reference_nu1,
)
from test_conjunction import node_crossing_radii, pair_through_common_point

MU = MU_EARTH


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"\nCRITERION {criterion}: {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, f"criterion {criterion}: {detail}"


class TestCriterion1CowellEquivalence:
    def test_model_matches_cowell_with_forcing(self):
        start = time.perf_counter()
        res = sim.run_validation()
        elapsed = time.perf_counter() - start
        ok = res.max_discrepancy_km <= 1e-3 and elapsed <= 30.0
        report(1, ok,
               f"max discrepancy {res.max_discrepancy_km:.3e} km "
               f"(limit 1e-3), zero-input {res.zero_input_discrepancy_km:.3e} "
               f"km (limit 1e-6: {'ok' if res.zero_input_discrepancy_km <= 1e-6 else 'FAIL'}), "
               f"runtime {elapsed:.1f} s (limit 30)")
        assert res.zero_input_discrepancy_km <= 1e-6


class TestCriterion2RoundTrip:
    def test_thousand_round_trips(self):
        rng = np.random.default_rng(2024)
        start = time.perf_counter()
        worst = 0.0
        count = 0
        while count < 1000:
            el1 = random_elements(rng, e_range=(0.005, 0.85))
            el2 = random_elements(rng, e_range=(0.005, 0.85))
            try:
                rel = relative_orientation(el1, el2)
            except Exception:
                continue
            if rel.gamma < 1e-6:
                continue
            oe, eta = oe_from_classical(el1, el2)
            rec = classical_from_oe(oe, eta)
            errs = (
                abs(rec.a2 - el2.a) / el2.a,
                abs(rec.e2 - el2.e) / max(el2.e, 1.0),
                abs(rec.gamma - rel.gamma) / max(rel.gamma, 1.0),
                abs(wrap_angle(rec.lambda1 - rel.lambda1)),
                abs(wrap_angle(rec.lambda2 - rel.lambda2)),
                abs(wrap_angle((rec.theta2 - rec.theta1)
                               - (rel.theta2 - rel.theta1))),
            )
            worst = max(worst, max(errs))
            count += 1
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-10 and elapsed <= 5.0
        report(2, ok, f"worst relative error {worst:.3e} over 1000 pairs "
                      f"(limit 1e-10), runtime {elapsed:.2f} s (limit 5)")


class TestCriterion3UnperturbedInvariants:
    def test_invariants_over_ten_orbits(self):
        rng = np.random.default_rng(33)
        worst_dp = worst_mag = worst_phase = worst_analytic = 0.0
        for _ in range(10):
            el1 = random_elements(rng, a_range=(8e3, 3e4),
                                  e_range=(0.0, 0.6))
            el2 = random_elements(rng, a_range=(8e3, 3e4),
                                  e_range=(0.05, 0.6))
            try:
                oe, eta = oe_from_classical(el1, el2)
            except Exception:
                continue
            if dxi_magnitude(oe) < 1e-3 or oe.dh < 1e-3:
                continue
            period = orbital_period(el1.a, MU)
            traj = propagate(oe, eta, np.linspace(0.0, period, 64), MU)
            worst_dp = max(worst_dp, np.abs(traj.oe[:, 1] - oe.dp).max())
            dxi = np.hypot(traj.oe[:, 2], traj.oe[:, 3])
            dh = np.hypot(traj.oe[:, 4], traj.oe[:, 5])
            worst_mag = max(worst_mag, np.abs(dxi - dxi_magnitude(oe)).max(),
                            np.abs(dh - oe.dh).max())
            phase = (np.unwrap(np.arctan2(traj.oe[:, 5], traj.oe[:, 4]))
                     - np.unwrap(np.arctan2(traj.oe[:, 3], traj.oe[:, 2])))
            worst_phase = max(worst_phase, np.abs(phase - phase[0]).max())

            e1, nu1 = reference_e1(eta), reference_nu1(eta)
            a1 = eta.p1 / (1.0 - e1 ** 2)
            for k, t in enumerate(traj.t):
                nu_t = float(advance_true_anomaly(nu1, e1, a1, t, MU))
                sweep = nu_t - nu1 + 2 * math.pi * round(
                    t / period - (nu_t - nu1) / (2 * math.pi))
                c, s = math.cos(sweep), math.sin(sweep)
                pred = np.array([
                    c * oe.dxi_x - s * oe.dxi_y,
                    s * oe.dxi_x + c * oe.dxi_y,
                    c * oe.dh_x - s * oe.dh_y,
                    s * oe.dh_x + c * oe.dh_y])
                worst_analytic = max(
                    worst_analytic, np.abs(pred - traj.oe[k, 2:]).max())
        ok = (worst_dp <= 1e-12 and worst_mag <= 1e-10
              and worst_phase <= 1e-10 and worst_analytic <= 1e-10)
        report(3, ok,
               f"dp drift {worst_dp:.2e} (1e-12), magnitude drift "
               f"{worst_mag:.2e} (1e-10), phase drift {worst_phase:.2e} "
               f"(1e-10), analytic-vs-integrated {worst_analytic:.2e} (1e-10)")


class TestCriterion4JacobianSuite:
    def test_all_jacobians_match_finite_differences(self):
        rng = np.random.default_rng(44)
        worst = 0.0
        checked = 0
        while checked < 100:
            oe = NodalRelativeState(
                dtheta=rng.uniform(-2.5, 2.5), dp=rng.uniform(-0.5, 1.2),
                dxi_x=rng.uniform(-0.3, 0.3), dxi_y=rng.uniform(-0.3, 0.3),
                dh_x=rng.uniform(-0.6, 0.6), dh_y=rng.uniform(-0.6, 0.6))
            e1 = rng.uniform(0.0, 0.6)
            nu1 = rng.uniform(-math.pi, math.pi)
            eta = ReferenceParams(p1=rng.uniform(8e3, 4e4),
                                  ec=e1 * math.cos(nu1),
                                  es=e1 * math.sin(nu1))
            if oe.dh < 0.02:
                continue
            if math.hypot(oe.dxi_x + eta.ec, oe.dxi_y + eta.es) > 0.85:
                continue
            denom = (1.0 + (oe.dxi_x + eta.ec) * math.cos(oe.dtheta)
                     - (oe.dxi_y + eta.es) * math.sin(oe.dtheta))
            if denom < 0.1:
                continue
            try:
                dr0 = relative_position(oe, eta).dr
                if np.linalg.norm(dr0) < 1.0:
                    continue
                j_oe, j_eta = position_jacobians(oe, eta)
                gz_oe, gz_eta = zeta_gradient(oe, eta)
                h_mat = predict_measurement(oe.as_array(), eta.as_array(),
                                            90.0)[1]
            except Exception:
                continue

            x = np.concatenate([oe.as_array(), eta.as_array()])

            def at(z):
                oe_z = NodalRelativeState.from_array(z[:6])
                eta_z = ReferenceParams.from_array(z[6:])
                return oe_z, eta_z

            jac_pos = np.hstack([j_oe, j_eta])
            grad_z = np.concatenate([gz_oe, gz_eta])
            scale_pos = np.abs(jac_pos).max()
            scale_z = np.abs(grad_z).max()
            scale_h = np.abs(h_mat).max()
            for col in range(9):
                step = 1e-7 * max(abs(x[col]), 1.0)
                xp, xm = x.copy(), x.copy()
                xp[col] += step
                xm[col] -= step
                op, ep_ = at(xp)
                om, em_ = at(xm)
                fd_pos = (relative_position(op, ep_).dr
                          - relative_position(om, em_).dr) / (2 * step)
                worst = max(worst, np.abs(jac_pos[:, col] - fd_pos).max()
                            / scale_pos)
                fd_z = (zeta(op, ep_) - zeta(om, em_)) / (2 * step)
                worst = max(worst, abs(grad_z[col] - fd_z) / scale_z)
                if col < 6:
                    e = eta.as_array()
                    fd_h = (predict_measurement(op.as_array(), e, 90.0)[0]
                            - predict_measurement(om.as_array(), e, 90.0)[0]
                            ) / (2 * step)
                    fd_h[0] = wrap_angle(fd_h[0] * (2 * step)) / (2 * step)
                    worst = max(worst,
                                np.abs(h_mat[:, col] - fd_h).max() / scale_h)
            checked += 1
        ok = worst <= 1e-6
        report(4, ok, f"worst scaled Jacobian mismatch {worst:.3e} over 100 "
                      f"states (limit 1e-6)")


class TestCriterion5CollisionSoundness:
    def test_intersecting_and_separated_families(self):
        rng = np.random.default_rng(55)
        # intersecting pairs: both orbits through a common point
        worst_margin = 0.0
        for k in range(1000):
            coplanar = k % 4 == 0
            el1, el2, r = pair_through_common_point(rng, coplanar=coplanar)
            oe, eta = oe_from_classical(el1, el2)
            verdict = c1_test(oe, eta)
            if verdict.coplanar:
                ok_pair = verdict.satisfied_coplanar
            else:
                s1 = elements_to_cartesian(el1, MU)
                s2 = elements_to_cartesian(el2, MU)
                node = np.cross(np.cross(s1.r, s1.v), np.cross(s2.r, s2.v))
                if float(r @ node) > 0.0:
                    margin = verdict.margin_ascending
                else:
                    margin = verdict.margin_descending
                worst_margin = max(worst_margin, abs(margin))
                ok_pair = abs(margin) <= 1e-9
            assert ok_pair, "intersecting pair not flagged by C1"

        # separated pairs: radial separation at both node crossings
        # (noncoplanar) or no radial crossing anywhere (coplanar)
        separated_checked = 0
        while separated_checked < 1000:
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
            if sep < 1.0:
                continue
            oe, eta = oe_from_classical(el1, el2)
            assert not c1_test(oe, eta).satisfied, \
                "separated pair flagged as intersecting"
            separated_checked += 1

        # c2 collision implies C1
        implications = 0
        for _ in range(80):
            el1, el2, _ = pair_through_common_point(rng)
            from nodalrel import kepler_advance
            el1_0 = kepler_advance(el1, -500.0, MU)
            el2_0 = kepler_advance(el2, -500.0, MU)
            oe, eta = oe_from_classical(el1_0, el2_0)
            res = c2_check(oe, eta, 0.0, 1500.0, MU, miss_tol=1.0)
            if res.collides:
                verdict = c1_test(oe, eta)
                assert not verdict.coplanar
                assert min(abs(verdict.margin_ascending),
                           abs(verdict.margin_descending)) <= 1e-6
                implications += 1
        assert implications > 40  # the construction collides by design

        # circular-reference reduction of the coplanar branch
        worst_red = 0.0
        for _ in range(200):
            oe = NodalRelativeState(
                dtheta=rng.uniform(-2, 2), dp=rng.uniform(-0.4, 0.8),
                dxi_x=rng.uniform(-0.4, 0.4), dxi_y=rng.uniform(-0.4, 0.4),
                dh_x=0.0, dh_y=0.0)
            eta = ReferenceParams(p1=1e4, ec=0.0, es=0.0)
            verdict = c1_test(oe, eta)
            worst_red = max(worst_red, abs(
                verdict.margin_coplanar
                - (oe.dp ** 2 - dxi_magnitude(oe) ** 2)))
        ok = worst_red <= 1e-12
        report(5, ok,
               f"1000 intersecting pairs satisfied (worst node margin "
               f"{worst_margin:.2e}), 1000 separated pairs unsatisfied, "
               f"{implications} c2 collisions all implied C1, e1=0 "
               f"reduction residual {worst_red:.2e}")


class TestCriterion6Haversine:
    def test_small_gamma_limit(self):
        rng = np.random.default_rng(66)
        # |dtheta| -> psi as gamma -> 0 (monotone vanishing gap)
        gaps = []
        for gamma in (1e-2, 1e-4, 1e-6, 1e-8):
            worst = 0.0
            for _ in range(200):
                theta1 = rng.uniform(-math.pi, math.pi)
                dtheta = rng.uniform(-math.pi, math.pi)
                psi = haversine_psi(theta1, theta1 + dtheta, gamma)
                worst = max(worst, abs(abs(wrap_angle(dtheta)) - psi))
            gaps.append(worst)
        shrinking = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
        ok = shrinking and gaps[-1] <= 1e-6
        report(6, ok,
               f"|dtheta|-psi gap at gamma=1e-2..1e-8: "
               f"{', '.join(f'{g:.2e}' for g in gaps)} "
               f"(limit 1e-6 at gamma=1e-8, monotone: {shrinking})")


@pytest.fixture(scope="module")
def montecarlo_results():
    cfg = replace(sim.ScenarioConfig(), seed=42)
    start = time.perf_counter()
    summary, runs = sim.run_montecarlo(cfg)
    elapsed = time.perf_counter() - start
    return cfg, summary, runs, elapsed


def sample_sigma_quantile(p: float, m: int) -> float:
    """p-quantile of s/sigma, s the sample standard deviation of m
    independent Gaussian draws of standard deviation sigma."""
    return math.sqrt(chi2.ppf(p, m - 1) / (m - 1))


class TestCriterion7FlybyDetection:
    def test_desk_scale_campaign(self, montecarlo_results):
        cfg, summary, runs, elapsed = montecarlo_results
        detection_ok = summary.detection_rate >= 0.95
        coverage_ok = summary.coverage_aggregate >= 0.97
        final_sigma = summary.final_range_error_sigma
        sigma_ok = 50.0 <= final_sigma <= 5000.0
        runtime_ok = elapsed <= 600.0

        # Range-error contraction is bounded by the information the
        # scenario carries: no unbiased estimator beats the Cramer-Rao
        # bound, and a filter that uses all of it reaches its own
        # recursion along the truth.  The band allows for the sampling
        # scatter of an mc_runs-sample standard deviation (98 %).
        truth = sim.build_truth(cfg)
        sigma_crlb = crlb_final_range_sigma(cfg, truth)
        sigma_q = recursion_final_range_sigma(cfg, truth)
        band_lo = sample_sigma_quantile(0.01, cfg.mc_runs) * sigma_crlb
        band_hi = sample_sigma_quantile(0.99, cfg.mc_runs) * sigma_q
        contraction_ok = band_lo <= final_sigma <= band_hi
        init_unc_3sigma = 3.0 * summary.initial_range_sigma_analytic
        ratio = init_unc_3sigma / final_sigma

        ok = (detection_ok and coverage_ok and sigma_ok and contraction_ok
              and runtime_ok)
        report(7, ok,
               f"detection {summary.detection_rate:.2f} (>=0.95), coverage "
               f"{summary.coverage_aggregate:.4f} (>=0.97), final sigma "
               f"{final_sigma:.0f} km (in [50,5000]), CRLB sigma "
               f"{sigma_crlb:.0f} km, filter-recursion sigma {sigma_q:.0f} "
               f"km, final sigma in [{band_lo:.0f},{band_hi:.0f}] km: "
               f"{'ok' if contraction_ok else 'FAIL'}, init 3-sigma/final "
               f"sigma {ratio:.1f} (attainable "
               f"{init_unc_3sigma / sigma_crlb:.1f}, >= "
               f"{init_unc_3sigma / band_hi:.1f}), runtime {elapsed:.0f} s "
               f"(<=600)")


class TestCriterion8ManeuverEfficacy:
    def test_single_impulse_avoidance(self, montecarlo_results):
        cfg, _, _, _ = montecarlo_results
        res = sim.run_maneuver_sweep(cfg, offsets=(1e-4,))
        dv_norm = float(np.linalg.norm(res.applied_dv))
        dv_ok = dv_norm <= 0.010  # 10 m/s
        miss_ok = 1500.0 <= res.achieved_miss_km <= 6000.0
        baseline_ok = res.unmaneuvered_miss_km <= 100.0
        ok = dv_ok and miss_ok and baseline_ok
        report(8, ok,
               f"|dv| {dv_norm * 1e3:.2f} m/s (<=10), achieved miss "
               f"{res.achieved_miss_km:.0f} km (in [1500,6000], nominal "
               f"~3000), unmaneuvered miss {res.unmaneuvered_miss_km:.1f} km")


class TestCriterion9Determinism:
    def test_montecarlo_cli_byte_identical(self, tmp_path):
        from nodalrel.cli import main
        cfg = replace(sim.ScenarioConfig(),
                      t_start=-2.0 * 86400.0, t_end=-6.0 * 3600.0,
                      sample_dt=1800.0, mc_runs=3)
        cfg_path = tmp_path / "cfg.json"
        with open(cfg_path, "w") as f:
            json.dump(sim.config_to_dict(cfg), f)
        out1, out2 = tmp_path / "m1", tmp_path / "m2"
        main(["montecarlo", "--config", str(cfg_path), "--seed", "42",
              "--out", str(out1)])
        main(["montecarlo", "--config", str(cfg_path), "--seed", "42",
              "--out", str(out2)])
        b1 = (out1 / "summary.json").read_bytes()
        b2 = (out2 / "summary.json").read_bytes()
        ok = b1 == b2 and len(b1) > 0
        report(9, ok, f"summary.json byte-identical across two seeded runs "
                      f"({len(b1)} bytes)")
