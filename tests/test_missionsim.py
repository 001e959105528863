import json
import math
import os

import numpy as np
import pytest

from dataclasses import replace

from nodalrel import (
    GeometryError,
    InfeasibleEncounter,
    NodalRelativeState,
    ReferenceParams,
    c1_test,
    c2_check,
    elements_to_cartesian,
    oe_from_classical,
    relative_orientation,
    relative_position_batch,
    separation_distance,
    unperturbed_flow,
    wrap_angle,
    zeta,
    zeta_gradient,
)
from nodalrel import missionsim as sim
from nodalrel.navigation import (FilterState, ekf_propagate, ekf_update,
                                 measure)
from nodalrel.relstate import _position_and_jacobians
from nodalrel.missionsim import (
    EncounterSpec,
    ScenarioConfig,
    build_collision_scenario,
    build_truth,
    config_from_dict,
    config_to_dict,
    run_flyby,
    run_maneuver_sweep,
    run_montecarlo,
    run_validation,
)

from conftest import crlb_final_range_sigma, recursion_final_range_sigma


def small_config(**overrides) -> ScenarioConfig:
    """A fast, short-window variant of the default scenario for unit tests."""
    base = ScenarioConfig()
    kwargs = dict(t_start=-2.0 * 86400.0, t_end=-6.0 * 3600.0,
                  sample_dt=600.0, mc_runs=3)
    kwargs.update(overrides)
    return replace(base, **kwargs)


class TestScenarioConstruction:
    def test_construction_targets(self):
        cfg = ScenarioConfig()
        el1, el2 = build_collision_scenario(cfg.encounter, cfg.target, cfg.mu)
        oe, eta = oe_from_classical(el1, el2)
        # ascending-branch intersection holds by construction
        assert abs(zeta(oe, eta)) < 1e-12
        # both at the relative node at the impact epoch
        rel = relative_orientation(el1, el2)
        assert abs(rel.theta1) < 1e-9
        assert abs(rel.theta2) < 1e-9
        assert abs(rel.gamma - cfg.encounter.gamma) < 1e-9
        # requested relative speed
        s1 = elements_to_cartesian(el1, cfg.mu)
        s2 = elements_to_cartesian(el2, cfg.mu)
        speed = np.linalg.norm(s2.v - s1.v)
        assert abs(speed - cfg.encounter.relative_speed) < 1e-6

    def test_collision_confirmed_by_c2(self):
        cfg = small_config()
        el1, el2 = sim.scenario_orbits(cfg)
        from nodalrel import kepler_advance
        el1_0 = kepler_advance(el1, cfg.t_start, cfg.mu)
        el2_0 = kepler_advance(el2, cfg.t_start, cfg.mu)
        oe, eta = oe_from_classical(el1_0, el2_0)
        res = c2_check(oe, eta, cfg.t_start, 3600.0, cfg.mu, miss_tol=1.0)
        assert res.collides
        assert abs(res.t_min) < 60.0
        verdict = c1_test(oe, eta, node_tol=1e-9)
        assert verdict.satisfied_ascending

    def test_infeasible_encounter_rejected(self):
        cfg = ScenarioConfig()
        bad = EncounterSpec(relative_speed=0.5, gamma=math.radians(60.0),
                            impact_nu=0.0, transverse_speed=30.0)
        with pytest.raises(InfeasibleEncounter):
            build_collision_scenario(bad, cfg.target, cfg.mu)

    def test_truth_zeta_invariant_and_range_shrinks(self):
        cfg = small_config()
        truth = build_truth(cfg)
        assert np.abs(truth.zeta).max() < 1e-10
        assert truth.range_km[0] > truth.range_km[-1]
        # closing at roughly the encounter speed
        closing = (truth.range_km[0] - truth.range_km[-1]) / (
            truth.t[-1] - truth.t[0])
        assert abs(closing + (-cfg.encounter.relative_speed)) < 1.0

    def test_window_reaching_the_encounter_fails_at_build_truth(self):
        cfg = small_config(sample_dt=3600.0, t_end=0.0)
        with pytest.raises(ValueError, match="t_end"):
            build_truth(cfg)

    def test_truth_modes_agree(self):
        cfg = small_config(sample_dt=3600.0)
        kepler = build_truth(cfg)
        cowell = build_truth(replace(cfg, truth_mode="cowell"))
        assert np.abs(kepler.dr - cowell.dr).max() < 1e-3


@pytest.fixture(scope="module")
def desk_truth():
    """The default desk scenario's truth over the full window at 600 s."""
    cfg = replace(ScenarioConfig(), sample_dt=600.0)
    return cfg, build_truth(cfg)


class TestHeliocentricSeparation:
    """km-scale separations at ~2.4 AU, where r1*sqrt(1 + q^2 - 2 q b1)
    cancels down to a floor of r1*sqrt(eps), about 5 km."""

    def test_c2_finds_desk_collision_from_screening_rows(self, desk_truth):
        # Screening rows (stride 14) at which the cancelling distance
        # reported misses of 6.5-59 km and t_min off by up to 4 s.
        cfg, truth = desk_truth
        for k in (56, 350, 532, 672):
            res = c2_check(NodalRelativeState.from_array(truth.oe[k]),
                           ReferenceParams.from_array(truth.eta[k]),
                           float(truth.t[k]), -cfg.t_end, cfg.mu,
                           miss_tol=cfg.miss_tol, n_samples=2000)
            assert res.collides
            assert res.d_min <= 1e-3
            assert abs(res.t_min) <= 1e-3

    def test_separation_matches_position_norm_near_impact(self, desk_truth):
        cfg, truth = desk_truth
        oe0 = NodalRelativeState.from_array(truth.oe[0])
        eta0 = ReferenceParams.from_array(truth.eta[0])
        offsets = np.array([-10.0, -1.0, -0.1, 0.1, 1.0, 10.0])
        oe_arr, eta_arr = unperturbed_flow(oe0, eta0, cfg.mu,
                                           offsets - truth.t[0])
        d = separation_distance(oe_arr, eta_arr)
        dr = relative_position_batch(oe_arr, eta_arr)
        assert np.abs(d - np.linalg.norm(dr, axis=1)).max() <= 1e-6


class TestConfigRoundTrip:
    def test_dict_round_trip(self):
        cfg = ScenarioConfig()
        d = config_to_dict(cfg)
        back = config_from_dict(d)
        assert back.mu == cfg.mu
        assert back.encounter == cfg.encounter
        assert back.target == cfg.target
        assert back.noise == cfg.noise
        assert back.q_diag == cfg.q_diag

    def test_json_round_trip(self, tmp_path):
        cfg = replace(ScenarioConfig(), seed=7, mc_runs=11)
        path = tmp_path / "cfg.json"
        with open(path, "w") as f:
            json.dump(config_to_dict(cfg), f)
        back = sim.load_config(str(path))
        assert back.seed == 7
        assert back.mc_runs == 11

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            small_config(t_start=-100.0, t_end=-200.0)

    @pytest.mark.parametrize("field, overrides", [
        ("q_diag", {"q_diag": (1e-16,) * 5}),
        ("q_diag", {"q_diag": (-1e-20,) + (0.0,) * 5}),
        ("p0_diag", {"p0_diag": (1e-8,) * 7}),
        ("p0_diag", {"p0_diag": (-1.0,) * 6}),
        ("p0_diag", {"p0_diag": (1e-8,) * 5 + (0.0,)}),
        ("d", {"d": -90.0}),
        ("d", {"d": 0.0}),
        ("transient_fraction", {"transient_fraction": 1.5}),
        ("transient_fraction", {"transient_fraction": -0.1}),
        ("transient_fraction", {"transient_fraction": 0.9,
                                "t_start": -3.0 * 3600.0, "t_end": -3600.0,
                                "sample_dt": 3600.0}),
        ("jobs", {"jobs": 0}),
        ("rel_tol", {"rel_tol": 0.0}),
        ("chi2_gate", {"chi2_gate": -1.0}),
    ])
    def test_config_that_cannot_run_rejected(self, field, overrides):
        with pytest.raises(ValueError, match=rf"^{field} must"):
            replace(ScenarioConfig(), **overrides)
        json_key = {name: key for key, (name, _) in sim._SCENARIO_KEYS.items()}
        d = {**config_to_dict(ScenarioConfig()),
             **{json_key[name]: value for name, value in overrides.items()}}
        with pytest.raises(ValueError, match=rf"^{field} must"):
            config_from_dict(d)

    def test_misspelt_key_rejected(self):
        with pytest.raises(ValueError, match="'sigma_az_degg'"):
            config_from_dict({"sigma_az_degg": 0.002})

    def test_unknown_keys_named_at_every_level(self):
        d = config_to_dict(ScenarioConfig())
        d["reference"] = dict(d["target"])
        no_nu = {k: v for k, v in d["target"].items() if k != "nu_deg"}
        cases = [("unknown", "config", ("mc_run", "seeds"),
                  {"mc_run": 3, "seeds": 1}),
                 ("unknown", "encounter", ("gama_deg",),
                  {"encounter": {**d["encounter"], "gama_deg": 8.0}}),
                 ("unknown", "target", ("nu",),
                  {"target": {**d["target"], "nu": 0.0}}),
                 ("unknown", "reference", ("a",),
                  {"reference": {**d["reference"], "a": 1.0}}),
                 ("missing", "target", ("nu_deg",), {"target": no_nu}),
                 ("missing", "reference", ("nu_deg",),
                  {"reference": no_nu})]
        for what, where, bad, extra in cases:
            with pytest.raises(ValueError) as exc:
                config_from_dict({**d, **extra})
            msg = str(exc.value)
            assert f"{what} key(s) in {where}:" in msg
            assert all(repr(key) in msg for key in bad)

    def test_left_out_keys_take_the_defaults(self):
        assert config_from_dict({}) == ScenarioConfig()
        cfg = config_from_dict({"encounter": {"gamma_deg": 12.0}})
        assert cfg.encounter == EncounterSpec(gamma=12.0 * sim.DEG)


class TestFlybyRun:
    def test_noiseless_zero_init_stays_on_truth(self):
        cfg = small_config(init_perturb_sigma=0.0,
                           noise=sim.NoiseSpec(sigma_az=1e-18, sigma_el=1e-18,
                                               sigma_beta=1e-18),
                           q_diag=(0.0,) * 6, p0_diag=(1e-30,) * 6)
        art = run_flyby(cfg)
        assert np.abs(art.run.err).max() < 1e-7

    def test_outputs_written_with_schemas(self, tmp_path):
        cfg = small_config(sample_dt=1800.0)
        art = run_flyby(cfg, out_dir=str(tmp_path))
        with open(art.paths["truth"]) as f:
            header = f.readline().strip().split(",")
        assert header == ["t", "dtheta", "dp", "dxi_x", "dxi_y", "dh_x",
                          "dh_y", "p1", "e1_cos_nu1", "e1_sin_nu1",
                          "dr_R", "dr_T", "dr_N"]
        with open(art.paths["filter"]) as f:
            header = f.readline().strip().split(",")
        assert header[0] == "t"
        assert "range_err" in header and "zeta_3sigma" in header
        assert "innov_az" in header
        with open(art.paths["screening"]) as f:
            header = f.readline().strip().split(",")
        assert header == ["t", "zeta", "zeta_3sigma", "margin_coplanar",
                          "margin_ascending", "margin_descending",
                          "d_min_est"]
        data = np.genfromtxt(art.paths["screening"], delimiter=",",
                             names=True)
        assert np.all(np.isfinite(data["zeta_3sigma"]))
        assert np.all(data["zeta_3sigma"] >= 0.0)

    def test_same_seed_same_run(self):
        cfg = small_config(sample_dt=3600.0)
        r1 = run_flyby(cfg).run
        r2 = run_flyby(cfg).run
        assert np.array_equal(r1.oe_hat, r2.oe_hat)
        assert np.array_equal(r1.innovations, r2.innovations)

    def test_different_runs_differ(self):
        cfg = small_config(sample_dt=3600.0)
        truth = build_truth(cfg)
        r0 = sim._run_filter(cfg, truth, 0)
        r1 = sim._run_filter(cfg, truth, 1)
        assert not np.array_equal(r0.innovations, r1.innovations)


def reference_run_filter(cfg: ScenarioConfig, truth, run_index: int):
    """The filter loop with its diagnostics evaluated one sample at a time
    from the posterior, inside the step (the slow reference for the
    blocked pass of ``_run_filter``)."""
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(cfg.seed, spawn_key=(run_index,))))
    n = truth.t.size
    q_rate = np.diag(cfg.q_diag)
    x0 = truth.oe[0] + cfg.init_perturb_sigma * rng.standard_normal(6)
    fs = FilterState(oe_hat=NodalRelativeState.from_array(x0),
                     P=np.diag(cfg.p0_diag))
    eta_k = ReferenceParams.from_array(truth.eta[0])
    out = {name: np.empty((n, 6)) for name in ("oe_hat", "err", "sigma")}
    out.update({name: np.empty(n) for name in (
        "range_err", "range_sigma", "zeta_hat", "zeta_sigma", "nees")})
    out["innovations"] = np.empty((n, 3))
    out["outliers"] = np.zeros(n, dtype=bool)

    for k in range(n):
        z = measure(truth.dr[k], cfg.d, cfg.noise, rng)
        upd = ekf_update(fs, eta_k, z, cfg.noise, cfg.d,
                         chi2_gate=cfg.chi2_gate)
        fs = upd.state
        out["innovations"][k] = upd.innovation
        out["outliers"][k] = upd.outlier

        x = fs.oe_hat.as_array()
        out["oe_hat"][k] = x
        e = x - truth.oe[k]
        e[0] = wrap_angle(e[0])
        out["err"][k] = e
        out["sigma"][k] = np.sqrt(np.maximum(np.diag(fs.P), 0.0))
        out["nees"][k] = float(e @ np.linalg.solve(fs.P, e))

        rel, j_oe, _ = _position_and_jacobians(fs.oe_hat, eta_k)
        rho_hat = float(np.linalg.norm(rel))
        out["range_err"][k] = rho_hat - truth.range_km[k]
        grad_rho = (rel / rho_hat) @ j_oe
        out["range_sigma"][k] = math.sqrt(
            max(float(grad_rho @ fs.P @ grad_rho), 0.0))

        out["zeta_hat"][k] = zeta(fs.oe_hat, eta_k)
        gz, _ = zeta_gradient(fs.oe_hat, eta_k)
        out["zeta_sigma"][k] = math.sqrt(max(float(gz @ fs.P @ gz), 0.0))

        if k < n - 1:
            fs, eta_k = ekf_propagate(fs, eta_k, cfg.sample_dt, q_rate, cfg.mu)

    k0 = int(math.ceil(cfg.transient_fraction * n))
    out["detected"] = bool(np.all(np.abs(out["zeta_hat"][k0:])
                                  <= 3.0 * out["zeta_sigma"][k0:]))
    return out


class TestReferenceFilterPath:
    """The blocked diagnostics pass against the per-step reference on the
    desk scenario at 600 s, with a block length (97) that leaves a partial
    last block of the 2,845 samples."""

    @pytest.mark.parametrize("chi2_gate", [None, 7.81])
    def test_blocked_pass_matches_reference(self, desk_truth, monkeypatch,
                                            chi2_gate):
        cfg, truth = desk_truth
        cfg = replace(cfg, chi2_gate=chi2_gate)
        assert truth.t.size % 97 != 0
        monkeypatch.setattr(sim, "_DIAGNOSTIC_BLOCK", 97)
        for run_index in range(2):
            run = sim._run_filter(cfg, truth, run_index)
            ref = reference_run_filter(cfg, truth, run_index)
            for name in ("oe_hat", "err", "sigma", "innovations",
                         "outliers"):
                assert np.array_equal(getattr(run, name), ref[name]), name
            assert run.detected == ref["detected"]
            for name, sigma in (("range_err", "range_sigma"),
                                ("range_sigma", "range_sigma"),
                                ("zeta_hat", "zeta_sigma"),
                                ("zeta_sigma", "zeta_sigma")):
                dev = np.abs(getattr(run, name) - ref[name]) / ref[sigma]
                assert dev.max() <= 1e-8, name
            assert np.abs(run.nees / ref["nees"] - 1.0).max() <= 1e-10

    def test_nonelliptic_posterior_rejected(self):
        x = np.array([[math.pi, 0.0, 0.9, 0.0, 0.1, 0.0]])
        eta = np.array([[1e4, 0.25, 0.0]])
        with pytest.raises(GeometryError):
            sim._posterior_diagnostics(x, np.eye(6)[None], eta, x,
                                       np.ones(1))


class TestMonteCarlo:
    def test_summary_json_deterministic(self, tmp_path):
        cfg = small_config(sample_dt=3600.0, mc_runs=3, seed=42)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        run_montecarlo(cfg, out_dir=str(out1))
        run_montecarlo(cfg, out_dir=str(out2))
        b1 = (out1 / "summary.json").read_bytes()
        b2 = (out2 / "summary.json").read_bytes()
        assert b1 == b2

    def test_parallel_matches_serial(self, tmp_path):
        cfg = small_config(sample_dt=3600.0, mc_runs=3, seed=5)
        s_serial, _ = run_montecarlo(cfg)
        s_par, _ = run_montecarlo(replace(cfg, jobs=2))
        assert s_serial.final_range_error_sigma == s_par.final_range_error_sigma
        assert s_serial.coverage_aggregate == s_par.coverage_aggregate

    def test_requires_two_runs(self):
        with pytest.raises(ValueError):
            run_montecarlo(small_config(mc_runs=1))

    def test_envelope_csv_written(self, tmp_path):
        cfg = small_config(sample_dt=3600.0, mc_runs=3)
        run_montecarlo(cfg, out_dir=str(tmp_path))
        data = np.genfromtxt(tmp_path / "ensemble_envelope.csv",
                             delimiter=",", names=True)
        assert np.all(np.isfinite(data["true_3sigma_range"]))
        assert np.all(data["true_3sigma_range"] >= 0.0)


class TestInformationBounds:
    """The two range-error oracles of the acceptance campaign, checked
    against each other on a short window."""

    def test_fisher_bound_matches_recursion_without_process_noise(self):
        cfg = small_config(q_diag=(0.0,) * 6)
        truth = build_truth(cfg)
        sigma_crlb = crlb_final_range_sigma(cfg, truth)
        sigma_rec = recursion_final_range_sigma(cfg, truth)
        assert abs(sigma_rec - sigma_crlb) <= 1e-3 * sigma_crlb

    def test_process_noise_does_not_lower_the_bound(self):
        cfg = small_config()
        truth = build_truth(cfg)
        no_q = replace(cfg, q_diag=(0.0,) * 6)
        assert (recursion_final_range_sigma(cfg, truth)
                >= recursion_final_range_sigma(no_q, truth))


class TestManeuverSweep:
    def test_offset_doubling_doubles_early_dv(self):
        cfg = small_config(sample_dt=1800.0)
        res = run_maneuver_sweep(cfg, offsets=(1e-4, 2e-4),
                                 apply_at=cfg.t_start + 0.5 * 86400.0)
        early = slice(0, max(3, res.t_candidates.size // 4))
        dv1 = res.dv_profiles[1e-4][early]
        dv2 = res.dv_profiles[2e-4][early]
        # zeta-sigma contribution is small post-transient; ratio near 2
        ratio = dv2 / dv1
        assert np.all(ratio > 1.5)
        assert np.all(ratio < 2.5)

    def test_maneuver_increases_miss_distance(self):
        cfg = small_config(sample_dt=1800.0)
        res = run_maneuver_sweep(cfg, offsets=(1e-4,),
                                 apply_at=cfg.t_start + 0.5 * 86400.0)
        assert res.unmaneuvered_miss_km < 50.0
        assert res.achieved_miss_km > 10.0 * res.unmaneuvered_miss_km


class TestValidation:
    def test_validation_discrepancy_small(self):
        res = run_validation(rtol=1e-10, n_samples=101,
                             include_zero_input=False)
        assert res.max_discrepancy_km < 1e-2

    def test_tolerance_controls_discrepancy(self):
        loose = run_validation(rtol=1e-6, n_samples=51,
                               include_zero_input=False)
        tight = run_validation(rtol=1e-11, n_samples=51,
                               include_zero_input=False)
        assert tight.max_discrepancy_km < loose.max_discrepancy_km
