import csv
import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from dataclasses import replace

from nodalrel import (
    MU_EARTH,
    CartesianState,
    ClassicalElements,
    GeometryError,
    InfeasibleEncounter,
    NodalRelativeState,
    PerturbationInput,
    ReferenceParams,
    RetrogradeSingularity,
    apply_impulse,
    c1_test,
    c2_check,
    cartesian_to_elements,
    cowell_propagate,
    elements_to_cartesian,
    kepler_advance,
    oe_from_classical,
    orbital_period,
    position_jacobians,
    relative_orientation,
    relative_position,
    relative_position_batch,
    separation_distance,
    unperturbed_flow,
    wrap_angle,
    zeta,
    zeta_gradient,
)
from nodalrel import dynamics, missionsim as sim, navigation
from nodalrel.navigation import ekf_propagate, ekf_update, measure
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

from conftest import (EL1, EL2, classical_from_oe, crlb_final_range_sigma,
                      recursion_final_range_sigma, reference_e1)


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
        el1_0 = kepler_advance(el1, cfg.t_start, cfg.mu)
        el2_0 = kepler_advance(el2, cfg.t_start, cfg.mu)
        oe, eta = oe_from_classical(el1_0, el2_0)
        res = c2_check(oe, eta, cfg.t_start, 3600.0, cfg.mu, miss_tol=1.0)
        assert res.collides
        assert abs(res.t_min) < 60.0
        verdict = c1_test(oe, eta)
        assert verdict.satisfied_ascending

    def test_infeasible_encounter_rejected(self):
        cfg = ScenarioConfig()
        bad = EncounterSpec(relative_speed=0.5, gamma=math.radians(60.0),
                            impact_nu=0.0, transverse_speed=30.0)
        with pytest.raises(InfeasibleEncounter):
            build_collision_scenario(bad, cfg.target, cfg.mu)

    def test_pair_rounding_past_retrograde_bound_rejected(self):
        # gamma at the retrograde bound that the built elements recover as
        # 3.1415916535897934 rad, past pi - RETROGRADE_GAMMA_TOL
        target = ClassicalElements(
            a=7139.387255183886, e=0.8969783344983191, i=1.5403597713805501,
            raan=-1.3080877055982967, argp=3.1145335199114106, nu=0.0)
        spec = EncounterSpec(
            relative_speed=9.393432824696562, gamma=math.pi - 1e-6,
            impact_nu=-2.6455710684138616,
            transverse_speed=3.069616019953031, radial_sign=1.0)
        with pytest.raises(InfeasibleEncounter) as info:
            build_collision_scenario(spec, target, MU_EARTH)
        assert isinstance(info.value.__cause__, RetrogradeSingularity)

    @pytest.mark.parametrize("gamma", [0.0, 1e-12, 9.9e-10,
                                       math.pi - 1e-7, math.nan])
    def test_gamma_outside_the_node_convention_rejected(self, gamma):
        # Below the coplanar bound the relative node degenerates, and past
        # the retrograde bound the orientation cannot be extracted.
        with pytest.raises(ValueError, match="^gamma"):
            EncounterSpec(gamma=gamma)

    @pytest.mark.parametrize("field, value", [
        # any sign but -1 and +1 scales the radial split: on the default
        # target 0.5 met at 8.64 km/s and 0.0 at 4.95 km/s, not 15 km/s
        ("radial_sign", 0.5), ("radial_sign", 0.0), ("radial_sign", -2.0),
        ("relative_speed", math.inf), ("relative_speed", math.nan),
        ("impact_nu", math.nan), ("impact_nu", math.inf),
        ("transverse_speed", 0.0), ("transverse_speed", -18.0),
        ("transverse_speed", math.inf), ("transverse_speed", math.nan),
    ])
    def test_spec_that_builds_another_encounter_rejected(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must"):
            EncounterSpec(**{field: value})
        json_key = {name: key for key, (name, _) in
                    sim._ENCOUNTER_KEYS.items()}[field]
        with pytest.raises(ValueError, match=rf"^{field} must"):
            config_from_dict({"encounter": {json_key: value}})

    def test_truth_zeta_invariant_and_range_shrinks(self):
        cfg = small_config()
        truth = build_truth(cfg)
        margins = [zeta(NodalRelativeState.from_array(x),
                        ReferenceParams.from_array(e))
                   for x, e in zip(truth.oe, truth.eta)]
        assert np.abs(margins).max() < 1e-10
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
        assert np.abs(kepler.dr - cowell_truth_dr(cfg)).max() < 1e-3


def cowell_truth_dr(cfg: ScenarioConfig) -> np.ndarray:
    """RTN1 relative positions of the truth by an independent route (the
    slow reference for build_truth's exact flow): both satellites
    integrated inertially at RTOL, each sample converted to elements
    and then to the nodal state."""
    t = cfg.sample_times()
    s1, s2 = (elements_to_cartesian(kepler_advance(el, cfg.t_start, cfg.mu),
                                    cfg.mu)
              for el in sim.scenario_orbits(cfg))
    cw = cowell_propagate(s1, s2, t, cfg.mu)
    oe_arr = np.empty((t.size, 6))
    eta_arr = np.empty((t.size, 3))
    for k in range(t.size):
        e1 = cartesian_to_elements(
            CartesianState(r=cw.r1[k], v=cw.v1[k]), cfg.mu)
        e2 = cartesian_to_elements(
            CartesianState(r=cw.r2[k], v=cw.v2[k]), cfg.mu)
        oe_k, eta_k = oe_from_classical(e1, e2)
        oe_arr[k] = oe_k.as_array()
        eta_arr[k] = eta_k.as_array()
    return relative_position_batch(oe_arr, eta_arr)


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
                           miss_tol=1.0)
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
        ("mc_runs", {"mc_runs": 1}),
        ("mu", {"mu": 0.0}),
        ("init_perturb_sigma", {"init_perturb_sigma": -1e-4}),
        ("seed", {"seed": -1}),
        ("seed", {"seed": 1.5}),
        ("mc_runs", {"mc_runs": 2.5}),
        ("jobs", {"jobs": 1.5}),
        # satellite 1 comes from exactly one source
        ("encounter or reference", {"reference": ScenarioConfig().target}),
        ("encounter or reference", {"encounter": None}),
    ])
    def test_config_that_cannot_run_rejected(self, field, overrides):
        with pytest.raises(ValueError, match=rf"^{field} must"):
            replace(ScenarioConfig(), **overrides)
        json_key = {name: key for key, (name, _) in sim._SCENARIO_KEYS.items()}
        d = {**config_to_dict(ScenarioConfig()),
             **{json_key.get(name, name): value for name, value in
                overrides.items()}}
        if isinstance(d["reference"], ClassicalElements):
            d["reference"] = sim._to_json(d["reference"], sim._ELEMENT_KEYS)
        with pytest.raises(ValueError, match=rf"^{field} must"):
            config_from_dict(d)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("field", [
        "mu", "d", "q_diag", "p0_diag", "init_perturb_sigma",
        "t_start", "sample_dt", "sigma_az", "sigma_el", "sigma_beta"])
    def test_nonfinite_field_rejected(self, field, value):
        # rejected when the config is built, naming the field, not deep in
        # the truth build or the filter
        json_key = {name: key for key, (name, _) in
                    {**sim._SCENARIO_KEYS, **sim._NOISE_KEYS}.items()}[field]
        d = config_to_dict(ScenarioConfig())
        if field in ("q_diag", "p0_diag"):
            d[json_key] = [value] + d[json_key][1:]
        else:
            d[json_key] = -value if field == "t_start" else value
        with pytest.raises(ValueError, match=field):
            config_from_dict(d)

    @pytest.mark.parametrize("where, key, value, field", [
        ("target", "a_km", math.inf, "a"),
        ("target", "raan_deg", math.nan, "raan"),
        ("target", "argp_deg", math.inf, "argp"),
        ("target", "nu_deg", math.nan, "nu"),
        ("reference", "a_km", math.nan, "a"),
        ("reference", "nu_deg", math.nan, "nu"),
    ])
    def test_nonfinite_elements_rejected(self, where, key, value, field):
        # A target's used to fail in the truth build ("position vector must
        # be nonzero"), a reference's NaN nu in the Kepler solve.
        d = config_to_dict(ScenarioConfig())
        if where == "reference":
            d["reference"], d["encounter"] = dict(d["target"]), None
        d[where][key] = value
        with pytest.raises(ValueError, match=rf"\b{field} must be finite"):
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
                 # keys that configs of older versions hold
                 ("unknown", "config",
                  ("miss_tol_km", "truth_mode", "rel_tol", "chi2_gate"),
                  {"miss_tol_km": 1.0, "truth_mode": "kepler",
                   "rel_tol": 1e-12, "chi2_gate": 7.81}),
                 ("unknown", "encounter", ("gama_deg",),
                  {"encounter": {**d["encounter"], "gama_deg": 8.0}}),
                 ("unknown", "target", ("nu",),
                  {"target": {**d["target"], "nu": 0.0}}),
                 ("unknown", "reference", ("a",),
                  {"reference": {**d["reference"], "a": 1.0}}),
                 ("missing", "target", ("nu_deg",), {"target": no_nu}),
                 ("missing", "reference", ("nu_deg",),
                  {"reference": no_nu}),
                 ("missing", "reference", tuple(d["target"]),
                  {"reference": {}, "encounter": None})]
        for what, where, bad, extra in cases:
            with pytest.raises(ValueError) as exc:
                config_from_dict({**d, **extra})
            msg = str(exc.value)
            assert f"{what} key(s) in {where}:" in msg
            assert all(repr(key) in msg for key in bad)

    @pytest.mark.parametrize("d, message", [
        ([1], "config must be a JSON object, got [1]"),
        ({"sample_dt": "x"}, "key 'sample_dt' in config must be a number"),
        ({"mu": None}, "key 'mu' in config must be a number"),
        ({"d_km": True}, "key 'd_km' in config must be a number"),
        ({"sigma_el_deg": "0.001"},
         "key 'sigma_el_deg' in config must be a number"),
        ({"q_diag": 3}, "key 'q_diag' in config must be a list of numbers"),
        ({"p0_diag": [1e-8] * 5 + ["1e-8"]},
         "key 'p0_diag' in config must be a list of numbers"),
        ({"target": 5}, "target must be a JSON object, got 5"),
        ({"reference": [], "encounter": None},
         "reference must be a JSON object, got []"),
        ({"encounter": "default"}, "encounter must be a JSON object"),
        ({"encounter": {"gamma_deg": "8"}},
         "key 'gamma_deg' in encounter must be a number"),
        ({"target": {**config_to_dict(ScenarioConfig())["target"],
                     "e": None}}, "key 'e' in target must be a number"),
    ])
    def test_wrong_json_type_named(self, d, message):
        # each used to raise TypeError deep in a check, or for a list
        # report its items as unknown keys
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            config_from_dict(d)

    def test_unreadable_file_named(self, tmp_path):
        path = tmp_path / "cfg.json"
        with pytest.raises(ValueError, match=re.escape(
                f"cannot read config file {str(path)!r}: No such file")):
            sim.load_config(str(path))
        path.write_text("{")
        with pytest.raises(ValueError, match=re.escape(
                f"config file {str(path)!r} is not JSON: ")):
            sim.load_config(str(path))

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
                          "d_min_est", "collides"]
        data = np.genfromtxt(art.paths["screening"], delimiter=",",
                             names=True)
        assert np.all(np.isfinite(data["zeta_3sigma"]))
        assert np.all(data["zeta_3sigma"] >= 0.0)

    @pytest.mark.parametrize("miss_tol, verdict", [(0.0, 0.0), (1e12, 1.0)])
    def test_screening_collides_is_the_miss_tol_verdict(self, tmp_path,
                                                       monkeypatch,
                                                       miss_tol, verdict):
        # The screening's collides column is c2_check's verdict at the
        # miss_tol it is handed (d/2 in a run); handing it a tolerance only
        # a zero distance meets, and one every distance meets, pins both
        # sides.
        real_c2_check = sim.c2_check

        def c2_check_at(*args, **kwargs):
            kwargs["miss_tol"] = miss_tol
            return real_c2_check(*args, **kwargs)

        monkeypatch.setattr(sim, "c2_check", c2_check_at)
        cfg = small_config(sample_dt=1800.0)
        art = run_flyby(cfg, out_dir=str(tmp_path))
        data = np.genfromtxt(art.paths["screening"], delimiter=",",
                             names=True)
        assert data.size > 0
        assert np.array_equal(data["collides"],
                              data["d_min_est"] <= miss_tol)
        assert np.all(data["collides"] == verdict)

    def test_screening_collides_within_half_the_diameter(self, tmp_path):
        # The desk flyby is built to collide: the observer, a point, meets
        # the target of diameter d when the centre distance is <= d/2, and
        # the estimate's d_min_est falls below it late in the window (on
        # the last 4 of 204 rows at seed 1).
        cfg = replace(ScenarioConfig(), sample_dt=600.0, seed=1)
        art = run_flyby(cfg, out_dir=str(tmp_path))
        data = np.genfromtxt(art.paths["screening"], delimiter=",",
                             names=True)
        assert data.size > 0
        assert np.array_equal(data["collides"],
                              data["d_min_est"] <= cfg.d / 2)
        assert np.any(data["collides"][-10:] == 1.0)

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

    def test_screening_uses_the_c2_grid_rule(self, tmp_path):
        # Two LEO orbits screened over 25 h, about 15 periods: c2_check's
        # grid rule (1/200 of the shorter period) asks for more than 2000
        # samples, and each report row is c2_check's own answer.
        cfg = ScenarioConfig(
            mu=MU_EARTH, encounter=None, d=0.01,
            reference=ClassicalElements(a=7000.0, e=0.01, i=50.0 * sim.DEG,
                                        raan=10.0 * sim.DEG,
                                        argp=20.0 * sim.DEG, nu=0.0),
            target=ClassicalElements(a=7100.0, e=0.02, i=60.0 * sim.DEG,
                                     raan=30.0 * sim.DEG,
                                     argp=40.0 * sim.DEG, nu=0.3),
            t_start=-86400.0, t_end=-3600.0, sample_dt=3600.0,
            init_perturb_sigma=1e-7, p0_diag=(1e-14,) * 6, q_diag=(0.0,) * 6)
        art = run_flyby(cfg, out_dir=str(tmp_path))
        rows = np.genfromtxt(art.paths["screening"], delimiter=",",
                             names=True)
        t_hi = -cfg.t_end
        for k in range(3):
            assert rows["t"][k] == art.truth.t[k]
            oe = NodalRelativeState.from_array(art.run.oe_hat[k])
            eta = ReferenceParams.from_array(art.truth.eta[k])
            a1 = eta.p1 / (1.0 - reference_e1(eta) ** 2)
            a2 = classical_from_oe(oe, eta).a2
            p_short = orbital_period(min(a1, a2), MU_EARTH)
            assert (t_hi - art.truth.t[k]) / (p_short / 200.0) > 2000
            c2 = c2_check(oe, eta, float(art.truth.t[k]), t_hi, MU_EARTH,
                          miss_tol=1.0)
            assert rows["d_min_est"][k] == c2.d_min


def reference_run_filter(cfg: ScenarioConfig, truth, run_index: int):
    """The filter loop with its diagnostics evaluated one sample at a time
    from the posterior, inside the step, a validated NodalRelativeState and
    ReferenceParams rebuilt around every update and coast, the truth's
    reference read at every sample, and R taken from NoiseSpec.covariance()
    at each step (the slow reference for the array plumbing and the blocked
    pass of ``_run_filter``)."""
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(cfg.seed, spawn_key=(run_index,))))
    n = truth.t.size
    q_rate = np.diag(cfg.q_diag)
    x0 = truth.oe[0] + cfg.init_perturb_sigma * rng.standard_normal(6)
    oe_hat = NodalRelativeState.from_array(x0)
    p_cov = np.diag(cfg.p0_diag)
    out = {name: np.empty((n, 6)) for name in ("oe_hat", "err", "sigma")}
    out.update({name: np.empty(n) for name in (
        "range_err", "range_sigma", "zeta_hat", "zeta_sigma", "nees")})
    out["innovations"] = np.empty((n, 3))

    for k in range(n):
        eta_k = ReferenceParams.from_array(truth.eta[k])
        z = measure(truth.dr[k], cfg.d, cfg.noise, rng)
        x, p_cov, innovation = ekf_update(
            oe_hat.as_array(), p_cov, eta_k.as_array(), z,
            cfg.noise.covariance(), cfg.d)
        oe_hat = NodalRelativeState.from_array(x)
        out["innovations"][k] = innovation

        x = oe_hat.as_array()
        out["oe_hat"][k] = x
        e = x - truth.oe[k]
        e[0] = wrap_angle(e[0])
        out["err"][k] = e
        out["sigma"][k] = np.sqrt(np.maximum(np.diag(p_cov), 0.0))
        out["nees"][k] = float(e @ np.linalg.solve(p_cov, e))

        rel = relative_position(oe_hat, eta_k).dr
        j_oe, _ = position_jacobians(oe_hat, eta_k)
        rho_hat = float(np.linalg.norm(rel))
        out["range_err"][k] = rho_hat - truth.range_km[k]
        grad_rho = (rel / rho_hat) @ j_oe
        out["range_sigma"][k] = math.sqrt(
            max(float(grad_rho @ p_cov @ grad_rho), 0.0))

        out["zeta_hat"][k] = zeta(oe_hat, eta_k)
        gz, _ = zeta_gradient(oe_hat, eta_k)
        out["zeta_sigma"][k] = math.sqrt(max(float(gz @ p_cov @ gz), 0.0))

        if k < n - 1:
            x, p_cov = ekf_propagate(
                oe_hat.as_array(), p_cov, eta_k.as_array(),
                ReferenceParams.from_array(truth.eta[k + 1]).as_array(),
                cfg.sample_dt, q_rate, cfg.mu)
            oe_hat = NodalRelativeState.from_array(x)

    k0 = int(math.ceil(cfg.transient_fraction * n))
    out["detected"] = bool(np.all(np.abs(out["zeta_hat"][k0:])
                                  <= 3.0 * out["zeta_sigma"][k0:]))
    return out


class TestReferenceFilterPath:
    """The blocked diagnostics pass against the per-step reference on the
    desk scenario at 600 s, with a block length (97) that leaves a partial
    last block of the 2,845 samples."""

    def test_blocked_pass_matches_reference(self, desk_truth, monkeypatch):
        cfg, truth = desk_truth
        assert truth.t.size % 97 != 0
        monkeypatch.setattr(sim, "_DIAGNOSTIC_BLOCK", 97)
        for run_index in range(2):
            run = sim._run_filter(cfg, truth, run_index)
            ref = reference_run_filter(cfg, truth, run_index)
            for name in ("oe_hat", "err", "sigma", "innovations"):
                assert np.array_equal(getattr(run, name), ref[name]), name
            assert run.detected == ref["detected"]
            for name, sigma in (("range_err", "range_sigma"),
                                ("range_sigma", "range_sigma"),
                                ("zeta_hat", "zeta_sigma"),
                                ("zeta_sigma", "zeta_sigma")):
                dev = np.abs(getattr(run, name) - ref[name]) / ref[sigma]
                assert dev.max() <= 1e-8, name
            assert np.abs(run.nees / ref["nees"] - 1.0).max() <= 1e-10

    def test_states_checked_at_most_three_times_per_step(self, monkeypatch):
        # Each public entry checks each x and eta it is given once; the
        # update checks its posterior too, the coast's output is not
        # checked again.  An update gets one reference, a coast two.
        calls = {"_checked_state": 0, "_checked_reference": 0}
        for name in calls:
            def counted(arg, _name=name, _fn=getattr(navigation, name)):
                calls[_name] += 1
                return _fn(arg)
            monkeypatch.setattr(navigation, name, counted)
        cfg = small_config()
        truth = build_truth(cfg)
        sim._run_filter(cfg, truth, 0)
        n = truth.t.size
        assert 0 < calls["_checked_state"] <= 3 * n
        assert calls["_checked_reference"] == n + 2 * (n - 1)

    def test_one_kepler_solve_per_coast(self, monkeypatch):
        # The coast reads satellite 1's anomaly from the truth's reference
        # and solves satellite 2 alone: n - 1 coasts, n - 1 solves.
        cfg = small_config()
        truth = build_truth(cfg)
        calls = []

        def counted(*args, _fn=dynamics.advance_true_anomaly):
            calls.append(args)
            return _fn(*args)

        monkeypatch.setattr(dynamics, "advance_true_anomaly", counted)
        sim._run_filter(cfg, truth, 0)
        assert len(calls) == truth.t.size - 1

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

    @pytest.mark.parametrize("overrides", [
        dict(mc_runs=2), dict(mc_runs=3), dict(mc_runs=4),
        dict(mc_runs=3, jobs=2),
        # One sample: the stacked envelope sums its single column pairwise,
        # where the fold goes in run order.
        dict(mc_runs=17, seed=0, t_end=-2.0 * 86400.0 + 100.0,
             transient_fraction=0.0),
    ])
    def test_matches_stacked_reference(self, tmp_path, overrides):
        cfg = small_config(**{"sample_dt": 1800.0, "seed": 11, **overrides})
        summary, runs = run_montecarlo(cfg, out_dir=str(tmp_path))
        truth = build_truth(cfg)
        full = [sim._run_filter(cfg, truth, i) for i in range(cfg.mc_runs)]
        ref = reference_stacked_aggregation(full)
        envelope = np.loadtxt(tmp_path / "ensemble_envelope.csv",
                              delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(envelope[:, 0], truth.t)
        # The Welford fold rounds otherwise than the two-pass stacked std:
        # 6.5e-16 relative at most on the desk campaigns (m = 2 to 25).
        np.testing.assert_allclose(envelope[:, 1:], ref.pop("envelope"),
                                   rtol=1e-12, atol=0.0)
        # Each run's NEES sum, folded in run order, rounds otherwise than
        # the pairwise sum of the stacked NEES: 2.2e-16 relative at most
        # on these campaigns.
        np.testing.assert_allclose(summary.mean_nees, ref.pop("mean_nees"),
                                   rtol=1e-15, atol=0.0)
        for name, value in ref.items():
            assert np.array_equal(getattr(summary, name), value), name
        assert np.array_equal(runs[0].t, truth.t)
        for run, ref_run in zip(runs, full, strict=True):
            assert run.t is runs[0].t
            for name in ("zeta_hat", "zeta_sigma", "detected",
                         "post_transient_index"):
                assert np.array_equal(getattr(run, name),
                                      getattr(ref_run, name)), name
        if cfg.jobs > 1:
            # Both fold in run order: the envelope agrees bit for bit.
            serial = tmp_path / "serial"
            run_montecarlo(replace(cfg, jobs=1), out_dir=str(serial))
            for name in ("summary.json", "ensemble_envelope.csv"):
                assert ((serial / name).read_bytes()
                        == (tmp_path / name).read_bytes()), name

    @pytest.mark.parametrize("mc_runs", [4, 16])
    def test_aggregation_keeps_two_floats_per_run_sample(
            self, tmp_path, monkeypatch, mc_runs):
        # Beyond its truth, the campaign's traced peak holds 2 floats per
        # sample of every run (zeta_hat and zeta_sigma; its NEES is folded
        # into one sum) and K per sample of one run at a time: the FlybyRun
        # in flight (26), its 3-sigma coverage test (|err|, 3 sigma and the
        # mask, 12.75) and the Welford mean and M2 (14), with 3.25 to spare
        # for the fixed-size allocations (≈ 33 KB at this n).  Keeping each
        # run's FlybyRun took 26 per sample of every run.  The runs are
        # filtered before tracing starts and served as fresh copies, so the
        # trace holds their arrays but not the EKF loop, which tracing slows
        # sixfold.
        cfg = small_config(sample_dt=120.0, mc_runs=mc_runs)
        truth = build_truth(cfg)
        runs = [sim._run_filter(cfg, truth, i) for i in range(mc_runs)]

        def fresh_run(_cfg, _truth, i):
            return replace(runs[i], **{
                name: value.copy() for name, value in vars(runs[i]).items()
                if isinstance(value, np.ndarray) and name != "t"})

        monkeypatch.setattr(sim, "_run_filter", fresh_run)
        tracemalloc.start()
        try:
            run_montecarlo(cfg, out_dir=str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for a in vars(truth).values()
                   if isinstance(a, np.ndarray))
        n, k = truth.t.size, 56
        assert peak - held <= mc_runs * n * 2 * 8 + k * n * 8

    def test_envelope_csv_written(self, tmp_path):
        cfg = small_config(sample_dt=3600.0, mc_runs=3)
        run_montecarlo(cfg, out_dir=str(tmp_path))
        data = np.genfromtxt(tmp_path / "ensemble_envelope.csv",
                             delimiter=",", names=True)
        assert np.all(np.isfinite(data["true_3sigma_range"]))
        assert np.all(data["true_3sigma_range"] >= 0.0)


def reference_stacked_aggregation(runs: list) -> dict:
    """The campaign aggregates as they were computed from (m, n, 6) stacks
    of the runs' FlybyRun histories: the summary fields, and the envelope's
    3-sigma columns under the key "envelope"."""
    err_stack = np.stack([r.err for r in runs])
    sig_stack = np.stack([r.sigma for r in runs])
    range_err_stack = np.stack([r.range_err for r in runs])
    covered = np.abs(err_stack) <= 3.0 * sig_stack
    return {
        "coverage_by_component": tuple(float(c) for c in
                                       covered.mean(axis=(0, 1))),
        "coverage_aggregate": float(covered.mean()),
        "detection_rate": float(np.mean([r.detected for r in runs])),
        "final_range_error_sigma": float(np.std(range_err_stack[:, -1],
                                                ddof=1)),
        "initial_range_error_sigma": float(np.std(range_err_stack[:, 0],
                                                  ddof=1)),
        "mean_final_abs_range_err": float(np.mean(np.abs(
            range_err_stack[:, -1]))),
        "mean_nees": float(np.mean(np.stack([r.nees for r in runs]))),
        "envelope": np.column_stack([3.0 * err_stack.std(axis=0, ddof=1),
                                     3.0 * range_err_stack.std(axis=0,
                                                               ddof=1)]),
    }


def reference_write_csv(path: str, header: list, columns: list) -> None:
    """The CSV writer as it was before it formatted whole rows: csv.writer
    with each value formatted on its own as f"{float(x):.17g}"."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in zip(*columns):
            w.writerow([f"{float(v):.17g}" for v in row])


class TestCsvWriter:
    """The row-at-once writer against the value-at-a-time reference."""

    def test_flyby_csvs_match_reference(self, tmp_path, monkeypatch):
        cfg = small_config(sample_dt=1800.0)
        art = run_flyby(cfg, out_dir=str(tmp_path / "new"))
        monkeypatch.setattr(sim, "_write_csv", reference_write_csv)
        ref = run_flyby(cfg, out_dir=str(tmp_path / "ref"))
        for name in ("truth", "filter", "screening"):
            with open(art.paths[name], "rb") as a, \
                    open(ref.paths[name], "rb") as b:
                assert a.read() == b.read()

    def test_special_values_match_reference(self, tmp_path):
        columns = [
            np.array([math.nan, math.inf, -math.inf, -0.0, 0.0]),
            [5e-324, -5e-324, 1.7976931348623157e308,
             -1.7976931348623157e308, 0.1],
            np.array([1.0, -2.0, 1e16, 1e17, 3.0]),
            [np.float64(v) for v in (0.1, 1.0 / 3.0, -7.0, 2.5e-310, 1e22)],
            range(5),
        ]
        header = ["nan_inf_zero", "extremes", "integral", "float64", "ints"]
        sim._write_csv(str(tmp_path / "new.csv"), header, columns)
        reference_write_csv(str(tmp_path / "ref.csv"), header, columns)
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "ref.csv").read_bytes()
        assert new.count(b"\r\n") == 6


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
        assert res.achieved_miss_km > cfg.d

    @pytest.mark.parametrize("apply_at", [math.nan, 1e12, -1e12])
    def test_apply_at_outside_window_rejected(self, apply_at, monkeypatch):
        # It used to be clamped to the nearest sample of the window.
        monkeypatch.setattr(sim, "run_flyby", None)  # rejected before it
        with pytest.raises(ValueError, match="^apply_at must lie in"):
            run_maneuver_sweep(small_config(), apply_at=apply_at)

    @pytest.mark.parametrize("offsets", [(math.nan,), (1e-4, math.inf), ()])
    def test_nonfinite_offsets_rejected(self, offsets, monkeypatch):
        # They used to reach the replay's initial state in scipy.
        monkeypatch.setattr(sim, "run_flyby", None)  # rejected before it
        with pytest.raises(ValueError, match="^offsets must be one or more "
                                             "finite values"):
            run_maneuver_sweep(small_config(), offsets=offsets)

    def test_default_epoch_clamped_to_short_window(self):
        # Two days after a window shorter than two days opens lies past its
        # end; the default then takes the window's last sample.
        cfg = small_config(sample_dt=1800.0)
        assert cfg.t_start + 2.0 * 86400.0 > cfg.t_end
        res = run_maneuver_sweep(cfg)
        assert res.applied_t_m == build_truth(cfg).t[-1]

    def test_replay_matches_two_integration_reference(self, monkeypatch):
        # One dense solve per orbit: s1, s1 with the burn, and s2.
        solve_ivp, dense = dynamics.solve_ivp, []

        def counted(*args, **kwargs):
            dense.append(kwargs["dense_output"])
            return solve_ivp(*args, **kwargs)

        monkeypatch.setattr(dynamics, "solve_ivp", counted)
        cfg = small_config(sample_dt=1800.0)
        res = run_maneuver_sweep(cfg, apply_at=cfg.t_start + 0.5 * 86400.0)
        assert dense == [True] * 3
        monkeypatch.undo()

        t_m, t_hi = res.applied_t_m, -cfg.t_end
        truth = build_truth(cfg)
        s1, s2 = (elements_to_cartesian(kepler_advance(el, t_m, cfg.mu),
                                        cfg.mu)
                  for el in (truth.el1_impact, truth.el2_impact))
        burned = apply_impulse(s1, res.applied_dv)
        assert res.achieved_miss_km == reference_closest_approach(
            burned, s2, t_m, t_hi, cfg)
        assert res.unmaneuvered_miss_km == reference_closest_approach(
            s1, s2, t_m, t_hi, cfg)


def reference_closest_approach(s1, s2, t0: float, tf: float,
                               cfg: ScenarioConfig) -> float:
    """The replay's miss (km) by two integrations of the pair: the
    distance on a coarse grid, then the window integrated again and
    sampled on 400 points between the best sample's neighbours (and at
    t0 and tf, so that both solves take the same steps)."""
    coarse = max(2000, int((tf - t0) / cfg.sample_dt / 4))
    cw = cowell_propagate(s1, s2, np.linspace(t0, tf, coarse), cfg.mu)
    d = np.linalg.norm(cw.r2 - cw.r1, axis=1)
    k = int(np.argmin(d))
    lo = cw.t[max(k - 1, 0)]
    hi = cw.t[min(k + 1, coarse - 1)]
    t_fine = np.linspace(lo, hi, 400)
    fine = cowell_propagate(s1, s2, np.union1d(t_fine, [t0, tf]), cfg.mu)
    at_fine = np.isin(fine.t, t_fine)
    d_fine = np.linalg.norm(fine.r2[at_fine] - fine.r1[at_fine], axis=1)
    return float(min(d.min(), d_fine.min()))


def test_interpolant_kept_only_where_read(monkeypatch):
    # Validation reads its six solves at their samples only; the forced C2
    # search evaluates between them (the replay's: TestManeuverSweep).
    solve_ivp, dense = dynamics.solve_ivp, []

    def recording(*args, **kwargs):
        dense.append(kwargs["dense_output"])
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(dynamics, "solve_ivp", recording)
    run_validation()
    assert dense == [False] * 6
    dense.clear()
    oe, eta = oe_from_classical(EL1, EL2)
    c2_check(oe, eta, 0.0, 3000.0, MU_EARTH, miss_tol=1.0)
    assert dense == []
    zero = PerturbationInput(u1=np.zeros(3), u2=np.zeros(3))
    c2_check(oe, eta, 0.0, 3000.0, MU_EARTH, miss_tol=1.0, u=lambda t: zero)
    assert dense == [True]


class TestValidation:
    def test_validation_discrepancy_small(self, monkeypatch):
        monkeypatch.setattr(dynamics, "RTOL", 1e-10)
        res = run_validation()
        assert res.max_discrepancy_km < 1e-2

    def test_tolerance_controls_discrepancy(self, monkeypatch):
        # The model is exact, so what is left of the discrepancy is the
        # integrators': it shrinks as their tolerance tightens.
        monkeypatch.setattr(dynamics, "RTOL", 1e-6)
        loose = run_validation()
        monkeypatch.setattr(dynamics, "RTOL", 1e-11)
        tight = run_validation()
        assert tight.max_discrepancy_km < loose.max_discrepancy_km
