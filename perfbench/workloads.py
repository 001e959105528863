"""The benchmark's workloads: ``campaign``, ``pipeline`` and ``screen``.

Each workload has a ``setup`` (inputs from the seed, before the timed
part), a ``round`` (one whole unit of timed work, repeated for the run's
length, returning the calibrated time of each of its parts) and a
``check`` (correctness of the outputs, run after the timed part).  The
program is driven only through the public functions of ``nodalrel`` and
its CLI entry point, looked up at call time so that the tracer's wrappers
are seen.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

import nodalrel as nr
from nodalrel import cli
from nodalrel import missionsim as sim

import oracles

# --- shared helpers --------------------------------------------------------


def sha256_file(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def csv_rows(path) -> int:
    with open(path, newline="") as f:
        return sum(1 for _ in csv.reader(f)) - 1


def desk_config(seed: int, tiny: bool) -> sim.ScenarioConfig:
    """The default desk scenario over the full 20-day window at a 600 s
    cadence, 4 Monte Carlo runs, one process.  ``tiny`` keeps the window
    but samples it every 3 h with 2 runs (for the benchmark's own test)."""
    cfg = replace(sim.ScenarioConfig(), seed=seed, sample_dt=600.0,
                  mc_runs=4, jobs=1)
    if tiny:
        cfg = replace(cfg, sample_dt=10800.0, mc_runs=2)
    return cfg


def samples_in(cfg: sim.ScenarioConfig) -> int:
    """n = floor((t_end - t_start) / dt) + 1, written out independently of
    ScenarioConfig.sample_times."""
    return int(math.floor((cfg.t_end - cfg.t_start) / cfg.sample_dt)) + 1


#: Share of post-transient samples at which every run's 3-sigma zeta band
#: must contain zero (the colliding value).
DETECTION_SHARE = 0.95


# --- campaign --------------------------------------------------------------

class Campaign:
    """run_montecarlo on the desk scenario; one operation is one EKF step
    (one update plus one propagate) of one Monte Carlo run."""

    name = "campaign"

    def setup(self, seed, tiny, out_dir):
        cfg = desk_config(seed, tiny)
        truth = nr.build_truth(cfg)
        return {"cfg": cfg, "truth": truth, "out": str(out_dir),
                "n": samples_in(cfg)}

    def ops_per_round(self, st):
        return st["cfg"].mc_runs * st["n"]

    def round(self, st, clock):
        mark = clock.mark()
        summary, runs = nr.run_montecarlo(st["cfg"], out_dir=st["out"])
        parts = [clock.since(mark)[1]]
        rec = {"summary_sha": sha256_file(os.path.join(st["out"],
                                                       "summary.json")),
               "runs": len(runs), "steps": sum(r.t.size for r in runs)}
        st["last"] = (summary, runs)
        return self.ops_per_round(st), 0, rec, parts

    def provenance(self, st):
        return {"config_sha256": sha256_json(sim.config_to_dict(st["cfg"])),
                "config": sim.config_to_dict(st["cfg"]),
                "samples_per_run": st["n"]}

    def check(self, st, records, traced):
        cfg, truth, n = st["cfg"], st["truth"], st["n"]
        m = cfg.mc_runs
        summary, runs = st["last"]
        fails = []
        for i, rec in enumerate(records):
            if rec["runs"] != m or rec["steps"] != m * n:
                fails.append(f"round {i}: {rec['runs']} runs, {rec['steps']} "
                             f"EKF steps; expected {m} and {m * n}")
        if len({rec["summary_sha"] for rec in records}) != 1:
            fails.append("summary.json differs between rounds of one seed")
        env_rows = csv_rows(os.path.join(st["out"], "ensemble_envelope.csv"))
        if env_rows != n:
            fails.append(f"envelope CSV has {env_rows} rows, expected {n}")

        for i, run in enumerate(runs):
            k0 = run.post_transient_index
            inside = np.abs(run.zeta_hat[k0:]) <= 3.0 * run.zeta_sigma[k0:]
            if inside.mean() < DETECTION_SHARE:
                fails.append(f"run {i}: zeta band holds the collision at "
                             f"only {inside.mean():.4f} of samples")

        sigma_crlb = oracles.crlb_final_range_sigma(cfg, truth)
        floor = oracles.sample_sigma_quantile(0.01, m) * sigma_crlb
        st["sigma_crlb_km"] = sigma_crlb
        sigma = summary.final_range_error_sigma
        if not sigma >= floor:
            fails.append(f"final range sigma {sigma:.1f} km below "
                         f"kappa_lo*sigma_CRLB = {floor:.1f} km")

        # Truth's final RTN1 relative position against inertial two-body
        # motion of the two scenario orbits from the impact epoch.
        t_last = float(truth.t[-1])
        ends = []
        for el in (truth.el1_impact, truth.el2_impact):
            r0, v0 = oracles.state_of(el, cfg.mu)
            ends.append(oracles.two_body(r0, v0, 0.0, t_last, cfg.mu)(t_last))
        (r1, v1), r2 = (ends[0][:3], ends[0][3:]), ends[1][:3]
        dr = oracles.rtn_frame(r1, v1) @ (r2 - r1)
        miss = float(np.linalg.norm(dr - truth.dr[-1]))
        st["truth_vs_inertial_km"] = miss
        if not miss <= 1e-6 * float(np.linalg.norm(dr)):
            fails.append(f"truth final relative position off the inertial "
                         f"propagation by {miss:.3e} km")

        if traced is not None:
            for fn, want in (("ekf_update", m * n),
                             ("ekf_propagate", m * (n - 1))):
                got = traced[f"navigation.{fn}.calls"]
                if got != want:
                    fails.append(f"traced {fn} calls {got}, expected {want}")
        return fails


# --- pipeline --------------------------------------------------------------

class Pipeline:
    """One scenario through the CLI: validate, flyby --out, maneuver --out.
    One operation is one CLI command."""

    name = "pipeline"
    COMMANDS = ("validate", "flyby", "maneuver")

    def setup(self, seed, tiny, out_dir):
        cfg = desk_config(seed, tiny)
        os.makedirs(out_dir, exist_ok=True)
        cfg_path = os.path.join(out_dir, "config.json")
        with open(cfg_path, "w") as f:
            json.dump(sim.config_to_dict(cfg), f, indent=1, sort_keys=True)
        return {"cfg": cfg, "cfg_path": cfg_path, "out": str(out_dir),
                "n": samples_in(cfg), "orbits": sim.scenario_orbits(cfg)}

    def ops_per_round(self, st):
        return len(self.COMMANDS)

    def _dir(self, st, cmd):
        return os.path.join(st["out"], cmd)

    def round(self, st, clock):
        hashes, parts = {}, []
        for cmd in self.COMMANDS:
            mark = clock.mark()
            argv = [cmd, "--out", self._dir(st, cmd)]
            if cmd != "validate":
                argv += ["--config", st["cfg_path"]]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            parts.append(clock.since(mark)[1])
            if code != 0:
                raise RuntimeError(f"nodalrel {' '.join(argv)} exited {code}")
            hashes[cmd] = sha256_file(os.path.join(self._dir(st, cmd),
                                                   "summary.json"))
        return len(self.COMMANDS), 0, {"summary_sha": hashes}, parts

    def provenance(self, st):
        return {"config_sha256": sha256_file(st["cfg_path"]),
                "config": sim.config_to_dict(st["cfg"]),
                "samples_per_run": st["n"]}

    def _summary(self, st, cmd):
        with open(os.path.join(self._dir(st, cmd), "summary.json")) as f:
            return json.load(f)

    def check(self, st, records, traced):
        n = st["n"]
        fails = []
        if any(rec != records[0] for rec in records):
            fails.append("a summary.json differs between rounds of one seed")

        val = self._summary(st, "validate")
        if not val["max_validation_discrepancy_km"] <= 1e-3:
            fails.append("model-vs-Cowell discrepancy "
                         f"{val['max_validation_discrepancy_km']:.3e} km")

        man = self._summary(st, "maneuver")
        base, achieved = man["unmaneuvered_miss_km"], man["achieved_miss_km"]
        if not base <= 100.0:
            fails.append(f"unmaneuvered Cowell miss {base:.3f} km > 100 km")
        if not achieved >= 100.0 * base:
            fails.append(f"maneuvered miss {achieved:.3f} km is not 100x the "
                         f"unmaneuvered {base:.3f} km")
        dz, planned = self._achieved_delta_zeta(st, man)
        st["delta_zeta"] = {"achieved": dz, "planned": planned}
        if not abs(dz - planned) <= 0.05 * abs(planned):
            fails.append(f"post-burn delta zeta {dz:.6e} vs planned "
                         f"{planned:.6e}")

        stride = max(1, n // 200)
        want_rows = {("flyby", "truth.csv"): n,
                     ("flyby", "filter_run0.csv"): n,
                     ("flyby", "screening_run0.csv"): len(range(0, n, stride))}
        for (cmd, fname), want in want_rows.items():
            got = csv_rows(os.path.join(self._dir(st, cmd), fname))
            if got != want:
                fails.append(f"{cmd}/{fname} has {got} rows, expected {want}")

        if traced is not None:
            checks = {"navigation.ekf_update.calls": 2 * n,
                      "conjunction.c2_check.calls": len(range(0, n, stride))}
            for key, want in checks.items():
                if traced[key] != want:
                    fails.append(f"traced {key} = {traced[key]}, "
                                 f"expected {want}")
            for key in ("dynamics.rhs_evals", "conjunction.golden_evals"):
                if not traced[key] > 0:
                    fails.append(f"traced {key} is zero")
        return fails

    def _achieved_delta_zeta(self, st, man):
        """Change of zeta from the post-burn Cartesian state (inertial
        two-body back from impact to the burn epoch, impulse in RTN1,
        then cartesian_to_elements and oe_from_classical)."""
        cfg = st["cfg"]
        t_m = float(man["applied_t_m"])
        dv = np.asarray(man["applied_dv_km_s"], dtype=float)
        states = []
        for el in st["orbits"]:
            r0, v0 = oracles.state_of(el, cfg.mu)
            y = oracles.two_body(r0, v0, 0.0, t_m, cfg.mu)(t_m)
            states.append((y[:3], y[3:]))
        (r1, v1), (r2, v2) = states
        v1_burn = v1 + oracles.rtn_frame(r1, v1).T @ dv

        def zeta_of(v1_now):
            els = [nr.cartesian_to_elements(nr.CartesianState(r=r, v=v),
                                            cfg.mu)
                   for r, v in ((r1, v1_now), (r2, v2))]
            return nr.zeta(*nr.oe_from_classical(*els))

        return (zeta_of(v1_burn) - zeta_of(v1),
                float(man["applied_delta_zeta"]))


# --- screen ----------------------------------------------------------------

MU_E = nr.MU_EARTH
SCREEN_WINDOW = 750.0     # s, seeded pairs are screened over [0, 750]
SCREEN_LEAD = 300.0       # s, seeded collisions happen at t = 300
SCREEN_MISS_TOL = 1.0     # km
PERTURB_ACCEL = 1e-6      # km/s^2, constant RTN acceleration per satellite
PLANE_ANGLES = (75.0, 105.0)  # deg, angle between the two orbit planes
SCREEN_MIX = {"collide": 40, "separated": 20, "perturbed": 16}
TINY_MIX = {"collide": 2, "separated": 2, "perturbed": 1}
# Pairs from the common-point generator at default_rng(7), coasted back
# 3000 s and screened over [0, 6000] s: c2_check raises on these four.
FAULT_SEED, FAULT_INDICES, FAULT_LEAD = 7, (45, 134, 139, 173), 3000.0
FAULT_WINDOW = 6000.0


@dataclass
class Pair:
    kind: str
    el1: object            # ClassicalElements at t = 0
    el2: object
    lead: float            # collision epoch (nan for separated pairs)
    tf: float              # screening window is [0, tf]
    r: Optional[np.ndarray] = None    # common point at t = lead
    v1: Optional[np.ndarray] = None
    v2: Optional[np.ndarray] = None
    accel: Optional[tuple] = None     # (u1, u2) RTN, km/s^2
    u: Optional[object] = None        # callback for c2_check


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _planes_apart(h1, h2) -> bool:
    """Whether the planes with normals h1, h2 are PLANE_ANGLES apart."""
    cos = h1 @ h2 / np.linalg.norm(h1) / np.linalg.norm(h2)
    angle = math.degrees(math.acos(np.clip(cos, -1.0, 1.0)))
    return PLANE_ANGLES[0] <= angle <= PLANE_ANGLES[1]


def leo_crossing(rng):
    """Two near-circular LEO orbits through a common point: radius
    6,778-7,378 km, speeds 0.98-1.04 of circular, flight-path angles within
    2 deg, planes 75-105 deg apart."""
    while True:
        r = rng.uniform(6778.0, 7378.0) * _unit(rng)
        r_hat = r / np.linalg.norm(r)
        a_dir = np.cross(r_hat, _unit(rng))
        a_dir /= np.linalg.norm(a_dir)
        b_dir = np.cross(r_hat, a_dir)
        v_circ = math.sqrt(MU_E / np.linalg.norm(r))

        def velocity():
            heading = rng.uniform(0.0, 2.0 * math.pi)
            fpa = math.radians(rng.uniform(-2.0, 2.0))
            horiz = math.cos(heading) * a_dir + math.sin(heading) * b_dir
            return v_circ * rng.uniform(0.98, 1.04) * (
                math.cos(fpa) * horiz + math.sin(fpa) * r_hat)

        v1, v2 = velocity(), velocity()
        if _planes_apart(np.cross(r, v1), np.cross(r, v2)):
            return r, v1, v2


def _coasted_pair(kind, r, v1, v2, lead, tf, accel=None):
    els = [nr.kepler_advance(nr.cartesian_to_elements(
        nr.CartesianState(r=r, v=v), MU_E), -lead, MU_E) for v in (v1, v2)]
    return _coasted(kind, els, r, v1, v2, lead, tf, accel)


def _fault_pair(el1, el2, r):
    """A pair from the tests' common-point generator, coasted back by
    FAULT_LEAD from its common point."""
    els = [nr.kepler_advance(el, -FAULT_LEAD, MU_E) for el in (el1, el2)]
    v1, v2 = (oracles.state_of(el, MU_E)[1] for el in (el1, el2))
    return _coasted("fault", els, r, v1, v2, FAULT_LEAD, FAULT_WINDOW)


def _coasted(kind, els, r, v1, v2, lead, tf, accel=None):
    u = None
    if accel is not None:
        pin = nr.PerturbationInput(u1=accel[0], u2=accel[1])
        u = lambda _t, pin=pin: pin  # noqa: E731
    return Pair(kind, els[0], els[1], lead, tf, r, v1, v2, accel, u)


def separated_pair(rng):
    """Two random LEO orbits whose node-crossing radii differ by at least
    1 km at both relative nodes (Cartesian node oracle)."""
    while True:
        els = [nr.ClassicalElements(
            a=rng.uniform(6778.0, 7378.0), e=rng.uniform(0.0, 0.02),
            i=rng.uniform(0.05, 3.0), raan=rng.uniform(-math.pi, math.pi),
            argp=rng.uniform(-math.pi, math.pi),
            nu=rng.uniform(-math.pi, math.pi)) for _ in range(2)]
        h1, h2 = (np.cross(*oracles.state_of(el, MU_E)) for el in els)
        if not _planes_apart(h1, h2):
            continue
        if oracles.node_radii_gap(els[0], els[1]) >= 1.0:
            return Pair("separated", els[0], els[1], math.nan, SCREEN_WINDOW)


def screen_population(seed, tiny):
    rng = np.random.default_rng(seed)
    mix = TINY_MIX if tiny else SCREEN_MIX
    pairs = [_coasted_pair("collide", *leo_crossing(rng), SCREEN_LEAD,
                           SCREEN_WINDOW)
             for _ in range(mix["collide"])]
    pairs += [separated_pair(rng) for _ in range(mix["separated"])]
    for _ in range(mix["perturbed"]):
        crossing = leo_crossing(rng)
        accel = (PERTURB_ACCEL * _unit(rng), PERTURB_ACCEL * _unit(rng))
        pairs.append(_coasted_pair("perturbed", *crossing, SCREEN_LEAD,
                                   SCREEN_WINDOW, accel))
    fault_rng = np.random.default_rng(FAULT_SEED)
    drawn = [oracles.pair_through_common_point(fault_rng)
             for _ in range(max(FAULT_INDICES) + 1)]
    pairs += [_fault_pair(*drawn[i]) for i in FAULT_INDICES]
    return pairs


class Screen:
    """C1, zeta and C2 screening of a seeded population of Earth-orbit
    pairs; one operation is one pair."""

    name = "screen"
    COWELL_SUBSET = 4  # per seeded kind

    def setup(self, seed, tiny, out_dir):
        return {"pairs": screen_population(seed, tiny)}

    def ops_per_round(self, st):
        return len(st["pairs"])

    def round(self, st, clock):
        results, parts, failed = [], [], 0
        for pair in st["pairs"]:
            mark = clock.mark()
            oe, eta = nr.oe_from_classical(pair.el1, pair.el2)
            verdict = nr.c1_test(oe, eta)
            z = nr.zeta(oe, eta)
            try:
                c2 = nr.c2_check(oe, eta, 0.0, pair.tf, MU_E,
                                 miss_tol=SCREEN_MISS_TOL, u=pair.u)
            except ValueError as exc:
                if "Bracketing values" not in str(exc):
                    raise
                failed += 1
                c2 = None
            parts.append(clock.since(mark)[1])
            results.append((verdict, z, c2))
        st["last"] = results
        digest = [None if c2 is None else (c2.t_min, c2.d_min)
                  for _, _, c2 in results]
        return (len(st["pairs"]), failed, {"c2": digest, "failed": failed},
                parts)

    def provenance(self, st):
        pop = [[p.kind, p.lead] + [getattr(el, k) for el in (p.el1, p.el2)
                                   for k in ("a", "e", "i", "raan", "argp",
                                             "nu")]
               + ([] if p.accel is None else
                  [float(x) for a in p.accel for x in a])
               for p in st["pairs"]]
        kinds = {}
        for p in st["pairs"]:
            kinds[p.kind] = kinds.get(p.kind, 0) + 1
        return {"population_sha256": sha256_json(pop), "population": kinds,
                "window_s": SCREEN_WINDOW, "lead_s": SCREEN_LEAD,
                "fault_pairs": {"rng": FAULT_SEED,
                                "indices": list(FAULT_INDICES),
                                "lead_s": FAULT_LEAD}}

    def check(self, st, records, traced):
        pairs, results = st["pairs"], st["last"]
        fails = []
        if any(rec != records[0] for rec in records):
            fails.append("c2_check results differ between rounds")
        raised = [p.kind for p, (_, _, c2) in zip(pairs, results)
                  if c2 is None]
        st["raised"] = {k: raised.count(k) for k in set(raised)}
        seeded_raised = [k for k in raised if k != "fault"]
        if seeded_raised:
            fails.append(f"c2_check raised on seeded pairs: {seeded_raised}")

        for i, (pair, (verdict, z, c2)) in enumerate(zip(pairs, results)):
            if pair.kind in ("collide", "fault"):
                h1, h2 = np.cross(pair.r, pair.v1), np.cross(pair.r, pair.v2)
                asc = oracles.ascending_at(pair.r, h1, h2)
                margin = (verdict.margin_ascending if asc
                          else verdict.margin_descending)
                if not (verdict.satisfied and abs(margin) <= 1e-9):
                    fails.append(f"pair {i}: colliding pair fails C1 at its "
                                 f"{'ascending' if asc else 'descending'} "
                                 f"node (margin {margin:.3e})")
                if asc and not abs(z) <= 1e-9:
                    fails.append(f"pair {i}: zeta {z:.3e} at an ascending "
                                 "collision")
                if c2 is not None and not (
                        c2.collides and abs(c2.t_min - pair.lead) <= 5.0):
                    fails.append(f"pair {i}: C2 reports d_min {c2.d_min:.3e} "
                                 f"km at t {c2.t_min:.2f} s, expected a "
                                 f"collision at {pair.lead:.0f} s")
            elif pair.kind == "separated" and verdict.satisfied:
                fails.append(f"pair {i}: separated pair satisfies C1")

        worst = 0.0
        for kind in ("collide", "separated", "perturbed"):
            picked = [(p, c2) for p, (_, _, c2) in zip(pairs, results)
                      if p.kind == kind and c2 is not None]
            for pair, c2 in picked[:self.COWELL_SUBSET]:
                _, d_ref = cowell_min_distance(pair)
                err = abs(c2.d_min - d_ref)
                worst = max(worst, err)
                if not err <= 1e-3 + 1e-7 * d_ref:
                    fails.append(f"{kind} pair: d_min {c2.d_min:.6f} km vs "
                                 f"Cowell {d_ref:.6f} km")
        st["worst_cowell_km"] = worst

        if traced is not None:
            if traced["conjunction.c2_check.calls"] != len(pairs):
                fails.append(f"traced c2_check calls "
                             f"{traced['conjunction.c2_check.calls']}, "
                             f"expected {len(pairs)}")
            for key in ("dynamics.rhs_evals", "conjunction.golden_evals"):
                if not traced[key] > 0:
                    fails.append(f"traced {key} is zero")
        return fails


def cowell_min_distance(pair: Pair):
    """Minimum separation over the screening window by inertial two-body
    motion (plus the pair's constant RTN accelerations)."""
    if pair.r is not None:
        starts = [oracles.two_body(pair.r, v, pair.lead, 0.0, MU_E)(0.0)
                  for v in (pair.v1, pair.v2)]
    else:
        starts = [np.concatenate(oracles.state_of(el, MU_E))
                  for el in (pair.el1, pair.el2)]
    accel = pair.accel or (None, None)
    sols = [oracles.two_body(y[:3], y[3:], 0.0, pair.tf, MU_E, a)
            for y, a in zip(starts, accel)]
    return oracles.min_distance(sols[0], sols[1], 0.0, pair.tf)


WORKLOADS = {w.name: w for w in (Campaign(), Pipeline(), Screen())}
