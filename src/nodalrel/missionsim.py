"""Scenario construction and experiment orchestration: the colliding-flyby
benchmark, Monte Carlo campaigns, maneuver sweeps, and the model-vs-Cowell
validation run.

Times are seconds relative to the impact epoch (so the observation window
is negative).  JSON configs and CLI flags carry angles in degrees; all
internal state is radians.  Each Monte Carlo run draws from a dedicated
Philox substream derived from (seed, run index), so results are
reproducible regardless of execution order or parallelism.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .constants import AU_KM, MU_EARTH, MU_SUN
from .errors import InfeasibleEncounter, GeometryError
from .frames import ClassicalElements, wrap_angle
from .relstate import (
    NodalRelativeState,
    ReferenceParams,
    _position_arrays,
    oe_from_classical,
    relative_position_batch,
)
from .dynamics import (
    CartesianState,
    PerturbationInput,
    apply_impulse,
    cartesian_to_elements,
    cowell_propagate,
    elements_to_cartesian,
    kepler_advance,
    propagate,
    rtn_basis,
    unperturbed_flow,
)
from .conjunction import _node_margin_arrays, c1_test, c2_check, plan_avoidance
from .navigation import (
    EkfUpdate,
    FilterState,
    NoiseSpec,
    ekf_propagate,
    ekf_update,
    measure,
)

DEG = math.pi / 180.0

#: CSV column names of the six relative states.
_STATE_NAMES = ("dtheta", "dp", "dxi_x", "dxi_y", "dh_x", "dh_y")

#: A maneuver sweep takes every n // SWEEP_CANDIDATES-th post-transient
#: sample of n as a candidate epoch; the screening report keeps every
#: n // SCREENING_ROWS-th sample.
SWEEP_CANDIDATES = 120
SCREENING_ROWS = 200

# Validation experiment: the two element sets and the sinusoidal
# accelerations (km/s^2; amplitude 1 m/s^2, distinct periods and phases).
VALIDATION_MU = MU_EARTH
VALIDATION_EL1 = ClassicalElements(a=8.9e3, e=0.5, i=10.0 * DEG,
                                   raan=20.0 * DEG, argp=0.0, nu=30.0 * DEG)
VALIDATION_EL2 = ClassicalElements(a=6.8e3, e=0.1, i=40.0 * DEG,
                                   raan=90.0 * DEG, argp=30.0 * DEG,
                                   nu=70.0 * DEG)
VALIDATION_AMPLITUDE = 1e-3
VALIDATION_PERIODS_1 = (900.0, 1100.0, 1300.0)
VALIDATION_PHASES_1 = (0.0, 1.0, 2.0)
VALIDATION_PERIODS_2 = (1000.0, 1200.0, 1400.0)
VALIDATION_PHASES_2 = (0.5, 1.5, 2.5)
VALIDATION_SPAN = 1.0e4


def _sinusoid(periods: tuple, phases: tuple) -> Callable[[float], np.ndarray]:
    """RTN acceleration t -> amplitude * sin(2 pi t / period + phase), one
    period and phase per axis."""
    def accel(t: float) -> np.ndarray:
        return VALIDATION_AMPLITUDE * np.array(
            [math.sin(2.0 * math.pi * t / per + ph)
             for per, ph in zip(periods, phases)])
    return accel


validation_accel_1 = _sinusoid(VALIDATION_PERIODS_1, VALIDATION_PHASES_1)
validation_accel_2 = _sinusoid(VALIDATION_PERIODS_2, VALIDATION_PHASES_2)


def _validation_input(t: float) -> PerturbationInput:
    return PerturbationInput(u1=validation_accel_1(t),
                             u2=validation_accel_2(t))


@dataclass(frozen=True)
class EncounterSpec:
    """Geometry of a constructed collision at t = 0.

    The target (satellite 2) passes the impact point at ``impact_nu`` on
    its own orbit; the chaser plane is tilted by ``gamma`` about the impact
    direction so that the impact point is the ascending relative node
    (theta1 = theta2 = 0 there).  Satellite 1's velocity is split into the
    free transverse speed ``transverse_speed`` (its in-plane motion) and
    the radial difference needed to meet ``relative_speed``, with sign
    ``radial_sign``.
    """

    relative_speed: float = 15.0
    gamma: float = 8.0 * DEG
    impact_nu: float = 30.0 * DEG
    transverse_speed: float = 18.0
    radial_sign: float = 1.0

    def __post_init__(self):
        if not self.relative_speed > 0.0:
            raise ValueError("relative speed must be positive")
        if not 0.0 < self.gamma < math.pi:
            raise ValueError("gamma must be in (0, pi)")


def _default_target() -> ClassicalElements:
    # Lutetia-like heliocentric orbit (scenario default, not mission data).
    return ClassicalElements(a=2.435 * AU_KM, e=0.164, i=3.06 * DEG,
                             raan=80.9 * DEG, argp=250.0 * DEG, nu=0.0)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of a flyby experiment.

    ``target`` fixes satellite 2 (its nu is overridden by the encounter's
    impact anomaly when ``encounter`` is given); satellite 1 either comes
    from ``reference`` or is solved by :func:`build_collision_scenario`.
    ``q_diag`` is a per-second process-noise rate; ``p0_diag`` the initial
    covariance diagonal.  Times are seconds relative to impact.  A config
    that cannot run raises ValueError at construction, naming each bad
    field.
    """

    mu: float = MU_SUN
    target: ClassicalElements = field(default_factory=_default_target)
    reference: Optional[ClassicalElements] = None
    encounter: Optional[EncounterSpec] = field(default_factory=EncounterSpec)
    d: float = 90.0
    noise: NoiseSpec = field(default_factory=lambda: NoiseSpec(
        sigma_az=0.001 * DEG, sigma_el=0.001 * DEG, sigma_beta=0.001 * DEG))
    sample_dt: float = 60.0
    t_start: float = -20.0 * 86400.0
    t_end: float = -6.0 * 3600.0
    init_perturb_sigma: float = 1.5e-4
    q_diag: tuple = (1e-16, 1e-20, 1e-20, 1e-20, 1e-20, 1e-20)
    p0_diag: tuple = ((1.5e-4) ** 2,) * 6
    seed: int = 0
    mc_runs: int = 25
    miss_tol: float = 1.0
    rel_tol: float = 1e-12
    transient_fraction: float = 0.05
    truth_mode: str = "kepler"
    chi2_gate: Optional[float] = None
    jobs: int = 1

    def __post_init__(self):
        if not self.t_start < self.t_end <= 0.0:
            raise ValueError("require t_start < t_end <= 0 (relative to impact)")
        if not self.sample_dt > 0.0:
            raise ValueError("sample_dt must be positive")
        if self.truth_mode not in ("kepler", "cowell"):
            raise ValueError(f"unknown truth_mode {self.truth_mode!r}")
        q, p0, frac = self.q_diag, self.p0_diag, self.transient_fraction
        n, gate = self.sample_times().size, self.chi2_gate
        problems = [f"{name} must {what}" for name, ok, what in (
            ("q_diag", len(q) == 6 and all(v >= 0.0 for v in q),
             "be 6 rates >= 0"),
            ("p0_diag", len(p0) == 6 and all(v > 0.0 for v in p0),
             "be 6 variances > 0"),
            ("d", self.d > 0.0, "be positive"),
            ("transient_fraction", 0.0 <= frac < 1.0
             and math.ceil(frac * n) < n,
             f"lie in [0, 1) and leave a post-transient sample of {n}"),
            ("jobs", self.jobs >= 1, "be at least 1"),
            ("rel_tol", self.rel_tol > 0.0, "be positive"),
            ("chi2_gate", gate is None or gate > 0.0, "be positive"),
        ) if not ok]
        if problems:
            raise ValueError("; ".join(problems))

    def paper_scale(self) -> "ScenarioConfig":
        """Paper-sized campaign: 5 s cadence, 200 Monte Carlo runs."""
        return replace(self, sample_dt=5.0, mc_runs=200)

    def sample_times(self) -> np.ndarray:
        n = int(math.floor((self.t_end - self.t_start) / self.sample_dt)) + 1
        return self.t_start + self.sample_dt * np.arange(n)


_ANGLE = (lambda rad: rad / DEG, lambda deg: deg * DEG)
_SEQUENCE = (list, tuple)

#: The JSON schema of each config dataclass: JSON key -> (field,
#: conversion), where a conversion is a (to JSON, from JSON) pair and None
#: keeps the value as it is.  The noise fields sit at the top level.
_ELEMENT_KEYS = {"a_km": ("a", None), "e": ("e", None),
                 "i_deg": ("i", _ANGLE), "raan_deg": ("raan", _ANGLE),
                 "argp_deg": ("argp", _ANGLE), "nu_deg": ("nu", _ANGLE)}
_ENCOUNTER_KEYS = {"relative_speed_km_s": ("relative_speed", None),
                   "gamma_deg": ("gamma", _ANGLE),
                   "impact_nu_deg": ("impact_nu", _ANGLE),
                   "transverse_speed_km_s": ("transverse_speed", None),
                   "radial_sign": ("radial_sign", None)}
_NOISE_KEYS = {"sigma_az_deg": ("sigma_az", _ANGLE),
               "sigma_el_deg": ("sigma_el", _ANGLE),
               "sigma_beta_deg": ("sigma_beta", _ANGLE)}
_SCENARIO_KEYS = {
    "mu": ("mu", None), "d_km": ("d", None),
    "sample_dt": ("sample_dt", None), "t_start": ("t_start", None),
    "t_end": ("t_end", None),
    "init_perturb_sigma": ("init_perturb_sigma", None),
    "q_diag": ("q_diag", _SEQUENCE), "p0_diag": ("p0_diag", _SEQUENCE),
    "seed": ("seed", None), "mc_runs": ("mc_runs", None),
    "miss_tol_km": ("miss_tol", None), "rel_tol": ("rel_tol", None),
    "transient_fraction": ("transient_fraction", None),
    "truth_mode": ("truth_mode", None), "chi2_gate": ("chi2_gate", None),
    "jobs": ("jobs", None)}


def _to_json(obj, keys: dict) -> dict:
    return {key: getattr(obj, name) if conv is None
            else conv[0](getattr(obj, name))
            for key, (name, conv) in keys.items()}


def _from_json(d: dict, keys: dict) -> dict:
    """Keyword arguments for the keys of d that are present."""
    return {name: d[key] if conv is None else conv[1](d[key])
            for key, (name, conv) in keys.items() if key in d}


def _check_keys(d: dict, known, where: str, required=()) -> None:
    """Raise ValueError naming every key of d not in known and every
    key of required missing from d."""
    problems = [f"{what} key(s) in {where}: " + ", ".join(map(repr, bad))
                for what, bad in (("unknown", sorted(set(d) - set(known))),
                                  ("missing", [k for k in required
                                               if k not in d]))
                if bad]
    if problems:
        raise ValueError("; ".join(problems))


def _elements_from_json(d: dict, where: str) -> ClassicalElements:
    _check_keys(d, _ELEMENT_KEYS, where, required=_ELEMENT_KEYS)
    return ClassicalElements(**_from_json(d, _ELEMENT_KEYS))


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """JSON-ready dict with angles in degrees."""
    return {
        **_to_json(cfg, _SCENARIO_KEYS),
        **_to_json(cfg.noise, _NOISE_KEYS),
        "target": _to_json(cfg.target, _ELEMENT_KEYS),
        "reference": (None if cfg.reference is None
                      else _to_json(cfg.reference, _ELEMENT_KEYS)),
        "encounter": (None if cfg.encounter is None
                      else _to_json(cfg.encounter, _ENCOUNTER_KEYS)),
    }


def config_from_dict(d: dict) -> ScenarioConfig:
    """Inverse of :func:`config_to_dict`; keys left out take the defaults
    of :class:`ScenarioConfig` and :class:`EncounterSpec`.

    Raises
    ------
    ValueError
        If the config, its encounter or an element dict holds a key that
        is not one of its keys, or an element dict lacks one of its keys.
    """
    _check_keys(d, (*_SCENARIO_KEYS, *_NOISE_KEYS, "target", "reference",
                    "encounter"), "config")
    kwargs = _from_json(d, _SCENARIO_KEYS)
    kwargs["noise"] = replace(ScenarioConfig().noise,
                              **_from_json(d, _NOISE_KEYS))
    if "target" in d:
        kwargs["target"] = _elements_from_json(d["target"], "target")
    if d.get("reference"):
        kwargs["reference"] = _elements_from_json(d["reference"],
                                                  "reference")
    if "encounter" in d:
        e = d["encounter"]
        if e is not None:
            _check_keys(e, _ENCOUNTER_KEYS, "encounter")
            e = EncounterSpec(**_from_json(e, _ENCOUNTER_KEYS))
        kwargs["encounter"] = e
    return ScenarioConfig(**kwargs)


def load_config(path: str) -> ScenarioConfig:
    with open(path) as f:
        return config_from_dict(json.load(f))


# --- Scenario construction ---

def build_collision_scenario(spec: EncounterSpec, target: ClassicalElements,
                             mu: float) -> tuple[ClassicalElements,
                                                 ClassicalElements]:
    """Construct an orbit pair that collides at t = 0.

    Satellite 2 follows ``target`` with its true anomaly moved to the
    impact point; satellite 1's orbit is solved so that both pass through
    that point with the requested relative speed, the point is the
    ascending relative node (theta1 = theta2 = 0 at impact), and the
    ascending-branch intersection margin is zero by construction.

    Returns
    -------
    (el1, el2)
        Elements of both satellites at the impact epoch.

    Raises
    ------
    InfeasibleEncounter
        If the requested speed cannot be met, or satellite 1's orbit would
        not be elliptic.
    """
    el2 = replace(target, nu=wrap_angle(spec.impact_nu))
    s2 = elements_to_cartesian(el2, mu)
    r = s2.r
    r_mag = float(np.linalg.norm(r))
    r_hat, t2_hat, h2_hat = rtn_basis(r, s2.v)
    vr2 = float(s2.v @ r_hat)
    vt2 = float(s2.v @ t2_hat)

    # Chaser plane normal tilted by gamma about the impact direction; the
    # sign makes r_hat . (h1 x h2) = sin(gamma) > 0, i.e. the impact point
    # is the ascending crossing of satellite 2 through plane 1.
    h1_hat = math.cos(spec.gamma) * h2_hat + math.sin(spec.gamma) * t2_hat
    t1_hat = np.cross(h1_hat, r_hat)

    w = spec.transverse_speed
    if not w > 0.0:
        raise InfeasibleEncounter("transverse speed must be positive")
    disc = (spec.relative_speed ** 2
            - (w * w + vt2 * vt2 - 2.0 * w * vt2 * math.cos(spec.gamma)))
    if disc < 0.0:
        raise InfeasibleEncounter(
            "relative speed too small for the requested in-plane geometry")
    vr1 = vr2 + spec.radial_sign * math.sqrt(disc)
    v1 = vr1 * r_hat + w * t1_hat

    if 0.5 * float(v1 @ v1) - mu / r_mag >= 0.0:
        raise InfeasibleEncounter("satellite 1 would not be on a closed orbit")
    try:
        el1 = cartesian_to_elements(CartesianState(r=r, v=v1), mu)
    except GeometryError as exc:
        raise InfeasibleEncounter(str(exc)) from exc
    return el1, el2


def scenario_orbits(cfg: ScenarioConfig) -> tuple[ClassicalElements,
                                                  ClassicalElements]:
    """Orbit pair at the impact epoch implied by the configuration."""
    if cfg.encounter is not None:
        return build_collision_scenario(cfg.encounter, cfg.target, cfg.mu)
    if cfg.reference is None:
        raise ValueError("config needs either an encounter or explicit "
                         "reference elements")
    return cfg.reference, cfg.target


# --- Truth ---

@dataclass(frozen=True)
class TruthTrajectory:
    """Sampled truth: times, nodal states, reference params, RTN1 relative
    positions, separations, and the (invariant) safety margin."""

    t: np.ndarray
    oe: np.ndarray
    eta: np.ndarray
    dr: np.ndarray
    range_km: np.ndarray
    zeta: np.ndarray
    el1_impact: ClassicalElements
    el2_impact: ClassicalElements


def build_truth(cfg: ScenarioConfig) -> TruthTrajectory:
    """Propagate the truth over the observation window.

    ``truth_mode = 'kepler'`` uses the exact unperturbed flow of the nodal
    state; ``'cowell'`` integrates both satellites inertially at rel_tol
    and converts, providing an independent route.
    """
    el1_imp, el2_imp = scenario_orbits(cfg)
    t = cfg.sample_times()
    el1_0 = kepler_advance(el1_imp, cfg.t_start, cfg.mu)
    el2_0 = kepler_advance(el2_imp, cfg.t_start, cfg.mu)
    oe0, eta0 = oe_from_classical(el1_0, el2_0)

    if cfg.truth_mode == "kepler":
        oe_arr, eta_arr = unperturbed_flow(oe0, eta0, cfg.mu, t - cfg.t_start)
    else:
        s1 = elements_to_cartesian(el1_0, cfg.mu)
        s2 = elements_to_cartesian(el2_0, cfg.mu)
        cw = cowell_propagate(s1, s2, cfg.t_start, float(t[-1]), cfg.mu,
                              rtol=cfg.rel_tol, t_eval=t)
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

    dr = relative_position_batch(oe_arr, eta_arr)
    rng_km = np.linalg.norm(dr, axis=1)
    if not np.all(rng_km > cfg.d):
        raise ValueError(f"t_end = {cfg.t_end} s reaches the encounter: the "
                         f"truth range falls to {rng_km.min()} km, not above "
                         f"d = {cfg.d} km (angular size d/range >= 1 rad)")
    return TruthTrajectory(t=t, oe=oe_arr, eta=eta_arr, dr=dr,
                           range_km=rng_km,
                           zeta=_node_margin_arrays(oe_arr, eta_arr)[0],
                           el1_impact=el1_imp, el2_impact=el2_imp)


# --- Single flyby run ---

@dataclass(frozen=True)
class FlybyRun:
    """Per-run filter history at each sample time.  The diagnostics (err,
    sigma, nees, range and zeta with their sigmas) come from the posterior
    at each sample, evaluated in blocks after the filter pass."""

    t: np.ndarray
    oe_hat: np.ndarray
    err: np.ndarray
    sigma: np.ndarray
    range_err: np.ndarray
    range_sigma: np.ndarray
    zeta_hat: np.ndarray
    zeta_sigma: np.ndarray
    innovations: np.ndarray
    nees: np.ndarray
    outliers: np.ndarray
    detected: bool
    post_transient_index: int


#: Posteriors held for one batched diagnostics pass: a fixed length, so a
#: run keeps no O(n) covariance history.
_DIAGNOSTIC_BLOCK = 256


def _posterior_diagnostics(x, P, eta, oe_true, range_true) -> tuple:
    """(err, sigma, nees, range_err, range_sigma, zeta_hat, zeta_sigma) of
    posteriors x (B, 6), P (B, 6, 6) at references eta (B, 3), against the
    truth.  Raises GeometryError or ZetaUndefined as the per-state kernels
    do on a non-elliptic or coplanar posterior."""
    err = x - oe_true
    err[:, 0] = wrap_angle(err[:, 0])
    nees = np.einsum("bi,bi->b", err,
                     np.linalg.solve(P, err[..., None])[..., 0])
    *_, dr, j_oe, _ = _position_arrays(x, eta, jacobians=True)
    rho = np.sqrt(dr[0] * dr[0] + dr[1] * dr[1] + dr[2] * dr[2])
    if not np.all(np.isfinite(rho)):
        raise GeometryError("radius denominator <= 0 at a posterior state")
    zeta_hat, _, d_oe, _ = _node_margin_arrays(x, eta, gradient=True)
    grads = np.array([np.einsum("ib,ijb->jb", np.array(dr) / rho,
                                np.array(j_oe)), np.broadcast_arrays(*d_oe)])
    range_sigma, zeta_sigma = np.sqrt(np.maximum(
        np.einsum("kib,bij,kjb->kb", grads, P, grads), 0.0))
    return (err, np.sqrt(np.maximum(np.diagonal(P, axis1=1, axis2=2), 0.0)),
            nees, rho - range_true, range_sigma, zeta_hat, zeta_sigma)


def _run_filter(cfg: ScenarioConfig, truth: TruthTrajectory,
                run_index: int) -> FlybyRun:
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(cfg.seed, spawn_key=(run_index,))))
    n = truth.t.size
    q_rate = np.diag(cfg.q_diag)

    x0 = truth.oe[0] + cfg.init_perturb_sigma * rng.standard_normal(6)
    fs = FilterState(oe_hat=NodalRelativeState.from_array(x0),
                     P=np.diag(cfg.p0_diag))
    eta_k = ReferenceParams.from_array(truth.eta[0])

    oe_hat = np.empty((n, 6))
    innovations = np.empty((n, 3))
    outliers = np.zeros(n, dtype=bool)
    diagnostics = [np.empty((n, 6)), np.empty((n, 6))] + [
        np.empty(n) for _ in range(5)]
    p_block = np.empty((_DIAGNOSTIC_BLOCK, 6, 6))
    eta_block = np.empty((_DIAGNOSTIC_BLOCK, 3))
    start = 0

    for k in range(n):
        z = measure(truth.dr[k], cfg.d, cfg.noise, rng)
        upd: EkfUpdate = ekf_update(fs, eta_k, z, cfg.noise, cfg.d,
                                    chi2_gate=cfg.chi2_gate)
        fs = upd.state
        innovations[k] = upd.innovation
        outliers[k] = upd.outlier
        oe_hat[k] = fs.oe_hat.as_array()
        j = k - start
        p_block[j] = fs.P
        eta_block[j] = (eta_k.p1, eta_k.ec, eta_k.es)
        if j == len(p_block) - 1 or k == n - 1:
            rows = slice(start, k + 1)
            for out, block in zip(diagnostics, _posterior_diagnostics(
                    oe_hat[rows], p_block[:j + 1], eta_block[:j + 1],
                    truth.oe[rows], truth.range_km[rows])):
                out[rows] = block
            start = k + 1
        if k < n - 1:
            fs, eta_k = ekf_propagate(fs, eta_k, cfg.sample_dt, q_rate, cfg.mu)

    (err, sigma, nees, range_err, range_sigma, zeta_hat,
     zeta_sigma) = diagnostics
    k0 = int(math.ceil(cfg.transient_fraction * n))
    detected = bool(np.all(np.abs(zeta_hat[k0:]) <= 3.0 * zeta_sigma[k0:]))
    return FlybyRun(t=truth.t, oe_hat=oe_hat, err=err, sigma=sigma,
                    range_err=range_err, range_sigma=range_sigma,
                    zeta_hat=zeta_hat, zeta_sigma=zeta_sigma,
                    innovations=innovations, nees=nees, outliers=outliers,
                    detected=detected, post_transient_index=k0)


@dataclass(frozen=True)
class FlybyArtifacts:
    truth: TruthTrajectory
    run: FlybyRun
    paths: dict


def run_flyby(cfg: ScenarioConfig, run_index: int = 0,
              out_dir: Optional[str] = None,
              truth: Optional[TruthTrajectory] = None) -> FlybyArtifacts:
    """Single flyby experiment: truth, synthetic measurements, EKF, and the
    screening report.  Writes truth/filter/screening CSVs when out_dir is
    given."""
    if truth is None:
        truth = build_truth(cfg)
    run = _run_filter(cfg, truth, run_index)

    paths: dict = {}
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        paths["truth"] = os.path.join(out_dir, "truth.csv")
        write_trajectory_csv(paths["truth"], truth.t, truth.oe, truth.eta,
                             truth.dr)
        paths["filter"] = os.path.join(out_dir, f"filter_run{run_index}.csv")
        write_filter_csv(paths["filter"], run)
        paths["screening"] = os.path.join(out_dir,
                                          f"screening_run{run_index}.csv")
        write_screening_csv(paths["screening"], cfg, truth, run)
    return FlybyArtifacts(truth=truth, run=run, paths=paths)


# --- Monte Carlo ---

@dataclass(frozen=True)
class MonteCarloSummary:
    runs: int
    detection_rate: float
    coverage_aggregate: float
    coverage_by_component: tuple
    final_range_error_sigma: float
    initial_range_error_sigma: float
    initial_range_sigma_analytic: float
    mean_final_abs_range_err: float
    mean_nees: float
    nees_dim: int


def _mc_worker(args):
    cfg, truth, idx = args
    return idx, _run_filter(cfg, truth, idx)


def run_montecarlo(cfg: ScenarioConfig, out_dir: Optional[str] = None,
                   ) -> tuple[MonteCarloSummary, list[FlybyRun]]:
    """Monte Carlo campaign over cfg.mc_runs independent filter runs.

    The truth is deterministic and shared; each run has its own noise
    substream.  Aggregation is performed in run order, so the summary is
    deterministic for a given config and seed.  When out_dir is given,
    writes summary.json and an ensemble-envelope CSV.
    """
    if cfg.mc_runs < 2:
        raise ValueError("mc_runs must be at least 2")
    truth = build_truth(cfg)

    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(
                _mc_worker,
                [(cfg, truth, i) for i in range(cfg.mc_runs)]))
        results.sort(key=lambda pair: pair[0])
        runs = [r for _, r in results]
    else:
        runs = [_run_filter(cfg, truth, i) for i in range(cfg.mc_runs)]

    err_stack = np.stack([r.err for r in runs])          # (m, n, 6)
    sig_stack = np.stack([r.sigma for r in runs])
    range_err_stack = np.stack([r.range_err for r in runs])

    covered = np.abs(err_stack) <= 3.0 * sig_stack
    coverage_by_component = tuple(float(c) for c in
                                  covered.mean(axis=(0, 1)))
    coverage_aggregate = float(covered.mean())
    detection_rate = float(np.mean([r.detected for r in runs]))
    final_sigma = float(np.std(range_err_stack[:, -1], ddof=1))
    initial_sigma = float(np.std(range_err_stack[:, 0], ddof=1))
    mean_final_abs = float(np.mean(np.abs(range_err_stack[:, -1])))
    mean_nees = float(np.mean(np.stack([r.nees for r in runs])))

    # Analytic initial range uncertainty: the range sigma of P0 at the truth.
    _, _, _, _, init_analytic, _, _ = _posterior_diagnostics(
        truth.oe[:1], np.diag(cfg.p0_diag)[None], truth.eta[:1],
        truth.oe[:1], truth.range_km[:1])

    summary = MonteCarloSummary(
        runs=cfg.mc_runs,
        detection_rate=detection_rate,
        coverage_aggregate=coverage_aggregate,
        coverage_by_component=coverage_by_component,
        final_range_error_sigma=final_sigma,
        initial_range_error_sigma=initial_sigma,
        initial_range_sigma_analytic=float(init_analytic[0]),
        mean_final_abs_range_err=mean_final_abs,
        mean_nees=mean_nees,
        nees_dim=6,
    )

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_summary_json(os.path.join(out_dir, "summary.json"), {
            "seed": cfg.seed,
            "sample_dt": cfg.sample_dt,
            **asdict(summary),
            "coverage_by_component": list(summary.coverage_by_component),
        })
        env_path = os.path.join(out_dir, "ensemble_envelope.csv")
        true_sigma = err_stack.std(axis=0, ddof=1)       # (n, 6)
        range_true_sigma = range_err_stack.std(axis=0, ddof=1)
        cols = [truth.t] + [3.0 * true_sigma[:, j] for j in range(6)] \
            + [3.0 * range_true_sigma]
        header = (["t"] + [f"true_3sigma_{name}" for name in _STATE_NAMES]
                  + ["true_3sigma_range"])
        _write_csv(env_path, header, cols)
    return summary, runs


# --- Maneuver sweep ---

@dataclass(frozen=True)
class ManeuverSweepResult:
    """Delta-v magnitude profiles per offset, plus the applied maneuver."""

    t_candidates: np.ndarray
    dv_profiles: dict
    offsets: tuple
    applied_t_m: float
    applied_dv: np.ndarray
    applied_delta_zeta: float
    achieved_miss_km: float
    unmaneuvered_miss_km: float


def run_maneuver_sweep(cfg: ScenarioConfig,
                       offsets: Sequence[float] = (1e-4,),
                       apply_at: Optional[float] = None,
                       out_dir: Optional[str] = None) -> ManeuverSweepResult:
    """Evaluate the minimum-norm avoidance impulse along an estimated
    trajectory and apply one maneuver in the truth.

    For each candidate epoch the correction is delta_zeta = 3 sigma(zeta)
    plus the offset.  The impulse for the first offset is applied to
    satellite 1 at ``apply_at`` (default: two days after the window opens)
    and the achieved closest approach is measured by a Cowell replay of
    both satellites through the nominal impact epoch.
    """
    art = run_flyby(cfg, run_index=0, out_dir=None)
    truth, run = art.truth, art.run
    n = truth.t.size
    idx = np.arange(run.post_transient_index, n,
                    max(1, n // SWEEP_CANDIDATES))

    offsets = tuple(float(o) for o in offsets)

    def plan_at(k: int, offset: float):
        return plan_avoidance(NodalRelativeState.from_array(run.oe_hat[k]),
                              ReferenceParams.from_array(truth.eta[k]),
                              3.0 * run.zeta_sigma[k] + offset, cfg.mu,
                              t_m=float(truth.t[k]))

    dv_profiles = {off: np.array([np.linalg.norm(plan_at(k, off).delta_v)
                                  for k in idx], dtype=float)
                   for off in offsets}
    if apply_at is None:
        apply_at = cfg.t_start + 2.0 * 86400.0
    plan = plan_at(int(np.argmin(np.abs(truth.t - apply_at))), offsets[0])
    t_m = plan.t_m

    s1 = elements_to_cartesian(kepler_advance(truth.el1_impact, t_m, cfg.mu),
                               cfg.mu)
    s2 = elements_to_cartesian(kepler_advance(truth.el2_impact, t_m, cfg.mu),
                               cfg.mu)
    s1_burn = apply_impulse(s1, plan.delta_v)
    t_hi = -cfg.t_end  # symmetric margin past the nominal impact
    achieved = _cowell_closest_approach(s1_burn, s2, t_m, t_hi, cfg)
    baseline = _cowell_closest_approach(s1, s2, t_m, t_hi, cfg)

    result = ManeuverSweepResult(
        t_candidates=truth.t[idx], dv_profiles=dv_profiles, offsets=offsets,
        applied_t_m=t_m, applied_dv=plan.delta_v,
        applied_delta_zeta=plan.delta_zeta,
        achieved_miss_km=achieved, unmaneuvered_miss_km=baseline)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        header = ["t"] + [f"dv_offset_{off:g}" for off in offsets]
        cols = [truth.t[idx]] + [dv_profiles[off] for off in offsets]
        _write_csv(os.path.join(out_dir, "maneuver_sweep.csv"), header, cols)
        write_summary_json(os.path.join(out_dir, "summary.json"), {
            "applied_t_m": result.applied_t_m,
            "applied_dv_km_s": [float(v) for v in result.applied_dv],
            "applied_dv_norm_km_s": float(np.linalg.norm(result.applied_dv)),
            "applied_delta_zeta": result.applied_delta_zeta,
            "achieved_miss_km": result.achieved_miss_km,
            "unmaneuvered_miss_km": result.unmaneuvered_miss_km,
        })
    return result


def _cowell_closest_approach(s1: CartesianState, s2: CartesianState,
                             t0: float, tf: float, cfg: ScenarioConfig,
                             ) -> float:
    """Closest approach (km) from a Cowell replay, with local refinement."""
    coarse = max(2000, int((tf - t0) / cfg.sample_dt / 4))
    cw = cowell_propagate(s1, s2, t0, tf, cfg.mu, rtol=cfg.rel_tol,
                          n_samples=coarse)
    d = np.linalg.norm(cw.r2 - cw.r1, axis=1)
    k = int(np.argmin(d))
    lo = cw.t[max(k - 1, 0)]
    hi = cw.t[min(k + 1, coarse - 1)]
    fine = cowell_propagate(s1, s2, t0, tf, cfg.mu, rtol=cfg.rel_tol,
                            t_eval=np.linspace(lo, hi, 400))
    d_fine = np.linalg.norm(fine.r2 - fine.r1, axis=1)
    return float(min(d.min(), d_fine.min()))


# --- Validation experiment ---

@dataclass(frozen=True)
class ValidationResult:
    max_discrepancy_km: float
    zero_input_discrepancy_km: float
    n_samples: int


def run_validation(rtol: float = 1e-12, n_samples: int = 501,
                   include_zero_input: bool = True,
                   out_dir: Optional[str] = None) -> ValidationResult:
    """Model-vs-Cowell equivalence on the fixed validation orbit pair with
    sinusoidal accelerations over 10^4 s.

    Returns the maximum RTN1 position discrepancy between the nodal-model
    route and direct Cowell differencing, plus the unforced variant.
    """
    mu = VALIDATION_MU
    el1, el2 = VALIDATION_EL1, VALIDATION_EL2
    t_eval = np.linspace(0.0, VALIDATION_SPAN, n_samples)

    def discrepancy(u_nodal, u1_rtn, u2_rtn) -> float:
        oe0, eta0 = oe_from_classical(el1, el2)
        traj = propagate(oe0, eta0, 0.0, VALIDATION_SPAN, mu, u=u_nodal,
                         rtol=rtol, t_eval=t_eval)
        dr_model = relative_position_batch(traj.oe, traj.eta)

        s1 = elements_to_cartesian(el1, mu)
        s2 = elements_to_cartesian(el2, mu)
        cw = cowell_propagate(s1, s2, 0.0, VALIDATION_SPAN, mu,
                              u1=u1_rtn, u2=u2_rtn, rtol=rtol, t_eval=t_eval)
        worst = 0.0
        for k in range(t_eval.size):
            basis = rtn_basis(cw.r1[k], cw.v1[k])
            dr_cowell = basis @ (cw.r2[k] - cw.r1[k])
            worst = max(worst, float(np.linalg.norm(dr_model[k] - dr_cowell)))
        return worst

    forced = discrepancy(_validation_input,
                         validation_accel_1, validation_accel_2)
    unforced = (discrepancy(None, None, None)
                if include_zero_input else math.nan)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_summary_json(os.path.join(out_dir, "summary.json"), {
            "max_validation_discrepancy_km": forced,
            "zero_input_discrepancy_km": unforced,
            "rel_tol": rtol,
            "span_s": VALIDATION_SPAN,
        })
    return ValidationResult(max_discrepancy_km=forced,
                            zero_input_discrepancy_km=unforced,
                            n_samples=n_samples)


# --- File outputs ---

def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: str, header: list, columns: list) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in zip(*columns):
            w.writerow([_fmt(v) for v in row])


def write_summary_json(path: str, payload: dict) -> None:
    """Deterministic scalar-metric dump (sorted keys, repr floats)."""
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def write_trajectory_csv(path: str, t: np.ndarray, oe_arr: np.ndarray,
                         eta_arr: np.ndarray,
                         dr: Optional[np.ndarray] = None) -> None:
    """Trajectory export: t, the six relative states, the reference
    parameters, and the RTN1 relative position components."""
    if dr is None:
        dr = relative_position_batch(oe_arr, eta_arr)
    header = ["t", *_STATE_NAMES, "p1", "e1_cos_nu1", "e1_sin_nu1",
              "dr_R", "dr_T", "dr_N"]
    cols = [t] + [oe_arr[:, j] for j in range(6)] \
        + [eta_arr[:, j] for j in range(3)] + [dr[:, j] for j in range(3)]
    _write_csv(path, header, cols)


def write_filter_csv(path: str, run: FlybyRun) -> None:
    header = (["t"] + [f"{n}_hat" for n in _STATE_NAMES]
              + [f"{n}_err" for n in _STATE_NAMES]
              + [f"{n}_3sigma" for n in _STATE_NAMES]
              + ["range_err", "range_3sigma", "zeta_hat", "zeta_3sigma",
                 "innov_az", "innov_el", "innov_beta"])
    cols = ([run.t] + [run.oe_hat[:, j] for j in range(6)]
            + [run.err[:, j] for j in range(6)]
            + [3.0 * run.sigma[:, j] for j in range(6)]
            + [run.range_err, 3.0 * run.range_sigma,
               run.zeta_hat, 3.0 * run.zeta_sigma]
            + [run.innovations[:, j] for j in range(3)])
    _write_csv(path, header, cols)


def write_screening_csv(path: str, cfg: ScenarioConfig,
                        truth: TruthTrajectory, run: FlybyRun) -> None:
    """Screening report along the estimate: safety margin with its band,
    branch margins, and a minimum-distance estimate over the remaining
    window."""
    n = truth.t.size
    idx = np.arange(0, n, max(1, n // SCREENING_ROWS))
    t_hi = -cfg.t_end

    rows = {"t": [], "zeta": [], "zeta_3sigma": [], "margin_coplanar": [],
            "margin_ascending": [], "margin_descending": [], "d_min_est": []}
    for k in idx:
        oe_k = NodalRelativeState.from_array(run.oe_hat[k])
        eta_k = ReferenceParams.from_array(truth.eta[k])
        verdict = c1_test(oe_k, eta_k)
        c2 = c2_check(oe_k, eta_k, float(truth.t[k]), t_hi, cfg.mu,
                      miss_tol=cfg.miss_tol, n_samples=2000)
        rows["t"].append(truth.t[k])
        rows["zeta"].append(run.zeta_hat[k])
        rows["zeta_3sigma"].append(3.0 * run.zeta_sigma[k])
        rows["margin_coplanar"].append(verdict.margin_coplanar)
        rows["margin_ascending"].append(verdict.margin_ascending)
        rows["margin_descending"].append(verdict.margin_descending)
        rows["d_min_est"].append(c2.d_min)
    header = list(rows.keys())
    _write_csv(path, header, [np.asarray(rows[h]) for h in header])
