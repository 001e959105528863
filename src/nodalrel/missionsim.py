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
import numbers
import os
from dataclasses import asdict, dataclass, field, replace
from itertools import repeat
from typing import Callable, Optional, Sequence

import numpy as np

from .constants import AU_KM, MU_EARTH, MU_SUN
from .errors import GeometryError, InfeasibleEncounter, RetrogradeSingularity
from .frames import (RETROGRADE_GAMMA_TOL, ClassicalElements,
                     relative_orientation, wrap_angle)
from .relstate import (
    NodalRelativeState,
    ReferenceParams,
    _position_arrays,
    oe_from_classical,
    relative_position_batch,
)
from .dynamics import (
    RTOL,
    CartesianState,
    PerturbationInput,
    _solve_cowell,
    apply_impulse,
    cartesian_to_elements,
    cowell_propagate,
    elements_to_cartesian,
    kepler_advance,
    propagate,
    rtn_basis,
    unperturbed_flow,
)
from .conjunction import (DEFAULT_COPLANAR_TOL, _node_margin_arrays, c1_test,
                          c2_check, plan_avoidance)
from .navigation import NoiseSpec, ekf_propagate, ekf_update, measure

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
VALIDATION_SAMPLES = 501


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
        gamma = self.gamma
        _check_fields((
            ("relative_speed", 0.0 < self.relative_speed < math.inf,
             "be finite and > 0"),
            # Nearer coplanar the node convention degenerates while dh > 0.
            ("gamma", 0.0 < gamma <= math.pi - RETROGRADE_GAMMA_TOL
             and math.tan(0.5 * gamma) > DEFAULT_COPLANAR_TOL,
             "lie within the coplanar and retrograde bounds"),
            ("impact_nu", math.isfinite(self.impact_nu), "be finite"),
            ("transverse_speed", 0.0 < self.transverse_speed < math.inf,
             "be finite and > 0"),
            # Any other sign scales the radial split: another speed.
            ("radial_sign", self.radial_sign in (-1.0, 1.0), "be -1 or +1"),
        ))


def _check_fields(checks) -> None:
    """Raise ValueError with "name must what" for each failed check."""
    problems = [f"{name} must {what}" for name, ok, what in checks if not ok]
    if problems:
        raise ValueError("; ".join(problems))


def _is_count(value, least: int) -> bool:
    """An integer (not a bool) of at least ``least``."""
    return (isinstance(value, numbers.Integral)
            and not isinstance(value, bool) and value >= least)


def _default_target() -> ClassicalElements:
    # Lutetia-like heliocentric orbit (scenario default, not mission data).
    return ClassicalElements(a=2.435 * AU_KM, e=0.164, i=3.06 * DEG,
                             raan=80.9 * DEG, argp=250.0 * DEG, nu=0.0)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of a flyby experiment.

    ``target`` fixes satellite 2 (its nu is overridden by the encounter's
    impact anomaly when ``encounter`` is given); satellite 1 comes from
    exactly one of ``reference`` and ``encounter``, the latter solved by
    :func:`build_collision_scenario`.
    ``d`` is the target's diameter (km): it sets the angular size β = d/ρ
    of the measurements, and the screening report's ``collides`` column
    flags a centre distance of at most d/2.  ``q_diag`` is a per-second
    process-noise rate; ``p0_diag`` the initial covariance diagonal.
    ``mc_runs`` is the number of Monte Carlo runs and ``jobs`` the number
    of their worker processes.
    Times are seconds relative to impact.  A config that cannot run raises
    ValueError at construction, naming each bad field.
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
    transient_fraction: float = 0.05
    jobs: int = 1

    def __post_init__(self):
        if not -math.inf < self.t_start < self.t_end <= 0.0:
            raise ValueError("require finite t_start < t_end <= 0")
        if not 0.0 < self.sample_dt < math.inf:
            raise ValueError("sample_dt must be finite and > 0")
        q, p0, frac = self.q_diag, self.p0_diag, self.transient_fraction
        n = self.sample_times().size
        _check_fields((
            ("encounter or reference",
             (self.encounter is None) != (self.reference is None),
             "be given, but not both"),
            ("mu", 0.0 < self.mu < math.inf, "be finite and > 0"),
            ("q_diag", len(q) == 6 and all(0.0 <= v < math.inf for v in q),
             "be 6 finite rates >= 0"),
            ("p0_diag", len(p0) == 6 and all(0.0 < v < math.inf for v in p0),
             "be 6 finite variances > 0"),
            ("d", 0.0 < self.d < math.inf, "be finite and > 0"),
            ("init_perturb_sigma", 0.0 <= self.init_perturb_sigma < math.inf,
             "be finite and >= 0"),
            ("seed", _is_count(self.seed, 0), "be an integer >= 0"),
            ("mc_runs", _is_count(self.mc_runs, 2), "be an integer >= 2"),
            ("transient_fraction", 0.0 <= frac < 1.0
             and math.ceil(frac * n) < n,
             f"lie in [0, 1) and leave a post-transient sample of {n}"),
            ("jobs", _is_count(self.jobs, 1), "be an integer >= 1"),
        ))

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
    "transient_fraction": ("transient_fraction", None),
    "jobs": ("jobs", None)}


def _to_json(obj, keys: dict) -> dict:
    return {key: getattr(obj, name) if conv is None
            else conv[0](getattr(obj, name))
            for key, (name, conv) in keys.items()}


def _is_number(value) -> bool:
    """A real number (not a bool), as a JSON number loads."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _from_json(d: dict, keys: dict, where: str) -> dict:
    """Keyword arguments for the keys of d that are present.  Raises
    ValueError naming each whose value is not a number (for a sequence
    key, not a list of numbers)."""
    wrong = []
    for key, (_, conv) in keys.items():
        if key not in d:
            continue
        value, listed = d[key], conv is _SEQUENCE
        if not (isinstance(value, _SEQUENCE) and all(map(_is_number, value))
                if listed else _is_number(value)):
            what = "a list of numbers" if listed else "a number"
            wrong.append(f"key {key!r} in {where} must be {what}, "
                         f"got {value!r}")
    if wrong:
        raise ValueError("; ".join(wrong))
    return {name: d[key] if conv is None else conv[1](d[key])
            for key, (name, conv) in keys.items() if key in d}


def _check_keys(d: dict, known, where: str, required=()) -> None:
    """Raise ValueError if d is not a dict (a JSON object), naming every
    key of d not in known and every key of required missing from d."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a JSON object, got {d!r}")
    problems = [f"{what} key(s) in {where}: " + ", ".join(map(repr, bad))
                for what, bad in (("unknown", sorted(set(d) - set(known))),
                                  ("missing", [k for k in required
                                               if k not in d]))
                if bad]
    if problems:
        raise ValueError("; ".join(problems))


def _elements_from_json(d: dict, where: str) -> ClassicalElements:
    _check_keys(d, _ELEMENT_KEYS, where, required=_ELEMENT_KEYS)
    return ClassicalElements(**_from_json(d, _ELEMENT_KEYS, where))


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
        If the config, its encounter or an element dict is not a dict,
        holds a key that is not one of its keys or a value of the wrong
        JSON type, or an element dict lacks one of its keys.
    """
    _check_keys(d, (*_SCENARIO_KEYS, *_NOISE_KEYS, "target", "reference",
                    "encounter"), "config")
    kwargs = _from_json(d, _SCENARIO_KEYS, "config")
    kwargs["noise"] = replace(ScenarioConfig().noise,
                              **_from_json(d, _NOISE_KEYS, "config"))
    if "target" in d:
        kwargs["target"] = _elements_from_json(d["target"], "target")
    if d.get("reference") is not None:
        kwargs["reference"] = _elements_from_json(d["reference"],
                                                  "reference")
    if "encounter" in d:
        e = d["encounter"]
        if e is not None:
            _check_keys(e, _ENCOUNTER_KEYS, "encounter")
            e = EncounterSpec(**_from_json(e, _ENCOUNTER_KEYS, "encounter"))
        kwargs["encounter"] = e
    return ScenarioConfig(**kwargs)


def load_config(path: str) -> ScenarioConfig:
    """The config of the JSON file at path (see :func:`config_from_dict`).
    Raises ValueError naming path if the file cannot be read or does not
    hold JSON."""
    try:
        with open(path) as f:
            d = json.load(f)
    except OSError as exc:
        raise ValueError(f"cannot read config file {path!r}: "
                         f"{exc.strerror}") from exc
    except ValueError as exc:
        raise ValueError(f"config file {path!r} is not JSON: {exc}") from exc
    return config_from_dict(d)


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
        If the requested speed cannot be met, satellite 1's orbit would
        not be elliptic, or the built pair's relative inclination rounds
        past pi - RETROGRADE_GAMMA_TOL (chained from the
        RetrogradeSingularity).
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
    try:
        relative_orientation(el1, el2)
    except RetrogradeSingularity as exc:
        raise InfeasibleEncounter(str(exc)) from exc
    return el1, el2


def scenario_orbits(cfg: ScenarioConfig) -> tuple[ClassicalElements,
                                                  ClassicalElements]:
    """Orbit pair at the impact epoch implied by the configuration."""
    if cfg.encounter is None:
        return cfg.reference, cfg.target
    return build_collision_scenario(cfg.encounter, cfg.target, cfg.mu)


# --- Truth ---

@dataclass(frozen=True)
class TruthTrajectory:
    """Sampled truth: times, nodal states, reference params, RTN1 relative
    positions and separations."""

    t: np.ndarray
    oe: np.ndarray
    eta: np.ndarray
    dr: np.ndarray
    range_km: np.ndarray
    el1_impact: ClassicalElements
    el2_impact: ClassicalElements


def build_truth(cfg: ScenarioConfig) -> TruthTrajectory:
    """Propagate the truth over the observation window by the exact
    unperturbed flow of the nodal state."""
    el1_imp, el2_imp = scenario_orbits(cfg)
    t = cfg.sample_times()
    el1_0 = kepler_advance(el1_imp, cfg.t_start, cfg.mu)
    el2_0 = kepler_advance(el2_imp, cfg.t_start, cfg.mu)
    oe0, eta0 = oe_from_classical(el1_0, el2_0)
    oe_arr, eta_arr = unperturbed_flow(oe0, eta0, cfg.mu, t - cfg.t_start)
    dr = relative_position_batch(oe_arr, eta_arr)
    rng_km = np.linalg.norm(dr, axis=1)
    if not np.all(rng_km > cfg.d):
        raise ValueError(f"t_end = {cfg.t_end} s reaches the encounter: the "
                         f"truth range falls to {rng_km.min()} km, not above "
                         f"d = {cfg.d} km (angular size d/range >= 1 rad)")
    return TruthTrajectory(t=t, oe=oe_arr, eta=eta_arr, dr=dr,
                           range_km=rng_km, el1_impact=el1_imp,
                           el2_impact=el2_imp)


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
    *_, dr, j_oe = _position_arrays(x, eta, jacobians=True)
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
    r_cov = cfg.noise.covariance()

    x = truth.oe[0] + cfg.init_perturb_sigma * rng.standard_normal(6)
    P, eta = np.diag(cfg.p0_diag), truth.eta[0]

    oe_hat = np.empty((n, 6))
    innovations = np.empty((n, 3))
    diagnostics = [np.empty((n, 6)), np.empty((n, 6))] + [
        np.empty(n) for _ in range(5)]
    p_block = np.empty((_DIAGNOSTIC_BLOCK, 6, 6))
    eta_block = np.empty((_DIAGNOSTIC_BLOCK, 3))
    start = 0

    z = measure(truth.dr, cfg.d, cfg.noise, rng)
    for k in range(n):
        x, P, innovations[k] = ekf_update(x, P, eta, z[k], r_cov, cfg.d)
        oe_hat[k] = x
        j = k - start
        p_block[j] = P
        eta_block[j] = eta
        if j == len(p_block) - 1 or k == n - 1:
            rows = slice(start, k + 1)
            for out, block in zip(diagnostics, _posterior_diagnostics(
                    oe_hat[rows], p_block[:j + 1], eta_block[:j + 1],
                    truth.oe[rows], truth.range_km[rows])):
                out[rows] = block
            start = k + 1
        if k < n - 1:
            x, P, eta = ekf_propagate(x, P, eta, cfg.sample_dt, q_rate, cfg.mu)

    (err, sigma, nees, range_err, range_sigma, zeta_hat,
     zeta_sigma) = diagnostics
    k0 = int(math.ceil(cfg.transient_fraction * n))
    detected = bool(np.all(np.abs(zeta_hat[k0:]) <= 3.0 * zeta_sigma[k0:]))
    return FlybyRun(t=truth.t, oe_hat=oe_hat, err=err, sigma=sigma,
                    range_err=range_err, range_sigma=range_sigma,
                    zeta_hat=zeta_hat, zeta_sigma=zeta_sigma,
                    innovations=innovations, nees=nees,
                    detected=detected, post_transient_index=k0)


@dataclass(frozen=True)
class FlybyArtifacts:
    truth: TruthTrajectory
    run: FlybyRun
    paths: dict


def run_flyby(cfg: ScenarioConfig,
              out_dir: Optional[str] = None) -> FlybyArtifacts:
    """Single flyby experiment: truth, synthetic measurements, EKF (Monte
    Carlo run 0's noise substream), and the screening report.  Writes
    truth/filter/screening CSVs when out_dir is given."""
    truth = build_truth(cfg)
    run = _run_filter(cfg, truth, 0)

    paths: dict = {}
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        paths["truth"] = os.path.join(out_dir, "truth.csv")
        write_trajectory_csv(paths["truth"], truth.t, truth.oe, truth.eta,
                             truth.dr)
        paths["filter"] = os.path.join(out_dir, "filter_run0.csv")
        write_filter_csv(paths["filter"], run)
        paths["screening"] = os.path.join(out_dir, "screening_run0.csv")
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


def run_montecarlo(cfg: ScenarioConfig, out_dir: Optional[str] = None,
                   ) -> tuple[MonteCarloSummary, list[FlybyRun]]:
    """Monte Carlo campaign over cfg.mc_runs independent filter runs.

    The truth is deterministic and shared; each run has its own noise
    substream.  Aggregation is performed run by run in run order, with no
    (m, n, 6) stack, so the summary is deterministic for a given config and
    seed.  When out_dir is given, writes summary.json and an
    ensemble-envelope CSV.
    """
    truth = build_truth(cfg)

    if cfg.jobs > 1:
        # multiprocessing loads here, not with the module
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            runs = list(pool.map(_run_filter, repeat(cfg), repeat(truth),
                                 range(cfg.mc_runs)))
    else:
        runs = [_run_filter(cfg, truth, i) for i in range(cfg.mc_runs)]

    # Exact integer counts: each share is one correctly rounded division.
    covered = sum(np.count_nonzero(np.abs(r.err) <= 3.0 * r.sigma, axis=0)
                  for r in runs)
    samples = cfg.mc_runs * truth.t.size
    coverage_by_component = tuple(float(c) for c in covered / samples)
    coverage_aggregate = float(covered.sum() / (6 * samples))
    detection_rate = float(np.mean([r.detected for r in runs]))
    final_err = np.array([r.range_err[-1] for r in runs])
    final_sigma = float(np.std(final_err, ddof=1))
    initial_sigma = float(np.std([r.range_err[0] for r in runs], ddof=1))
    mean_final_abs = float(np.mean(np.abs(final_err)))
    # Stacked (m, n): np.mean sums the flat buffer pairwise, and a per-run
    # sum would round differently.
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
        true_sigma = _ensemble_std([r.err for r in runs])       # (n, 6)
        range_true_sigma = _ensemble_std([r.range_err for r in runs])
        cols = [truth.t] + [3.0 * true_sigma[:, j] for j in range(6)] \
            + [3.0 * range_true_sigma]
        header = (["t"] + [f"true_3sigma_{name}" for name in _STATE_NAMES]
                  + ["true_3sigma_range"])
        _write_csv(env_path, header, cols)
    return summary, runs


def _ensemble_std(rows: list) -> np.ndarray:
    """``np.stack(rows).std(axis=0, ddof=1)`` without the stack: numpy
    reduces axis 0 in row order, so two passes over the rows in that order
    (the sum for the mean, then the sum of squared deviations) give the
    same bits from a few arrays of one row's shape.  Rows of one element
    stack into a single contiguous column, which numpy sums pairwise."""
    if rows[0].size == 1:
        return np.stack(rows).std(axis=0, ddof=1)
    mean = sum(rows[1:], rows[0]) / len(rows)
    return np.sqrt(sum((row - mean) ** 2 for row in rows) / (len(rows) - 1))


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
    satellite 1 at ``apply_at`` (default: two days after the window opens,
    or its end if that comes first).
    The closest approaches with and without it (``achieved_miss_km``,
    ``unmaneuvered_miss_km``) come from a Cowell replay from the burn to as
    long after the nominal impact as t_end is before it, at relative
    tolerance RTOL: one dense solve each of satellite 1 with and without
    the burn and of satellite 2, searched by :func:`_cowell_closest_approach`.
    Raises ValueError unless ``apply_at`` lies in [t_start, t_end] and
    ``offsets`` are finite.
    """
    offsets = tuple(float(o) for o in offsets)
    if apply_at is None:
        apply_at = min(cfg.t_start + 2.0 * 86400.0, cfg.t_end)
    _check_fields((
        ("offsets", len(offsets) > 0 and all(map(math.isfinite, offsets)),
         "be one or more finite values"),
        ("apply_at", cfg.t_start <= apply_at <= cfg.t_end,
         f"lie in [t_start, t_end] = [{cfg.t_start}, {cfg.t_end}] s"),
    ))
    art = run_flyby(cfg)
    truth, run = art.truth, art.run
    n = truth.t.size
    idx = np.arange(run.post_transient_index, n,
                    max(1, n // SWEEP_CANDIDATES))

    def plan_at(k: int, offset: float):
        return plan_avoidance(NodalRelativeState.from_array(run.oe_hat[k]),
                              ReferenceParams.from_array(truth.eta[k]),
                              3.0 * run.zeta_sigma[k] + offset, cfg.mu)

    dv_profiles = {off: np.array([np.linalg.norm(plan_at(k, off).delta_v)
                                  for k in idx], dtype=float)
                   for off in offsets}
    k = int(np.argmin(np.abs(truth.t - apply_at)))
    plan, t_m = plan_at(k, offsets[0]), float(truth.t[k])

    s1, s2 = (elements_to_cartesian(kepler_advance(el, t_m, cfg.mu), cfg.mu)
              for el in (truth.el1_impact, truth.el2_impact))
    t_hi = -cfg.t_end  # symmetric margin past the nominal impact
    t_grid = np.linspace(t_m, t_hi,
                         max(2000, int((t_hi - t_m) / cfg.sample_dt / 4)))
    orbit1, burned, orbit2 = (
        _solve_cowell(s, t_grid, cfg.mu, None, RTOL, True)
        for s in (s1, apply_impulse(s1, plan.delta_v), s2))
    achieved = _cowell_closest_approach(burned, orbit2, t_grid)
    baseline = _cowell_closest_approach(orbit1, orbit2, t_grid)

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


def _cowell_closest_approach(orbit_a, orbit_b, t_grid: np.ndarray) -> float:
    """Closest approach (km) of two dense Cowell solves sampled at t_grid: on
    that grid, then on 400 interpolated points around the best sample."""
    d = np.linalg.norm(orbit_b.y[:3].T - orbit_a.y[:3].T, axis=1)
    k = int(np.argmin(d))
    fine = np.linspace(t_grid[max(k - 1, 0)],
                       t_grid[min(k + 1, t_grid.size - 1)], 400)
    d_fine = np.linalg.norm(orbit_b.sol(fine)[:3].T
                            - orbit_a.sol(fine)[:3].T, axis=1)
    return float(min(d.min(), d_fine.min()))


# --- Validation experiment ---

@dataclass(frozen=True)
class ValidationResult:
    max_discrepancy_km: float
    zero_input_discrepancy_km: float


def run_validation(rtol: float = RTOL,
                   out_dir: Optional[str] = None) -> ValidationResult:
    """Model-vs-Cowell equivalence on the fixed validation orbit pair with
    sinusoidal accelerations over VALIDATION_SPAN s, both routes integrated
    at relative tolerance rtol and compared at VALIDATION_SAMPLES times.

    Returns the maximum RTN1 position discrepancy between the nodal-model
    route and direct Cowell differencing, plus the unforced variant.
    ValueError unless 0 < rtol < 1 (see :func:`dynamics._dop853`).
    """
    mu = VALIDATION_MU
    el1, el2 = VALIDATION_EL1, VALIDATION_EL2
    t = np.linspace(0.0, VALIDATION_SPAN, VALIDATION_SAMPLES)

    def discrepancy(u_nodal, u1_rtn, u2_rtn) -> float:
        oe0, eta0 = oe_from_classical(el1, el2)
        traj = propagate(oe0, eta0, t, mu, u=u_nodal, rtol=rtol)
        dr_model = relative_position_batch(traj.oe, traj.eta)

        s1 = elements_to_cartesian(el1, mu)
        s2 = elements_to_cartesian(el2, mu)
        cw = cowell_propagate(s1, s2, t, mu, u1=u1_rtn, u2=u2_rtn,
                              rtol=rtol)
        worst = 0.0
        for k in range(t.size):
            basis = rtn_basis(cw.r1[k], cw.v1[k])
            dr_cowell = basis @ (cw.r2[k] - cw.r1[k])
            worst = max(worst, float(np.linalg.norm(dr_model[k] - dr_cowell)))
        return worst

    forced = discrepancy(_validation_input,
                         validation_accel_1, validation_accel_2)
    unforced = discrepancy(None, None, None)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_summary_json(os.path.join(out_dir, "summary.json"), {
            "max_validation_discrepancy_km": forced,
            "zero_input_discrepancy_km": unforced,
            "rel_tol": rtol,
            "span_s": VALIDATION_SPAN,
        })
    return ValidationResult(max_discrepancy_km=forced,
                            zero_input_discrepancy_km=unforced)


# --- File outputs ---

def _write_csv(path: str, header: list, columns: list) -> None:
    line = ",".join(["%.17g"] * len(columns)) + "\r\n"
    with open(path, "w", newline="") as f:
        csv.writer(f).writerow(header)
        for row in zip(*(np.asarray(c, dtype=float) for c in columns)):
            f.write(line % row)


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
    branch margins, a minimum-distance estimate over the remaining window,
    and C2's verdict on it (``collides``, 1 when d_min_est <= d/2: the
    observer, a point, then meets the target of diameter d)."""
    n = truth.t.size
    idx = np.arange(0, n, max(1, n // SCREENING_ROWS))
    t_hi = -cfg.t_end

    rows = {"t": [], "zeta": [], "zeta_3sigma": [], "margin_coplanar": [],
            "margin_ascending": [], "margin_descending": [], "d_min_est": [],
            "collides": []}
    for k in idx:
        oe_k = NodalRelativeState.from_array(run.oe_hat[k])
        eta_k = ReferenceParams.from_array(truth.eta[k])
        verdict = c1_test(oe_k, eta_k)
        c2 = c2_check(oe_k, eta_k, float(truth.t[k]), t_hi, cfg.mu,
                      miss_tol=cfg.d / 2)
        rows["t"].append(truth.t[k])
        rows["zeta"].append(run.zeta_hat[k])
        rows["zeta_3sigma"].append(3.0 * run.zeta_sigma[k])
        rows["margin_coplanar"].append(verdict.margin_coplanar)
        rows["margin_ascending"].append(verdict.margin_ascending)
        rows["margin_descending"].append(verdict.margin_descending)
        rows["d_min_est"].append(c2.d_min)
        rows["collides"].append(c2.collides)
    header = list(rows.keys())
    _write_csv(path, header, [np.asarray(rows[h]) for h in header])
