"""Command-line interface.

Subcommands: validate (model-vs-Cowell equivalence), propagate (generic
trajectory export), screen (intersection/safety report for a state),
flyby (single navigation run), montecarlo (campaign), maneuver (delta-v
sweep plus applied impulse).  Angles on this boundary are degrees.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .constants import MU_EARTH
from .frames import ClassicalElements
from .relstate import oe_from_classical
from .dynamics import propagate
from .conjunction import c1_test, c2_check, zeta
from . import missionsim as sim

DEG = math.pi / 180.0


def _load_cfg(args) -> sim.ScenarioConfig:
    cfg = (sim.load_config(args.config) if args.config
           else sim.ScenarioConfig())
    cfg = replace(cfg, **{name: getattr(args, flag) for flag, name in (
        ("seed", "seed"), ("mu", "mu"), ("tol", "rel_tol"), ("jobs", "jobs"))
        if getattr(args, flag, None) is not None})
    return cfg.paper_scale() if getattr(args, "paper_scale", False) else cfg


def _pair_from_args(args):
    """(oe, eta, mu) of the --orbit1/--orbit2 pair (angles in degrees) and
    --mu, which defaults to Earth's."""
    el1, el2 = (ClassicalElements(a=a, e=e, i=i * DEG, raan=raan * DEG,
                                  argp=argp * DEG, nu=nu * DEG)
                for a, e, i, raan, argp, nu in (args.orbit1, args.orbit2))
    return (*oe_from_classical(el1, el2),
            MU_EARTH if args.mu is None else args.mu)


def _cmd_validate(args) -> int:
    res = sim.run_validation(rtol=args.tol or 1e-12, out_dir=args.out)
    print(f"max model-vs-Cowell discrepancy: {res.max_discrepancy_km:.3e} km")
    print(f"zero-input discrepancy:          "
          f"{res.zero_input_discrepancy_km:.3e} km")
    return 0


def _cmd_propagate(args) -> int:
    oe, eta, mu = _pair_from_args(args)
    traj = propagate(oe, eta, 0.0, args.tf, mu, rtol=args.tol or 1e-12,
                     n_samples=args.samples)
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "trajectory.csv")
    sim.write_trajectory_csv(path, traj.t, traj.oe, traj.eta)
    print(f"wrote {path}")
    return 0


def _cmd_screen(args) -> int:
    oe, eta, mu = _pair_from_args(args)
    verdict = c1_test(oe, eta)
    print(f"coplanar branch:   {verdict.coplanar}")
    print(f"margin coplanar:   {verdict.margin_coplanar:.6e}")
    print(f"margin ascending:  {verdict.margin_ascending:.6e}")
    print(f"margin descending: {verdict.margin_descending:.6e}")
    print(f"C1 satisfied:      {verdict.satisfied}")
    if not verdict.coplanar:
        print(f"zeta:              {zeta(oe, eta):.6e}")
    if args.tf is not None:
        res = c2_check(oe, eta, 0.0, args.tf, mu, miss_tol=args.miss_tol)
        print(f"C2 over [0, {args.tf:g}] s: collides={res.collides} "
              f"d_min={res.d_min:.3f} km at t={res.t_min:.1f} s")
    return 0


def _cmd_flyby(args) -> int:
    cfg = _load_cfg(args)
    art = sim.run_flyby(cfg, out_dir=args.out)
    run = art.run
    print(f"samples: {run.t.size}")
    print(f"final range error: {run.range_err[-1]:.3f} km")
    print(f"collision detected (zeta band covers 0 post-transient): "
          f"{run.detected}")
    if args.out:
        sim.write_summary_json(os.path.join(args.out, "summary.json"), {
            "final_range_error_km": float(run.range_err[-1]),
            "final_range_3sigma_km": float(3.0 * run.range_sigma[-1]),
            "detected": bool(run.detected),
            "seed": cfg.seed,
        })
    return 0


def _cmd_montecarlo(args) -> int:
    cfg = _load_cfg(args)
    summary, _ = sim.run_montecarlo(cfg, out_dir=args.out)
    print(f"runs:                    {summary.runs}")
    print(f"detection rate:          {summary.detection_rate:.3f}")
    print(f"3-sigma coverage:        {summary.coverage_aggregate:.4f}")
    print(f"final range-error sigma: {summary.final_range_error_sigma:.1f} km")
    print(f"initial range-error sigma: "
          f"{summary.initial_range_error_sigma:.1f} km")
    return 0


def _cmd_maneuver(args) -> int:
    cfg = _load_cfg(args)
    res = sim.run_maneuver_sweep(cfg, offsets=tuple(args.offsets),
                                 apply_at=args.apply_at, out_dir=args.out)
    dv = float(np.linalg.norm(res.applied_dv))
    print(f"applied at t = {res.applied_t_m:.0f} s: |dv| = {dv * 1e3:.3f} m/s")
    print(f"unmaneuvered miss: {res.unmaneuvered_miss_km:.3f} km")
    print(f"achieved miss:     {res.achieved_miss_km:.3f} km")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nodalrel",
        description="Nodal-element relative motion toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario=True, mu=True):
        p.add_argument("--out", type=str, default=None,
                       help="output directory for CSV/JSON artifacts")
        if mu:
            p.add_argument("--mu", type=float, default=None,
                           help="gravitational parameter, km^3/s^2")
        p.add_argument("--tol", type=float, default=None,
                       help="integrator relative tolerance")
        if scenario:
            p.add_argument("--config", type=str, default=None,
                           help="JSON scenario config")
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--paper-scale", action="store_true",
                           help="200 runs at 5 s cadence")
            p.add_argument("--jobs", type=int, default=None,
                           help="parallel Monte Carlo workers")

    p = sub.add_parser("validate", help="model-vs-Cowell equivalence run")
    common(p, scenario=False, mu=False)  # the validation pair fixes mu
    p.set_defaults(func=_cmd_validate)

    def orbit_pair(p):
        common(p, scenario=False)
        for flag in ("--orbit1", "--orbit2"):
            p.add_argument(flag, type=float, nargs=6, required=True,
                           metavar=("a_km", "e", "i_deg", "raan_deg",
                                    "argp_deg", "nu_deg"))

    p = sub.add_parser("propagate", help="propagate a pair and export CSV")
    orbit_pair(p)
    p.add_argument("--tf", type=float, required=True, help="final time, s")
    p.add_argument("--samples", type=int, default=1000)
    p.set_defaults(func=_cmd_propagate)

    p = sub.add_parser("screen", help="C1/zeta screening for an orbit pair")
    orbit_pair(p)
    p.add_argument("--tf", type=float, default=None,
                   help="also run the C2 check over [0, tf] s")
    p.add_argument("--miss-tol", type=float, default=1.0,
                   help="C2 distance tolerance, km")
    p.set_defaults(func=_cmd_screen)

    p = sub.add_parser("flyby", help="single flyby navigation run")
    common(p)
    p.set_defaults(func=_cmd_flyby)

    p = sub.add_parser("montecarlo", help="Monte Carlo campaign")
    common(p)
    p.set_defaults(func=_cmd_montecarlo)

    p = sub.add_parser("maneuver", help="delta-v sweep and applied impulse")
    common(p)
    p.add_argument("--offsets", type=float, nargs="+", default=[1e-4],
                   help="zeta correction offsets")
    p.add_argument("--apply-at", type=float, default=None,
                   help="impulse epoch, s relative to impact")
    p.set_defaults(func=_cmd_maneuver)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
