"""nodalrel benchmark: one workload per invocation, correctness checked,
every metric printed by name with its unit.

    python3 perfbench/run.py --workload screen --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of one traced
round with ``--trace 1``.  Provenance, check details and per-round times
go to ``.perfbench_out/<workload>/run_meta.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from clock import CalibratedClock

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
#: Fewest rounds in a run, so that the checks see repeated rounds.
MIN_ROUNDS = 3
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
                    "peak_rss_mib": "MiB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("campaign", "pipeline", "screen"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the timed part; whole rounds are run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the benchmark's own test")
    return p.parse_args(argv)


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def timed_rounds(clock, workload, state, seconds):
    """Whole rounds until ``seconds`` have passed (at least MIN_ROUNDS).
    Returns raw round times, each round's calibrated part times, records,
    attempted and failed."""
    walls, parts, records, attempted, failed = [], [], [], 0, 0
    start = perf_counter()
    while len(walls) < MIN_ROUNDS or perf_counter() - start < seconds:
        mark = clock.mark()
        ops, bad, rec, round_parts = workload.round(state, clock)
        walls.append(clock.since(mark)[0])
        parts.append(round_parts)
        records.append(rec)
        attempted += ops
        failed += bad
    return walls, parts, records, attempted, failed


def round_time(parts) -> float:
    """Calibrated time of one round: the sum over its parts (the campaign
    call, each CLI command, each pair) of the part's median over rounds."""
    return sum(statistics.median(column) for column in zip(*parts))


def main(argv=None) -> int:
    args = parse_args(argv)
    # One process, one thread: keep BLAS and OpenMP pools to one worker.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "nodalrel" / "__init__.py").is_file():
        print(f"error: no nodalrel sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    with CalibratedClock() as clock:
        return measure(args, clock, src)


def measure(args, clock, src) -> int:
    mark = clock.mark()
    nodalrel = importlib.import_module("nodalrel")
    importlib.import_module("nodalrel.cli")
    import_s, import_cal = clock.since(mark)
    if Path(nodalrel.__file__).resolve().parent != src / "nodalrel":
        print(f"error: imported {nodalrel.__file__}, not the checkout's",
              file=sys.stderr)
        return 2

    import numpy
    import scipy
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench_out" / args.workload
    os.makedirs(out_dir, exist_ok=True)

    # Import once, then the median of SETUP_REPEATS set-ups.
    setups, setups_cal = [], []
    for _ in range(SETUP_REPEATS):
        mark = clock.mark()
        state = wl.setup(args.seed, args.tiny, out_dir)
        raw, cal = clock.since(mark)
        setups.append(raw)
        setups_cal.append(cal)

    walls, parts, records, attempted, failed = timed_rounds(
        clock, wl, state, args.seconds)
    wall_s = round_time(parts)
    # Before the traced round and the checks, whose memory is the
    # benchmark's own.
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced = None
    if args.trace:
        with tracing.Tracer() as tracer:
            t0 = perf_counter()
            ops, bad, rec, traced_parts = wl.round(state, clock)
            traced_wall = perf_counter() - t0
        records.append(rec)
        attempted += ops
        failed += bad
        traced = tracer.metrics(
            traced_wall, 100.0 * (sum(traced_parts) / wall_s - 1.0))

    failures = wl.check(state, records, traced)

    if traced is None:
        values = {"setup_s": import_cal + statistics.median(setups_cal),
                  "wall_s": wall_s,
                  "ops_per_s": wl.ops_per_round(state) / wall_s,
                  "peak_rss_mib": peak_rss_mib}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    else:
        metrics = {name: {"value": traced[name], "unit": unit}
                   for name, unit in tracing.metric_names()}

    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "commit": git_commit(ROOT),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "import_s": import_s, "setup_repeats_s": setups,
        "round_walls_s": walls, "round_parts_calibrated_s": parts,
        "attempted": attempted, "failed": failed,
        "failures": failures, **wl.provenance(state),
        **{k: v for k, v in state.items()
           if k in ("sigma_crlb_km", "truth_vs_inertial_km", "delta_zeta",
                    "raised", "worst_cowell_km")},
        "metrics": metrics,
    }
    with open(out_dir / "run_meta.json", "w") as f:
        json.dump(meta, f, indent=1, sort_keys=True, default=str)
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)

    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
