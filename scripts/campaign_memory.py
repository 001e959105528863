"""Peak resident memory of a Monte Carlo campaign against its number of
runs.

    python3 scripts/campaign_memory.py

Runs ``run_montecarlo`` on the default desk scenario, its window cut to
the DAYS before the 6 h cutoff at a SAMPLE_DT cadence, once per run count
of RUNS, each in a fresh interpreter that imports nodalrel from this
checkout's ``src`` and keeps the returned runs.  Prints each campaign's
peak RSS, then the least-squares slope in bytes per sample per run: what
the campaign keeps of each run.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
#: Run counts m, one campaign each.
RUNS = (8, 16, 32)
#: Cadence, s.
SAMPLE_DT = 5.0
#: Window length before the cutoff, days.
DAYS = 2.0

CHILD = """
import resource, sys
from dataclasses import replace
from nodalrel import missionsim as sim
m, dt, days = int(sys.argv[1]), float(sys.argv[2]), float(sys.argv[3])
base = sim.ScenarioConfig()
cfg = replace(base, mc_runs=m, sample_dt=dt,
              t_start=base.t_end - days * 86400.0)
summary, runs = sim.run_montecarlo(cfg)
print(cfg.sample_times().size, len(runs),
      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def main() -> None:
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    rows = []
    for m in RUNS:
        out = subprocess.run(
            [sys.executable, "-c", CHILD, str(m), str(SAMPLE_DT), str(DAYS)],
            env=env, check=True, capture_output=True, text=True).stdout.split()
        n, rss_kib = int(out[0]), int(out[2])
        rows.append((m, n, rss_kib * 1024))
        print(f"m = {m:3d}, n = {n}: peak RSS {rss_kib / 1024:.1f} MiB",
              flush=True)
    m, n, rss = (np.array(c, dtype=float) for c in zip(*rows))
    slope = np.polyfit(m * n, rss, 1)[0]
    print(f"slope: {slope:.1f} B per sample per run")


if __name__ == "__main__":
    main()
