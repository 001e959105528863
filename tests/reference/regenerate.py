"""Regenerate the stored reference outputs that tests/test_reference.py
compares against.

    python3 tests/reference/regenerate.py

Run it from a checkout of the commit whose outputs are to be kept: it
imports nodalrel from that checkout's ``src`` and runs each command of
ARGV through the CLI, then copies the files of FILES:

- ``montecarlo/``, ``flyby/`` and ``maneuver/``: the scenario commands on
  ``config.json`` (3 runs over the 3 days before the 6 h cutoff, 600 s
  cadence) at seed 7;
- ``validate/``: the model-vs-Cowell summary of the fixed validation pair;
- ``propagate/`` and ``screen/``: the README's orbit pair, the exported
  flow over 10,000 s at 50 samples and the screening report with its C2
  check over 20,000 s; ``stdout.txt`` is what a command printed.

``provenance.json`` records the commit the files were made from (with a
``-dirty`` suffix when the tree had uncommitted changes) and the
toolchain; ``tolerances.json`` (written by hand, not here) says how each
file is compared, on that toolchain and on any other, and why.  The test
never regenerates: a change that moves a stored output reruns this script
and says which fields moved, and by how much.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

SEED = 7
_SCENARIO = ("--config", str(HERE / "config.json"), "--seed", str(SEED),
             "--out")
_PAIR = ("--orbit1", "8900", "0.5", "10", "20", "0", "30",
         "--orbit2", "6800", "0.1", "40", "90", "30", "70")
#: CLI command -> its arguments; a final "--out" is given the command's
#: output directory.
ARGV = {"montecarlo": _SCENARIO,
        "flyby": _SCENARIO,
        "maneuver": _SCENARIO,
        "validate": ("--out",),
        "propagate": (*_PAIR, "--tf", "10000", "--samples", "50", "--out"),
        "screen": (*_PAIR, "--tf", "20000")}
#: CLI command -> the stored files it writes.
FILES = {"montecarlo": ("summary.json", "ensemble_envelope.csv"),
         "flyby": ("truth.csv", "filter_run0.csv", "screening_run0.csv",
                   "summary.json"),
         "maneuver": ("summary.json", "maneuver_sweep.csv"),
         "validate": ("summary.json",),
         "propagate": ("trajectory.csv",),
         "screen": ("stdout.txt",)}
_CORENAME = ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
             "openblas_get_corename64_", "openblas_get_corename")


def run_commands(out: Path) -> None:
    """Run each command of ARGV into out/<command>, with the nodalrel
    already imported; what it prints goes to out/<command>/stdout.txt."""
    from nodalrel.cli import main
    for cmd, args in ARGV.items():
        where = out / cmd
        argv = [cmd, *args, str(where)] if args[-1:] == ("--out",) \
            else [cmd, *args]
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            main(argv)
        where.mkdir(parents=True, exist_ok=True)
        (where / "stdout.txt").write_text(printed.getvalue())


def _openblas_cores() -> list:
    """The kernel family that each OpenBLAS bundled with numpy and scipy
    chose on this CPU; the families round differently (SkylakeX and
    Haswell kernels differ in the last bits of every stored file)."""
    cores = []
    for pkg in (np, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libs.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            for name in _CORENAME:
                fn = getattr(lib, name, None)
                if fn is not None:
                    fn.restype = ctypes.c_char_p
                    cores.append(f"{pkg.__name__}: {fn().decode()}")
                    break
    return cores


def toolchain() -> dict:
    """What the bits of the outputs depend on besides the source: the
    Python, numpy and scipy builds and the OpenBLAS kernels they run."""
    return {"python": platform.python_version(),
            "machine": platform.machine(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "openblas_cores": _openblas_cores()}


def toolchain_differences() -> list:
    """The toolchain entries of this interpreter that differ from those
    recorded in provenance.json: empty when the stored files' byte-exact
    comparison applies."""
    stored = json.loads((HERE / "provenance.json").read_text())["toolchain"]
    now = toolchain()
    return sorted(k for k in stored.keys() | now.keys()
                  if stored.get(k) != now.get(k))


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    commit = subprocess.run(
        ["git", "describe", "--always", "--dirty", "--abbrev=40"], cwd=ROOT,
        capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        run_commands(Path(tmp))
        for cmd, names in FILES.items():
            (HERE / cmd).mkdir(exist_ok=True)
            for name in names:
                shutil.copyfile(Path(tmp) / cmd / name, HERE / cmd / name)
    with open(HERE / "provenance.json", "w") as f:
        json.dump({"commit": commit or "unknown", "seed": SEED,
                   "toolchain": toolchain()}, f, indent=2, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
