"""The CLI's outputs against the stored reference runs in tests/reference:
the campaign's summary.json and ensemble envelope, and flyby run 0's truth
and filter CSVs, for config.json at seed 7.  tolerances.json states and
justifies the comparison of each file.  The outputs come from
regenerate.py's run_commands, as the stored files did; its main, which
rewrites them, is never called here."""

import fnmatch
import json
from pathlib import Path

import numpy as np
import pytest

from reference.regenerate import FILES, run_commands, toolchain_differences

REFERENCE = Path(__file__).parent / "reference"
TOLERANCES = json.loads((REFERENCE / "tolerances.json").read_text())["files"]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("outputs")
    run_commands(out)
    return out


def read_fields(path: Path) -> dict:
    """name -> float array: a summary's keys, or a CSV's columns."""
    if path.suffix == ".json":
        return {k: np.atleast_1d(np.asarray(v, dtype=float))
                for k, v in json.loads(path.read_text()).items()}
    header = path.read_text().splitlines()[0].split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return dict(zip(header, data.T, strict=True))


def mismatches(new: dict, ref: dict, rule: dict) -> list:
    """Fields of new outside the rule's tolerance around ref."""
    assert new.keys() == ref.keys()
    bad = []
    for name, want in ref.items():
        pattern = next(p for p in rule if fnmatch.fnmatchcase(name, p))
        kind, tol = rule[pattern]
        scale = (np.abs(want) if kind == "relative"
                 else np.max(np.abs(want)))
        gap = np.abs(new[name] - want)
        if new[name].shape != want.shape or not np.all(gap <= tol * scale):
            bad.append(f"{name}: {kind} {tol} exceeded "
                       f"(max gap {np.max(gap, initial=0.0):.3e})")
    return bad


@pytest.mark.parametrize("name", [f"{cmd}/{f}" for cmd, files in FILES.items()
                                  for f in files])
def test_matches_stored_reference(outputs, name):
    differs = toolchain_differences()
    mode = "other_toolchain" if differs else "same_toolchain"
    rule = TOLERANCES[name][mode]
    where = (f"{mode} mode: differs in {', '.join(differs)}" if differs
             else f"{mode} mode")
    new, ref = outputs / name, REFERENCE / name
    if rule == "bytes":
        assert new.read_bytes() == ref.read_bytes(), f"{name} {where}"
    else:
        assert mismatches(read_fields(new), read_fields(ref), rule) == [], \
            f"{name} {where}"
