"""The CLI's outputs against the stored reference runs in tests/reference:
the files of all six commands, the scenario commands (montecarlo, flyby,
maneuver) at config.json and seed 7, validate, and propagate and screen on
the README's orbit pair.  tolerances.json states and justifies the
comparison of each file.  The outputs come from
regenerate.py's run_commands, as the stored files did; its main, which
rewrites them, is never called here."""

import fnmatch
import json
import re
from pathlib import Path

import numpy as np
import pytest

from reference.regenerate import FILES, run_commands, toolchain_differences

REFERENCE = Path(__file__).parent / "reference"
TOLERANCES = json.loads((REFERENCE / "tolerances.json").read_text())["files"]

#: A number printed on a line of stdout (not a digit inside a word such as
#: "C1"; "nan" stays text).
_PRINTED = re.compile(r"(?<![\w.])[-+]?\d+(?:\.\d*)?(?:e[-+]?\d+)?")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("outputs")
    run_commands(out)
    return out


def read_fields(path: Path) -> dict:
    """name -> float array: a summary's keys, a CSV's columns, or the
    numbers printed on each line of stdout, named by the line's number and
    its text with each number as "#"."""
    if path.suffix == ".json":
        return {k: np.atleast_1d(np.asarray(v, dtype=float))
                for k, v in json.loads(path.read_text()).items()}
    if path.suffix == ".txt":
        return {f"{i}:{_PRINTED.sub('#', line)}":
                np.array([float(x) for x in _PRINTED.findall(line)])
                for i, line in enumerate(path.read_text().splitlines())}
    header = path.read_text().splitlines()[0].split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return dict(zip(header, data.T, strict=True))


def mismatches(new: dict, ref: dict, rule: dict) -> list:
    """Fields of new outside the rule's tolerance around ref; a NaN matches
    only a NaN, as a column that is undefined on a branch is."""
    assert new.keys() == ref.keys()
    bad = []
    for name, want in ref.items():
        pattern = next(p for p in rule if fnmatch.fnmatchcase(name, p))
        kind, tol = rule[pattern]
        nan = np.isnan(want)
        scale = (np.abs(want) if kind == "relative"
                 else np.max(np.abs(want), where=~nan, initial=0.0))
        gap = np.abs(new[name] - want)
        if new[name].shape != want.shape or not np.all(
                (gap <= tol * scale) | (nan & np.isnan(new[name]))):
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


def test_one_zeta_per_screening_row(outputs):
    # zeta (the filter's diagnostics) and margin_ascending (C1) are one
    # margin of one estimate, both read at the truth's reference.
    rows = read_fields(outputs / "flyby" / "screening_run0.csv")
    assert np.all(np.abs(rows["zeta"] - rows["margin_ascending"]) <= 1e-15)
