"""The benchmark's own test: every workload at a tiny size, the shape of
the printed result, and corrupted results that each correctness check must
reject.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import copy
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from clock import CalibratedClock  # noqa: E402

SEED = 3


def run_cli(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
         "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


@pytest.mark.parametrize("workload,trace", [("campaign", 0), ("screen", 1)])
def test_printed_result_shape(workload, trace):
    proc = run_cli(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1
    spec = benchmark_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_spec_lists_every_per_layer_metric():
    spec = benchmark_spec()
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        tracing.metric_names()
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "screen",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


# --- each check rejects a corrupted result -------------------------------

def fresh(name, tmp_path, traced=False):
    wl = workloads.WORKLOADS[name]
    st = wl.setup(SEED, True, tmp_path / name)
    clock = CalibratedClock()  # not started: parts are raw seconds
    records = [wl.round(st, clock)[2] for _ in range(run.MIN_ROUNDS)]
    counts = None
    if traced:
        with tracing.Tracer() as tr:
            records.append(wl.round(st, clock)[2])
        counts = tr.metrics(1.0, 0.0)
    return wl, st, records, counts


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    return fresh("campaign", tmp_path_factory.mktemp("c"), traced=True)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    return fresh("pipeline", tmp_path_factory.mktemp("p"), traced=True)


@pytest.fixture(scope="module")
def screen(tmp_path_factory):
    return fresh("screen", tmp_path_factory.mktemp("s"), traced=True)


def failures(bundle, st=None, records=None, counts=None):
    wl, st0, rec0, counts0 = bundle
    return wl.check(st if st is not None else dict(st0),
                    records if records is not None else rec0,
                    counts if counts is not None else counts0)


def test_untouched_results_pass(campaign, pipeline, screen):
    for bundle in (campaign, pipeline, screen):
        assert failures(bundle) == []


def test_campaign_sigma_below_information_bound(campaign):
    st = dict(campaign[1])
    summary, runs = st["last"]
    st["last"] = (dataclasses.replace(summary, final_range_error_sigma=1.0),
                  runs)
    assert any("kappa_lo" in f for f in failures(campaign, st=st))


def test_campaign_missed_collision(campaign):
    st = dict(campaign[1])
    summary, runs = st["last"]
    shifted = dataclasses.replace(runs[0],
                                  zeta_hat=runs[0].zeta_hat
                                  + 4.0 * runs[0].zeta_sigma)
    st["last"] = (summary, [shifted] + runs[1:])
    assert any("zeta band" in f for f in failures(campaign, st=st))


def test_campaign_truth_off_inertial(campaign):
    st = dict(campaign[1])
    truth = st["truth"]
    dr = truth.dr.copy()
    dr[-1] *= 1.0 + 1e-5
    st["truth"] = dataclasses.replace(truth, dr=dr)
    assert any("inertial" in f for f in failures(campaign, st=st))


def test_campaign_nondeterministic_summary(campaign):
    records = copy.deepcopy(campaign[2])
    records[1]["summary_sha"] = "0" * 64
    assert any("differs" in f for f in failures(campaign, records=records))


def test_campaign_step_count(campaign):
    counts = dict(campaign[3])
    counts["navigation.ekf_update.calls"] -= 1
    assert any("ekf_update" in f for f in failures(campaign, counts=counts))


def _rewrite_summary(bundle, cmd, **changes):
    st = bundle[1]
    path = Path(st["out"]) / cmd / "summary.json"
    original = path.read_text()
    data = json.loads(original)
    data.update(changes)
    path.write_text(json.dumps(data))
    try:
        return failures(bundle)
    finally:
        path.write_text(original)


def test_pipeline_reversed_delta_v(pipeline):
    man = json.loads((Path(pipeline[1]["out"]) / "maneuver"
                      / "summary.json").read_text())
    reversed_dv = [-x for x in man["applied_dv_km_s"]]
    fails = _rewrite_summary(pipeline, "maneuver",
                             applied_dv_km_s=reversed_dv)
    assert any("delta zeta" in f for f in fails)


def test_pipeline_validation_discrepancy(pipeline):
    fails = _rewrite_summary(pipeline, "validate",
                             max_validation_discrepancy_km=2e-3)
    assert any("model-vs-Cowell" in f for f in fails)


def test_pipeline_misses(pipeline):
    fails = _rewrite_summary(pipeline, "maneuver", unmaneuvered_miss_km=150.0)
    assert any("unmaneuvered Cowell miss" in f for f in fails)
    fails = _rewrite_summary(pipeline, "maneuver", achieved_miss_km=10.0)
    assert any("100x" in f for f in fails)


def _with_c2(bundle, kind, change):
    """Screen results with ``change`` applied to the first pair of kind."""
    st = dict(bundle[1])
    results = list(st["last"])
    i = next(k for k, p in enumerate(st["pairs"]) if p.kind == kind)
    verdict, z, c2 = results[i]
    results[i] = change(verdict, z, c2)
    st["last"] = results
    return failures(bundle, st=st)


def test_screen_scaled_d_min(screen):
    for kind in ("collide", "separated", "perturbed"):
        fails = _with_c2(screen, kind, lambda v, z, c2: (
            v, z, dataclasses.replace(c2, d_min=c2.d_min * 1.01 + 0.01)))
        assert any("Cowell" in f for f in fails), kind


def test_screen_collision_missed(screen):
    fails = _with_c2(screen, "collide", lambda v, z, c2: (
        v, z, dataclasses.replace(c2, collides=False)))
    assert any("expected a collision" in f for f in fails)


def test_screen_c1_verdicts(screen):
    fails = _with_c2(screen, "separated", lambda v, z, c2: (
        dataclasses.replace(v, satisfied_ascending=True), z, c2))
    assert any("separated pair satisfies C1" in f for f in fails)
    fails = _with_c2(screen, "collide", lambda v, z, c2: (
        dataclasses.replace(v, margin_ascending=v.margin_ascending + 1e-6,
                            margin_descending=v.margin_descending + 1e-6),
        z, c2))
    assert any("fails C1" in f for f in fails)


def test_screen_kept_fault_is_counted(screen):
    wl, st, _, _ = screen
    attempted, failed, _, parts = wl.round(dict(st), CalibratedClock())
    assert attempted == len(parts) == len(st["pairs"])
    assert failed == len(workloads.FAULT_INDICES)
