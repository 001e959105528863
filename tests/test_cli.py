import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from dataclasses import replace

import nodalrel
from nodalrel import (MU_EARTH, ClassicalElements, oe_from_classical,
                      relative_position_batch, unperturbed_flow)
from nodalrel import missionsim as sim
from nodalrel.cli import _load_cfg, build_parser, main

ORBIT1 = ["8900", "0.5", "10", "20", "0", "30"]
ORBIT2 = ["6800", "0.1", "40", "90", "30", "70"]


def cli_error(capsys, argv) -> str:
    """The message of the error main(argv) exits with: an input error
    exits as argparse's own do, usage and one error line on stderr,
    status 2, no traceback."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: nodalrel ") and "Traceback" not in err
    line = err.splitlines()[-1]
    assert line.startswith("nodalrel: error: ")
    return line.removeprefix("nodalrel: error: ")


def test_parser_covers_all_subcommands():
    parser = build_parser()
    actions = [a for a in parser._actions
               if a.__class__.__name__ == "_SubParsersAction"]
    names = set(actions[0].choices)
    assert names == {"validate", "propagate", "screen", "flyby",
                     "montecarlo", "maneuver"}


def test_screen_command(capsys):
    rc = main(["screen", "--orbit1", *ORBIT1, "--orbit2", *ORBIT2,
               "--tf", "20000"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "C1 satisfied" in out
    assert "zeta" in out
    assert "C2 over" in out


def test_propagate_command(tmp_path, capsys):
    # propagate writes the exact unperturbed flow of the pair.
    rc = main(["propagate", "--orbit1", *ORBIT1, "--orbit2", *ORBIT2,
               "--tf", "5000", "--samples", "50",
               "--out", str(tmp_path)])
    assert rc == 0
    data = np.genfromtxt(tmp_path / "trajectory.csv", delimiter=",",
                         names=True)
    assert data["t"].size == 50
    assert np.all(np.isfinite(data["dr_R"]))
    el1, el2 = (ClassicalElements(*(float(v) for v in orbit[:2]),
                                  *(math.radians(float(v))
                                    for v in orbit[2:]))
                for orbit in (ORBIT1, ORBIT2))
    t = np.linspace(0.0, 5000.0, 50)
    oe_arr, eta_arr = unperturbed_flow(*oe_from_classical(el1, el2),
                                       MU_EARTH, t)
    sim.write_trajectory_csv(str(tmp_path / "flow.csv"), t, oe_arr, eta_arr,
                             relative_position_batch(oe_arr, eta_arr))
    assert ((tmp_path / "trajectory.csv").read_bytes()
            == (tmp_path / "flow.csv").read_bytes())


def test_flyby_command(tmp_path, capsys):
    cfg = replace(sim.ScenarioConfig(), t_start=-1.5 * 86400.0,
                  t_end=-6.0 * 3600.0, sample_dt=1800.0)
    cfg_path = tmp_path / "cfg.json"
    with open(cfg_path, "w") as f:
        json.dump(sim.config_to_dict(cfg), f)
    rc = main(["flyby", "--config", str(cfg_path), "--seed", "3",
               "--out", str(tmp_path / "run")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "final range error" in out
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["seed"] == 3
    assert "final_range_error_km" in summary


def test_maneuver_command(tmp_path, capsys):
    cfg = replace(sim.ScenarioConfig(), t_start=-2.0 * 86400.0,
                  t_end=-6.0 * 3600.0, sample_dt=1800.0)
    cfg_path = tmp_path / "cfg.json"
    with open(cfg_path, "w") as f:
        json.dump(sim.config_to_dict(cfg), f)
    rc = main(["maneuver", "--config", str(cfg_path),
               "--apply-at", str(cfg.t_start + 0.5 * 86400.0),
               "--out", str(tmp_path / "mv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "achieved miss" in out
    summary = json.loads((tmp_path / "mv" / "summary.json").read_text())
    assert summary["achieved_miss_km"] > summary["unmaneuvered_miss_km"]


def test_validate_rejects_mu(capsys):
    # validate always runs the fixed validation pair, whose mu is fixed.
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--mu", "398600.4418"])
    assert exc.value.code == 2
    assert "--mu" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [
    # screen writes no file and integrates nothing
    ["screen", "--orbit1", *ORBIT1, "--orbit2", *ORBIT2, "--out", "out"],
    ["screen", "--orbit1", *ORBIT1, "--orbit2", *ORBIT2, "--tol", "-5"],
    # flyby and montecarlo integrate nothing; only montecarlo has workers
    ["flyby", "--out", "out", "--tol", "1e-9"],
    ["flyby", "--out", "out", "--jobs", "2"],
    ["montecarlo", "--out", "out", "--tol", "1e-9"],
    ["maneuver", "--out", "out", "--jobs", "2"],
    # the replay integrates at dynamics.RTOL
    ["maneuver", "--out", "out", "--tol", "1e-9"],
    # propagate writes the exact flow and integrates nothing
    ["propagate", "--orbit1", *ORBIT1, "--orbit2", *ORBIT2, "--tf", "5000",
     "--tol", "1e-9"],
    # validate integrates at dynamics.RTOL
    ["validate", "--out", "out", "--tol", "1e-9"],
    # a scenario's mu is its config's, set with its target
    ["flyby", "--out", "out", "--mu", "398600.4418"],
    ["montecarlo", "--out", "out", "--mu", "398600.4418"],
    ["maneuver", "--out", "out", "--mu", "398600.4418"],
])
def test_screen_rejects_unused_flags(tmp_path, monkeypatch, capsys, flag):
    # Each subcommand takes only the flags that act on it.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(flag)
    assert exc.value.code == 2
    assert flag[-2] in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flags, message", [
    (["--tf", "5000", "--samples", "0"], "--samples must be an integer >= 1"),
    (["--tf", "5000", "--samples", "-3"],
     "--samples must be an integer >= 1"),
    (["--tf", "nan"], "--tf must be finite"),
    (["--tf", "inf"], "--tf must be finite"),
])
def test_propagate_rejects_bad_span(tmp_path, capsys, flags, message):
    assert cli_error(capsys, ["propagate", "--orbit1", *ORBIT1,
                              "--orbit2", *ORBIT2, *flags,
                              "--out", str(tmp_path)]) == message
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flags, name", [
    # overflowed in math.ceil, and reported collides=False on every pair
    (["--tf", "inf"], "tf"),
    (["--tf", "20000", "--miss-tol", "-5"], "miss_tol"),
])
def test_screen_rejects_bad_c2_inputs(capsys, flags, name):
    assert re.match(f"^{name} must be finite", cli_error(
        capsys, ["screen", "--orbit1", *ORBIT1, "--orbit2", *ORBIT2,
                 *flags]))


@pytest.mark.parametrize("command, mu", [
    # screen --mu 0 died with a ZeroDivisionError, --mu -1 printed "math
    # domain error", and propagate wrote a trajectory at mu 0 or nan.
    ("screen", "0"), ("screen", "-1"), ("screen", "inf"),
    ("propagate", "0"), ("propagate", "nan"),
])
def test_bad_mu_exits_2(tmp_path, capsys, command, mu):
    out = ["--out", str(tmp_path)] if command == "propagate" else []
    assert re.match(r"^--mu must be finite and > 0", cli_error(
        capsys, [command, "--orbit1", *ORBIT1, "--orbit2", *ORBIT2,
                 "--mu", mu, "--tf", "2000", *out]))
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("index, field", [(0, "a"), (3, "raan"),
                                          (4, "argp"), (5, "nu")])
def test_nonfinite_orbit_exits_2(capsys, index, field):
    # a NaN angle used to fail as a "nonfinite relative state"
    orbit = list(ORBIT1)
    orbit[index] = "nan"
    assert re.search(rf"\b{field} must be finite", cli_error(
        capsys, ["screen", "--orbit1", *orbit, "--orbit2", *ORBIT2]))


def test_bad_apply_at_exits_2(tmp_path, capsys):
    assert re.match(r"^apply_at must lie in \[t_start, t_end\]", cli_error(
        capsys, ["maneuver", "--apply-at", "nan", "--out", str(tmp_path)]))
    assert not any(tmp_path.iterdir())


def test_bad_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"sample_dtt": 600.0}')
    assert cli_error(capsys, ["flyby", "--config", str(cfg_path)]) == (
        "unknown key(s) in config: 'sample_dtt'")


@pytest.mark.parametrize("text, message", [
    (None, "cannot read config file '{path}': No such file or directory"),
    ("nope", "config file '{path}' is not JSON: Expecting value: "
             "line 1 column 1 (char 0)"),
    ("[1]", "config must be a JSON object, got [1]"),
    ('{"sample_dt": "x"}', "key 'sample_dt' in config must be a number, "
                           "got 'x'"),
    ('{"target": 5}', "target must be a JSON object, got 5"),
    ('{"q_diag": 3}', "key 'q_diag' in config must be a list of numbers, "
                      "got 3"),
], ids=["missing", "not-json", "list", "string", "int-target", "int-q"])
def test_unusable_config_file_exits_2(tmp_path, capsys, text, message):
    # each used to end in a traceback, or in a message that named neither
    # the file nor the key
    cfg_path = tmp_path / "cfg.json"
    if text is not None:
        cfg_path.write_text(text)
    assert cli_error(capsys, ["flyby", "--config", str(cfg_path)]) == (
        message.format(path=cfg_path))


def test_jobs_zero_reaches_the_config_check():
    args = build_parser().parse_args(["montecarlo", "--jobs", "0"])
    with pytest.raises(ValueError, match="^jobs must"):
        _load_cfg(args)


def test_montecarlo_command_in_parallel(tmp_path, capsys):
    cfg = replace(sim.ScenarioConfig(), t_start=-1.5 * 86400.0,
                  t_end=-6.0 * 3600.0, sample_dt=1800.0, mc_runs=3)
    cfg_path = tmp_path / "cfg.json"
    with open(cfg_path, "w") as f:
        json.dump(sim.config_to_dict(cfg), f)
    out = tmp_path / "mc"
    rc = main(["montecarlo", "--config", str(cfg_path), "--seed", "4",
               "--jobs", "2", "--out", str(out)])
    assert rc == 0
    assert "runs:                    3" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["runs"] == 3 and summary["seed"] == 4
    env = np.genfromtxt(out / "ensemble_envelope.csv", delimiter=",",
                        names=True)
    assert env.dtype.names[-1] == "true_3sigma_range"
    assert np.array_equal(env["t"], cfg.sample_times())
    assert np.all(env["true_3sigma_range"] > 0.0)


#: Run in a fresh interpreter (pytest has imported scipy already): prints,
#: after each step, whether any scipy module, scipy.integrate and
#: scipy.optimize are loaded.
SCIPY_LOADS = """
import json, sys, tempfile
from dataclasses import replace

def loaded():
    scipy = [m for m in sys.modules if m.split(".")[0] == "scipy"]
    return [bool(scipy), "scipy.integrate" in scipy, "scipy.optimize" in scipy]

seen = {}
from nodalrel import cli, missionsim as sim
seen["import"] = loaded()
sim.run_montecarlo(replace(sim.ScenarioConfig(), t_start=-1.5 * 86400.0,
                           sample_dt=10800.0, mc_runs=2))
seen["montecarlo"] = loaded()
pair = ["--orbit1", *%r, "--orbit2", *%r]
with tempfile.TemporaryDirectory() as out:
    cli.main(["propagate", *pair, "--tf", "5000", "--samples", "5",
              "--out", out])
seen["propagate"] = loaded()
cli.main(["screen", *pair, "--tf", "20000"])
seen["screen --tf"] = loaded()
cli.main(["validate"])
seen["validate"] = loaded()
print(json.dumps(seen))
""" % (ORBIT1, ORBIT2)


def test_scipy_integrator_and_optimizer_load_where_they_run():
    # The campaign, the truth and the exported flow are closed form, and
    # the filter's gain solve is float arithmetic: the package and their
    # commands load no scipy module at all.
    src = os.path.dirname(os.path.dirname(nodalrel.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", SCIPY_LOADS], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "import": [False] * 3, "montecarlo": [False] * 3,
        "propagate": [False] * 3,
        # the C2 refinement's Brent search, then the DOP853 solves
        "screen --tf": [True, False, True], "validate": [True] * 3}
