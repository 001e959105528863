import json

import numpy as np
import pytest

from dataclasses import replace

from nodalrel import missionsim as sim
from nodalrel.cli import _load_cfg, build_parser, main

ORBIT1 = ["8900", "0.5", "10", "20", "0", "30"]
ORBIT2 = ["6800", "0.1", "40", "90", "30", "70"]


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
    rc = main(["propagate", "--orbit1", *ORBIT1, "--orbit2", *ORBIT2,
               "--tf", "5000", "--samples", "50",
               "--out", str(tmp_path)])
    assert rc == 0
    data = np.genfromtxt(tmp_path / "trajectory.csv", delimiter=",",
                         names=True)
    assert data["t"].size == 50
    assert np.all(np.isfinite(data["dr_R"]))


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


def test_jobs_zero_reaches_the_config_check():
    args = build_parser().parse_args(["montecarlo", "--jobs", "0"])
    with pytest.raises(ValueError, match="^jobs must"):
        _load_cfg(args)
