"""The public API is the pipeline: each function that ``nodalrel`` exports
is called by the package itself or used by the benchmark, each scenario
option is read by the code it configures, every integration goes through
one driver, and every function is entered by one of the six commands."""

import ast
import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import nodalrel
from nodalrel import dynamics
from nodalrel.missionsim import ScenarioConfig

ROOT = Path(__file__).resolve().parent.parent


def test_every_export_has_a_caller_outside_tests():
    package = "\n".join(path.read_text() for path in
                        sorted((ROOT / "src" / "nodalrel").glob("*.py"))
                        if path.name != "__init__.py")
    bench = "\n".join(path.read_text()
                      for path in sorted((ROOT / "perfbench").glob("*.py")))
    uncalled = [name for name, obj in sorted(vars(nodalrel).items())
                if not name.startswith("_") and inspect.isfunction(obj)
                and not re.search(rf"(?<!def )\b{name}\(", package)
                and not re.search(rf"\b{name}\b", bench)]
    assert uncalled == []


def test_every_config_field_is_read_outside_its_checks():
    # The package names a ScenarioConfig ``cfg`` wherever it reads one; the
    # class body (its checks) reads ``self`` and the JSON schema tables name
    # fields as strings, so neither counts. A field no ``cfg.<field>`` reads
    # decides no output.
    read = set()
    for path in sorted((ROOT / "src" / "nodalrel").glob("*.py")):
        read.update(node.attr for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "cfg")
    unread = [f.name for f in dataclasses.fields(ScenarioConfig)
              if f.name not in read]
    assert unread == []


def test_every_integration_goes_through_dop853():
    # The benchmark counts dynamics.rhs_evals by patching
    # dynamics.solve_ivp, so a solve_ivp call anywhere but the one driver
    # would go uncounted.
    calls = {path.name: len(re.findall(r"\bsolve_ivp\(", path.read_text()))
             for path in sorted((ROOT / "src" / "nodalrel").glob("*.py"))}
    assert {name: n for name, n in calls.items() if n} == {"dynamics.py": 1}
    assert "solve_ivp(" in inspect.getsource(dynamics._dop853)


def test_every_default_is_passed_by_keyword_outside_tests():
    # A parameter with a default that no call in the package or the
    # benchmark passes by name is set only where it is left out: it
    # decides no output and belongs in a constant.
    passed = set()
    for path in sorted([*(ROOT / "src" / "nodalrel").glob("*.py"),
                        *(ROOT / "perfbench").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                passed.update((name, kw.arg) for kw in node.keywords)
    unpassed = [f"{name}({param.name})"
                for name, obj in sorted(vars(nodalrel).items())
                if not name.startswith("_") and inspect.isfunction(obj)
                for param in inspect.signature(obj).parameters.values()
                if param.default is not param.empty
                and (name, param.name) not in passed]
    assert unpassed == []


#: The six commands a run of the package is made of, in a fresh interpreter
#: under sys.settrace from before the import, so that code run at import
#: counts.  The scenario commands read a tiny config that sets its target;
#: screen runs the README pair and a coplanar one.
TRACED_COMMANDS = """
import json, os, sys
from contextlib import redirect_stdout

out, codes = sys.argv[1], set()
sys.settrace(lambda frame, event, arg: codes.add(frame.f_code))
from nodalrel.cli import main
cfg = os.path.join(out, "cfg.json")
pair = ["--orbit1", "8900", "0.5", "10", "20", "0", "30",
        "--orbit2", "6800", "0.1", "40", "90", "30", "70"]
coplanar = [*pair[:7], "--orbit2", "6800", "0.1", "10", "20", "30", "70"]
with open(os.devnull, "w") as quiet, redirect_stdout(quiet):
    for argv in (["validate", "--out", out + "/validate"],
                 ["propagate", *pair, "--tf", "10000", "--samples", "50",
                  "--out", out + "/propagate"],
                 ["screen", *pair, "--tf", "20000"],
                 ["screen", *coplanar, "--tf", "20000"],
                 *([cmd, "--config", cfg, "--seed", "7", "--out",
                    out + "/" + cmd]
                   for cmd in ("flyby", "montecarlo", "maneuver"))):
        assert main(argv) == 0, argv
sys.settrace(None)
with open(os.path.join(out, "entered.json"), "w") as f:
    json.dump([(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name,
                c.co_varnames[:c.co_argcount + c.co_kwonlyargcount])
               for c in codes], f)
"""

#: Functions that no command enters, each with why it stays.
UNREACHED = {
    "missionsim.ScenarioConfig.paper_scale":
        "--paper-scale: 200 runs at a 5 s cadence, too slow for a test",
    # Reached only by the benchmark. ROADMAP item 1 retargets its tracer to
    # the private kernels; item 15 then moves these to the tests or retires
    # them with the forced C2, and item 7 gives the config writer a command.
    "navigation.predict_measurement": "traced by the benchmark (items 1, 15)",
    "relstate.relative_position": "traced by the benchmark (items 1, 15)",
    "relstate.position_jacobians": "traced by the benchmark (items 1, 15)",
    "relstate._reference_jacobian":
        "only position_jacobians calls it (items 1, 15)",
    "relstate.separation_distance":
        "traced by the benchmark; only the forced C2 calls it (items 1, 15)",
    "conjunction.c2_check.<locals>.distance[2]":
        "the forced C2 search, run by the benchmark's screen (items 1, 15)",
    "missionsim.config_to_dict":
        "the benchmark's workloads write their configs with it (item 7)",
    "missionsim._to_json": "only config_to_dict calls it (item 7)",
    "missionsim.<lambda>[1]": "_ANGLE's to-JSON half, only config_to_dict's "
                              "(item 7)",
}


def defined_functions() -> dict:
    """name -> (file, first line, name, parameters) of each def and lambda
    in src/nodalrel, as its code object reports them (a decorated def
    starts at its first decorator).  A name is the module and the
    qualified name, with "[k]" for the k-th of a repeated one."""
    found = []

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.Lambda)):
                name = getattr(child, "name", "<lambda>")
                args = child.args
                params = tuple(a.arg for a in (*args.posonlyargs, *args.args,
                                               *args.kwonlyargs))
                line = min([child.lineno, *(d.lineno for d in getattr(
                    child, "decorator_list", ()))])
                found.append((prefix + name, (str(path), line, name, params)))
                visit(child, path, f"{prefix}{name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted((ROOT / "src" / "nodalrel").glob("*.py")):
        visit(ast.parse(path.read_text()), path.resolve(),
              f"{path.stem}.")
    repeats, index, names = Counter(name for name, _ in found), Counter(), {}
    for name, key in sorted(found, key=lambda item: item[1][1]):
        if repeats[name] > 1:
            index[name] += 1
            name = f"{name}[{index[name]}]"
        names[name] = key
    return names


def test_every_function_is_reached_by_a_command(tmp_path):
    # Code that no command enters serves no step of the pipeline: it moves
    # to the tests or goes, unless UNREACHED says why it stays.
    (tmp_path / "cfg.json").write_text(json.dumps({
        "sample_dt": 1800.0, "mc_runs": 2,
        "target": {"a_km": 3.64e8, "e": 0.164, "i_deg": 3.06,
                   "raan_deg": 80.9, "argp_deg": 250.0, "nu_deg": 0.0}}))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", TRACED_COMMANDS,
                           str(tmp_path)], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    entered = {tuple(k[:3]) + (tuple(k[3]),) for k in json.loads(
        (tmp_path / "entered.json").read_text())}
    unreached = sorted(name for name, key in defined_functions().items()
                       if key not in entered)
    assert unreached == sorted(UNREACHED)
