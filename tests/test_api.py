"""The public API is the pipeline: each function that ``nodalrel`` exports
is called by the package itself or used by the benchmark, each scenario
option is read by the code it configures, and every integration goes
through one driver."""

import ast
import dataclasses
import inspect
import re
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
