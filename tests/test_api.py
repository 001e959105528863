"""The public API is the pipeline: each function that ``nodalrel`` exports
is called by the package itself or used by the benchmark."""

import inspect
import re
from pathlib import Path

import nodalrel

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
