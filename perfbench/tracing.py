"""Per-layer tracing by wrapping the package's public functions.

Each traced function is replaced, in every module namespace that binds
it, by a wrapper that counts calls and accumulates self time: the
wrapper's duration minus that of the traced calls nested inside it.  A few
counters ride on extra wrappers (solver ``nfev``, Kepler solves, validated
state constructions, bytes written).  The time spent outside any traced
call is reported as the remainder; the self times and the remainder add
up to the traced wall time by construction.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

MODULES = ("nodalrel", "nodalrel.frames", "nodalrel.relstate",
           "nodalrel.dynamics", "nodalrel.conjunction",
           "nodalrel.navigation", "nodalrel.missionsim", "nodalrel.cli")

#: Traced public functions per layer; each gives <layer>.<fn>.calls/.self_s.
LAYERS = {
    "navigation": ("measure", "predict_measurement", "ekf_update",
                   "ekf_propagate"),
    "dynamics": ("advance_true_anomaly", "unperturbed_flow", "propagate",
                 "cowell_propagate", "input_matrices"),
    "relstate": ("relative_position", "relative_position_batch",
                 "position_jacobians", "separation_distance",
                 "oe_from_classical"),
    "conjunction": ("c1_test", "zeta", "zeta_gradient", "c2_check",
                    "plan_avoidance"),
    "frames": ("relative_orientation", "wrap_angle"),
    "missionsim": ("build_truth", "run_montecarlo", "run_flyby",
                   "run_maneuver_sweep", "run_validation"),
}

#: File writers whose self time and output size make missionsim.write_s
#: and missionsim.bytes_written (``_write_csv`` carries the envelope CSV).
WRITERS = ("write_summary_json", "write_trajectory_csv", "write_filter_csv",
           "write_screening_csv", "_write_csv")

COUNTERS = ("dynamics.anomalies_solved", "dynamics.rhs_evals",
            "relstate.states_built", "conjunction.golden_evals",
            "missionsim.write_s", "missionsim.bytes_written")


def metric_names():
    """Every per-layer metric name with its unit."""
    out = []
    for layer, fns in LAYERS.items():
        for fn in fns:
            out.append((f"{layer}.{fn}.calls", "count"))
            out.append((f"{layer}.{fn}.self_s", "s"))
    units = {"missionsim.write_s": "s", "missionsim.bytes_written": "bytes"}
    out += [(name, units.get(name, "count")) for name in COUNTERS]
    out += [("trace.wall_s", "s"), ("trace.remainder_s", "s"),
            ("trace.overhead_pct", "%")]
    return out


class Tracer:
    """Install with ``with Tracer() as tr:``; read ``tr.metrics(...)``."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counters = Counter()
        self.top_s = 0.0
        self._write_depth = 0
        self._child = []      # nested-time accumulator per open span
        self._patches = []    # (owner, attribute, original)

    # -- spans -------------------------------------------------------
    def _span(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self.self_s[name] += dur - self._child.pop()
                self.calls[name] += 1
                if self._child:
                    self._child[-1] += dur
                else:
                    self.top_s += dur
            if after is not None:
                after(args, kwargs)
            return result
        return wrapper

    def _writer(self, span):
        """Count the bytes of a file written by the outermost writer."""
        @functools.wraps(span)
        def wrapper(path, *args, **kwargs):
            self._write_depth += 1
            try:
                result = span(path, *args, **kwargs)
            finally:
                self._write_depth -= 1
            if self._write_depth == 0:
                self.counters["missionsim.bytes_written"] += \
                    os.path.getsize(path)
            return result
        return wrapper

    def _counter(self, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(args, kwargs, result)
            return result
        return wrapper

    def _patch_everywhere(self, modules, attr, original, replacement):
        for mod in modules:
            if getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, replacement)

    # -- install / remove --------------------------------------------
    def __enter__(self):
        mods = [importlib.import_module(m) for m in MODULES]
        dynamics = importlib.import_module("nodalrel.dynamics")
        conjunction = importlib.import_module("nodalrel.conjunction")
        missionsim = importlib.import_module("nodalrel.missionsim")
        relstate = importlib.import_module("nodalrel.relstate")

        def anomalies(args, kwargs):
            dt = args[3] if len(args) > 3 else kwargs["dt"]
            self.counters["dynamics.anomalies_solved"] += int(np.size(dt))

        for layer, fns in LAYERS.items():
            home = importlib.import_module(f"nodalrel.{layer}")
            for fn in fns:
                original = getattr(home, fn)
                after = anomalies if fn == "advance_true_anomaly" else None
                self._patch_everywhere(
                    mods, fn, original,
                    self._span(f"{layer}.{fn}", original, after))

        for fn in WRITERS:
            original = getattr(missionsim, fn)
            self._patch_everywhere(
                mods, fn, original,
                self._writer(self._span(f"missionsim.write.{fn}", original)))

        def nfev(key):
            def count(_args, _kwargs, result):
                self.counters[key] += int(result.nfev)
            return count

        self._patch_everywhere(
            [dynamics], "solve_ivp", dynamics.solve_ivp,
            self._counter(dynamics.solve_ivp, nfev("dynamics.rhs_evals")))
        self._patch_everywhere(
            [conjunction], "minimize_scalar", conjunction.minimize_scalar,
            self._counter(conjunction.minimize_scalar,
                          nfev("conjunction.golden_evals")))

        def built(_args, _kwargs, _result):
            self.counters["relstate.states_built"] += 1

        for cls in (relstate.NodalRelativeState, relstate.ReferenceParams):
            original = cls.__dict__["__post_init__"]
            self._patches.append((cls, "__post_init__", original))
            cls.__post_init__ = self._counter(original, built)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    # -- report ------------------------------------------------------
    def metrics(self, wall_s: float, overhead_pct: float) -> dict:
        """Per-layer metric values for one traced interval of wall_s
        seconds; overhead_pct compares it with the same work untraced."""
        out = {}
        for layer, fns in LAYERS.items():
            for fn in fns:
                name = f"{layer}.{fn}"
                out[f"{name}.calls"] = self.calls[name]
                out[f"{name}.self_s"] = self.self_s[name]
        for name in COUNTERS:
            out[name] = self.counters[name]
        out["missionsim.write_s"] = sum(
            v for k, v in self.self_s.items()
            if k.startswith("missionsim.write."))
        out["trace.wall_s"] = wall_s
        out["trace.remainder_s"] = wall_s - self.top_s
        out["trace.overhead_pct"] = overhead_pct
        return out
