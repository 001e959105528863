"""Reference computations the benchmark checks the program against.

Cartesian states come from the textbook perifocal route and motion from
an inertial two-body integration (scipy DOP853), neither of which calls
the program's propagators or element conversions.  The oracles the
repository's tests already hold are taken from there rather than copied
(``FROM_TESTS``): the RTN frame of a Cartesian state, the node-crossing
radii, the test generator of orbit pairs through a common point, the
information bound (which by design differentiates the program's exact
flow numerically) and the chi-square quantile of a sample sigma.
"""

from __future__ import annotations

import importlib
import math
import sys
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import minimize_scalar

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

#: Oracles of the repository's tests, by name and test module.  They are
#: imported on first use, because the test modules load pytest (and the
#: acceptance tests scipy.stats): memory of the benchmark's own, which
#: should not reach a workload's peak RSS before its checks.
FROM_TESTS = {"rtn_frame": "conftest", "crlb_final_range_sigma": "conftest",
              "node_crossing_radii": "test_conjunction",
              "pair_through_common_point": "test_conjunction",
              "sample_sigma_quantile": "test_acceptance"}


def __getattr__(name):
    if name not in FROM_TESTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(FROM_TESTS[name]), name)


RTOL = 1e-12
#: Dense samples of the separation before the bounded refinement.
SAMPLES = 20001


def elements_to_state(a, e, i, raan, argp, nu, mu):
    """Inertial position and velocity from classical elements (radians)."""
    p = a * (1.0 - e * e)
    r_pqw = p / (1.0 + e * math.cos(nu)) * np.array([math.cos(nu),
                                                     math.sin(nu), 0.0])
    v_pqw = math.sqrt(mu / p) * np.array([-math.sin(nu), e + math.cos(nu),
                                          0.0])
    cO, sO = math.cos(raan), math.sin(raan)
    ci, si = math.cos(i), math.sin(i)
    cw, sw = math.cos(argp), math.sin(argp)
    pqw_to_pci = np.array([
        [cO * cw - sO * sw * ci, -cO * sw - sO * cw * ci, sO * si],
        [sO * cw + cO * sw * ci, -sO * sw + cO * cw * ci, -cO * si],
        [sw * si, cw * si, ci],
    ])
    return pqw_to_pci @ r_pqw, pqw_to_pci @ v_pqw


def state_of(el, mu):
    """:func:`elements_to_state` for an object with a, e, i, raan, argp, nu."""
    return elements_to_state(el.a, el.e, el.i, el.raan, el.argp, el.nu, mu)


def two_body(r0, v0, t0, t1, mu, accel_rtn=None):
    """Dense inertial two-body solution from (r0, v0) at t0 to t1, with an
    optional constant acceleration fixed in the satellite's RTN frame."""
    a_rtn = None if accel_rtn is None else np.asarray(accel_rtn, dtype=float)
    rtn_frame = __getattr__("rtn_frame")

    def rhs(_t, y):
        r, v = y[:3], y[3:]
        acc = -mu / np.linalg.norm(r) ** 3 * r
        if a_rtn is not None:
            acc = acc + rtn_frame(r, v).T @ a_rtn
        return np.concatenate([v, acc])

    scale = np.concatenate([np.full(3, np.linalg.norm(r0)),
                            np.full(3, np.linalg.norm(v0))])
    sol = solve_ivp(rhs, (t0, t1), np.concatenate([r0, v0]), method="DOP853",
                    rtol=RTOL, atol=RTOL * scale, dense_output=True)
    if not sol.success:
        raise RuntimeError(f"two-body integration failed: {sol.message}")
    return sol.sol


def min_distance(sol1, sol2, t0, tf):
    """Minimum of |r2 - r1| over [t0, tf]: dense sampling, then a bounded
    refinement around the best sample.  Returns (t_min, d_min)."""
    t = np.linspace(t0, tf, SAMPLES)

    def dist(tt):
        return np.linalg.norm(sol2(tt)[:3] - sol1(tt)[:3], axis=0)

    d = dist(t)
    k = int(np.argmin(d))
    lo, hi = t[max(k - 1, 0)], t[min(k + 1, SAMPLES - 1)]
    res = minimize_scalar(lambda s: float(dist(s)), bounds=(lo, hi),
                          method="bounded", options={"xatol": 1e-10})
    if res.fun < d[k]:
        return float(res.x), float(res.fun)
    return float(t[k]), float(d[k])


def ascending_at(r, h1, h2) -> bool:
    """Whether the common point r lies on the ascending relative node
    (satellite 2 rising through plane 1), whose direction is h1 x h2."""
    return float(r @ np.cross(h1, h2)) > 0.0


def node_radii_gap(el1, el2) -> float:
    """Smaller radial gap (km) between two Earth orbits at the two
    crossings of their relative line of nodes (the tests' node oracle)."""
    radii = __getattr__("node_crossing_radii")(el1, el2)
    return min(abs(r1 - r2) for r1, r2 in radii.values())
