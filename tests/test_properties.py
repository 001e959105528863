"""Property tests over random valid (state, reference) pairs: the array
paths of the position and margin kernels against their scalar paths, and
the analytic Jacobians against central differences; and over random
element pairs, the nodal round trip."""

import math

import numpy as np
from hypothesis import assume, given, strategies as st

from nodalrel import (
    ClassicalElements,
    NodalRelativeState,
    ReferenceParams,
    RetrogradeSingularity,
    classical_from_oe,
    oe_from_classical,
    position_jacobians,
    relative_orientation,
    relative_position,
    wrap_angle,
    zeta,
    zeta_descending,
    zeta_gradient,
)
from nodalrel.conjunction import _node_margin_arrays
from nodalrel.relstate import _position_and_jacobians, _position_arrays

ANGLE = st.floats(-math.pi, math.pi)


@st.composite
def state_and_reference(draw):
    """A noncoplanar state whose satellite-2 eccentricity e2 <= 0.8, so the
    radius denominator 1 + e2 cos(nu2) stays at or above 0.2."""
    e1, nu1 = draw(st.floats(0.0, 0.8)), draw(ANGLE)
    ec, es = e1 * math.cos(nu1), e1 * math.sin(nu1)
    e2, phase = draw(st.floats(0.0, 0.8)), draw(ANGLE)
    t_half = math.tan(0.5 * draw(st.floats(1e-2, 3.0)))
    theta1 = draw(ANGLE)
    oe = NodalRelativeState(
        dtheta=draw(ANGLE), dp=draw(st.floats(-0.5, 1.5)),
        dxi_x=e2 * math.cos(phase) - ec, dxi_y=e2 * math.sin(phase) - es,
        dh_x=t_half * math.cos(theta1), dh_y=t_half * math.sin(theta1))
    return oe, ReferenceParams(p1=draw(st.floats(7e3, 5e8)), ec=ec, es=es)


PAIRS = st.lists(state_and_reference(), min_size=1, max_size=6)


def stacked(pairs):
    return (np.array([oe.as_array() for oe, _ in pairs]),
            np.array([eta.as_array() for _, eta in pairs]))


def rel_dev(a, b, scale) -> float:
    return float(np.abs(np.asarray(a) - np.asarray(b)).max()) / scale


@given(PAIRS)
def test_position_rows_match_scalar_path(pairs):
    r1, r2, q, b, dr, j_oe, j_eta = _position_arrays(*stacked(pairs),
                                                     jacobians=True)
    for i, (oe, eta) in enumerate(pairs):
        rp = relative_position(oe, eta)
        dr_s, j_oe_s, j_eta_s = _position_and_jacobians(oe, eta)
        # dr = r2 b - r1 e_R: its rounding scales with the radii.
        assert rel_dev([x[i] for x in dr], dr_s, rp.r1 + rp.r2) <= 1e-12
        assert rel_dev([x[i] for x in b], rp.b, 1.0) <= 1e-12
        assert rel_dev([r1[i], r2[i]], [rp.r1, rp.r2], rp.r2) <= 1e-12
        assert abs(q[i] - rp.q) <= 1e-12 * rp.q
        got = [[x[i] for x in row] for row in j_oe]
        assert rel_dev(got, j_oe_s, np.abs(j_oe_s).max()) <= 1e-12
        # j_eta can vanish (co-located orbits); in km per unit relative
        # change of p1 and per unit (ec, es) its scale is again the radii.
        units = np.array([eta.p1, 1.0, 1.0])
        got = [[x[i] for x in row] for row in j_eta]
        assert rel_dev(np.array(got) * units, j_eta_s * units,
                       rp.r1 + rp.r2) <= 1e-12


@given(PAIRS)
def test_margin_rows_match_scalar_path(pairs):
    asc, desc, d_oe, d_eta = _node_margin_arrays(*stacked(pairs),
                                                 gradient=True)
    for i, (oe, eta) in enumerate(pairs):
        # Both margins are dp -+ x with |x| <= |(dxi_x - dp ec, dxi_y - dp es)|
        # (both paths give exact zeros when that bound is 0).
        scale = abs(oe.dp) + math.hypot(oe.dxi_x - oe.dp * eta.ec,
                                        oe.dxi_y - oe.dp * eta.es) or 1.0
        assert rel_dev([asc[i], desc[i]],
                       [zeta(oe, eta), zeta_descending(oe, eta)],
                       scale) <= 1e-12
        g_oe, g_eta = zeta_gradient(oe, eta)
        got = np.broadcast_arrays(*d_oe, *d_eta)
        assert rel_dev([x[i] for x in got], np.concatenate([g_oe, g_eta]),
                       np.abs(g_oe).max()) <= 1e-12


def central_differences(f, x, steps):
    cols = []
    for j, h in enumerate(steps):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        cols.append((np.asarray(f(xp)) - np.asarray(f(xm))) / (2.0 * h))
    return np.stack(cols, axis=-1)


def split(z):
    return (NodalRelativeState.from_array(z[:6]),
            ReferenceParams.from_array(z[6:]))


@given(state_and_reference())
def test_position_jacobians_match_central_differences(pair):
    oe, eta = pair
    j_oe, j_eta = position_jacobians(oe, eta)
    x = np.concatenate([oe.as_array(), eta.as_array()])
    # Columns in km per unit step: p1 is stepped relative to itself.
    units = np.ones(9)
    units[6] = eta.p1
    fd = central_differences(lambda z: relative_position(*split(z)).dr,
                             x, 1e-6 * units)
    jac = np.hstack([j_oe, j_eta])
    assert rel_dev(jac * units, fd * units,
                   np.abs(jac * units).max()) <= 1e-6


@given(state_and_reference())
def test_zeta_gradient_matches_central_differences(pair):
    oe, eta = pair
    d_oe, d_eta = zeta_gradient(oe, eta)
    x = np.concatenate([oe.as_array(), eta.as_array()])
    # zeta is linear in dp and dxi; its curvature in dh scales as 1/|dh|^2.
    steps = np.full(9, 1e-6)
    steps[4:6] *= oe.dh
    steps[6] = 1e-6 * eta.p1
    fd = central_differences(lambda z: zeta(*split(z)), x, steps)
    grad = np.concatenate([d_oe, d_eta])
    assert rel_dev(grad, fd, np.abs(grad).max()) <= 1e-6


ELEMENTS = st.builds(ClassicalElements, a=st.floats(7e3, 5e4),
                     e=st.floats(0.005, 0.85), i=st.floats(0.05, 3.0),
                     raan=ANGLE, argp=ANGLE, nu=ANGLE)


@given(ELEMENTS, ELEMENTS)
def test_element_round_trip(el1, el2):
    try:
        rel = relative_orientation(el1, el2)
    except RetrogradeSingularity:
        rel = None
    assume(rel is not None and rel.gamma >= 1e-6)
    rec = classical_from_oe(*oe_from_classical(el1, el2))
    assert abs(rec.a2 - el2.a) <= 1e-9 * el2.a
    assert abs(rec.e2 - el2.e) <= 1e-9
    assert abs(rec.gamma - rel.gamma) <= 1e-9
    assert abs(wrap_angle(rec.theta1 - rel.theta1)) <= 1e-9
    assert abs(wrap_angle(rec.theta2 - rel.theta2)) <= 1e-9
