"""Property tests over random valid (state, reference) pairs: the array
paths of the position and margin kernels against their scalar paths, the
analytic Jacobians and the filter's transition row against central
differences, the coast kernel's float path against its array path and
the filter's coast against the unperturbed flow, the propagator's forcing
against the input matrices, the soundness of the C2 search's plane bound;
over random element pairs, the nodal round trip and the soundness of C1;
and over random encounter specifications, the constructed collision."""

import math

import numpy as np
from hypothesis import assume, example, given, strategies as st

from nodalrel import (
    MU_EARTH,
    ClassicalElements,
    EncounterSpec,
    InfeasibleEncounter,
    NodalRelativeState,
    PerturbationInput,
    ReferenceParams,
    RetrogradeSingularity,
    ScenarioConfig,
    build_collision_scenario,
    c1_test,
    elements_to_cartesian,
    input_matrices,
    oe_from_classical,
    orbital_period,
    position_jacobians,
    relative_orientation,
    relative_position,
    separation_distance,
    unperturbed_flow,
    wrap_angle,
    zeta,
    zeta_gradient,
)
from nodalrel.conjunction import (_closing_speed, _node_margin_arrays,
                                  _node_margins, _plane_geometry,
                                  _plane_windows)
from nodalrel.dynamics import _anomaly_sweep, _nodal_rhs
from nodalrel.navigation import _coast
from nodalrel.relstate import (_floats, _kepler_pair, _position_arrays,
                               _radius_denominator, _reference_jacobian)

from conftest import classical_from_oe, reference_e1
from test_conjunction import node_crossing_radii

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
    oe_arr, eta_arr = stacked(pairs)
    r1, r2, q, b, dr, j_oe = _position_arrays(oe_arr, eta_arr,
                                              jacobians=True)
    dtheta, dp, dxx, dxy = oe_arr.T[:4]
    p1, ec, es = eta_arr.T
    c, s = np.cos(dtheta), np.sin(dtheta)
    j_eta = _reference_jacobian(
        c, s, _radius_denominator(c, s, dxx, dxy, ec, es), dp, p1, ec, r2, b)
    for i, (oe, eta) in enumerate(pairs):
        rp = relative_position(oe, eta)
        dr_s = rp.dr
        j_oe_s, j_eta_s = position_jacobians(oe, eta)
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
                       [zeta(oe, eta), _node_margins(oe, eta)[1]],
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


#: A state whose satellite 2 is circular: dxi = -(ec, es), so e2 = 0.
CIRCULAR_2 = (NodalRelativeState(dtheta=0.7, dp=0.2, dxi_x=-0.3, dxi_y=-0.1,
                                 dh_x=0.2, dh_y=-0.1),
              ReferenceParams(p1=1.2e4, ec=0.3, es=0.1))


def coast_window(pair, fraction):
    """60 s up to a quarter of the reference period, by fraction in [0, 1]."""
    eta = pair[1]
    quarter = 0.25 * orbital_period(eta.p1 / (1.0 - reference_e1(eta) ** 2),
                                    MU_EARTH)
    return 60.0 + fraction * max(quarter - 60.0, 0.0)


@example(CIRCULAR_2, 1.0)
@given(state_and_reference(), st.floats(0.0, 1.0))
def test_coast_transition_row_matches_central_differences(pair, fraction):
    oe, eta = pair
    dt = coast_window(pair, fraction)
    ends = eta.as_array(), unperturbed_flow(oe, eta, MU_EARTH, [dt])[1][0]
    x_t, phi = _coast(oe.as_array(), *ends, dt, MU_EARTH)

    def dtheta_t(x):  # offset, so that no difference crosses the wrap
        return wrap_angle(_coast(x, *ends, dt, MU_EARTH)[0][0] - x_t[0])

    fd = central_differences(dtheta_t, oe.as_array(), np.full(6, 1e-7))
    assert rel_dev(phi[0], fd, np.abs(phi[0]).max()) <= 1e-6


def kernel_scales(oe, eta):
    """Rounding scale of each :func:`_anomaly_sweep` output (nu1t, nu2t, c,
    s, dtheta, dxi_x, dxi_y, dh_x, dh_y, ec, es): one turn, the size of the
    angles they are computed from, times the output's amplitude (1 for the
    angles and the sweep's cosine and sine, e1 + e2, |dh| and e1)."""
    e1, e2 = reference_e1(eta), _kepler_pair(*_floats(oe, eta))[4]
    return 2.0 * math.pi * np.array([1.0] * 5 + [e1 + e2] * 2
                                    + [oe.dh] * 2 + [e1] * 2)


@example(CIRCULAR_2, [1.0])
@given(state_and_reference(), st.lists(st.floats(0.0, 1.0), min_size=1,
                                       max_size=5))
def test_coast_kernel_float_and_array_rows_agree(pair, fractions):
    # A float t takes the math path, an array the numpy path; angles
    # compared wrapped.
    oe, eta = pair
    kp, dh = _kepler_pair(*_floats(oe, eta)), (oe.dh_x, oe.dh_y)
    times = [3.0 * orbital_period(kp[2], MU_EARTH) * f for f in fractions]
    rows = np.array(_anomaly_sweep(kp, dh, np.array(times), MU_EARTH)).T
    scales = kernel_scales(oe, eta)
    for t, row in zip(times, rows):
        dev = np.array(_anomaly_sweep(kp, dh, t, MU_EARTH)) - row
        dev[[0, 1, 4]] = wrap_angle(dev[[0, 1, 4]])
        assert np.all(np.abs(dev) <= 1e-15 * scales)


#: A circular reference, whose phasor holds no anomaly for the coast to
#: read, and one whose e1 is subnormal, too small to hold it exactly.
CIRCULAR_1, SUBNORMAL_1 = ((CIRCULAR_2[0], ReferenceParams(7000.0, ec, 0.0))
                           for ec in (0.0, 5e-324))


@example(CIRCULAR_2, 1.0)
@example(CIRCULAR_1, 1.0)
@example(SUBNORMAL_1, 0.5)
@given(state_and_reference(), st.floats(0.0, 1.0))
def test_coast_mean_matches_unperturbed_flow(pair, fraction):
    # Both take the coast kernel's outputs, the coast at satellite 1's
    # anomaly read from the flow's reference: they agree as the kernel's
    # float and array rows do.
    oe, eta = pair
    dt = coast_window(pair, fraction)
    oe_flow, eta_flow = unperturbed_flow(oe, eta, MU_EARTH, [dt])
    x_t, _ = _coast(oe.as_array(), eta.as_array(), eta_flow[0], dt,
                    MU_EARTH)
    err = x_t - oe_flow[0]
    err[0] = wrap_angle(err[0])
    scales = kernel_scales(oe, eta)
    assert np.all(np.abs(err) <= 1e-15 * scales[[4, 4, 5, 6, 7, 8]])


@given(state_and_reference(), st.lists(st.floats(-1e-3, 1e-3), min_size=6,
                                       max_size=6))
def test_forced_rhs_matches_input_matrices(pair, u):
    # The propagator writes the forcing out over the nonzero entries; the
    # products G u of the input matrices must give the same increments.
    oe, eta = pair
    y = np.concatenate([oe.as_array(), eta.as_array()])
    pin = PerturbationInput(u1=np.array(u[:3]), u2=np.array(u[3:]))
    free = _nodal_rhs(0.0, y, None, MU_EARTH)
    increment = _nodal_rhs(0.0, y, lambda _t: pin, MU_EARTH) - free
    g1, g2, geta = input_matrices(oe, eta, MU_EARTH)
    expected = np.concatenate([g2 @ pin.u2 - g1 @ pin.u1, geta @ pin.u1])
    largest = max(np.abs(g * v).max() for g, v in
                  ((g1, pin.u1), (g2, pin.u2), (geta, pin.u1)))
    # Taking the free rate back off rounds at that rate's last bits.
    tol = 1e-12 * largest + 2.0 * np.spacing(np.abs(free) + largest)
    assert np.all(np.abs(increment - expected) <= tol)


#: share just below 1 rounds reach up to the larger floor r_p sin(gamma),
#: where no time is excluded and _plane_windows returns None.
ROUNDED_REACH = ((NodalRelativeState(0.0, 1.125, 0.0, 0.0, math.tan(1.0),
                                     0.0),
                  ReferenceParams(p1=7000.0, ec=0.0, es=0.0)),
                 1.0 - 2.0 ** -53, 1.0, 0.0)


@example(*ROUNDED_REACH)
@given(state_and_reference(), st.floats(1e-3, 1.0, exclude_max=True),
       st.floats(0.05, 2.0), st.floats(-2e6, 2e6))
def test_plane_windows_hold_every_close_approach(pair, share, revolutions,
                                                 t0):
    # The plane bound of the C2 search is sound: wherever the separation is
    # below the threshold, the time lies in one of the windows.  None
    # excludes no time: c2_check then searches all of [t0, tf].
    oe, eta = pair
    sin_gamma, sats = _plane_geometry(oe, _kepler_pair(*_floats(oe, eta)))
    reach = share * sin_gamma * max(a * (1.0 - e) for _, e, a, _ in sats)
    period = min(orbital_period(a, MU_EARTH) for _, _, a, _ in sats)
    tf = t0 + revolutions * period
    windows = _plane_windows(sin_gamma, sats, reach, t0, tf, MU_EARTH)
    if windows is None:
        windows = [(t0, tf)]
    t = np.linspace(t0, tf, 4001)
    close = t[separation_distance(
        *unperturbed_flow(oe, eta, MU_EARTH, t - t0)) < reach]
    lo, hi = np.array(windows).reshape(-1, 2).T
    assert np.all(((close[:, None] >= lo) & (close[:, None] <= hi)).any(1))


@given(state_and_reference(), st.floats(0.05, 2.0))
def test_separation_rate_within_closing_speed(pair, revolutions):
    # The C2 search skips a bracket where this rate bound shows that no
    # time in it can beat the best distance so far.
    oe, eta = pair
    _, sats = _plane_geometry(oe, _kepler_pair(*_floats(oe, eta)))
    period = min(orbital_period(a, MU_EARTH) for _, _, a, _ in sats)
    t = np.linspace(0.0, revolutions * period, 4001)
    d = separation_distance(*unperturbed_flow(oe, eta, MU_EARTH, t))
    assert np.all(np.abs(np.diff(d)) <= _closing_speed(sats, MU_EARTH)
                  * (t[1] - t[0]) * (1.0 + 1e-9) + 1e-9 * d.max())


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


# The hypothesis form of TestC1Branches.test_separated_pairs_fail_c1:
# orbits whose radii differ by 1 km or more at both relative-node
# crossings (by the Cartesian oracle) do not intersect.  Each margin is
# that crossing's radial gap r2 - r1 scaled by p2 / (r1 r2), so a gap of
# 1 km puts it far outside DEFAULT_NODE_TOL.  gamma stays 1e-3 from
# coplanar and from retrograde, where the rounding of the relative node
# (below) outgrows the absolute DEFAULT_NODE_TOL.
@given(ELEMENTS, ELEMENTS)
def test_separated_node_crossings_fail_c1(el1, el2):
    try:
        rel = relative_orientation(el1, el2)
    except RetrogradeSingularity:
        rel = None
    assume(rel is not None and 1e-3 <= rel.gamma <= math.pi - 1e-3)
    radii = node_crossing_radii(el1, el2)
    assume(min(abs(r1 - r2) for r1, r2 in radii.values()) >= 1.0)  # km
    verdict = c1_test(*oe_from_classical(el1, el2))
    assert not verdict.satisfied
    for margin, (r1, r2) in ((verdict.margin_ascending, radii["asc"]),
                             (verdict.margin_descending, radii["desc"])):
        gap = el2.p * (r2 - r1) / (r1 * r2)
        assert abs(margin - gap) <= 1e-8 * abs(gap)


# gamma stays 1e-4 from coplanar and from retrograde: the relative node
# that oe_from_classical extracts from the elements carries a rounding
# error of about 1e-15 / sin(gamma) rad, which moves zeta by as much, so
# closer to either end a constructed collision reads zeta beyond 1e-9.
# Satellite 1 stays at e1 <= 0.99: the element conversion's rounding grows
# as the orbit nears parabolic (e1 = 1 - 7e-6 misplaced it by 1.02e-11
# of the radius).  The relative speed is drawn as its radial part on top
# of the in-plane minimum, which most random speeds fall short of.
@example(gamma=1e-12, impact_nu=0.5, transverse_speed=18.0, radial=5.0,
         radial_sign=1.0)
@given(gamma=st.floats(1e-4, math.pi - 1e-4), impact_nu=ANGLE,
       transverse_speed=st.floats(0.01, 30.0), radial=st.floats(0.0, 30.0),
       radial_sign=st.sampled_from([-1.0, 1.0]))
def test_encounter_spec_builds_a_colliding_pair(gamma, impact_nu,
                                               transverse_speed, radial,
                                               radial_sign):
    cfg = ScenarioConfig()
    target = cfg.target
    vt2 = math.sqrt(cfg.mu / target.p) * (1.0 + target.e * math.cos(impact_nu))
    in_plane = (transverse_speed ** 2 + vt2 ** 2
                - 2.0 * transverse_speed * vt2 * math.cos(gamma))
    try:
        spec = EncounterSpec(relative_speed=math.sqrt(in_plane + radial ** 2),
                             gamma=gamma, impact_nu=impact_nu,
                             transverse_speed=transverse_speed,
                             radial_sign=radial_sign)
    except ValueError:
        return
    try:
        el1, el2 = build_collision_scenario(spec, target, cfg.mu)
    except InfeasibleEncounter:
        return
    assume(el1.e <= 0.99)
    s1 = elements_to_cartesian(el1, cfg.mu)
    s2 = elements_to_cartesian(el2, cfg.mu)
    # Both differences cancel: their rounding scales with the target's
    # radius and speed, not with the (possibly tiny) relative speed.
    assert (np.linalg.norm(s1.r - s2.r)
            <= 1e-11 * np.linalg.norm(s2.r))
    assert (abs(np.linalg.norm(s2.v - s1.v) - spec.relative_speed)
            <= 1e-11 * np.linalg.norm(s2.v))
    oe, eta = oe_from_classical(el1, el2)
    assert abs(zeta(oe, eta)) <= 1e-9
    assert c1_test(oe, eta).satisfied
