"""The P1 series stretch of a run: the conjugacy x = Phi(z1, z2), z1' = mu3
z1, z2' = mu4 z2, at a spiral P1 and at a node, its hand-off from DP5,
its agreement with DP5, its sample grid and its stop rules.

Agreement bounds are set from measurement, within a factor of two above
the largest value measured over the triples of each test and P1 type;
each test's comment gives that value.
"""

import math
import warnings

import numpy as np
import pytest

import lo_dynamics.integrate as integrate
from lo_dynamics import (
    StabilityType,
    Termination,
    build_params,
    detect_psi_zeros,
    enumerate_admissible,
    shoot_unstable_manifold,
)
from lo_dynamics.dynsys import P1_SERIES_ORDER, offset_field, p1_conjugacy
from lo_dynamics.integrate import (
    _SERIES_AMPLITUDE,
    _TYPE_I_STOP,
    DEFAULT_REL_TOL,
    _advance,
    _strict_sign_change,
)

_SPIRAL_PARAMS = [p for p in enumerate_admissible(31, 20)
                  if p.stability is StabilityType.SPIRAL_TYPE_II]
# type-I triples, P1 a node: (3,2,2) of the least eigenvalue ratio mu4/mu3,
# 5/3, (7,4,20) of the next, the nearly resonant (9,8,6), (11,8,4) and
# (19,16,12) (mu4/mu3 = 3.970, 5.978 and 9.0017) and (31,28,2), whose series
# has the smallest radius (6.5e-4)
_NODE_PARAMS = [build_params(*triple) for triple in
                [(3, 2, 2), (7, 4, 20), (9, 8, 6), (11, 8, 4), (19, 16, 12), (31, 28, 2)]]
# (m1, m2) of each coefficient of z1^m1 z2^m2, in the series' flat order
_EXPONENTS = [(d - j, j) for d in range(P1_SERIES_ORDER + 1) for j in range(d + 1)]


def _ids(params):
    return str(params.triple())


def _hand_off(traj):
    """The hand-off state (t, u, psi): the last DP5 state."""
    a = traj.stats.accepted
    return float(traj.t[a]), float(traj.u[a]), float(traj.psi[a])


def _stretch_error(traj, rel_tol):
    """The largest deviation of the series flow from the hand-off state's
    coordinates from a DP5 continuation at rel_tol from the hand-off state
    to the splice, or to the end of a run without one, at the
    continuation's samples, relative to the continuation's max-norm there."""
    t0, u0, psi0 = _hand_off(traj)
    ts, us, psis, *_ = _advance(traj.params, t0, u0, psi0, float(traj.t[traj.splice_index]),
                                rel_tol)
    ts, us, psis = (np.array(column) for column in (ts, us, psis))
    conj = p1_conjugacy(traj.params)
    z1, z2 = conj.invert(u0, psi0)
    u, psi = conj.states(z1 * np.exp(conj.lin.mu3 * (ts - t0)),
                         z2 * np.exp(conj.lin.mu4 * (ts - t0)))
    return float(np.max(np.maximum(np.abs(u - us), np.abs(psi - psis))
                        / np.maximum(np.abs(us), np.abs(psis))))


@pytest.mark.parametrize("params", _SPIRAL_PARAMS + _NODE_PARAMS, ids=_ids)
def test_invariance_residual_on_the_hand_off_circle(params, table_trajs):
    # the psi coefficients are lam_m U_m with lam_m = m1 mu3 + m2 mu4; at a
    # spiral the (m2, m1) row is the (m1, m2) row's conjugate (to rounding
    # on the real middle row, m1 = m2) and at a node every row is real.  On
    # the circle |z1| = |z2| = |z*| through the hand-off state's coordinates
    # z* (z2 = conj(z1)), or at a node the square max(|z1|, |z2|) = |z*|,
    # the residual of psi' = X2(u, psi) along the flow is below rel_tol/10
    # of |Phi(z)|, the hand-off rule's bound (measured at most 7.3e-3
    # rel_tol on the spirals, on (3,2,6), and 2.2e-3 rel_tol on the nodes,
    # on (9,8,6) and (11,8,4)); the u row, u' = psi, holds by construction
    conj = p1_conjugacy(params)
    mu3, mu4 = conj.lin.mu3, conj.lin.mu4
    lam = np.array([m1 * mu3 + m2 * mu4 for m1, m2 in _EXPONENTS])
    np.testing.assert_allclose(conj.rows[:, 1], lam * conj.rows[:, 0], rtol=1e-15, atol=0.0)
    theta = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
    radius = max(abs(z) for z in conj.invert(*_hand_off(table_trajs[params.triple()])[1:]))
    if conj.lin.spiral:
        mirror = [_EXPONENTS.index((m2, m1)) for m1, m2 in _EXPONENTS]
        np.testing.assert_allclose(conj.rows[mirror], conj.rows.conjugate(), rtol=1e-15,
                                   atol=0.0)
        z1 = radius * np.exp(1j * theta)
        z2 = z1.conjugate()
    else:
        assert not np.iscomplexobj(conj.rows)
        side = np.maximum(np.abs(np.cos(theta)), np.abs(np.sin(theta)))
        z1, z2 = radius * np.cos(theta) / side, radius * np.sin(theta) / side
    mono = np.array([z1 ** m1 * z2 ** m2 for m1, m2 in _EXPONENTS])
    u, psi = (conj.rows.T @ mono).real
    flow = ((lam * conj.rows[:, 1]) @ mono).real
    field = offset_field(params)
    residual = np.abs(flow - [field(a, b) for a, b in zip(u.tolist(), psi.tolist())])
    assert np.all(residual <= DEFAULT_REL_TOL / 10.0 * np.maximum(np.abs(u), np.abs(psi)))


def test_hand_off_rule(table_trajs):
    # each run leaves DP5 at its first accepted state with max-norm below
    # _SERIES_AMPLITUDE and both coordinates, by the linear guess, within
    # the series' radius; a spiral's series stretch ends at its first
    # sample with |w| inside the splice radius, where the linear tail takes
    # over, and a node's at its first sample with hypot(u, psi) below the
    # fixed type-I stop, the run's end, with no splice.  The run keeps the
    # conjugacy it handed off to
    for triple, traj in table_trajs.items():
        a, s = traj.stats.accepted, traj.splice_index
        conj = traj.conjugacy
        amp = np.maximum(np.abs(traj.u), np.abs(traj.psi))
        z1, z2 = conj.lin.coordinates(traj.u[:a + 1], traj.psi[:a + 1])
        ready = ((amp[:a + 1] < _SERIES_AMPLITUDE) & (np.abs(z1) < conj.radius(DEFAULT_REL_TOL))
                 & (np.abs(z2) < conj.radius(DEFAULT_REL_TOL)))
        assert np.flatnonzero(ready).tolist() == [a], triple
        assert traj.stats.series_samples == s - a > 0, triple
        if conj.lin.spiral:
            z = conj.invert(float(traj.u[a]), float(traj.psi[a]))[0]
            size = abs(z) * np.exp(conj.lin.mu3.real * (traj.t[a + 1:s + 1] - traj.t[a]))
            assert size[-1] < conj.splice_radius(DEFAULT_REL_TOL) <= size[:-1].min(), triple
            assert traj.stats.tail_samples > 0, triple
        else:
            radius = np.hypot(traj.u, traj.psi)
            assert radius[s] < _TYPE_I_STOP <= radius[a:s].min(), triple
            assert s == len(traj) - 1 and traj.stats.tail_samples == 0, triple


@pytest.mark.parametrize("params", _SPIRAL_PARAMS + _NODE_PARAMS, ids=_ids)
def test_series_matches_dp5_continuation(params, table_trajs):
    # from the hand-off state to the splice, or to a node's stop, the series
    # follows DP5 at rel_tol 1e-13 to the reference's own level (measured
    # at most 9.9e-12 on the spirals, on (5,4,8), and 2.6e-13 on the nodes,
    # on (3,2,2))
    bound = 2e-11 if params.stability is StabilityType.SPIRAL_TYPE_II else 5e-13
    assert _stretch_error(table_trajs[params.triple()], 1e-13) <= bound


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-12])
@pytest.mark.parametrize("triple", [(3, 2, 4), (5, 4, 6), (5, 4, 20),
                                    (3, 2, 2), (11, 8, 4), (31, 28, 2)])
def test_series_holds_its_tolerance(triple, rel_tol):
    # at a loose and a tight rel_tol the stretch follows DP5 at rel_tol
    # 1e-14 to that reference's level (measured at most 1.6e-12 on the
    # spirals, at 1e-12 on (5,4,20), and 1.0e-13 on the nodes, at 1e-6 on
    # (3,2,2)), and at least 10x closer than a DP5 continuation at the
    # run's own rel_tol does (measured: the continuation is off by 4.7e-6
    # to 4.4e-5 at 1e-6, and 6.1e-12 to 9.4e-11 at 1e-12, 17x the series'
    # deviation on (3,2,4); on the nodes by 5.4e-7 to 3.0e-6 and 1.6e-12 to
    # 2.1e-12, 33x on (11,8,4))
    params = build_params(*triple)
    traj = shoot_unstable_manifold(params, rel_tol=rel_tol)
    assert traj.stats.series_samples > 0
    error = _stretch_error(traj, 1e-14)
    assert error <= (3e-12 if params.stability is StabilityType.SPIRAL_TYPE_II else 2e-13)
    assert 10.0 * error <= _stretch_error(traj, rel_tol)


def test_stretch_is_no_coarser_than_dp5(table_trajs, monkeypatch):
    # the uniform grid has at least as many samples per unit time as DP5
    # takes steps over the same span with the series switched off
    # (measured: 1.09 to 1.18 times as many on the spirals, 1.16 to 1.20 on
    # the nodes)
    monkeypatch.setattr(integrate, "_SERIES_AMPLITUDE", 0.0)
    for triple, traj in table_trajs.items():
        a, s = traj.stats.accepted, traj.splice_index
        dp5 = shoot_unstable_manifold(traj.params)
        steps = np.count_nonzero((dp5.t > traj.t[a]) & (dp5.t <= traj.t[s]))
        assert s - a >= steps, triple
        spacing = np.diff(traj.t[a:s + 1])
        np.testing.assert_allclose(spacing, spacing[0], rtol=1e-9)


def test_t_max_inside_the_stretch(table_trajs):
    # t_max takes the place of the first sample at or past it, and the run
    # ends there on max_time, with no linear tail: on a spiral and on two
    # nodes
    for triple in ((3, 2, 4), (3, 2, 2), (31, 28, 2)):
        traj = table_trajs[triple]
        a, s = traj.stats.accepted, traj.splice_index
        h = float(traj.t[a + 1] - traj.t[a])
        for t_max in (0.5 * (traj.t[a] + traj.t[s]), float(traj.t[a + 40]),
                      float(traj.t[s - 1]) + 0.5 * h):
            timed = shoot_unstable_manifold(traj.params, t_max=t_max, max_crossings=10 ** 6)
            assert timed.terminated_by is Termination.MAX_TIME and timed.t_end == t_max, triple
            assert timed.stats.series_samples > 0 and timed.stats.tail_samples == 0, triple
            assert timed.t[-2] < t_max <= timed.t[-2] + h * (1.0 + 1e-9), triple
            assert len(detect_psi_zeros(timed)) == _strict_sign_change(timed.psi).sum(), triple


@pytest.mark.parametrize("triple", [(3, 2, 4), (5, 4, 20)])
def test_max_crossings_inside_the_stretch(triple, spirals):
    # the run ends on the first sample past the max_crossings-th zero, the
    # sign changes counted on from the DP5 steps
    traj = spirals[triple]
    a, s = traj.stats.accepted, traj.splice_index
    before = int(_strict_sign_change(traj.psi[:a + 1]).sum())
    inside = int(_strict_sign_change(traj.psi[a:s + 1]).sum())
    assert inside >= 2, triple
    for count in range(before + 1, before + inside + 1):
        counted = shoot_unstable_manifold(traj.params, max_crossings=count)
        changes = _strict_sign_change(counted.psi)
        assert counted.terminated_by is Termination.MAX_CROSSINGS, count
        assert counted.stats.series_samples > 0 and counted.stats.tail_samples == 0
        assert changes.sum() == count and changes[-1], count
        assert len(detect_psi_zeros(counted)) == count


@pytest.mark.parametrize("n, p", [(7, 4), (19, 16), (31, 30)])
def test_type_one_hands_off_at_huge_k(n, p):
    # at k = 10^9, where the launch takes thousands of DP5 steps on the
    # saddle's time scale 1/(k - 1), a type-I run still hands off to the
    # series and ends at the fixed stop, and neither the series, Newton's
    # method nor the samples raise a RuntimeWarning
    params = build_params(n, p, 10 ** 9)
    assert params.stability is StabilityType.CENTER_TYPE_I
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        traj = shoot_unstable_manifold(params)
    assert traj.terminated_by is Termination.CONVERGED_TO_P1
    assert traj.stats.series_samples > 0 and traj.stats.tail_samples == 0
    assert math.hypot(traj.u[-1], traj.psi[-1]) < _TYPE_I_STOP


def test_t_max_before_the_hand_off_builds_no_series(p324, traj324, monkeypatch):
    built = []

    def counted(params):
        built.append(params)
        return p1_conjugacy(params)

    monkeypatch.setattr(integrate, "p1_conjugacy", counted)
    t_max = float(traj324.t[traj324.stats.accepted]) - 1.0
    traj = shoot_unstable_manifold(p324, t_max=t_max)
    assert traj.terminated_by is Termination.MAX_TIME and traj.t_end == t_max
    assert traj.stats.series_samples == traj.stats.tail_samples == 0
    assert built == []
    shoot_unstable_manifold(p324)
    assert built == [p324]
