"""The P1 series stretch of a run: the conjugacy x = Phi(z1, z2), z1' = mu3
z1, z2' = mu4 z2, at a spiral P1 and at a node, its hand-off from DP5,
its agreement with DP5, its sample grid and its stop rules.

Agreement bounds are set from measurement, within a factor of two above
the largest value measured over the triples of each test and P1 type;
each test's comment gives that value.
"""

import math
import warnings
from unittest import mock

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
from lo_dynamics.dynsys import P1_SERIES_ORDER, P1Conjugacy, offset_field, p1_conjugacy
from lo_dynamics.integrate import (
    _SERIES_AMPLITUDE,
    _TYPE_I_STOP,
    DEFAULT_REL_TOL,
    _hermite,
    _strict_sign_change,
)
from oracles import corner_defect, dp5_from_the_launch, dp5_run, hand_off_index

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
    a = hand_off_index(traj)
    return float(traj.t[a]), float(traj.u[a]), float(traj.psi[a])


def _stretch_error(traj, rel_tol):
    """The largest deviation of the series flow from the hand-off state's
    coordinates from a DP5 continuation at rel_tol from the hand-off state
    to the splice, or to the end of a run without one, at the
    continuation's samples, relative to the continuation's max-norm there."""
    t0, u0, psi0 = _hand_off(traj)
    cont = dp5_run(traj.params, t0, u0, psi0, float(traj.t[traj.splice_index]), rel_tol)
    ts, us, psis = cont.t, cont.u, cont.psi
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
    # of |Phi(z)|, the hand-off rule's bound (measured at most 7.7e-3
    # rel_tol on the spirals, on (3,2,14), and 2.2e-3 rel_tol on the nodes,
    # on (9,8,6) and (11,8,4), before the hand-off moved to each node's own
    # coordinates).  At a node the hand-off state's own coordinates bound
    # the rectangle |z1| <= r1, |z2| <= r2 on whose edge the residual is
    # read; the u row, u' = psi, holds by construction
    conj = p1_conjugacy(params)
    mu3, mu4 = conj.lin.mu3, conj.lin.mu4
    lam = np.array([m1 * mu3 + m2 * mu4 for m1, m2 in _EXPONENTS])
    np.testing.assert_allclose(conj.rows[:, 1], lam * conj.rows[:, 0], rtol=1e-15, atol=0.0)
    theta = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
    r1, r2 = (abs(z) for z in conj.invert(*_hand_off(table_trajs[params.triple()])[1:]))
    radius = max(r1, r2)
    if conj.lin.spiral:
        mirror = [_EXPONENTS.index((m2, m1)) for m1, m2 in _EXPONENTS]
        np.testing.assert_allclose(conj.rows[mirror], conj.rows.conjugate(), rtol=1e-15,
                                   atol=0.0)
        z1 = radius * np.exp(1j * theta)
        z2 = z1.conjugate()
    else:
        assert not np.iscomplexobj(conj.rows)
        side = np.maximum(np.abs(np.cos(theta)), np.abs(np.sin(theta)))
        z1, z2 = r1 * np.cos(theta) / side, r2 * np.sin(theta) / side
    mono = np.array([z1 ** m1 * z2 ** m2 for m1, m2 in _EXPONENTS])
    u, psi = (conj.rows.T @ mono).real
    flow = ((lam * conj.rows[:, 1]) @ mono).real
    field = offset_field(params)
    residual = np.abs(flow - [field(a, b) for a, b in zip(u.tolist(), psi.tolist())])
    assert np.all(residual <= DEFAULT_REL_TOL / 10.0 * np.maximum(np.abs(u), np.abs(psi)))


def _defect(conj, r1, r2):
    """The defect estimate of P1Conjugacy.defect from the rows directly:
    the divisor bound times N_8^2 / N_7, N_d = sum_j |U_(d,j)| r1^(d-j) r2^j."""
    size = [sum(abs(u) * r1 ** m1 * r2 ** m2 for u, (m1, m2) in zip(conj.rows[:, 0], _EXPONENTS)
                if m1 + m2 == d) for d in (P1_SERIES_ORDER - 1, P1_SERIES_ORDER)]
    return conj.scale * size[1] ** 2 / size[0]


def test_hand_off_rule(table_trajs):
    # each run leaves DP5 at its first accepted state with max-norm below
    # _SERIES_AMPLITUDE where the series' defect estimate at the state's own
    # coordinates (|z1|, |z2|), by the linear guess, is at most rel_tol/10
    # of the linear part's least max-norm; the launch samples before DP5's
    # start are no candidates.  A spiral's series stretch ends at its first
    # sample with |w| inside the splice radius, where the linear tail takes
    # over, and a node's at its first sample with hypot(u, psi) below the
    # fixed type-I stop, the run's end, with no splice.  The run keeps the
    # conjugacy it handed off to.  The estimate is N_8^2 / N_7 by Horner's
    # rule, equal to the sums of the rows to rounding, and at a spiral,
    # where r1 = r2, the estimate at the corner max(r1, r2)
    for triple, traj in table_trajs.items():
        l, a, s = traj.stats.launch_samples, hand_off_index(traj), traj.splice_index
        conj = traj.conjugacy
        bound = DEFAULT_REL_TOL / 10.0 * conj.lin.least
        amp = np.maximum(np.abs(traj.u), np.abs(traj.psi))[l + 1:a + 1]
        z1, z2 = conj.lin.coordinates(traj.u[l + 1:a + 1], traj.psi[l + 1:a + 1])
        sizes = list(zip(np.abs(z1).tolist(), np.abs(z2).tolist()))
        defect = np.array([conj.defect(r1, r2) for r1, r2 in sizes])
        ready = (amp < _SERIES_AMPLITUDE) & (defect <= bound * np.max(sizes, axis=1))
        assert np.flatnonzero(ready).tolist() == [a - l - 1], triple
        assert abs(defect[-1] / _defect(conj, *sizes[-1]) - 1.0) <= 1e-13, triple
        if conj.lin.spiral:
            r = max(sizes[-1])
            corner = conj.scale * conj.norms[-1] ** 2 / conj.norms[-2] * r ** 9
            assert abs(conj.defect(r, r) / corner - 1.0) <= 1e-13, triple
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
    # 1e-14 to that reference's level (measured at most 6.3e-13 on the
    # spirals, at 1e-6 on (5,4,20), and 1.1e-13 on the nodes, at 1e-6 on
    # (31,28,2)), and at least 10x closer than a DP5 continuation at the
    # run's own rel_tol does (measured: the continuation is off by 5.3e-7
    # to 6.2e-5 at 1e-6, and 1.7e-12 to 9.5e-11 at 1e-12, 35x the series'
    # deviation on (31,28,2)).  The hand-off's budget is min(rel_tol,
    # 1e-10)/10, so at 1e-6 the series is held as at 1e-10
    params = build_params(*triple)
    traj = shoot_unstable_manifold(params, rel_tol=rel_tol)
    assert traj.stats.series_samples > 0
    error = _stretch_error(traj, 1e-14)
    assert error <= (3e-12 if params.stability is StabilityType.SPIRAL_TYPE_II else 2e-13)
    assert 10.0 * error <= _stretch_error(traj, rel_tol)


def test_stretch_is_no_coarser_than_dp5(table_trajs):
    # the grid has at least as many samples per unit time as DP5 takes
    # steps over the same span with the series switched off.  It is
    # uniform, but at a node whose hand-off state carries the fast mode:
    # there it is spaced by |mu4| first, by |mu3| after
    for triple, traj in table_trajs.items():
        a, s = hand_off_index(traj), traj.splice_index
        dp5 = dp5_from_the_launch(traj, float(traj.t[s]) + 1.0, max_crossings=math.inf)
        steps = np.count_nonzero((dp5.t > traj.t[a]) & (dp5.t <= traj.t[s]))
        assert s - a >= steps, triple
        spacing = np.diff(traj.t[a:s + 1])
        lin = traj.conjugacy.lin
        slow = spacing[-2]
        fast = spacing[:np.count_nonzero(spacing < 0.99 * slow)]
        np.testing.assert_allclose(spacing[len(fast):-1], slow, rtol=1e-9)
        np.testing.assert_allclose(fast, slow * abs(lin.mu3 / lin.mu4), rtol=1e-9)


def test_t_max_inside_the_stretch(table_trajs):
    # t_max takes the place of the first sample at or past it, and the run
    # ends there on max_time, with no linear tail: on a spiral and on two
    # nodes
    for triple in ((3, 2, 4), (3, 2, 2), (31, 28, 2)):
        traj = table_trajs[triple]
        a, s = hand_off_index(traj), traj.splice_index
        for t_max in (0.5 * (traj.t[a] + traj.t[s]), float(traj.t[a + 40]),
                      0.5 * float(traj.t[s - 2] + traj.t[s - 1])):
            timed = shoot_unstable_manifold(traj.params, t_max=t_max, max_crossings=10 ** 6)
            assert timed.terminated_by is Termination.MAX_TIME and timed.t_end == t_max, triple
            assert timed.stats.series_samples > 0 and timed.stats.tail_samples == 0, triple
            last = len(timed) - 1  # the timed run is the run's prefix, t_max in its next segment
            assert np.array_equal(timed.t[:last], traj.t[:last]), triple
            assert traj.t[last - 1] < t_max <= traj.t[last], triple
            assert len(detect_psi_zeros(timed)) == _strict_sign_change(timed.psi).sum(), triple


@pytest.mark.parametrize("triple", [(3, 2, 4), (5, 4, 20)])
def test_max_crossings_inside_the_stretch(triple, spirals):
    # the run ends on the first sample past the max_crossings-th zero, the
    # sign changes counted on from the DP5 steps
    traj = spirals[triple]
    a, s = hand_off_index(traj), traj.splice_index
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
    t_max = float(traj324.t[hand_off_index(traj324)]) - 1.0
    traj = shoot_unstable_manifold(p324, t_max=t_max)
    assert traj.terminated_by is Termination.MAX_TIME and traj.t_end == t_max
    assert traj.stats.series_samples == traj.stats.tail_samples == 0
    assert built == []
    shoot_unstable_manifold(p324)
    assert built == [p324]


def _midpoint_error(traj):
    """The largest error of the Hermite cubic at the midpoint of each series
    segment, from the hand-off to the run's end, against the series flow
    Phi(z1 e^{mu3 tau}, z2 e^{mu4 tau}) from the hand-off state's
    coordinates, relative to the state's max-norm there."""
    a, end = hand_off_index(traj), len(traj) - 1
    conj = traj.conjugacy
    z1, z2 = conj.invert(float(traj.u[a]), float(traj.psi[a]))
    i = np.arange(a, end)
    t0, t1 = traj.t[i], traj.t[i + 1]
    mid = 0.5 * (t0 + t1)
    u = _hermite(mid, t0, t1, traj.u[i], traj.u[i + 1], traj.psi[i], traj.psi[i + 1])
    psi = _hermite(mid, t0, t1, traj.psi[i], traj.psi[i + 1], traj.dpsi[i], traj.dpsi[i + 1])
    tau = mid - traj.t[a]
    exact = conj.states(z1 * np.exp(conj.lin.mu3 * tau), z2 * np.exp(conj.lin.mu4 * tau))
    return float(np.max(np.maximum(np.abs(u - exact[0]), np.abs(psi - exact[1]))
                        / np.max(np.abs(exact), axis=0)))


@pytest.mark.parametrize("triple", [(29, 28, 2), (3, 2, 2)])
def test_node_grid_resolves_the_fast_mode(triple):
    # at rel_tol 1e-6 a node's series grid is spaced by |mu4| while the
    # fast mode |z2 e^{mu4 tau}| is above rel_tol/10 of |z1 e^{mu3 tau}|,
    # by |mu3| after.  (29,28,2) hands off with z2/z1 = 1.2e-8, below that
    # share: no fast stretch, and its samples are fewer than DP5's steps
    # over the same span (measured 85 against 138: DP5's steps there are
    # limited by its own stiff mode, |mu4| h near 1, not by the orbit).
    # (3,2,2) hands off with z2/z1 = 0.053 and starts on the |mu4| spacing.
    # Each segment's Hermite midpoint error against Phi stays within 1.5
    # times the slow mode's own cubic error (mu3 h)^4 / 384 at the spacing
    # h (measured 1.0 times on (29,28,2) and 0.13 on (3,2,2))
    rel_tol = 1e-6
    traj = shoot_unstable_manifold(build_params(*triple), rel_tol=rel_tol)
    lin = traj.conjugacy.lin
    a, end = hand_off_index(traj), len(traj) - 1
    z1, z2 = traj.conjugacy.invert(float(traj.u[a]), float(traj.psi[a]))
    h = integrate._SERIES_STEP * rel_tol ** 0.2 / abs(lin.mu3)
    first = traj.t[a + 1] - traj.t[a]
    if abs(z2) > rel_tol / 10.0 * abs(z1):
        assert first == pytest.approx(h * abs(lin.mu3 / lin.mu4), rel=1e-9)
    else:
        assert first == pytest.approx(h, rel=1e-9)
        dp5 = dp5_run(traj.params, float(traj.t[a]), float(traj.u[a]), float(traj.psi[a]),
                      float(traj.t[end]), rel_tol)
        assert end - a <= dp5.stats.accepted
    assert _midpoint_error(traj) <= 1.5 * (abs(lin.mu3) * h) ** 4 / 384.0


def test_the_hand_off_adds_no_error(table_trajs):
    # every table node shot twice, with the hand-off at the state's own
    # coordinates and with the corner rule it replaced (patched in).  The
    # two runs share every DP5 step up to the new rule's earlier hand-off
    # state; from that state a DP5 run at rel_tol 1e-13 is the reference,
    # read at its own samples past the corner rule's later hand-off, where
    # both runs are their series.  On every node the new rule's error is
    # at most 1.5x the corner rule's, whose DP5 steps past the shared state
    # add their own (measured: at most 0.029x, on (7,6,12); the new rule's
    # largest error 8.5e-13, the corner rule's 4.9e-11)
    nodes = [traj for traj in table_trajs.values() if not traj.conjugacy.lin.spiral]
    assert len(nodes) == 213
    with mock.patch.object(P1Conjugacy, "defect", corner_defect):
        corner = [shoot_unstable_manifold(traj.params) for traj in nodes]
    for new, old in zip(nodes, corner):
        a, b = hand_off_index(new), hand_off_index(old)
        assert a <= b and np.array_equal(new.t[:a + 1], old.t[:a + 1]), new.params.triple()
        ref = dp5_run(new.params, float(new.t[a]), float(new.u[a]), float(new.psi[a]),
                      float(old.t[-1]), 1e-13)
        late = ref.t >= old.t[b]
        exact = np.array([ref.u[late], ref.psi[late]])
        errors = []
        for run, i in ((new, a), (old, b)):
            conj = run.conjugacy
            z1, z2 = conj.invert(float(run.u[i]), float(run.psi[i]))
            tau = ref.t[late] - run.t[i]
            x = conj.states(z1 * np.exp(conj.lin.mu3 * tau), z2 * np.exp(conj.lin.mu4 * tau))
            errors.append(np.max(np.max(np.abs(x - exact), axis=0) / np.max(np.abs(exact), axis=0)))
        assert errors[0] <= 1.5 * errors[1], new.params.triple()
