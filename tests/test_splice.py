"""The closed-form spiral tail: its splice radius, its formula, its stop
rules, and its agreement with DP5 and with an mpmath Taylor integration.

The agreement bounds are set from measurement at the default rel_tol of
1e-10, within a factor of two above the largest value measured over the
triples of each test; each test's comment gives that value.
"""

import cmath
import dataclasses
import math

import mpmath
import numpy as np
import pytest

import lo_dynamics.integrate as integrate
from lo_dynamics.analysis import density_report
from lo_dynamics.dynsys import linearize_p1, p1_conjugacy
from lo_dynamics.integrate import (
    DEFAULT_MAX_CROSSINGS,
    DEFAULT_REL_TOL,
    Termination,
    Trajectory,
    _DEEP_FLOOR,
    _closed_form,
    _linear_flow,
    _run_end,
    _strict_sign_change,
    crossing_report,
    detect_phi_hits,
    detect_psi_zeros,
    shoot_unstable_manifold,
)
from lo_dynamics.params import (
    StabilityType,
    build_params,
    enumerate_admissible,
)
from oracles import (dp5_from_the_launch, dp5_run, fine_tail, hand_off_index, mpmath_orbit,
                     mpmath_p1_eigenvalues)

_SPIRAL_PARAMS = [p for p in enumerate_admissible(31, 20)
                  if p.stability is StabilityType.SPIRAL_TYPE_II]


def _dp5_only(traj, rel_tol=DEFAULT_REL_TOL):
    """traj's run again from DP5's start with the series and the splice
    switched off, to a little past its end, cut by the same end rules."""
    return dp5_from_the_launch(traj, traj.t_end + 1.0, rel_tol)


def _amp(traj):
    return np.maximum(np.abs(traj.u), np.abs(traj.psi))


def test_table_has_17_spiral_triples():
    assert len(_SPIRAL_PARAMS) == 17


@pytest.mark.parametrize("rel_tol", [1e-8, DEFAULT_REL_TOL])
@pytest.mark.parametrize("params", _SPIRAL_PARAMS, ids=lambda p: str(p.triple()))
def test_splice_amplitude_bounds_field_remainder(params, rel_tol):
    # the splice's amplitude is a radius r in the coordinate w: on the
    # circles |w| = r, r/2 and 1e-3 r the series' nonlinear terms Phi(w) -
    # L(w), all the tail drops, stay within rel_tol/10 of the linear part's
    # least max-norm (P1Linearization.least) there.  The bound N they are
    # held to is reached at the largest r to within 2x: N(2r) exceeds the
    # promise, and on the circle |w| = r the terms reach at least rel_tol/15
    # of it (measured: 0.921 to 0.995 of rel_tol/10 at 1e-10, on (3,2,20)
    # and (5,4,6)), so a radius that shrank by half would show
    conj = p1_conjugacy(params)
    lin, r = conj.lin, conj.splice_radius(rel_tol)
    assert conj.bound(2.0 * r) > rel_tol / 10.0 * lin.least * 2.0 * r
    ring = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False))
    worst = {}
    for scale in (1.0, 0.5, 1e-3):
        w = scale * r * ring
        u, psi = conj.states(w, w.conjugate())
        nonlinear = np.maximum(np.abs(u - w.real), np.abs(psi - (lin.mu3 * w).real))
        worst[scale] = float(nonlinear.max()) / (lin.least * scale * r)
    assert max(worst.values()) <= rel_tol / 10.0
    assert worst[1.0] >= rel_tol / 15.0


@pytest.mark.parametrize("triple", [(3, 2, 4), (5, 4, 6)])
def test_linear_tail_is_the_matrix_exponential(triple):
    # from a hand-off state inside the splice radius the first series
    # sample is the splice, and the tail is exp(J tau) applied to the
    # linear part (Re w, Re mu w) of the coordinate w it stores there
    params = build_params(*triple)
    lin = linearize_p1(params)
    u0, psi0 = 1e-14, -2e-14
    t, u, psi, dpsi, series, w_s = _closed_form(
        params, p1_conjugacy(params), 10.0, u0, psi0, 20.0, DEFAULT_REL_TOL)
    assert _run_end(t, u, psi, 20.0, 10 ** 6, False) == (len(t) - 1, Termination.MAX_TIME)
    assert t[-1] == 20.0 and series == 1 < len(t)
    t_s, t, u, psi, dpsi = t[0], t[1:], u[1:], psi[1:], dpsi[1:]
    assert 10.0 < t_s < t[0] and np.all(np.diff(t) > 0.0)
    np.testing.assert_allclose(np.diff(t)[:-1], math.pi / (2.0 * lin.mu3.imag), rtol=1e-12)
    assert np.array_equal(dpsi, lin.a * u + lin.b * psi)
    jac = np.array([[0.0, 1.0], [lin.a, lin.b]])
    vals, vecs = np.linalg.eig(jac)
    coef = np.linalg.solve(vecs, np.array([w_s.real, (lin.mu3 * w_s).real], dtype=complex))
    tau = t - t_s
    exact = (vecs @ (coef[:, None] * np.exp(np.outer(vals, tau)))).real
    amp = np.maximum(np.abs(exact[0]), np.abs(exact[1]))
    assert np.max(np.abs(u - exact[0]) / amp) < 1e-13
    assert np.max(np.abs(psi - exact[1]) / amp) < 1e-13


def test_type_one_runs_never_splice(table_trajs):
    # a type-I run hands off to the P1 series as a spiral run does, but has
    # no splice: no tail samples, no tail coordinate, and its series
    # samples run to its last sample
    for triple, traj in table_trajs.items():
        if traj.params.stability is StabilityType.CENTER_TYPE_I:
            assert traj.stats.series_samples > 0 and traj.conjugacy is not None, triple
            assert traj.stats.tail_samples == 0 and traj.tail_coordinate is None, triple
            assert (hand_off_index(traj) + traj.stats.series_samples == traj.splice_index
                    == len(traj) - 1), triple


@pytest.mark.parametrize("triple", [(3, 2, 4), (5, 4, 6), (5, 4, 20)])
def test_spliced_run_keeps_the_dp5_prefix(triple, spirals):
    traj = spirals[triple]
    dp5 = _dp5_only(traj)
    l, s = traj.stats.launch_samples, hand_off_index(traj)  # DP5's start and last state
    for name in ("t", "u", "psi", "dpsi"):
        assert np.array_equal(getattr(traj, name)[l:s + 1], getattr(dp5, name)[:s - l + 1]), name
    assert dp5.stats.series_samples == dp5.stats.tail_samples == 0


def test_splice_grid_and_stop_rules(spirals):
    for triple, traj in spirals.items():
        stats = traj.stats
        s, t = traj.splice_index, traj.t
        amp = _amp(traj)
        # the splice state is the first series sample with |w| inside the
        # splice radius, w falling by e^{alpha h} from the sample before
        lin = traj.conjugacy.lin
        radius = traj.conjugacy.splice_radius(DEFAULT_REL_TOL)
        size = abs(traj.tail_coordinate) * math.exp(-lin.mu3.real * (t[s] - t[s - 1]))
        assert abs(traj.tail_coordinate) < radius <= size, triple
        assert stats.tail_samples == len(traj) - 1 - s > 0, triple
        # the samples lie a quarter-turn q apart, the first within q of the
        # splice state
        q = math.pi / (2.0 * lin.mu3.imag)
        gaps = np.diff(t[s:])
        np.testing.assert_allclose(gaps[1:], q, rtol=1e-9)
        assert 0.0 < gaps[0] <= q * (1.0 + 1e-9), triple
        # each psi zero past the splice lies in the middle of its segment: the
        # samples around it are q/2 away, the one before unless it is the
        # splice state.  So |psi| at a sample is 1/sqrt(2) of its row's
        # amplitude, and falls by e^{alpha q} from one sample to the next
        zeros = np.array([z.t for z in detect_psi_zeros(traj) if z.t > t[s]])
        i = np.searchsorted(t, zeros, side="right") - 1
        assert i.min() >= s, triple
        np.testing.assert_allclose(t[i + 1] - zeros, q / 2.0, rtol=1e-9)
        np.testing.assert_allclose((zeros - t[i])[i > s], q / 2.0, rtol=1e-9)
        psi = traj.psi[s + 1:]
        np.testing.assert_allclose(np.abs(psi[1:] / psi[:-1]), math.exp(lin.mu3.real * q),
                                   rtol=1e-9)
        tail = slice(s + 1, None)
        assert np.array_equal(traj.dpsi[tail], lin.a * traj.u[tail] + lin.b * traj.psi[tail])
        # the first sample where a stop rule holds ends the run
        changes = _strict_sign_change(traj.psi)
        if triple == (5, 4, 6):
            # stops at the first sample below the deep floor
            assert traj.terminated_by is Termination.CONVERGED_TO_P1
            assert amp[-1] < _DEEP_FLOOR <= amp[:-1].min()
            assert changes.sum() < DEFAULT_MAX_CROSSINGS
        else:
            # stops at the first sample past the 40th sign change
            assert traj.terminated_by is Termination.MAX_CROSSINGS, triple
            assert changes.sum() == DEFAULT_MAX_CROSSINGS and changes[-1], triple
            assert amp.min() >= _DEEP_FLOOR, triple


def test_tail_columns_are_the_linear_tail_prefix(spirals):
    # the columns past the splice are _linear_flow from the stored tail
    # coordinate at the phases z1 + (i - 1/2) q, bit for bit, with z1 the
    # flow's first psi zero from its closed form and i counted here from the
    # first sample after the splice: none dropped, none repeated.  z1 is
    # checked against the exact eigenpair of J
    for triple, traj in spirals.items():
        s, count = traj.splice_index, traj.stats.tail_samples
        lin = linearize_p1(traj.params)
        omega = lin.mu3.imag
        t_s, u_s, psi_s = float(traj.t[s]), float(traj.u[s]), float(traj.psi[s])
        # psi = Re(mu z e^{mu tau}), z the tail coordinate, vanishes at
        # omega tau = pi/2 - arg(mu z) + j pi
        z = traj.tail_coordinate
        theta = math.pi / 2.0 - cmath.phase(lin.mu3 * z)
        z1 = (theta + math.floor(-theta / math.pi + 1.0) * math.pi) / omega
        assert 0.0 < z1 <= math.pi / omega, triple
        assert abs(_eig_row(traj, 1)(t_s + z1)) <= 1e-12 * max(abs(u_s), abs(psi_s)), triple
        q = math.pi / (2.0 * omega)
        first = math.floor(0.5 - z1 / q) + 1
        tau = z1 + (np.arange(first, first + count) - 0.5) * q
        assert tau[0] > 0.0 and tau[0] - q <= 0.0, triple
        u, psi = _linear_flow(lin, z, tau)
        for name, column in zip(("t", "u", "psi", "dpsi"),
                                (t_s + tau, u, psi, lin.a * u + lin.b * psi)):
            assert getattr(traj, name)[s + 1:].tobytes() == column.tobytes(), (triple, name)


def test_tail_continues_the_hand_off_coordinate(spirals):
    # one coordinate w = z* e^{mu (t - t_h)} from the hand-off sample at t_h,
    # z* = P1Conjugacy.invert of it, to the end: the stored tail coordinate
    # is w at the splice time t_s (measured within 7.1e-15 relative), the
    # splice sample is Phi(w) there, and each tail sample is the linear part
    # L(w) = (Re w, Re mu w) (within 7.1e-14 of its max-norm, the rounding
    # of t - t_s).  So the tail starts at L(w_s), not at the splice sample
    # Phi(w_s); over one turn at |w| = |w_s| the two differ by at most the
    # series' bound N(|w_s|) and rel_tol/10 of the linear part's least
    # max-norm, the splice's promise.  The run keeps the conjugacy it built
    for triple, traj in spirals.items():
        conj = traj.conjugacy
        lin, mu = conj.lin, conj.lin.mu3
        a, s = hand_off_index(traj), traj.splice_index
        w_s = traj.tail_coordinate
        z0, _ = conj.invert(float(traj.u[a]), float(traj.psi[a]))
        assert abs(w_s - z0 * cmath.exp(mu * (traj.t[s] - traj.t[a]))) <= 1.5e-14 * abs(w_s)
        x_s = conj.states(np.array([w_s]), np.array([w_s.conjugate()]))[:, 0]
        amp = _amp(traj)
        assert np.max(np.abs(x_s - [traj.u[s], traj.psi[s]])) <= 1e-15 * amp[s], triple
        w = w_s * np.exp(mu * (traj.t[s + 1:] - traj.t[s]))
        for column, row in ((traj.u, w.real), (traj.psi, (mu * w).real)):
            assert np.all(np.abs(column[s + 1:] - row) <= 1.5e-13 * amp[s + 1:]), triple
        ring = w_s * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False))
        u, psi = conj.states(ring, ring.conjugate())
        gap = np.max(np.maximum(np.abs(u - ring.real), np.abs(psi - (mu * ring).real)))
        assert gap <= min(conj.bound(abs(w_s)),
                          DEFAULT_REL_TOL / 10.0 * lin.least * abs(w_s)), triple


def test_a_tail_needs_its_coordinate(traj324):
    # the tail's events and gaps read the stored coordinate and the run's
    # conjugacy, so a trajectory with tail samples and no coordinate or no
    # conjugacy, or one without a tail and a coordinate, is refused
    traj = traj324
    columns = (traj.t, traj.u, traj.psi, traj.dpsi)
    stats = traj.stats
    for tail, coordinate, conj in ((stats.tail_samples, None, traj.conjugacy),
                                   (0, traj.tail_coordinate, traj.conjugacy),
                                   (stats.tail_samples, traj.tail_coordinate, None)):
        with pytest.raises(ValueError, match="tail coordinate"):
            Trajectory(traj.params, *columns, traj.rel_tol, traj.terminated_by,
                       stats.rejected, tail, stats.series_samples, coordinate, conj)


def test_tail_is_sampled_to_t_max_or_its_floor_bound(p324, monkeypatch):
    # the flow is evaluated once, at the tail's samples up to t_max or the
    # floor's bound whatever max_crossings is, and the cut over the whole
    # run (_run_end) trims them: each run is a prefix of the run with the
    # same t_max and no crossing rule, which keeps every sample (measured:
    # 229 tail samples on (3,2,4), of which a run to 40 crossings keeps 71)
    sizes = []

    def counted(lin, z, tau):
        sizes.append(np.size(tau))
        return _linear_flow(lin, z, tau)

    runs = [(p324, {}), (p324, {"t_max": 30.0, "max_crossings": 10 ** 6}),
            (p324, {"max_crossings": 20}), (build_params(5, 4, 6), {})]
    for params, options in runs:
        sizes.clear()
        monkeypatch.setattr(integrate, "_linear_flow", counted)
        traj = shoot_unstable_manifold(params, **options)
        monkeypatch.undo()
        whole = shoot_unstable_manifold(params, t_max=options.get("t_max", integrate.DEFAULT_T_MAX),
                                        max_crossings=10 ** 6)
        assert sizes == [whole.stats.tail_samples] and sizes[0] >= traj.stats.tail_samples > 0
        for name in ("t", "u", "psi", "dpsi"):
            assert np.array_equal(getattr(traj, name), getattr(whole, name)[:len(traj)]), options


def test_tail_events_lie_inside_their_segments(spirals):
    # a tail segment spans at most a quarter-turn, so it holds at most one
    # zero of each row of the flow, and each closed-form psi zero and phi0
    # hit lies strictly inside the sign change that brackets it: the clamp
    # in _level_crossings never acts
    for triple, traj in spirals.items():
        s, t = traj.splice_index, traj.t
        for events, y in ((detect_psi_zeros(traj), traj.psi),
                          (detect_phi_hits(traj, traj.params.phi0), traj.u)):
            i = np.flatnonzero(_strict_sign_change(y))
            i = i[i >= s]
            assert len(i) >= 26, triple
            tail = np.array([e.t for e in events[len(events) - len(i):]])
            assert np.all((t[i] < tail) & (tail < t[i + 1])), triple
            assert tail[0] > t[s] >= events[len(events) - len(i) - 1].t, triple


def test_reports_match_on_the_fine_tail(spirals):
    # past the splice the events and the gaps come from the flow, not from
    # the samples: the run rebuilt on the fine grid spaced by the last
    # series sample step, up to the same end, gives the same
    # crossing_report, at phi0 and off it, and density_report, bit for bit.
    # The fine grid's own stop scan names the same reason, at or before that
    # end, and its sign changes of psi are the run's zeros
    for triple, traj in spirals.items():
        s, phi0 = traj.splice_index, traj.params.phi0
        fine, stop, reason = fine_tail(traj, traj.t_end)
        assert reason is traj.terminated_by, triple
        columns = [np.concatenate((getattr(traj, name)[:s + 1], column))
                   for name, column in zip(("t", "u", "psi", "dpsi"), fine)]
        rebuilt = Trajectory(traj.params, *columns, traj.rel_tol, reason,
                             traj.stats.rejected, len(fine[0]), traj.stats.series_samples,
                             traj.tail_coordinate, traj.conjugacy, traj.stats.launch_samples)
        assert len(rebuilt) > len(traj) + 10 * traj.stats.tail_samples, triple
        assert rebuilt.stats == dataclasses.replace(traj.stats, tail_samples=len(fine[0]))
        for target in (phi0, phi0 + 2e-14):
            assert crossing_report(rebuilt, target) == crossing_report(traj, target), triple
        assert density_report(rebuilt) == density_report(traj), triple
        changes = int(_strict_sign_change(rebuilt.psi).sum())
        assert changes == len(detect_psi_zeros(traj)) == _strict_sign_change(traj.psi).sum()


def _eig_row(traj, row):
    """Row row (0: u, 1: psi) of the flow past the splice from the
    eigenpair (mu, v = (1, mu)) of J from the exact parameters (mpmath,
    rounded once), written apart from the package: the flow from the
    tail's first state x* = 2 Re(z v), the linear part of the tail
    coordinate w (Re w, Re mu w), is 2 Re(z e^{mu tau} v)."""
    s = traj.splice_index
    lin = linearize_p1(traj.params)
    with mpmath.workdps(30):
        mu = complex(mpmath_p1_eigenvalues(traj.params)[0])
    v = np.array([1.0, mu])
    w = traj.tail_coordinate
    z = np.linalg.solve(np.array([v, v.conj()]).T,
                        np.array([w.real, (lin.mu3 * w).real], dtype=complex))[0]
    return lambda t: 2.0 * (z * v[row] * np.exp(mu * (t - traj.t[s]))).real


def _eig_roots(traj, level):
    """The times past the splice where u (_eig_row) equals level: sign changes on
    a scan of 200 000 steps, each bisected to adjacent floats."""
    u = _eig_row(traj, 0)
    grid = np.linspace(traj.t[traj.splice_index], traj.t_end, 200_001)
    g = u(grid) - level
    roots = []
    for i in np.flatnonzero(_strict_sign_change(g)).tolist():
        a, b, ga = grid[i], grid[i + 1], g[i]
        while a < 0.5 * (a + b) < b:
            mid = 0.5 * (a + b)
            gm = u(mid) - level
            if (gm < 0.0) == (ga < 0.0):
                a, ga = mid, gm
            else:
                b = mid
        roots.append(0.5 * (a + b))
    return roots


def test_off_target_tail_hits_match_an_eigen_root(spirals):
    # a target other than phi0 is found past the splice on the flow's u row,
    # bracketed between the flow's extrema (measured: 3.0e-13 in t from the
    # eigen root at phi0 + 2e-14).  Near an extremum of u two hits fall in
    # one sample segment, and both are kept
    traj = spirals[(3, 2, 4)]
    phi0, s = traj.params.phi0, traj.splice_index
    extremum = [z for z in detect_psi_zeros(traj) if z.t > traj.t[s]][0]
    near_peak = phi0 + 0.99 * extremum.phi_offset
    assert 0.9 < (near_peak - phi0) / extremum.phi_offset < 1.0
    for target, count in ((phi0 + 2e-14, 1), (near_peak, 2)):
        hits = [h.t for h in detect_phi_hits(traj, target) if h.t > traj.t[s]]
        roots = _eig_roots(traj, target - phi0)
        assert len(hits) == len(roots) == count
        assert max(abs(a - b) for a, b in zip(hits, roots)) <= 1e-11
    i = np.searchsorted(traj.t, hits, side="right") - 1
    assert i[0] == i[1] and hits[0] < extremum.t < hits[1]


def test_tail_stops_at_t_max_and_max_crossings(p324):
    # t_max takes the place of the first sample at or past it
    q = math.pi / (2.0 * linearize_p1(p324).mu3.imag)
    timed = shoot_unstable_manifold(p324, t_max=30.0, max_crossings=10 ** 6)
    assert timed.terminated_by is Termination.MAX_TIME
    assert timed.t_end == 30.0 and timed.stats.tail_samples > 0
    assert timed.t[-2] < 30.0 <= timed.t[-2] + q
    assert timed.t[-2] - timed.t[-3] == pytest.approx(q, rel=1e-9)
    counted = shoot_unstable_manifold(p324, max_crossings=20)
    changes = _strict_sign_change(counted.psi)
    assert counted.terminated_by is Termination.MAX_CROSSINGS
    assert counted.stats.tail_samples > 0
    assert changes.sum() == 20 and changes[-1]
    assert len(detect_psi_zeros(counted)) == 20
    # a t_max sample past the last zero the run can count still ends it on
    # max_crossings; one before that zero ends it on t_max, one zero short
    z20 = detect_psi_zeros(counted)[19].t
    for t_max, reason, count in ((z20 + q / 4.0, Termination.MAX_CROSSINGS, 20),
                                 (z20 - q / 4.0, Termination.MAX_TIME, 19)):
        traj = shoot_unstable_manifold(p324, t_max=t_max, max_crossings=20)
        assert traj.terminated_by is reason and traj.t_end == t_max
        assert len(detect_psi_zeros(traj)) == _strict_sign_change(traj.psi).sum() == count


@pytest.mark.parametrize("triple", [(3, 2, 4), (5, 4, 6), (5, 4, 20)])
def test_zeros_equal_sign_changes_when_stopped_inside_the_tail(triple, spirals):
    # every zero is a sample sign change, whichever rule stops the tail and
    # wherever t_max falls: on, just before or just after a zero or a sample
    traj = spirals[triple]
    params, s = traj.params, traj.splice_index
    tail = [z.t for z in detect_psi_zeros(traj) if z.t > traj.t[s]]
    samples = traj.t[s + 1:s + 12].tolist()
    ulp = math.ulp(tail[6])
    t_maxes = [tail[3], tail[3] - ulp, tail[3] + ulp, tail[6] + 0.3, samples[5],
               samples[5] + ulp, samples[9] - ulp, 0.5 * (tail[8] + tail[9])]
    before = int(_strict_sign_change(traj.psi[:s + 1]).sum())
    for t_max in t_maxes:
        timed = shoot_unstable_manifold(params, t_max=t_max, max_crossings=10 ** 6)
        assert timed.terminated_by is Termination.MAX_TIME and timed.t_end == t_max
        assert len(detect_psi_zeros(timed)) == _strict_sign_change(timed.psi).sum(), t_max
    for count in (before + 1, before + 2, before + 13, len(tail) + before - 1):
        counted = shoot_unstable_manifold(params, max_crossings=count)
        assert counted.terminated_by is Termination.MAX_CROSSINGS
        assert len(detect_psi_zeros(counted)) == _strict_sign_change(counted.psi).sum() == count


def test_tail_ratios_are_exact(spirals):
    # the phi0 hits past the splice come from the flow's phase, pi/omega
    # apart: consecutive dilations divide by e^{pi/omega} (measured within
    # 3.8e-14, on (5,4,6)), and hit times strictly increase
    for triple, traj in spirals.items():
        params = traj.params
        hits = detect_phi_hits(traj, params.phi0)
        assert all(a.t < b.t for a, b in zip(hits, hits[1:])), triple
        t_splice = traj.t[traj.splice_index]
        tail = [h.dilation for h in hits if h.t > t_splice]
        assert len(tail) >= 26, triple
        exact = math.exp(math.pi / linearize_p1(params).mu3.imag)
        assert max(abs(b / a / exact - 1.0) for a, b in zip(tail, tail[1:])) <= 1e-13, triple


def _continuation(traj):
    """DP5 from the splice state to the same end rules, without a tail: to
    a little past the run's own end, so that the rules, not t_end, end it."""
    s = traj.splice_index
    before = int(_strict_sign_change(traj.psi[:s + 1]).sum())
    return dp5_run(traj.params, float(traj.t[s]), float(traj.u[s]), float(traj.psi[s]),
                   traj.t_end + 1.0, traj.rel_tol, DEFAULT_MAX_CROSSINGS - before)


def test_tail_matches_dp5_continuation(spirals):
    # measured over the 17 triples: 3.4e-8 in zero times, 8.8e-8 relative
    # in zero offsets, 3.4e-8 in hit times, all on (5,4,6); this is the
    # continuation's own error (see test_spliced_zeros_match_fine_dp5).
    # The continuation of (5,4,6) stops on its own 1e-290 floor one zero
    # and one hit short of the tail; test_546_last_zero_matches_mpmath
    # checks the last
    for triple, traj in spirals.items():
        cont = _continuation(traj)
        assert cont.terminated_by is traj.terminated_by, triple
        t_splice = traj.t[traj.splice_index]
        tail_zeros = [z for z in detect_psi_zeros(traj) if z.t > t_splice]
        cont_zeros = detect_psi_zeros(cont)
        extra = 1 if triple == (5, 4, 6) else 0
        assert len(tail_zeros) == len(cont_zeros) + extra > extra, triple
        for a, b in zip(tail_zeros, cont_zeros):
            assert abs(a.t - b.t) <= 5e-8, triple
            assert abs(a.phi_offset - b.phi_offset) <= 1.5e-7 * abs(b.phi_offset), triple
            assert a.direction == b.direction, triple
        phi0 = traj.params.phi0
        tail_hits = [h for h in detect_phi_hits(traj, phi0) if h.t > t_splice]
        cont_hits = detect_phi_hits(cont, phi0)
        assert len(tail_hits) == len(cont_hits) + extra, triple
        for a, b in zip(tail_hits, cont_hits):
            assert abs(a.t - b.t) <= 5e-8, triple


@pytest.mark.parametrize("triple", [(3, 2, 4), (5, 4, 6), (5, 4, 12), (5, 4, 20)])
def test_spliced_zeros_match_fine_dp5(triple, spirals):
    # against DP5 at rel_tol 1e-13 the spliced zero offsets agree to 4.4e-9
    # relative on (5,4,20) and 1.1e-9 on (5,4,6), while default DP5 without
    # the series and the splice is off by up to 9.2e-8 (5,4,6) and 5.6e-8
    # (5,4,12).  Zeros 1-5 of (3,2,4), 1 of (5,4,6) and 1-2 of (5,4,12) and
    # (5,4,20) lie in the series stretch (at most 4.4e-9).  Past the splice
    # the zeros and their offsets come from the linear flow's phase, so the
    # cubic Hermite error of the tail samples does not enter.  The reference
    # for (5,4,6) stops on its own 1e-290 floor after 28 zeros, one short of
    # the spliced run
    traj = spirals[triple]
    ref = detect_psi_zeros(_dp5_only(traj, 1e-13))
    zeros = detect_psi_zeros(traj)
    assert len(zeros) == len(ref) + (1 if triple == (5, 4, 6) else 0)
    for a, b in zip(zeros, ref):
        assert abs(a.phi_offset - b.phi_offset) <= 9.4e-9 * abs(b.phi_offset)


def test_546_last_zero_matches_mpmath(spirals):
    # zero 29 of (5,4,6), its phi0 hit and its gap, past the DP5-only
    # references above, against the linear flow exp(J tau) x* from the
    # tail's first state x* = (Re w, Re mu w), w the tail coordinate, at 40
    # digits, J and mu from the exact parameters: a findroot
    # root of each row, and the gap there as the closed form (n + 1) x^T P x
    # times the integrand's other factors at P1 (test_mpmath_tail_gaps),
    # exact to the state's 1e-290 at the hit.  Measured: 2.8e-14 (one ulp)
    # in the zero's time, 3.4e-14 relative in its offset, 0 in the hit's
    # time, 2.7e-13 relative in the gap, whose bar is 4.1e-10 of it
    traj = spirals[(5, 4, 6)]
    params = traj.params
    n, p, s = params.n, params.p, traj.splice_index
    zeros = detect_psi_zeros(traj)
    hits = detect_phi_hits(traj, params.phi0)
    report = density_report(traj)
    assert len(zeros) == len(hits) == len(report.log10_gaps) == 29
    zero, hit = zeros[28], hits[28]
    gap, bar = report.log10_gaps[28], report.log10_gap_errors[28]
    assert min(zero.t, hit.t) > traj.t[s] and bar < gap
    with mpmath.workdps(40):
        _, phi0, lam2 = mpmath_orbit(traj, start=s)
        a = 2 * n * (mpmath.mpf(n) / params.big_k - 1)
        b = mpmath.mpf(-n - 1)
        alpha, omega = b / 2, mpmath.sqrt(-(b * b + 4 * a)) / 2
        w, t_s = traj.tail_coordinate, mpmath.mpf(float(traj.t[s]))
        u0, psi0 = mpmath.mpf(w.real), alpha * w.real - omega * w.imag

        def linear(t):
            tau = t - t_s
            decay, cos = mpmath.exp(alpha * tau), mpmath.cos(omega * tau)
            sin = mpmath.sin(omega * tau) / omega
            return (decay * (u0 * cos + (psi0 - alpha * u0) * sin),
                    decay * (psi0 * cos + (a * u0 + (b - alpha) * psi0) * sin))

        t_zero = mpmath.findroot(lambda t: linear(t)[1] / linear(t)[0], mpmath.mpf(zero.t))
        t_hit = mpmath.findroot(lambda t: linear(t)[0] / linear(t)[1], mpmath.mpf(hit.t))
        u_zero = linear(t_zero)[0]
        psi_hit = linear(t_hit)[1]
        exact = ((n + 1) * psi_hit ** 2 / (2 * abs(b)) * (1 + lam2 * phi0 ** 2) ** (mpmath.mpf(p) / 2)
                 / (1 + phi0 ** 2) ** (mpmath.mpf(n + 4) / 2))
    assert abs(zero.t - float(t_zero)) <= 6e-14 and abs(hit.t - float(t_hit)) <= 6e-14
    assert abs(zero.phi_offset / float(u_zero) - 1.0) <= 7e-14
    assert abs(mpmath.mpf(10) ** gap - exact) <= mpmath.mpf(10) ** bar


def test_mpmath_zeros_straddling_the_splice(spirals):
    # Taylor integration at 20 digits of the same launch in offset
    # variables; zeros 1-5 lie in the series stretch, 6-8 past the splice
    traj = spirals[(3, 2, 4)]
    zeros = detect_psi_zeros(traj)[:8]
    t_splice = traj.t[traj.splice_index]
    assert zeros[4].t < t_splice < zeros[5].t
    with mpmath.workdps(20):
        sol, _, _ = mpmath_orbit(traj)
        exact = []
        for z in zeros:
            tz = mpmath.findroot(lambda s: sol(s)[1], mpmath.mpf(z.t))
            exact.append((float(tz), float(sol(tz)[0])))
    t1 = exact[0][0]
    for z, (tz, uz) in zip(zeros, exact):
        assert abs(z.phi_offset - uz) <= 1e-8 * abs(uz)
        # measured 1.1e-9 on the time since the first zero, 2.8e-9 relative
        # on the offsets
        assert abs((z.t - zeros[0].t) - (tz - t1)) <= 3e-9
        # each zero's time within 1.2e-9 (measured), where every zero came
        # 2.48e-6 early when DP5 launched off the saddle at s = 1e-6: the
        # launch steps controlled psi ~ 1e-6 only to rel_tol * |u|, |u| ~
        # phi0.  DP5 now starts at s0 = 0.1 from the saddle's series
        assert abs(z.t - tz) <= 2.5e-9
