"""The closed-form spiral tail: its splice amplitude, its formula, its stop
rules, and its agreement with DP5 and with an mpmath Taylor integration.

The agreement bounds are set from measurement at the default rel_tol of
1e-10, within a factor of two above the largest value measured over the
triples of each test; each test's comment gives that value.
"""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

import lo_dynamics.integrate as integrate
from lo_dynamics import (
    StabilityType,
    Termination,
    Trajectory,
    build_params,
    crossing_report,
    detect_phi_hits,
    detect_psi_zeros,
    enumerate_admissible,
    linearize_p1,
    shoot_unstable_manifold,
)
from lo_dynamics.analysis import density_report
from lo_dynamics.dynsys import offset_field
from lo_dynamics.integrate import (
    _DEEP_FLOOR,
    DEFAULT_MAX_CROSSINGS,
    DEFAULT_REL_TOL,
    _advance,
    _linear_tail,
    _strict_sign_change,
    splice_amplitude,
)
from oracles import mpmath_orbit

_SPIRAL_PARAMS = [p for p in enumerate_admissible(31, 20)
                  if p.stability is StabilityType.SPIRAL_TYPE_II]


@pytest.fixture
def dp5_only(monkeypatch):
    """shoot_unstable_manifold with the splice switched off: DP5 to the end."""
    monkeypatch.setattr(integrate, "splice_amplitude", lambda params, rel_tol: 0.0)
    return shoot_unstable_manifold


def _amp(traj):
    return np.maximum(np.abs(traj.u), np.abs(traj.psi))


def test_table_has_17_spiral_triples():
    assert len(_SPIRAL_PARAMS) == 17


@pytest.mark.parametrize("rel_tol", [1e-8, DEFAULT_REL_TOL])
@pytest.mark.parametrize("params", _SPIRAL_PARAMS, ids=lambda p: str(p.triple()))
def test_splice_amplitude_bounds_field_remainder(params, rel_tol):
    # on and inside the max-norm square of radius delta around P1, the field
    # departs from its linearization by at most rel_tol/10 of the amplitude
    delta = splice_amplitude(params, rel_tol)
    lin = linearize_p1(params)
    field = offset_field(params)
    theta = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
    side = np.maximum(np.abs(np.cos(theta)), np.abs(np.sin(theta)))
    worst = {}
    for scale in (1.0, 0.5, 1e-3):
        ratios = []
        for c, s, m in zip(np.cos(theta), np.sin(theta), side):
            u, psi = scale * delta * c / m, scale * delta * s / m
            dpsi = field(u, psi)
            ratios.append(abs(dpsi - (lin.a * u + lin.b * psi)) / max(abs(u), abs(psi)))
        worst[scale] = max(ratios)
    assert max(worst.values()) <= rel_tol / 10.0
    # the Taylor bound is reached at the square's corners: delta is not
    # chosen far smaller than the bound allows
    assert worst[1.0] >= rel_tol / 40.0


@pytest.mark.parametrize("triple", [(3, 2, 4), (5, 4, 6)])
def test_linear_tail_is_the_matrix_exponential(triple):
    params = build_params(*triple)
    lin = linearize_p1(params)
    u0, psi0, h = 1e-13, -2e-13, 0.01
    t, u, psi, dpsi = _linear_tail(lin, 10.0, u0, psi0, h, 13.0)
    assert t[-1] == 13.0
    assert np.all(np.diff(t) > 0.0)
    np.testing.assert_allclose(np.diff(t)[:-1], h, rtol=1e-12)
    assert np.array_equal(dpsi, lin.a * u + lin.b * psi)
    jac = np.array([[0.0, 1.0], [lin.a, lin.b]])
    vals, vecs = np.linalg.eig(jac)
    coef = np.linalg.solve(vecs, np.array([u0, psi0], dtype=complex))
    tau = t - 10.0
    exact = (vecs @ (coef[:, None] * np.exp(np.outer(vals, tau)))).real
    amp = np.maximum(np.abs(exact[0]), np.abs(exact[1]))
    assert np.max(np.abs(u - exact[0]) / amp) < 1e-13
    assert np.max(np.abs(psi - exact[1]) / amp) < 1e-13


def test_type_one_runs_never_splice(table_trajs):
    for triple, traj in table_trajs.items():
        if traj.params.stability is StabilityType.CENTER_TYPE_I:
            assert traj.stats.tail_samples == 0, triple
            assert traj.stats.accepted == len(traj) - 1, triple


@pytest.mark.parametrize("triple", [(3, 2, 4), (5, 4, 6), (5, 4, 20)])
def test_spliced_run_keeps_the_dp5_prefix(triple, spirals, dp5_only):
    traj = spirals[triple]
    dp5 = dp5_only(traj.params)
    s = traj.stats.accepted
    for name in ("t", "u", "psi", "dpsi"):
        assert np.array_equal(getattr(traj, name)[:s + 1], getattr(dp5, name)[:s + 1]), name
    assert dp5.stats.tail_samples == 0


def _fine_tail(traj):
    """The fine tail grid of a spliced run, rebuilt: _linear_tail from the
    splice state, spaced by the last DP5 step h, up to t_max.  Returns its
    columns, the index of its first sample where a stop rule holds (the
    deep floor, max_crossings sign changes of psi counted from the launch,
    t_max), the reason, and m = max(1, floor(pi / (2 omega h))), the stride
    of the samples the run keeps."""
    s = traj.stats.accepted
    h = float(traj.t[s] - traj.t[s - 1])
    lin = linearize_p1(traj.params)
    fine = _linear_tail(lin, float(traj.t[s]), float(traj.u[s]), float(traj.psi[s]), h,
                        integrate.DEFAULT_T_MAX)
    t, u, psi, _ = fine
    count = np.cumsum(_strict_sign_change(np.concatenate((traj.psi[:s + 1], psi))))[s:]
    floor = np.maximum(np.abs(u), np.abs(psi)) < _DEEP_FLOOR
    full = count >= DEFAULT_MAX_CROSSINGS
    stop = int(np.flatnonzero(floor | full | (t >= integrate.DEFAULT_T_MAX))[0])
    reason = (Termination.CONVERGED_TO_P1 if floor[stop] else
              Termination.MAX_CROSSINGS if full[stop] else Termination.MAX_TIME)
    return fine, stop, reason, max(1, math.floor(math.pi / (2.0 * lin.mu3.imag * h)))


def test_splice_grid_and_stop_rules(spirals):
    for triple, traj in spirals.items():
        params, stats = traj.params, traj.stats
        s = stats.accepted
        amp = _amp(traj)
        # the splice state is the first DP5 state below delta
        delta = splice_amplitude(params, DEFAULT_REL_TOL)
        assert amp[s] < delta <= amp[:s].min(), triple
        assert stats.tail_samples == len(traj) - 1 - s > 0, triple
        # the kept samples lie m DP5 steps apart, m h at most a quarter-turn
        # and (m + 1) h more than one, and the stop sample follows within m h
        fine, stop, reason, m = _fine_tail(traj)
        h = traj.t[s] - traj.t[s - 1]
        lin = linearize_p1(params)
        assert m * h <= math.pi / (2.0 * lin.mu3.imag) < (m + 1) * h, triple
        gaps = np.diff(traj.t[s:])
        np.testing.assert_allclose(gaps[:-1], m * h, rtol=1e-9)
        assert 0.0 < gaps[-1] <= m * h * (1.0 + 1e-9), triple
        tail = slice(s + 1, None)
        assert np.array_equal(traj.dpsi[tail], lin.a * traj.u[tail] + lin.b * traj.psi[tail])
        # the stop rules act on the fine grid, and its stop sample ends the run
        assert traj.terminated_by is reason, triple
        assert traj.t_end == fine[0][stop], triple
        changes = _strict_sign_change(traj.psi)
        fine_amp = np.maximum(np.abs(fine[1][:stop + 1]), np.abs(fine[2][:stop + 1]))
        if triple == (5, 4, 6):
            # stops at the first sample below the deep floor
            assert traj.terminated_by is Termination.CONVERGED_TO_P1
            assert amp[-1] < _DEEP_FLOOR <= min(amp[:-1].min(), fine_amp[:-1].min())
            assert changes.sum() < DEFAULT_MAX_CROSSINGS
        else:
            # stops at the first sample past the 40th sign change
            assert traj.terminated_by is Termination.MAX_CROSSINGS, triple
            assert changes.sum() == DEFAULT_MAX_CROSSINGS and changes[-1], triple
            assert min(amp.min(), fine_amp.min()) >= _DEEP_FLOOR, triple


def test_tail_columns_are_the_linear_tail_prefix(spirals):
    # the columns hand over every m-th sample of the fine grid after the
    # splice state up to its stop, and the stop sample, once each: none
    # dropped, none repeated.  The run generates a prefix of that grid,
    # ending at the second sample past the flow's last psi zero it can count
    for triple, traj in spirals.items():
        s, count = traj.stats.accepted, traj.stats.tail_samples
        fine, stop, _, m = _fine_tail(traj)
        assert len(traj) == s + 1 + count, triple
        for name, column in zip(("t", "u", "psi", "dpsi"), fine):
            kept = np.append(column[m - 1:stop:m], column[stop])
            assert getattr(traj, name)[s + 1:].tobytes() == kept.tobytes(), (triple, name)
        before = int(_strict_sign_change(traj.psi[:s + 1]).sum())
        short = _linear_tail(linearize_p1(traj.params), float(traj.t[s]), float(traj.u[s]),
                             float(traj.psi[s]), float(traj.t[s] - traj.t[s - 1]),
                             integrate.DEFAULT_T_MAX, DEFAULT_MAX_CROSSINGS - before)
        assert stop < len(short[0]) <= len(fine[0]), triple
        if traj.terminated_by is Termination.MAX_CROSSINGS:
            assert len(short[0]) == stop + 2, triple
        for column, full in zip(short, fine):
            assert column.tobytes() == full[:len(column)].tobytes(), triple


def test_tail_events_lie_inside_their_segments(spirals):
    # a tail segment spans at most a quarter-turn, so it holds at most one
    # zero of each row of the flow, and each closed-form psi zero and phi0
    # hit lies strictly inside the sign change that brackets it: the clamp
    # in _level_crossings never acts
    for triple, traj in spirals.items():
        s, t = traj.stats.accepted, traj.t
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
    # the samples: the run rebuilt with every sample of the fine grid gives
    # the same crossing_report, at phi0 and off it, and density_report,
    # bit for bit
    for triple, traj in spirals.items():
        s, phi0 = traj.stats.accepted, traj.params.phi0
        fine, stop, reason, _ = _fine_tail(traj)
        columns = [np.concatenate((getattr(traj, name)[:s + 1], column[:stop + 1]))
                   for name, column in zip(("t", "u", "psi", "dpsi"), fine)]
        rebuilt = Trajectory(traj.params, *columns, traj.eps_start, traj.rel_tol, reason,
                             traj.stats.rejected, stop + 1)
        assert len(rebuilt) > len(traj) + 10 * traj.stats.tail_samples, triple
        assert rebuilt.stats == dataclasses.replace(traj.stats, tail_samples=stop + 1)
        for target in (phi0, phi0 + 2e-14):
            assert crossing_report(rebuilt, target) == crossing_report(traj, target), triple
        assert density_report(rebuilt) == density_report(traj), triple


def _eig_u(traj):
    """u(t) past the splice from numpy's eigenpair (mu, v) of J, written
    apart from the package: the flow from the splice state x* = 2 Re(z v)
    is 2 Re(z e^{mu tau} v)."""
    s = traj.stats.accepted
    lin = linearize_p1(traj.params)
    vals, vecs = np.linalg.eig(np.array([[0.0, 1.0], [lin.a, lin.b]]))
    mu, v = vals[np.argmax(vals.imag)], vecs[:, np.argmax(vals.imag)]
    z = np.linalg.solve(np.array([v, v.conj()]).T,
                        np.array([traj.u[s], traj.psi[s]], dtype=complex))[0]
    return lambda t: 2.0 * (z * v[0] * np.exp(mu * (t - traj.t[s]))).real


def _eig_roots(traj, level):
    """The times past the splice where _eig_u equals level: sign changes on
    a scan of 200 000 steps, each bisected to adjacent floats."""
    u = _eig_u(traj)
    grid = np.linspace(traj.t[traj.stats.accepted], traj.t_end, 200_001)
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
    # bracketed between the flow's extrema (measured: 2.0e-13 in t from the
    # eigen root at phi0 + 2e-14).  Near an extremum of u two hits fall in
    # one sample segment, and both are kept
    traj = spirals[(3, 2, 4)]
    phi0, s = traj.params.phi0, traj.stats.accepted
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
    timed = shoot_unstable_manifold(p324, t_max=30.0, max_crossings=10 ** 6)
    assert timed.terminated_by is Termination.MAX_TIME
    assert timed.t_end == 30.0 and timed.stats.tail_samples > 0
    assert timed.t[-2] < 30.0 - 0.5 * (timed.t[-3] - timed.t[-4])
    counted = shoot_unstable_manifold(p324, max_crossings=20)
    changes = _strict_sign_change(counted.psi)
    assert counted.terminated_by is Termination.MAX_CROSSINGS
    assert counted.stats.tail_samples > 0
    assert changes.sum() == 20 and changes[-1]
    assert len(detect_psi_zeros(counted)) == 20


def test_tail_ratios_are_exact(spirals):
    # the phi0 hits past the splice come from the flow's phase, pi/omega
    # apart: consecutive dilations divide by e^{pi/omega} (measured within
    # 3.8e-14, on (5,4,6)), and hit times strictly increase
    for triple, traj in spirals.items():
        params = traj.params
        hits = detect_phi_hits(traj, params.phi0)
        assert all(a.t < b.t for a, b in zip(hits, hits[1:])), triple
        t_splice = traj.t[traj.stats.accepted]
        tail = [h.dilation for h in hits if h.t > t_splice]
        assert len(tail) >= 26, triple
        exact = math.exp(math.pi / linearize_p1(params).mu3.imag)
        assert max(abs(b / a / exact - 1.0) for a, b in zip(tail, tail[1:])) <= 1e-13, triple


def _continuation(traj):
    """DP5 from the splice state to the same stop rules, without a tail."""
    s = traj.stats.accepted
    before = int(_strict_sign_change(traj.psi[:s + 1]).sum())
    ts, us, psis, dpsis, reason, rejected, tail = _advance(
        traj.params, float(traj.t[s]), float(traj.u[s]), float(traj.psi[s]),
        integrate.DEFAULT_T_MAX, traj.rel_tol, max_crossings=DEFAULT_MAX_CROSSINGS - before)
    assert tail == 0
    return Trajectory(traj.params, ts, us, psis, dpsis, None, traj.rel_tol, reason, rejected)


def test_tail_matches_dp5_continuation(spirals):
    # measured over the 17 triples: 3.4e-8 in zero times, 8.8e-8 relative
    # in zero offsets, 3.4e-8 in hit times, all on (5,4,6); this is the
    # continuation's own error (see test_spliced_zeros_match_fine_dp5)
    for triple, traj in spirals.items():
        cont = _continuation(traj)
        assert cont.terminated_by is traj.terminated_by, triple
        t_splice = traj.t[traj.stats.accepted]
        tail_zeros = [z for z in detect_psi_zeros(traj) if z.t > t_splice]
        cont_zeros = detect_psi_zeros(cont)
        assert len(tail_zeros) == len(cont_zeros) > 0, triple
        for a, b in zip(tail_zeros, cont_zeros):
            assert abs(a.t - b.t) <= 5e-8, triple
            assert abs(a.phi_offset - b.phi_offset) <= 1.5e-7 * abs(b.phi_offset), triple
            assert a.direction == b.direction, triple
        phi0 = traj.params.phi0
        tail_hits = [h for h in detect_phi_hits(traj, phi0) if h.t > t_splice]
        cont_hits = detect_phi_hits(cont, phi0)
        assert len(tail_hits) == len(cont_hits), triple
        for a, b in zip(tail_hits, cont_hits):
            assert abs(a.t - b.t) <= 5e-8, triple


@pytest.mark.parametrize("triple", [(3, 2, 4), (5, 4, 6), (5, 4, 12), (5, 4, 20)])
def test_spliced_zeros_match_fine_dp5(triple, spirals, dp5_only):
    # against DP5 at rel_tol 1e-13 the spliced zero offsets agree to 4.7e-9
    # relative on (5,4,6) and 3.5e-9 on the others, while default DP5
    # without the splice is off by up to 9.2e-8 (5,4,6) and 5.6e-8 (5,4,12).
    # Past the splice the zeros and their offsets come from the linear
    # flow's phase, so the cubic Hermite error of the tail grid does not
    # enter
    traj = spirals[triple]
    ref = detect_psi_zeros(dp5_only(traj.params, rel_tol=1e-13))
    zeros = detect_psi_zeros(traj)
    assert len(zeros) == len(ref)
    for a, b in zip(zeros, ref):
        assert abs(a.phi_offset - b.phi_offset) <= 9.4e-9 * abs(b.phi_offset)


def test_mpmath_zeros_straddling_the_splice(spirals):
    # Taylor integration at 20 digits of the same launch in offset
    # variables; zeros 1-5 come before the splice, 6-8 after it
    traj = spirals[(3, 2, 4)]
    zeros = detect_psi_zeros(traj)[:8]
    t_splice = traj.t[traj.stats.accepted]
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
        # measured 1.3e-9 on the time since the first zero, 2.8e-9 relative
        # on the offsets
        assert abs((z.t - zeros[0].t) - (tz - t1)) <= 3e-9
        # every float zero comes 2.48e-6 early: the launch steps control
        # psi ~ 1e-6 only to rel_tol * |u| with |u| ~ phi0, which shifts the
        # whole orbit in t without changing its offsets
        assert abs(z.t - tz) <= 3e-6
