import dataclasses
import hashlib
import math

import mpmath
import numpy as np
import pytest

import lo_dynamics.integrate as integrate
from lo_dynamics import (
    PhiHit,
    PsiZero,
    StabilityType,
    Termination,
    Trajectory,
    build_params,
    crossing_report,
    detect_phi_hits,
    detect_psi_zeros,
    shoot_unstable_manifold,
)
from lo_dynamics.barrier import barrier_h, default_c
from lo_dynamics.dynsys import linearize_p1, offset_field
from lo_dynamics.errors import IntegrationFailure
from lo_dynamics.integrate import (
    _LAUNCH_START,
    DEFAULT_MAX_CROSSINGS,
    EVENT_TOL,
    _bisect,
    _linear_flow,
    _run_end,
    _segments,
    state_at,
)
from oracles import (PhaseState, advance_from, dense, dp5_run, hand_off_index,
                     mpmath_p1_eigenvalues, orbit_at, reference_integrate)


def test_type1_converges(p322, traj322):
    assert traj322.terminated_by is Termination.CONVERGED_TO_P1
    assert abs(traj322.phi[-1] - p322.phi0) < 1e-6
    assert traj322.t_end < 100.0


def test_type1_monotone(traj322):
    assert np.all(traj322.psi > 0.0)
    assert np.all(np.diff(traj322.u) > 0.0)


def test_launch_point(p324, traj324):
    mu1 = p324.k - 1
    norm = math.sqrt(1.0 + mu1 * mu1)
    s = _LAUNCH_START
    assert traj324.t[0] == pytest.approx(math.log(s) / mu1)
    assert traj324.phi[0] == pytest.approx(s / norm, rel=1e-9)
    assert traj324.psi[0] == pytest.approx(s * mu1 / norm, rel=1e-9)


def test_type2_crossings(p324, traj324):
    assert traj324.terminated_by is Termination.MAX_CROSSINGS
    zeros = detect_psi_zeros(traj324)
    assert len(zeros) >= 10
    assert zeros[0].phi > p324.phi0 > zeros[1].phi


def test_type2_alternating_envelopes(p324, traj324):
    zeros = detect_psi_zeros(traj324)
    offsets = [z.phi_offset for z in zeros]
    odd = offsets[0::2]
    even = offsets[1::2]
    assert all(a > 0.0 for a in odd) and all(b < 0.0 for b in even)
    assert all(odd[i] > odd[i + 1] for i in range(len(odd) - 1))
    assert all(even[i] < even[i + 1] for i in range(len(even) - 1))
    dirs = [z.direction for z in zeros]
    assert dirs == [(-1) ** (i + 1) for i in range(len(dirs))]


def test_type2_envelope_bounds(p324, traj324):
    zeros = detect_psi_zeros(traj324)
    phi0 = p324.phi0
    for z in zeros:
        assert 0.8 * phi0 - 1e-9 <= z.phi <= 1.2 * phi0 + 1e-9


def test_type2_phi_plus_psi_positive(traj324):
    assert np.all(traj324.phi + traj324.psi > 0.0)


def test_type2_distance_to_p1_decreasing(traj324):
    # both envelope subsequences close in on phi0: |phi_i - phi0| decreasing
    # across the interleaved sequence from the third crossing on, and far
    # below 1e-3 by the thirtieth
    offsets = [abs(z.phi_offset) for z in detect_psi_zeros(traj324)]
    assert all(a > b for a, b in zip(offsets[2:], offsets[3:]))
    assert offsets[29] < 1e-3


def test_546_envelope(p546, traj546):
    zeros = detect_psi_zeros(traj546)
    assert len(zeros) >= 4
    phi0 = p546.phi0
    offsets = [z.phi_offset for z in zeros]
    assert offsets[0] <= 0.2 * phi0 + 1e-9
    assert offsets[1] >= -0.2 * phi0 - 1e-9
    assert np.all(traj546.phi + traj546.psi > 0.0)


@pytest.mark.parametrize("triple", [(3, 2, 2), (3, 2, 4)])
@pytest.mark.parametrize("setting, message", [
    *(({"rel_tol": bad}, "rel_tol must be positive and finite")
      for bad in (math.nan, 0.0, -1.0)),
    *(({"max_crossings": bad}, "max_crossings must be at least 1") for bad in (0, -3)),
    *(({"t_max": bad}, "t_max must be positive and finite")
      for bad in (0.0, math.inf, math.nan, -math.inf, -10.0)),
])
def test_shoot_rejects_a_bad_setting(triple, setting, message):
    # checked on both types, also by the type that drops the setting: a
    # type-I run ignores max_crossings, and a spiral run at max_crossings 0
    # once ended max_crossings after one step.  Every launch sample lies at
    # t <= log(0.1)/(k-1) < 0, so a positive t_max is past the launch
    with pytest.raises(ValueError, match=message):
        shoot_unstable_manifold(build_params(*triple), **setting)


@pytest.mark.parametrize("rel_tol", [0.0, -1e-10, math.nan, math.inf])
def test_shoot_rejects_a_bad_rel_tol(p324, rel_tol):
    # NaN would end in a step-size underflow, inf in an 8.88 TiB tail grid
    with pytest.raises(ValueError, match="rel_tol must be positive and finite"):
        shoot_unstable_manifold(p324, rel_tol=rel_tol)


def test_type1_no_psi_zeros(traj322):
    assert detect_psi_zeros(traj322) == []


@pytest.mark.parametrize("t, psi, match", [
    ([0.0, 1.0, 1.0], [0.0, 0.0, 0.0], "times must be strictly increasing"),
    ([0.0, 2.0, 1.0], [0.0, 0.0, 0.0], "times must be strictly increasing"),
    ([0.0, math.nan, 2.0], [0.0, 0.0, 0.0], "times must be strictly increasing"),
    ([0.0, 1.0, 2.0], [0.0, math.inf, 0.0], "states must be finite"),
    ([0.0, 1.0, 2.0], [0.0, math.nan, 0.0], "states must be finite"),
])
def test_trajectory_refusals(p322, t, psi, match):
    zero = np.zeros(3)
    with pytest.raises(ValueError, match=match):
        Trajectory(p322, t, zero, psi, zero, 0.0, Termination.MAX_TIME)


def test_psi_zero_refinement_on_synthetic_sine(p322):
    t = np.arange(0.1, 10.0, 0.05)
    traj = Trajectory(p322, t, np.zeros_like(t), np.sin(t), np.cos(t), 0.0, Termination.MAX_TIME)
    zeros = detect_psi_zeros(traj)
    expected = [math.pi, 2 * math.pi, 3 * math.pi]
    assert len(zeros) == 3
    for z, e in zip(zeros, expected):
        assert abs(z.t - e) < 1e-8


def test_phi_hits_type1_single(p322, traj322):
    hits = detect_phi_hits(traj322, 0.5 * p322.phi0)
    assert len(hits) == 1
    assert hits[0].dilation == pytest.approx(math.exp(hits[0].t))


def test_phi_hits_above_orbit_empty(p322, traj322):
    assert detect_phi_hits(traj322, 2.0 * p322.phi0) == []


def test_phi_hits_count_grows_with_t_max(p324):
    short = shoot_unstable_manifold(p324, t_max=40.0, max_crossings=10 ** 6)
    long = shoot_unstable_manifold(p324, t_max=80.0, max_crossings=10 ** 6)
    n_short = len(detect_phi_hits(short, p324.phi0))
    n_long = len(detect_phi_hits(long, p324.phi0))
    assert n_short >= 10
    assert n_long > n_short


def test_crossing_report_structure(p324, traj324):
    rep = crossing_report(traj324)
    assert rep.target == p324.phi0
    times = [z.t for z in rep.psi_zeros]
    assert times == sorted(times)
    assert all(h.dilation > 0.0 for h in rep.phi_hits)
    hit_times = [h.t for h in rep.phi_hits]
    assert hit_times == sorted(hit_times)


def test_reference_integrate_identity(p322):
    s0 = PhaseState(0.1, 0.05, 2.0)
    out = reference_integrate(p322, s0, 2.0)
    assert out.phi == s0.phi and out.psi == s0.psi and out.t == s0.t


def test_reference_integrate_convergence_order(p322):
    s0 = PhaseState(0.1, 0.05, 0.0)
    exact = reference_integrate(p322, s0, 1.0, h=1e-5)
    e1 = reference_integrate(p322, s0, 1.0, h=0.02)
    e2 = reference_integrate(p322, s0, 1.0, h=0.01)
    err1 = math.hypot(e1.phi - exact.phi, e1.psi - exact.psi)
    err2 = math.hypot(e2.phi - exact.phi, e2.psi - exact.psi)
    assert 16.0 * 0.8 <= err1 / err2 <= 16.0 * 1.2


def test_adaptive_matches_rk4(p324):
    s0 = PhaseState(0.1, 0.05, 0.0)
    ref = reference_integrate(p324, s0, 3.0, h=2e-5)
    state = orbit_at(advance_from(p324, s0, 3.0), 3.0)
    assert abs(state.phi - ref.phi) < 1e-8
    assert abs(state.psi - ref.psi) < 1e-8


def test_type1_orbit_inside_barrier_region(p322, traj322):
    c = default_c(p322)
    for phi, psi, u in zip(traj322.phi, traj322.psi, traj322.u):
        assert -1e-9 <= psi <= barrier_h(phi, p322, c) + 1e-9
        assert u <= 1e-9 and phi >= -1e-9


def test_type1_orbit_inside_barrier_region_542(p542, traj542):
    c = default_c(p542)
    for phi, psi, u in zip(traj542.phi, traj542.psi, traj542.u):
        assert -1e-9 <= psi <= barrier_h(phi, p542, c) + 1e-9
        assert u <= 1e-9


@pytest.mark.parametrize("npk", [(7, 4, 2), (15, 8, 2)])
def test_type1_containment_large_n(npk):
    # the c = 1/2 region also confines the orbits of the n >= 7 family
    params = build_params(*npk)
    traj = shoot_unstable_manifold(params)
    assert traj.terminated_by is Termination.CONVERGED_TO_P1
    c = default_c(params)
    for phi, psi, u in zip(traj.phi, traj.psi, traj.u):
        assert -1e-9 <= psi <= barrier_h(phi, params, c) + 1e-9
        assert u <= 1e-9


def test_blowup_detected(p322):
    with pytest.raises(IntegrationFailure, match="initial state lies outside the bounded region"):
        advance_from(p322, PhaseState(2000.0 * p322.phi0, 0.0, 0.0), 1.0)


def test_eps_halving_stability(p324, traj324, monkeypatch):
    # the launch has no setting: its first sample's s, halved
    monkeypatch.setattr(integrate, "_LAUNCH_START", 0.5 * _LAUNCH_START)
    half = shoot_unstable_manifold(p324)
    za = detect_psi_zeros(traj324)
    zb = detect_psi_zeros(half)
    assert len(za) == len(zb)
    for a, b in zip(za, zb):
        assert abs(a.phi_offset - b.phi_offset) < 1e-7


def test_interpolation_matches_samples(traj322):
    for i in [0, len(traj322) // 2, len(traj322) - 1]:
        state = orbit_at(traj322, float(traj322.t[i]))
        assert state.phi == pytest.approx(traj322.phi[i], abs=1e-14)
        assert state.psi == pytest.approx(traj322.psi[i], abs=1e-14)


def test_trajectory_arrays_immutable(traj322):
    with pytest.raises(ValueError):
        traj322.u[0] = 1.0


def test_asymptotic_slope(p324, traj324):
    phi = traj324.phi
    mask = phi <= 10.0 * phi[0]
    slope = np.polyfit(traj324.t[mask], np.log(phi[mask]), 1)[0]
    assert slope == pytest.approx(p324.k - 1, rel=0.01)


def test_tolerances_recorded(traj322):
    assert traj322.rel_tol == 1e-10


# the launch series' samples before the DP5 steps, 419 at the default eps
# and rel_tol; P1 series samples after them, then a spiral run's
# closed-form tail samples, one per quarter-turn of the flow; type-I runs
# have no tail.  The earlier hand-off and the finer spacing (2.75 for 3.0
# rel_tol^(1/5) / |mu3|) took the series samples from 444, 882, 430 and 808
_LAUNCH_SAMPLES = 419
_SERIES_SAMPLES = {"traj322": 841, "traj324": 961, "traj542": 940, "traj546": 897}
_TAIL_SAMPLES = {"traj324": 71, "traj546": 56}


# accepted and rejected DP5 steps and termination of the session fixtures;
# (5,4,6) stops at the deep floor before 40 crossings.  The launch on the
# saddle's series and the hand-off took the accepted steps from 355, 281,
# 458 and 358, all with no rejected step; the ids keep the counts the
# cases were first pinned at, so that a re-pin leaves the test names
@pytest.mark.parametrize("fixture, accepted, rejected, reason", [
    ("traj322", 270, 0, Termination.CONVERGED_TO_P1),
    ("traj324", 211, 1, Termination.MAX_CROSSINGS),
    ("traj542", 373, 0, Termination.CONVERGED_TO_P1),
    ("traj546", 283, 0, Termination.CONVERGED_TO_P1),
], ids=["traj322-355-Termination.CONVERGED_TO_P1", "traj324-281-Termination.MAX_CROSSINGS",
        "traj542-458-Termination.CONVERGED_TO_P1", "traj546-358-Termination.CONVERGED_TO_P1"])
def test_step_sequence_pinned(request, fixture, accepted, rejected, reason):
    traj = request.getfixturevalue(fixture)
    stats = traj.stats
    assert traj.terminated_by is reason
    assert stats.accepted == accepted
    assert stats.launch_samples == _LAUNCH_SAMPLES
    assert stats.series_samples == _SERIES_SAMPLES.get(fixture, 0)
    assert stats.tail_samples == _TAIL_SAMPLES.get(fixture, 0)
    assert (stats.launch_samples + stats.accepted + stats.series_samples + stats.tail_samples
            == len(traj) - 1)
    assert stats.rejected == rejected
    assert stats.rhs_evals == 1 + 6 * (stats.accepted + stats.rejected)
    steps = np.diff(traj.t)[stats.launch_samples:hand_off_index(traj)]
    assert stats.h_min == steps.min() and stats.h_max == steps.max()


def test_table_work_pinned(table_trajs):
    # the whole (31, 20) table: a step that moved on any triple changes a
    # total.  The launch on the saddle's series and the hand-off at each
    # node's own coordinates took the DP5 steps from 186 321 (179 512 at the
    # nodes, 6 809 at the spirals), the rejected ones from 638 and the field
    # calls from 1 121 984; with the finer spacing the series samples rose
    # from 101 078 (86 621 at the nodes); the tail samples are unchanged
    stats = [traj.stats for traj in table_trajs.values()]
    type_one = [traj.params.stability is StabilityType.CENTER_TYPE_I
                for traj in table_trajs.values()]
    assert sum(s.accepted for s in stats) == 151_914
    assert sum(s.accepted for s, one in zip(stats, type_one) if one) == 146_646
    assert sum(s.accepted for s, one in zip(stats, type_one) if not one) == 5_268
    assert sum(s.rejected for s in stats) == 551
    assert sum(s.launch_samples for s in stats) == 96_370
    assert sum(s.series_samples for s, one in zip(stats, type_one) if one) == 135_867
    assert sum(s.series_samples for s in stats) == 152_155
    assert sum(s.tail_samples for s in stats) == 1_205
    assert sum(s.rhs_evals for s in stats) == 915_020
    ends = {}
    for (triple, traj), one in zip(table_trajs.items(), type_one):
        ends.setdefault((one, traj.terminated_by), []).append(triple)
    assert {key: len(triples) for key, triples in ends.items()} == {
        (True, Termination.CONVERGED_TO_P1): 213,
        (False, Termination.MAX_CROSSINGS): 16,
        (False, Termination.CONVERGED_TO_P1): 1,
    }
    assert ends[False, Termination.CONVERGED_TO_P1] == [(5, 4, 6)]


def test_type_one_runs_end_at_the_fixed_stop(table_trajs):
    # each real-eigenvalue run of the table ends at its first state with
    # hypot(u, psi) < 1e-8, a fixed rule that no setting moves
    type_one = [traj for traj in table_trajs.values()
                if traj.params.stability is StabilityType.CENTER_TYPE_I]
    assert len(type_one) == 213
    for traj in type_one:
        assert traj.terminated_by is Termination.CONVERGED_TO_P1, traj.params.triple()
        radius = [math.hypot(u, psi) for u, psi in zip(traj.u.tolist(), traj.psi.tolist())]
        assert radius[-1] < 1e-8 <= min(radius[:-1]), traj.params.triple()


def test_dpsi_column_is_the_field_bit_for_bit(table_trajs):
    # each DP5 sample carries the field at that state (the FSAL stage), each
    # series sample, of either P1 type, the field at its state evaluated on
    # arrays bit for bit as the scalar calls (dynsys.offset_field_at), each
    # closed-form tail sample a u + b psi; type-I runs have no tail
    for triple, traj in table_trajs.items():
        a, s = hand_off_index(traj), traj.splice_index
        assert s - a == traj.stats.series_samples, triple
        field = offset_field(traj.params)
        scalar = np.array([field(u, psi) for u, psi in zip(traj.u[:s + 1].tolist(),
                                                           traj.psi[:s + 1].tolist())])
        assert scalar.tobytes() == traj.dpsi[:s + 1].tobytes(), triple
        lin = linearize_p1(traj.params)
        tail = slice(s + 1, None)
        linear = lin.a * traj.u[tail] + lin.b * traj.psi[tail]
        assert linear.tobytes() == traj.dpsi[tail].tobytes(), triple


@pytest.mark.parametrize("n, p", [(3, 2), (5, 4)])
def test_first_zero_converges_in_k(n, p):
    # the peak |psi| grows with k (to 8.7e5 at (3,2,1e9)) while the peak phi
    # stays bounded, and the saddle's time scale is 1/(k - 1): the blow-up
    # bound is on phi alone and the step floor scales with 1/(k - 1)
    firsts = []
    for e in range(2, 10):
        zeros = detect_psi_zeros(shoot_unstable_manifold(build_params(n, p, 10 ** e)))
        assert len(zeros) == DEFAULT_MAX_CROSSINGS, e
        firsts.append(zeros[0])
    times = [z.t for z in firsts]
    assert all(a > b for a, b in zip(times, times[1:]))
    # from k = 10^6 on, within 2e-6 of the k = 10^9 value (1.4e-6 and 6.8e-7 measured)
    assert all(abs(t - times[-1]) < 2e-6 for t in times[4:])
    # the offsets phi - phi0 there too, within 7e-9 relative (measured:
    # 3.5e-9 on (3,2,10^6) and 6.8e-10 on (5,4,10^6); offsets 2.09e-2 and 5.46e-5)
    last = firsts[-1].phi_offset
    assert all(abs(z.phi_offset - last) <= 7e-9 * abs(last) for z in firsts[4:])


@pytest.mark.parametrize("n, p, omega_inf", [(3, 2, math.sqrt(2.0)), (5, 4, 1.0)])
def test_tail_ratios_converge_in_k(n, p, omega_inf):
    # past the splice consecutive phi0 hits lie pi/omega(k) apart, so their
    # dilations divide by e^{pi/omega(k)} (measured within 2.1e-14); as
    # omega^2 = omega_inf^2 - 2 n^2 / K with K = k (k + n - 1), that factor
    # exceeds e^{pi/omega_inf} by about pi n^2 / (K omega_inf^3) (0.8% more
    # at k = 100)
    limit = math.exp(math.pi / omega_inf)
    for e in range(2, 10):
        params = build_params(n, p, 10 ** e)
        traj = shoot_unstable_manifold(params)
        omega = linearize_p1(params).mu3.imag
        t_splice = traj.t[traj.splice_index]
        tail = [h.dilation for h in detect_phi_hits(traj, params.phi0) if h.t > t_splice]
        assert len(tail) >= 30, e
        exact = math.exp(math.pi / omega)
        assert all(abs(b / a / exact - 1.0) <= 1e-13 for a, b in zip(tail, tail[1:])), e
        assert 0.0 <= exact / limit - 1.0 <= 2.0 * math.pi * n * n / (params.big_k * omega_inf ** 3)


def test_rhs_evals_count_field_calls(monkeypatch, p324):
    calls = []
    real = integrate.offset_field

    def counting(params):
        dpsi = real(params)

        def wrapped(u, psi):
            calls.append(None)
            return dpsi(u, psi)

        return wrapped

    monkeypatch.setattr(integrate, "offset_field", counting)
    traj = advance_from(p324, PhaseState(1.0, -3.0, 0.0), 2.0)
    assert traj.stats.rejected == 2
    assert traj.stats.rhs_evals == len(calls) == 1 + 6 * (len(traj) - 1 + 2)


def test_rejected_steps_past_the_end_are_not_counted(monkeypatch, p324):
    # a run may integrate past its end before the cut finds it; its stats
    # count the kept run only.  DP5 alone from (1, -3) to t = 2 rejects 2
    # steps near t = 1, past the first psi zero near t = 0.518: cut there,
    # the run's field calls up to its last state's FSAL stage are its
    # rhs_evals, with no rejected step
    import lo_dynamics.integrate as integrate

    calls = []
    real = integrate.offset_field

    def recording(params):
        dpsi = real(params)

        def wrapped(u, psi):
            calls.append((u, psi))
            return dpsi(u, psi)

        return wrapped

    assert advance_from(p324, PhaseState(1.0, -3.0, 0.0), 2.0).stats.rejected == 2
    monkeypatch.setattr(integrate, "offset_field", recording)
    traj = dp5_run(p324, 0.0, 1.0 - p324.phi0, -3.0, 2.0, max_crossings=1)
    assert traj.terminated_by is Termination.MAX_CROSSINGS and traj.t_end < 0.55
    assert traj.stats.rejected == 0
    assert traj.stats.rhs_evals == calls.index((traj.u[-1], traj.psi[-1])) + 1 < len(calls)


# runs that end before or near the hand-off, each pinned bit for bit: the
# sha256 of its columns (t, u, psi, dpsi), its StepStats, its reason and
# whether it kept no conjugacy.  (3,2,6) and (3,2,20) cross once before the
# hand-off, (3,2,4) first in the series stretch; (3,2,2) hands off at t =
# 3.72 (4.1 before the hand-off read each node's own coordinates).  The ids
# keep the digests the cases were first pinned at, so that a re-pin leaves
# the test names
_FIRST_PINNED = ["0676e2689c5751213cce097db7509557", "f682f80908d3da3efbfa609c0d436cc2",
                 "eeea8a921cf618971a3d192489be7471", "72df88b5cf86dd4c1061047ed9eda97d",
                 "ca4c9f42b26265bfec597888a9d3e0a3", "4072dcca6f1c4ff4f46e833ee7d26c3e"]
_NEAR_HAND_OFF = [
    ((3, 2, 6), {"max_crossings": 1}, "e02954badcf906cb192adccce443dbea",
     (217, 2, 1315, 0.0010000000000000009, 0.01932427139828674, 419, 0, 0),
     Termination.MAX_CROSSINGS, True),
    ((3, 2, 20), {"max_crossings": 1}, "3f473a6e8154df8fbab01087681cd537",
     (298, 4, 1813, 0.0010000000000000009, 0.01526385514427897, 419, 0, 0),
     Termination.MAX_CROSSINGS, True),
    ((3, 2, 4), {"max_crossings": 1}, "2313a35a0dc90ebfbf6615dad0320e8d",
     (211, 1, 1273, 0.0010000000000000009, 0.021490729178234025, 419, 25, 0),
     Termination.MAX_CROSSINGS, False),
    ((3, 2, 4), {"t_max": 2.5}, "2261baafc339e3b9e6f9ca79bf0a3928",
     (211, 1, 1273, 0.0010000000000000009, 0.021490729178234025, 419, 20, 0),
     Termination.MAX_TIME, False),
    ((3, 2, 2), {"t_max": 3.0}, "4788f9009fb16bfbf0dd3f78c9f97048",
     (247, 0, 1483, 0.0003956748356737094, 0.04215980809857056, 419, 0, 0),
     Termination.MAX_TIME, True),
    ((3, 2, 2), {"t_max": 6.0}, "6af6193c0adb087983449bc2f9a700e0",
     (270, 0, 1621, 0.0009999999999998899, 0.04215980809857056, 419, 208, 0),
     Termination.MAX_TIME, False),
]


@pytest.mark.parametrize("triple, options, digest, stats, reason, no_conjugacy", _NEAR_HAND_OFF,
                         ids=[f"triple{i}-options{i}-{first}-stats{i}-{case[4]}-{case[5]}"
                              for i, (first, case) in enumerate(zip(_FIRST_PINNED, _NEAR_HAND_OFF))])
def test_runs_ending_near_the_hand_off_are_pinned(triple, options, digest, stats, reason,
                                                  no_conjugacy):
    traj = shoot_unstable_manifold(build_params(*triple), **options)
    h = hashlib.sha256()
    for column in (traj.t, traj.u, traj.psi, traj.dpsi):
        h.update(column.tobytes())
    assert h.hexdigest()[:32] == digest
    assert dataclasses.astuple(traj.stats) == stats
    assert traj.terminated_by is reason and (traj.conjugacy is None) is no_conjugacy


def test_run_end_rules_and_their_order():
    # one sample where two rules hold is named by the earlier rule: the
    # floor or the node radius, then max_crossings sign changes counted from
    # the first sample (a zero sample is none), then t_max.  The node rule
    # acts only at a node; where no rule holds the last sample ends the run
    t = np.arange(5.0)
    u = np.array([1.0, 1.0, 1.0, 0.0, 1.0])
    psi = np.array([1.0, 0.0, -1.0, 1e-300, 1e-9])  # one sign change, at sample 3
    assert _run_end(t, u, psi, 10.0, 1, False) == (3, Termination.CONVERGED_TO_P1)
    assert _run_end(t, u, psi, 3.0, 1, False) == (3, Termination.CONVERGED_TO_P1)
    psi[3] = 1.0
    assert _run_end(t, u, psi, 3.0, 1, False) == (3, Termination.MAX_CROSSINGS)
    assert _run_end(t, u, psi, 3.0, 2, False) == (3, Termination.MAX_TIME)
    assert _run_end(t, u, psi, 10.0, 2, False) == (4, Termination.CONVERGED_TO_P1)
    assert _run_end(t, u, psi, 10.0, math.inf, True) == (4, Termination.CONVERGED_TO_P1)
    near = np.array([1.0, 1.0, 1.0, 1e-9, 1.0])  # hypot 1.4e-9 at sample 3
    assert _run_end(t, near, near, 3.0, math.inf, False) == (3, Termination.MAX_TIME)
    assert _run_end(t, near, near, 3.0, math.inf, True) == (3, Termination.CONVERGED_TO_P1)
    assert _run_end(t, near, near, 10.0, math.inf, True) == (3, Termination.CONVERGED_TO_P1)
    assert _run_end(t, near, near, 10.0, math.inf, False) == (4, Termination.CONVERGED_TO_P1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("stage", [2, 4, 6, 7])
def test_nonfinite_stage_is_rejected(monkeypatch, p322, stage, bad):
    # field call `stage` of the first attempt (call 1 is the initial k1)
    # returns a non-finite dpsi; stage 6 spoils psi_new alone, stage 7 (the
    # FSAL stage at the new state) only the error estimate.  The attempt
    # is rejected with err = inf, so the retry takes 0.2 of the first step
    import lo_dynamics.integrate as integrate

    real = integrate.offset_field

    def poisoned(params):
        dpsi = real(params)
        calls = []

        def wrapped(u, psi):
            calls.append(None)
            return bad if len(calls) == stage else dpsi(u, psi)

        return wrapped

    monkeypatch.setattr(integrate, "offset_field", poisoned)
    traj = advance_from(p322, PhaseState(0.5, 0.3, 0.0), 1.0)
    assert traj.stats.rejected >= 1
    assert traj.t[1] == 1e-3 * 0.2


def _loop_phi_hits(traj, target, segments=None):
    """Sample-by-sample scan through the Hermite dense output: the reference.
    segments (a range) limits the scan to sign changes on those segments."""
    u_target = target - traj.params.phi0
    g = traj.u - u_target
    t = traj.t
    hits = []
    for i in segments or range(len(t) - 1):
        if g[i] == 0.0:
            if i == 0 or g[i - 1] != 0.0:
                hits.append(PhiHit(t=float(t[i]), dilation=math.exp(t[i])))
        elif g[i] < 0.0 < g[i + 1] or g[i + 1] < 0.0 < g[i]:
            tz = float(_bisect(lambda s: dense(t, s, (traj.u, traj.psi))[0] - u_target,
                               t[i], t[i + 1], g[i], g[i + 1]))
            hits.append(PhiHit(t=tz, dilation=math.exp(tz)))
    if segments is None and len(t) >= 2 and g[-1] == 0.0 and g[-2] != 0.0:
        hits.append(PhiHit(t=float(t[-1]), dilation=math.exp(t[-1])))
    return hits


def _loop_psi_zeros(traj, segments=None):
    zeros = []
    psi, t = traj.psi, traj.t
    for i in segments or range(len(t) - 1):
        if psi[i] < 0.0 < psi[i + 1] or psi[i + 1] < 0.0 < psi[i]:
            tz = float(_bisect(lambda s: dense(t, s, (psi, traj.dpsi))[0],
                               t[i], t[i + 1], psi[i], psi[i + 1]))
            offset = float(dense(t, tz, (traj.u, psi))[0])
            zeros.append(PsiZero(t=tz, phi=traj.params.phi0 + offset, phi_offset=offset,
                                 direction=-1 if psi[i] > 0.0 else 1))
    return zeros


def _eig_tail_roots(traj, row):
    """(t, u) at each zero of row (0: u, 1: psi) of the linear flow from the
    tail's first state (Re w, Re mu w), w the tail coordinate, that falls on
    a tail segment with a sign change of that row, written apart from the
    package: with the eigenpair (mu, v = (1, mu)) of J from the exact
    parameters (mpmath, rounded once), mu = alpha + i omega, the flow is 2
    Re(z e^{mu tau} v), so row r vanishes where omega tau + arg(z v_r) =
    pi/2 mod pi."""
    s = traj.splice_index
    lin = linearize_p1(traj.params)
    with mpmath.workdps(30):
        mu = complex(mpmath_p1_eigenvalues(traj.params)[0])
    v = np.array([1.0, mu])
    w = traj.tail_coordinate
    z = np.linalg.solve(np.array([v, v.conj()]).T,
                        np.array([w.real, (lin.mu3 * w).real], dtype=complex))[0]
    y = traj.u if row == 0 else traj.psi
    out = []
    for i in range(s, len(traj) - 1):
        if y[i] < 0.0 < y[i + 1] or y[i + 1] < 0.0 < y[i]:
            mid = 0.5 * (traj.t[i] + traj.t[i + 1]) - traj.t[s]
            j = round((mu.imag * mid + np.angle(z * v[row]) - math.pi / 2.0) / math.pi)
            tau = (math.pi / 2.0 + j * math.pi - np.angle(z * v[row])) / mu.imag
            out.append((traj.t[s] + tau, 2.0 * (z * np.exp(mu * tau) * v[0]).real))
    return out


@pytest.mark.parametrize("fixture", ["traj322", "traj324", "traj542", "traj546"])
def test_event_scans_match_sample_loop(request, fixture):
    # segments before the splice match the loop bit for bit; on the linear
    # tail the psi zeros and the phi0 hits come in closed form, and agree
    # with the exact eigenpair, from the tail's first state, within the event
    # tolerance 1e-12 (measured: 5.7e-14 in time and 6.6e-14 relative in
    # offset, on (5,4,6) and (5,4,14))
    traj = request.getfixturevalue(fixture)
    phi0 = traj.params.phi0
    s = traj.splice_index
    head = range(s)
    zeros = detect_psi_zeros(traj)
    hits = detect_phi_hits(traj, phi0)
    for events, loop, row in ((zeros, _loop_psi_zeros(traj, head), 1),
                              (hits, _loop_phi_hits(traj, phi0, head), 0)):
        assert events[:len(loop)] == loop
        tail = _eig_tail_roots(traj, row) if traj.stats.tail_samples else []
        assert len(tail) >= (26 if traj.stats.tail_samples else 0)
        assert len(events) == len(loop) + len(tail)
        for event, (t_ref, u_ref) in zip(events[len(loop):], tail):
            assert abs(event.t - t_ref) <= EVENT_TOL
            if row == 1:
                assert abs(event.phi_offset - u_ref) <= 5e-12 * abs(u_ref)
    if traj.stats.tail_samples == 0:
        assert zeros == _loop_psi_zeros(traj) and hits == _loop_phi_hits(traj, phi0)
    for target in (0.5 * phi0, 0.999 * phi0):
        assert detect_phi_hits(traj, target) == _loop_phi_hits(traj, target)


def test_segments_match_a_per_point_lookup(traj324):
    # the last knot falls in the last segment, points outside the span in
    # the end segments
    t = traj324.t
    mids = 0.5 * (t[:-1] + t[1:])
    q = np.concatenate([t, mids, [t[0] - 1.0, t[-1] + 1.0, -np.inf, np.inf]])
    expected = [min(max(int(np.searchsorted(t, v, side="right")) - 1, 0), len(t) - 2)
                for v in q.tolist()]
    assert _segments(t, q).tolist() == expected
    assert expected[len(t) - 1] == len(t) - 2 and expected[-4:] == [0, len(t) - 2] * 2
    assert [int(_segments(t, v)) for v in q[:5].tolist()] == expected[:5]


def _hand_built(params, t, u, psi):
    t = np.asarray(t, dtype=float)
    return Trajectory(params, t, u, psi, np.zeros_like(t), 0.0, Termination.MAX_TIME)


def test_phi_hits_exact_zero_samples(p322):
    # target phi0 makes g = u exactly.  Hits: the interior zero at t=1, the
    # first of the two zeros at t=3, 4, the linear sign change on [5, 6]
    # (u = -1 + 2 (t - 5), slopes 2 at both ends, so the Hermite cubic is
    # that line and vanishes at 5.5) and the zero at the last sample t=7.
    traj = _hand_built(p322, range(8),
                       [-1.0, 0.0, 1.0, 0.0, 0.0, -1.0, 1.0, 0.0],
                       [1.0, 1.0, -1.0, 0.0, -1.0, 2.0, 2.0, -1.0])
    hits = detect_phi_hits(traj, p322.phi0)
    assert [h.t for h in hits] == [1.0, 3.0, 5.5, 7.0]
    assert [h.dilation for h in hits] == [math.exp(x) for x in (1.0, 3.0, 5.5, 7.0)]
    assert hits == _loop_phi_hits(traj, p322.phi0)


def test_phi_hits_exact_zero_first_sample(p322):
    traj = _hand_built(p322, [0.5, 1.0, 1.5], [0.0, 0.0, 1.0], [0.0, 1.0, 1.0])
    assert detect_phi_hits(traj, p322.phi0) == [PhiHit(t=0.5, dilation=math.exp(0.5))]


@pytest.mark.parametrize("u", [0.0, -1e-300, 0.25])
def test_one_state_trajectory_events(p322, u):
    # one rule for both event kinds: a lone state has no segment, so no sign
    # change; it is a phi hit exactly when it lies on the target
    single = _hand_built(p322, [0.5], [u], [1.0])
    assert detect_psi_zeros(single) == []
    expected = [PhiHit(t=0.5, dilation=math.exp(0.5))] if u == 0.0 else []
    assert detect_phi_hits(single, p322.phi0) == expected


def test_sign_changes_below_product_underflow(p322):
    # products of these samples underflow to 0.0; the sign changes remain
    traj = _hand_built(p322, [0.0, 1.0, 2.0, 3.0], [1e-200, -1e-200, 1e-200, 0.0],
                       [1e-200, -1e-200, 1e-200, 0.0])
    assert 1e-200 * -1e-200 == 0.0
    assert [math.floor(z.t) for z in detect_psi_zeros(traj)] == [0, 1]
    hits = [h.t for h in detect_phi_hits(traj, p322.phi0)]
    assert [math.floor(t) for t in hits] == [0, 1, 3] and hits[-1] == 3.0


def test_table_spiral_zeros_equal_sign_changes(table_trajs):
    spirals = {triple: traj for triple, traj in table_trajs.items()
               if traj.params.stability is StabilityType.SPIRAL_TYPE_II}
    assert len(spirals) == 17
    for triple, traj in spirals.items():
        sign = np.sign(traj.psi)
        changes = int(np.sum(sign[:-1] * sign[1:] < 0.0))
        zeros = detect_psi_zeros(traj)
        assert len(zeros) == changes, triple
        if triple == (5, 4, 6):
            # the 1e-290 floor comes before the 40th crossing; the last
            # zeros lie where products of psi samples underflow
            assert traj.terminated_by is Termination.CONVERGED_TO_P1
            assert len(zeros) == 29
            assert abs(zeros[-1].phi_offset) < 1e-200
        else:
            assert traj.terminated_by is Termination.MAX_CROSSINGS, triple
            assert len(zeros) == DEFAULT_MAX_CROSSINGS, triple


@pytest.mark.parametrize("fixture", ["traj322", "traj324", "traj546"])
def test_state_reader_is_the_dense_output_up_to_the_splice(fixture, request):
    # up to the splice time state_at is the Hermite dense output, bit for
    # bit, at the samples and between them; outside the span it refuses
    traj = request.getfixturevalue(fixture)
    t_s = traj.t[traj.splice_index]
    t = np.concatenate((traj.t[:traj.splice_index + 1], np.linspace(traj.t[0], t_s, 1001)))
    u, psi = state_at(traj, t)
    want = dense(traj.t, t, (traj.u, traj.psi), (traj.psi, traj.dpsi))
    assert np.array_equal(u, want[0]) and np.array_equal(psi, want[1])
    for bad in (traj.t[0] - 1e-9, traj.t_end + 1e-9, math.nan):
        with pytest.raises(ValueError, match="must lie in the trajectory span"):
            state_at(traj, [bad])


def test_state_reader_past_the_splice_is_the_conjugacy(spirals):
    # past the splice the tail samples the linear part L(w) of w = w_s
    # e^{mu tau}, and state_at reads Phi(w): the two differ by Phi's terms
    # of degree 2 and up, at most the conjugacy's bound N(|w|) in the
    # max-norm, plus the rounding of the linear part, and u not at all once
    # |w|^2 underflows (past |w| = 1e-170, reached by 8 of the 17)
    deep_runs = 0
    for traj in spirals.values():
        s, conj = traj.splice_index, traj.conjugacy
        tau = traj.t[s + 1:] - traj.t[s]
        w = traj.tail_coordinate * np.exp(conj.lin.mu3 * tau)
        u, psi = state_at(traj, traj.t[s + 1:])
        lin_u, lin_psi = _linear_flow(conj.lin, traj.tail_coordinate, tau)
        distance = np.maximum(np.abs(u - lin_u), np.abs(psi - lin_psi))
        rounding = 4.0 * np.finfo(float).eps * conj.lin.envelope(1.0) * np.abs(w)
        assert np.all(distance <= conj.bound(np.abs(w)) + rounding), traj.params.triple()
        deep = np.abs(w) < 1e-170
        assert np.array_equal(u[deep], lin_u[deep]), traj.params.triple()
        deep_runs += bool(deep.any())
    assert deep_runs == 8


def test_node_targets_past_the_run_end_are_refused(traj322):
    # a node run ends at hypot(u, psi) < 1e-8, short of P1: phi0 (1 - 1e-12)
    # lies between its last phi and phi0, which the true orbit crosses once,
    # so it is refused rather than answered with no hit; phi0 itself keeps
    # returning none, and a target below the last phi its one hit
    phi0 = traj322.params.phi0
    with pytest.raises(ValueError, match="ended converged_to_p1"):
        detect_phi_hits(traj322, phi0 * (1.0 - 1e-12))
    with pytest.raises(ValueError, match="before crossing it"):
        crossing_report(traj322, float(np.nextafter(phi0, 0.0)))
    assert detect_phi_hits(traj322, phi0) == []
    assert len(detect_phi_hits(traj322, traj322.phi[-1] * (1.0 - 1e-12))) == 1
    # a run cut at t_max keeps answering: it ended max_time
    cut = shoot_unstable_manifold(traj322.params, t_max=2.0)
    assert cut.terminated_by is Termination.MAX_TIME
    assert detect_phi_hits(cut, phi0 * (1.0 - 1e-12)) == []


def test_node_solution_count_law(table_trajs):
    # at a node, phi = phi_b has one solution for phi_b below phi0 and none
    # above: on all 213 table nodes at phi0 (1 -+ 10^-m), m = 1..15, one
    # hit below and none above, and no psi zero.  A target the run ends
    # short of is refused, and only such a target: its last phi lies
    # below phi0, and every target below that phi has its hit (refused:
    # none at m <= 8, 176 nodes at m = 9 and all 213 from m = 10, 1 454 of
    # the 3 195 targets below phi0)
    nodes = [traj for traj in table_trajs.values()
             if traj.params.stability is StabilityType.CENTER_TYPE_I]
    assert len(nodes) == 213
    refused = 0
    for traj in nodes:
        phi0 = traj.params.phi0
        assert detect_psi_zeros(traj) == [] and traj.phi[-1] < phi0, traj.params.triple()
        for m in range(1, 16):
            below, above = phi0 * (1.0 - 10.0 ** -m), phi0 * (1.0 + 10.0 ** -m)
            assert detect_phi_hits(traj, above) == [], (traj.params.triple(), m)
            try:
                hits = detect_phi_hits(traj, below)
            except ValueError:
                assert traj.phi[-1] < below < phi0, (traj.params.triple(), m)
                refused += 1
            else:
                assert len(hits) == 1, (traj.params.triple(), m)
    assert refused == 1454
