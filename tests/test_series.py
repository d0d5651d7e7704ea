"""The P1 series stretch of a spiral run: the conjugacy x = Phi(z), z' = mu z,
its hand-off from DP5, its agreement with DP5, its sample grid and its stop
rules.

Agreement bounds are set from measurement, within a factor of two above
the largest value measured over the triples of each test; each test's
comment gives that value.
"""

import math

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
    DEFAULT_REL_TOL,
    _advance,
    _strict_sign_change,
    splice_amplitude,
)

_SPIRAL_PARAMS = [p for p in enumerate_admissible(31, 20)
                  if p.stability is StabilityType.SPIRAL_TYPE_II]
# (d, j) of each coefficient of z^(d-j) zbar^j, in the series' flat order
_EXPONENTS = [(d - j, j) for d in range(P1_SERIES_ORDER + 1) for j in range(d + 1)]


def _hand_off(traj):
    """The hand-off state (t, u, psi): the last DP5 state."""
    a = traj.stats.accepted
    return float(traj.t[a]), float(traj.u[a]), float(traj.psi[a])


def _stretch_error(traj, rel_tol):
    """The largest deviation of Phi(e^{mu tau} z*) from a DP5 continuation
    at rel_tol from the hand-off state to the splice, at the continuation's
    samples, relative to the continuation's max-norm there."""
    t0, u0, psi0 = _hand_off(traj)
    ts, us, psis, *_ = _advance(traj.params, t0, u0, psi0, float(traj.t[traj.splice_index]),
                                rel_tol)
    ts, us, psis = (np.array(column) for column in (ts, us, psis))
    conj = p1_conjugacy(traj.params)
    u, psi = conj.states(conj.invert(u0, psi0) * np.exp(conj.lin.mu3 * (ts - t0)))
    return float(np.max(np.maximum(np.abs(u - us), np.abs(psi - psis))
                        / np.maximum(np.abs(us), np.abs(psis))))


@pytest.mark.parametrize("params", _SPIRAL_PARAMS, ids=lambda p: str(p.triple()))
def test_invariance_residual_on_the_hand_off_circle(params, spirals):
    # the psi coefficients are lam_m U_m with lam_m = m1 mu + m2 conj(mu),
    # the (m2, m1) row is the (m1, m2) row's conjugate (to rounding on the
    # real middle row, m1 = m2), and on the circle
    # |z| = |z*| through the hand-off state the residual of psi' = X2(u,
    # psi) along z' = mu z is below rel_tol/10 of |Phi(z)|, the hand-off
    # rule's bound (measured at most 7.3e-3 rel_tol, on (3,2,6)); the u
    # row, u' = psi, holds by construction
    conj = p1_conjugacy(params)
    mu = conj.lin.mu3
    lam = np.array([m1 * mu + m2 * mu.conjugate() for m1, m2 in _EXPONENTS])
    np.testing.assert_allclose(conj.rows[:, 1], lam * conj.rows[:, 0], rtol=1e-15, atol=0.0)
    mirror = [_EXPONENTS.index((m2, m1)) for m1, m2 in _EXPONENTS]
    np.testing.assert_allclose(conj.rows[mirror], conj.rows.conjugate(), rtol=1e-15, atol=0.0)
    radius = abs(conj.invert(*_hand_off(spirals[params.triple()])[1:]))
    z = radius * np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False))
    mono = np.array([z ** m1 * z.conjugate() ** m2 for m1, m2 in _EXPONENTS])
    u, psi = (conj.rows.T @ mono).real
    flow = ((lam * conj.rows[:, 1]) @ mono).real
    field = offset_field(params)
    residual = np.abs(flow - [field(a, b) for a, b in zip(u.tolist(), psi.tolist())])
    assert np.all(residual <= DEFAULT_REL_TOL / 10.0 * np.maximum(np.abs(u), np.abs(psi)))


def test_hand_off_rule(spirals):
    # each spiral run leaves DP5 at its first accepted state with max-norm
    # below _SERIES_AMPLITUDE and |z| within the series' radius, z the
    # linear guess; the series stretch ends at its first sample below the
    # splice amplitude, where the linear tail takes over
    for triple, traj in spirals.items():
        a, s = traj.stats.accepted, traj.splice_index
        conj = p1_conjugacy(traj.params)
        mu = conj.lin.mu3
        amp = np.maximum(np.abs(traj.u), np.abs(traj.psi))
        guess = np.abs(traj.psi[:a + 1] - mu.conjugate() * traj.u[:a + 1]) / mu.imag
        ready = (amp[:a + 1] < _SERIES_AMPLITUDE) & (guess < conj.radius(DEFAULT_REL_TOL))
        assert np.flatnonzero(ready).tolist() == [a], triple
        delta = splice_amplitude(traj.params, DEFAULT_REL_TOL)
        assert amp[s] < delta <= amp[a:s].min(), triple
        assert traj.stats.series_samples == s - a > 0 and traj.stats.tail_samples > 0, triple


@pytest.mark.parametrize("params", _SPIRAL_PARAMS, ids=lambda p: str(p.triple()))
def test_series_matches_dp5_continuation(params, spirals):
    # from the hand-off state to the splice the series follows DP5 at
    # rel_tol 1e-13 to the reference's own level (measured at most 9.9e-12,
    # on (5,4,8))
    assert _stretch_error(spirals[params.triple()], 1e-13) <= 2e-11


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-12])
@pytest.mark.parametrize("triple", [(3, 2, 4), (5, 4, 6), (5, 4, 20)])
def test_series_holds_its_tolerance(triple, rel_tol):
    # at a loose and a tight rel_tol the stretch follows DP5 at rel_tol
    # 1e-14 to that reference's level (measured at most 1.6e-12, at 1e-12 on
    # (5,4,20)), and at least 10x closer than a DP5 continuation at the
    # run's own rel_tol does (measured: the continuation is off by 4.7e-6
    # to 4.4e-5 at 1e-6, and 6.1e-12 to 9.4e-11 at 1e-12, 17x the series'
    # deviation on (3,2,4))
    traj = shoot_unstable_manifold(build_params(*triple), rel_tol=rel_tol)
    assert traj.stats.series_samples > 0
    error = _stretch_error(traj, 1e-14)
    assert error <= 3e-12
    assert 10.0 * error <= _stretch_error(traj, rel_tol)


def test_stretch_is_no_coarser_than_dp5(spirals, monkeypatch):
    # the uniform grid has at least as many samples per unit time as DP5
    # takes steps over the same span with the series switched off
    # (measured: 1.09 to 1.18 times as many)
    monkeypatch.setattr(integrate, "_SERIES_AMPLITUDE", 0.0)
    for triple, traj in spirals.items():
        a, s = traj.stats.accepted, traj.splice_index
        dp5 = shoot_unstable_manifold(traj.params)
        steps = np.count_nonzero((dp5.t > traj.t[a]) & (dp5.t <= traj.t[s]))
        assert s - a >= steps, triple
        spacing = np.diff(traj.t[a:s + 1])
        np.testing.assert_allclose(spacing, spacing[0], rtol=1e-9)


def test_t_max_inside_the_stretch(p324, traj324):
    # t_max takes the place of the first sample at or past it, and the run
    # ends there on max_time, with no linear tail
    a, s = traj324.stats.accepted, traj324.splice_index
    h = float(traj324.t[a + 1] - traj324.t[a])
    for t_max in (0.5 * (traj324.t[a] + traj324.t[s]), float(traj324.t[a + 40]),
                  float(traj324.t[s - 1]) + 0.5 * h):
        timed = shoot_unstable_manifold(p324, t_max=t_max, max_crossings=10 ** 6)
        assert timed.terminated_by is Termination.MAX_TIME and timed.t_end == t_max
        assert timed.stats.series_samples > 0 and timed.stats.tail_samples == 0
        assert timed.t[-2] < t_max <= timed.t[-2] + h * (1.0 + 1e-9)
        assert len(detect_psi_zeros(timed)) == _strict_sign_change(timed.psi).sum()


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
