"""The launch stretch of a run: the saddle's unstable manifold as a series in
s = e^{(k-1)t} (dynsys.unstable_manifold_series), its samples up to s0 =
0.1, where DP5 starts, its exact rational form and what it fixes: the
events no longer move with where the launch begins, and huge k no longer
thrashes.

Agreement bounds are set from measurement, within a factor of two above
the largest value measured, as each test's comment gives it.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import lo_dynamics.integrate as integrate
from lo_dynamics.analysis import theta_of_radius
from lo_dynamics.dynsys import unstable_manifold_series
from lo_dynamics.integrate import detect_phi_hits, shoot_unstable_manifold
from lo_dynamics.params import build_params, enumerate_admissible
from lo_dynamics.radial import to_profile
from oracles import dp5_run, launch_series_exact

_TABLE = list(enumerate_admissible(31, 20))
_S0 = integrate._LAUNCH_END


def _series_states(params, x, s):
    """(phi, psi) of the series with odd coefficients x at the points s."""
    odd = np.arange(1, 2 * len(x), 2)
    return (s * np.polyval(x[::-1], s * s),
            (params.k - 1) * s * np.polyval((odd * np.array(x))[::-1], s * s))


@pytest.mark.parametrize("triple", [(3, 2, 4), (5, 4, 6), (7, 4, 2)])
def test_launch_series_is_odd_and_matches_exact_rationals(triple):
    # in sigma = s/|V1| the series is rational: c_1 = 1 and every even
    # coefficient is exactly 0, so phi / r^(k-1) is a power series in
    # r^(2(k-1)) and rho / r^k one in r^2, each solution analytic at the
    # origin.  The package's odd x_j |V1|^j equal the rational c_j to 1e-13
    # of max(|c_j|, c_1) (measured 6.0e-14 on (3,2,4), whose c_3 is exactly
    # 0, and 6.7e-15 and 2.7e-15); a copy with n + 1.01 in the divisor is
    # off by 4.7e-3 or more
    params = build_params(*triple)
    exact = launch_series_exact(params, 15)
    assert exact[:2] == [0, 1] and all(c == 0 for c in exact[2::2])
    x = unstable_manifold_series(params, 15)
    assert len(x) == 8
    norm = math.hypot(1.0, params.k - 1)

    def off(coefficients):
        return max(abs(xj * norm ** j - float(c)) / max(abs(float(c)), 1.0)
                   for xj, j, c in zip(x, range(1, 16, 2), coefficients[1::2]))

    assert off(exact) <= 1e-13
    wrong = launch_series_exact(params, 15, params.n + Fraction(101, 100))
    assert all(c == 0 for c in wrong[2::2]) and off(wrong) > 1e-3


@pytest.mark.parametrize("params", _TABLE + [build_params(31, 30, 10 ** 9)],
                         ids=lambda p: str(p.triple()))
def test_launch_series_solves_the_field_at_s0(params):
    # built to the order where two odd terms in a row fall below 2^-53 of
    # the first at s0, the series' psi' - X2(phi, psi), evaluated at 40
    # digits, is below 1e-16 of the state at s0 (measured at most 4.8e-17,
    # on (15,8,2)), and the order-99 series differs from it there by below
    # 4e-18 relative (measured 1.7e-18, on (5,4,2))
    x = unstable_manifold_series(params, 99, _S0)
    full = unstable_manifold_series(params, 99)
    assert len(x) <= 12 and len(full) == 50
    n, p, mu1 = params.n, params.p, params.k - 1
    with mpmath.workdps(40):
        lam2, s = mpmath.mpf(params.big_k) / p, mpmath.mpf(_S0)

        def series(coefficients, power):
            return sum(mpmath.mpf(c) * ((2 * m + 1) * mu1) ** power * s ** (2 * m + 1)
                       for m, c in enumerate(coefficients))

        phi, psi, dpsi = (series(x, power) for power in (0, 1, 2))
        den = 1 + lam2 * phi * phi
        f1, f2 = (lam2 - 1) * p / den - (n - p), (n - p) + p / den
        x2 = -psi - (f2 * psi - f1 * phi) * (1 + (phi + psi) ** 2)
        assert abs(x2 - dpsi) <= 1e-16 * max(abs(psi), abs(dpsi))
        assert abs(series(full, 0) / phi - 1) <= 4e-18
        assert abs(series(full, 1) / psi - 1) <= 4e-18


def test_series_and_dp5_agree_where_they_overlap(table_trajs):
    # DP5 at rel_tol 1e-13 from the launch sample nearest s = 0.01 to s0
    # follows the series, phi and psi each relative to itself, to 3.5e-11
    # (measured at most 1.7e-11, on (31,30,4)); the run's launch samples are
    # the series' values, phi0 + u to an ulp of phi0 and psi to the rounding
    # of s = e^{(k-1)t} read back from t, |log s| ulps of s
    for triple, traj in table_trajs.items():
        params, l = traj.params, traj.stats.launch_samples
        mu1 = params.k - 1
        x = unstable_manifold_series(params, 99, _S0)
        log_s = traj.t[:l + 1] * mu1
        phi, psi = _series_states(params, x, np.exp(log_s))
        assert np.max(np.abs(params.phi0 + traj.u[:l + 1] - phi)) <= math.ulp(params.phi0), triple
        assert np.all(np.abs(traj.psi[:l + 1] - psi) <= 4e-16 * (1 - log_s) * psi), triple
        i = int(np.argmin(np.abs(traj.t[:l] * mu1 - math.log(0.01))))
        dp5 = dp5_run(params, float(traj.t[i]), float(traj.u[i]), float(traj.psi[i]),
                      float(traj.t[l]), 1e-13)
        phi, psi = _series_states(params, x, np.exp(dp5.t * mu1))
        assert np.max(np.abs(params.phi0 + dp5.u - phi) / phi) <= 3.5e-11, triple
        assert np.max(np.abs(dp5.psi - psi) / psi) <= 3.5e-11, triple


def test_launch_grid(traj324):
    # from s = 1e-6 to s0, spaced in log s by the P1 series' rule, 2.75
    # rel_tol^(1/5); t = log(s)/(k - 1) and DP5 starts from the last sample
    l, mu1 = traj324.stats.launch_samples, traj324.params.k - 1
    log_s = traj324.t[:l + 1] * mu1
    assert l == math.ceil(math.log(_S0 / 1e-6) / (integrate._SERIES_STEP * 1e-2))
    assert integrate._LAUNCH_START == 1e-6
    assert log_s[0] == pytest.approx(math.log(1e-6), rel=1e-15)
    assert log_s[-1] == pytest.approx(math.log(_S0), rel=1e-15)
    np.testing.assert_allclose(np.diff(log_s)[:-1], integrate._SERIES_STEP * 1e-2, rtol=1e-9)
    assert 0.0 < log_s[-1] - log_s[-2] <= integrate._SERIES_STEP * 1e-2 * (1 + 1e-9)


@pytest.mark.parametrize("n", [18, 24, 31])
def test_a_series_short_of_s0_is_refused(n):
    # the inadmissible (n,1,2), n >= 18, are the domain's triples with n <=
    # 31 and k <= 40 or k = 10^e whose launch series has not converged at
    # s0 by order 99 (measured): on (31,1,2) its terms x_j s0^j stay near
    # 7e-4, 1e-2 of the first, so DP5 would start that far off the orbit.
    # (17,1,2) converges there and shoots
    params = build_params(n, 1, 2, allow_inadmissible=True)
    with pytest.raises(ValueError, match=rf"\({n},1,2\): the saddle's series, which launches "
                                         r"each run, does not reach s0 = 0.1"):
        shoot_unstable_manifold(params)
    assert len(shoot_unstable_manifold(build_params(17, 1, 2, allow_inadmissible=True))) > 1


def test_first_hit_does_not_move_with_eps(p324, monkeypatch):
    # DP5 starts from P(s0) wherever the launch samples begin: the first
    # phi0 hit of (3,2,4) is one time with them from s = 1e-6, 1e-12 and
    # 1e-15 (it moved from 2.1077 to 2.1083 and 2.2364 when DP5 launched at
    # that s)
    hits = []
    for start in (1e-6, 1e-12, 1e-15):
        monkeypatch.setattr(integrate, "_LAUNCH_START", start)
        hits.append(detect_phi_hits(shoot_unstable_manifold(p324), p324.phi0)[0].t)
    assert max(hits) - min(hits) < 1e-9


def test_density_at_r_1_settles_with_rel_tol():
    # Theta(1) of (13,12,20) moves 3.8e-9 relative between rel_tol 1e-10
    # and 1e-13 (measured; 1.7e-5 when DP5 launched at eps)
    params = build_params(13, 12, 20)
    thetas = [theta_of_radius(to_profile(shoot_unstable_manifold(params, rel_tol=rel_tol)),
                              params, 1.0) for rel_tol in (1e-10, 1e-13)]
    assert abs(thetas[0] / thetas[1] - 1.0) < 1e-8


def test_huge_k_at_tight_rel_tol_no_longer_thrashes():
    # orbit 31 30 1000000000 --rel-tol 1e-12 took 264 048 accepted and
    # 764 248 rejected DP5 steps when DP5 launched at eps; from s0 it takes
    # at most half as many accepted steps (measured 87 248), with fewer
    # rejected than accepted (26 271)
    traj = shoot_unstable_manifold(build_params(31, 30, 10 ** 9), rel_tol=1e-12)
    assert traj.stats.accepted <= 132_024
    assert traj.stats.rejected < traj.stats.accepted
