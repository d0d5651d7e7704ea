import math

import pytest

from lo_dynamics.geometry import cos_alpha, geometry_report, volume_ratio
from lo_dynamics.params import build_params, enumerate_admissible
from oracles import ball_volume, sphere_volume, volume_element_check, volume_element_factor


def test_sphere_and_ball_volumes():
    assert sphere_volume(1) == pytest.approx(2 * math.pi, rel=1e-15)
    assert sphere_volume(2) == pytest.approx(4 * math.pi, rel=1e-15)
    assert sphere_volume(3) == pytest.approx(2 * math.pi ** 2, rel=1e-15)
    assert ball_volume(2) == pytest.approx(math.pi, rel=1e-15)
    assert ball_volume(4) == pytest.approx(math.pi ** 2 / 2, rel=1e-15)


def test_sphere_equals_boundary_of_ball():
    # |S^n| = (n+1) omega_{n+1}, the identity that makes volume_ratio the
    # cone density, over every n of the table
    for n in range(1, 32):
        assert sphere_volume(n) == pytest.approx((n + 1) * ball_volume(n + 1), rel=1e-14)


def test_report_322_exact(p322):
    rep = geometry_report(p322)
    assert rep.cos_alpha == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert rep.volume_ratio == pytest.approx(16.0 / 9.0, abs=1e-12)
    assert rep.slope_w == pytest.approx(9.0, abs=1e-12)
    assert rep.jordan_angles[0][0] == pytest.approx(math.acos(math.sqrt(1.0 / 6.0)), abs=1e-12)
    assert rep.jordan_angles[0][1] == 2
    assert rep.jordan_angles[1][0] == pytest.approx(math.acos(2.0 / 3.0), abs=1e-12)
    assert rep.jordan_angles[1][1] == 1
    assert rep.jordan_angles[2] == (0.0, 1)


def test_jordan_multiplicities_sum(p546):
    rep = geometry_report(p546)
    assert sum(m for _, m in rep.jordan_angles) == p546.n + 1
    assert rep.jordan_angles[0][1] == p546.p
    assert rep.jordan_angles[1][1] == 1
    assert rep.jordan_angles[2] == (0.0, p546.n - p546.p)


def test_middle_jordan_angle_is_theta():
    for npk in [(3, 2, 2), (5, 4, 4), (15, 8, 2)]:
        params = build_params(*npk)
        rep = geometry_report(params)
        assert rep.jordan_angles[1][0] == pytest.approx(params.theta, abs=1e-12)


def test_slope_is_secant_product():
    for npk in [(3, 2, 2), (7, 4, 2), (15, 8, 6)]:
        params = build_params(*npk)
        rep = geometry_report(params)
        prod = 1.0
        for angle, mult in rep.jordan_angles:
            prod *= (1.0 / math.cos(angle)) ** mult
        assert prod == pytest.approx(rep.slope_w, rel=1e-12)
        assert rep.slope_w == pytest.approx(1.0 / rep.cos_alpha, rel=1e-14)


def test_monotone_in_k():
    prev_cos, prev_vol = None, None
    for k in range(2, 42, 2):
        params = build_params(3, 2, k)
        rep = geometry_report(params)
        if prev_cos is not None:
            assert rep.cos_alpha < prev_cos
            assert rep.volume_ratio > prev_vol
        prev_cos, prev_vol = rep.cos_alpha, rep.volume_ratio
    assert prev_cos < 0.01


def test_invariants_outside_the_float_range():
    # cos_alpha of (31,30,1e11) underflowed to 0 and slope_w = 1/cos_alpha
    # divided by it; volume_ratio overflows in math.exp from k ~ 1e12
    assert geometry_report(build_params(31, 30, 10 ** 10)).slope_w == pytest.approx(
        5.5677646133793798e300, rel=1e-12)
    big = build_params(31, 30, 10 ** 11)
    with pytest.raises(ValueError, match=r"cos_alpha of \(31,30,100000000000\) leaves the float"):
        geometry_report(big)
    with pytest.raises(ValueError, match=r"cos_alpha of \(31,30,100000000000\) leaves the float"):
        cos_alpha(big)
    with pytest.raises(ValueError, match=r"volume_ratio of \(31,30,10{12}\) leaves the float"):
        volume_ratio(build_params(31, 30, 10 ** 12))


def test_los_volume_322(p322):
    assert volume_ratio(p322) * sphere_volume(3) == pytest.approx(
        32.0 * math.pi ** 2 / 9.0, rel=1e-12)


def test_volume_element_identity():
    for npk in [(3, 2, 2), (5, 4, 2), (15, 8, 4)]:
        params = build_params(*npk)
        assert volume_element_check(params) < 1e-12


def test_volume_element_factor_flat_limit(p322):
    assert volume_element_factor(p322, 1e-9) == pytest.approx(1.0, abs=1e-12)


def test_volume_element_off_angle(p322):
    assert volume_element_check(p322, p322.theta / 2.0) > 0.1


def test_p_zero_degenerates_to_sphere():
    # with p = 0 both exponents collapse and the closed form returns omega_n;
    # not a buildable parameter set, checked on the raw expression
    n, k = 3, 2
    K = k * (k + n - 1)
    ratio = (K / n) ** 0.0 * ((1 - 0 / n) / (1 - 0 / K)) ** (n / 2.0)
    assert ratio == 1.0


def test_gap_property():
    cos_values = []
    vol_values = []
    for params in enumerate_admissible(31, 20):
        rep = geometry_report(params)
        cos_values.append(rep.cos_alpha)
        vol_values.append(rep.volume_ratio)
    for values in (cos_values, vol_values):
        distinct = sorted(set(values))
        gaps = [b - a for a, b in zip(distinct, distinct[1:])]
        assert min(gaps) > 0.0
        assert len(distinct) > 1


def test_cos_alpha_in_unit_interval():
    for params in enumerate_admissible(31, 20):
        rep = geometry_report(params)
        assert 0.0 < rep.cos_alpha < 1.0
        assert rep.volume_ratio > 1.0
