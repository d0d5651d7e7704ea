import math

import numpy as np
import pytest

from lo_dynamics import build_params, enumerate_admissible
from lo_dynamics.barrier import (
    FS_MIN_EXACT,
    barrier_h,
    barrier_h_prime,
    case1_check,
    case1_closed_forms,
    case1_from_polynomial,
    case1_iv_unreduced,
    case1_polynomial,
    case2_check,
    cycle_region_threshold,
    default_c,
    fs_envelope,
    fs_minimum,
    no_limit_cycle_check,
    step1_margin,
)
from lo_dynamics.dynsys import f1, f2, vector_field_xy, reverse_field_xy
from lo_dynamics.errors import COutOfRange, NotTypeI, NotTypeII
from lo_dynamics.params import StabilityType


def test_default_c_values(p322, p542, p544):
    assert default_c(p322) == 1.0
    assert default_c(p542) == 1.0
    assert default_c(p544) == 6.0 / 7.0
    assert default_c(build_params(7, 4, 2)) == 0.5
    assert default_c(build_params(9, 8, 2)) == 0.5


def test_default_c_rejects_spiral(p324):
    with pytest.raises(NotTypeI):
        default_c(p324)


def test_c_out_of_range(p322):
    with pytest.raises(COutOfRange):
        case1_check(p322, c=0.0)
    with pytest.raises(COutOfRange):
        case1_check(p322, c=1.5)


@pytest.mark.parametrize("npk,c,f0,g0", [
    ((3, 2, 2), 1.0, 1.0 / 12.0, 3.0 / 4.0),
    ((5, 4, 2), 1.0, 11.0 / 12.0, 13.0 / 6.0),
    ((5, 4, 4), 6.0 / 7.0, 0.0, 5.0 / 7.0),
])
def test_case1_printed_values(npk, c, f0, g0):
    params = build_params(*npk)
    report = case1_check(params, c=c, grid_points=2000)
    assert report.f0 == pytest.approx(f0, abs=1e-12)
    assert report.g0 == pytest.approx(g0, abs=1e-12)
    assert report.g_end > 0.0
    assert report.passed
    assert report.grid_margin > 0.0


@pytest.mark.parametrize("c", [0.3, 6.0 / 7.0, 1.0])
def test_case1_shortcut_forms(c):
    # the per-case simplified expressions are a third independent route to
    # F(0) and G(0), valid for any c in (0, 1]
    shortcuts = {
        (3, 2, 2): (lambda: 4 - 5 / (3 * c) - 9 * c / 4,
                    lambda: 4 / (3 * c) - 5 / 6 + c / 4),
        (5, 4, 2): (lambda: 6 - 7 / (4 * c) - 10 * c / 3,
                    lambda: 3 / c - 7 / 6 + c / 3),
        (5, 4, 4): (lambda: 6 - 27 / (14 * c) - 35 * c / 8,
                    lambda: 3 / c - 81 / 28 + c / 8),
    }
    for npk, (sf, sg) in shortcuts.items():
        f0, g0, _ = case1_closed_forms(build_params(*npk), c)
        assert f0 == pytest.approx(sf(), abs=1e-12)
        assert g0 == pytest.approx(sg(), abs=1e-12)


def test_case1_982_lower_bound():
    # the n >= 7 argument promises F(0) >= n/2 - 3
    params = build_params(9, 8, 2)
    report = case1_check(params, c=0.5, grid_points=2000)
    assert report.f0 >= 9.0 / 2.0 - 3.0
    assert report.passed and report.grid_margin > 0.0


def test_closed_forms_match_polynomial_assembly():
    for params in enumerate_admissible(31, 20):
        if params.stability is not StabilityType.CENTER_TYPE_I:
            continue
        c = default_c(params)
        closed = case1_closed_forms(params, c)
        assembled = case1_from_polynomial(params, c)
        for a, b in zip(closed, assembled):
            assert a == pytest.approx(b, abs=1e-12, rel=1e-12)


def test_cubic_leading_coefficient(p322):
    # fit F over 5 sample points; the cubic coefficient must come out as
    # -(n-p)/(c lambda^2 (lambda^2 - 1))
    c = 1.0
    coeffs = case1_polynomial(p322, c)
    s_pts = np.linspace(0.1, 2.0, 5)
    values = [float(np.polyval(coeffs[::-1], s)) for s in s_pts]
    fitted = np.polyfit(s_pts, values, 3)
    lam2 = p322.lambda_sq
    expected = -(p322.n - p322.p) / (c * lam2 * (lam2 - 1.0))
    assert fitted[0] == pytest.approx(expected, rel=1e-9)
    assert coeffs[3] == pytest.approx(expected, rel=1e-14)


def test_unreduced_iv_dominates_reduced(p322):
    # the proof drops a 1/(1+s) factor from the exact expression, so the
    # reduced IV is a lower bound of the unreduced one for s > 0
    lam2 = p322.lambda_sq
    S = (lam2 * p322.p - p322.n) / (p322.n - p322.p)
    c = 1.0
    for s in np.linspace(0.01, S - 0.01, 50):
        reduced = 1.0 + (S - s) * (1.0 + s / c) / lam2
        assert case1_iv_unreduced(s, p322, c) >= reduced - 1e-12


def test_case1_grid_margin_positive_all_type1():
    for params in enumerate_admissible(31, 20):
        if params.stability is not StabilityType.CENTER_TYPE_I:
            continue
        report = case1_check(params, grid_points=200)
        assert report.passed, params.triple()
        assert report.grid_margin > 0.0, params.triple()
        assert report.g_end > 0.0, params.triple()


def test_case1_rejects_spiral(p324):
    with pytest.raises(NotTypeI):
        case1_check(p324)


def test_barrier_curve_consistency(p322):
    # h and h' used by the grid sweep agree with a finite difference
    c = default_c(p322)
    for phi in [0.2, 0.5, 0.9]:
        d = 1e-6
        fd = (barrier_h(phi + d, p322, c) - barrier_h(phi - d, p322, c)) / (2 * d)
        assert barrier_h_prime(phi, p322, c) == pytest.approx(fd, rel=1e-8)


def test_fs_minimum_exact():
    s_star, f_min = fs_minimum()
    assert s_star == pytest.approx(0.2, abs=1e-15)
    assert f_min == pytest.approx(FS_MIN_EXACT, abs=1e-10)
    assert fs_envelope(0.2) == pytest.approx(32.0 / 27.0, rel=1e-14)


def test_fs_envelope_limits():
    assert fs_envelope(1e-12) == pytest.approx(36.0 / 25.0, rel=1e-9)
    assert fs_envelope(1e12) == pytest.approx(2.0, rel=1e-9)


@pytest.mark.parametrize("npk", [(3, 2, 4), (5, 4, 6)])
def test_case2_step1(npk):
    params = build_params(*npk)
    report = case2_check(params, grid_points=2000, cycle_grid=(2, 1))
    assert report.g_grid_margin > 0.0
    assert report.fs_min == pytest.approx(FS_MIN_EXACT, abs=1e-10)
    assert report.cycle_margin < 0.0
    assert report.passed


def test_case2_rejects_type1(p322):
    with pytest.raises(NotTypeII):
        case2_check(p322)
    with pytest.raises(NotTypeII):
        no_limit_cycle_check(p322)


def test_step1_margin_positive_on_range(p324):
    lam2 = p324.lambda_sq
    s_end = lam2 * p324.phi0 ** 2
    for s in np.linspace(1e-6, s_end - 1e-6, 200):
        assert step1_margin(s, p324) > 0.0


def test_cycle_region_thresholds(p324, p546):
    assert cycle_region_threshold(p324) == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-14)
    assert cycle_region_threshold(p546) == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_threshold_below_oscillation_floor(p324, p546):
    # the lemma region contains the oscillation band [4/5 phi0, 6/5 phi0]
    assert cycle_region_threshold(p324) < 0.8 * p324.phi0
    assert cycle_region_threshold(p546) < 0.8 * p546.phi0


@pytest.mark.parametrize("npk", [(3, 2, 4), (5, 4, 6)])
def test_no_limit_cycle_margin_negative(npk):
    params = build_params(*npk)
    margin = no_limit_cycle_check(params, grid=(120, 120))
    assert margin < 0.0


def test_case2_full(p324):
    report = case2_check(p324, grid_points=2000, cycle_grid=(100, 100))
    assert report.passed
    assert report.cycle_margin < 0.0


def test_y_plus_x_identity(p324):
    # Y2 + X2 = -2 psi - 2 f2 psi (1 + phi^2 + psi^2) + 4 f1 phi^2 psi
    rng = np.random.default_rng(5)
    for phi, psi in rng.uniform(0.1, 3.0, size=(200, 2)):
        _, x2 = vector_field_xy(phi, psi, p324)
        _, y2 = reverse_field_xy(phi, psi, p324)
        expected = (-2.0 * psi
                    - 2.0 * f2(phi, p324) * psi * (1.0 + phi * phi + psi * psi)
                    + 4.0 * f1(phi, p324) * phi * phi * psi)
        assert y2 + x2 == pytest.approx(expected, rel=1e-11, abs=1e-11)


# a certificate that samples nothing cannot pass: each sampling resolution
# below its minimum raises instead of returning an empty margin

@pytest.mark.parametrize("grid_points", [0, -5])
def test_case1_check_needs_a_grid_point(p322, grid_points):
    with pytest.raises(ValueError, match="grid_points must be at least 1"):
        case1_check(p322, grid_points=grid_points)


@pytest.mark.parametrize("grid_points", [0, -5])
def test_case2_step1_check_needs_a_grid_point(p324, grid_points):
    # grid_points is the step-1 sweep's; it is checked before the cycle grid
    with pytest.raises(ValueError, match="grid_points must be at least 1"):
        case2_check(p324, grid_points=grid_points, cycle_grid=(0, 0))


@pytest.mark.parametrize("grid", [(0, 0), (1, 200), (200, 0), (-3, 5)])
def test_no_limit_cycle_check_needs_two_phi_and_one_psi(p324, grid):
    # an empty grid would report max Y2+X2 = -inf, a PASS; one phi value
    # divides by n_phi - 1 = 0
    with pytest.raises(ValueError, match="grid must be at least"):
        no_limit_cycle_check(p324, grid=grid)
    with pytest.raises(ValueError, match="grid must be at least"):
        case2_check(p324, grid_points=10, cycle_grid=grid)
    assert no_limit_cycle_check(p324, grid=(2, 1)) < 0.0
