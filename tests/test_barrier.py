import math
from fractions import Fraction

import numpy as np
import pytest

from lo_dynamics import build_params, enumerate_admissible
from lo_dynamics.barrier import (
    DEFAULT_GRID_POINTS,
    FS_ARGMIN,
    FS_MIN,
    barrier_h,
    barrier_h_prime,
    case1_check,
    case1_closed_forms,
    case1_from_polynomial,
    case1_polynomial,
    case2_check,
    cycle_region_threshold,
    default_c,
    no_limit_cycle_check,
)
from lo_dynamics.cli import main
from lo_dynamics.dynsys import f1, f2, vector_field_xy
from lo_dynamics.errors import NotApplicable
from lo_dynamics.params import StabilityType
from oracles import case1_iv_unreduced, no_limit_cycle_full_grid, reverse_field_xy, step1_margin

SPIRAL_TRIPLES = [params.triple() for params in enumerate_admissible(31, 20)
                  if params.stability is StabilityType.SPIRAL_TYPE_II]


def test_default_c_values(p322, p542, p544):
    assert default_c(p322) == 1.0
    assert default_c(p542) == 1.0
    assert default_c(p544) == 6.0 / 7.0
    assert default_c(build_params(7, 4, 2)) == 0.5
    assert default_c(build_params(9, 8, 2)) == 0.5
    # a triple no printed case covers takes the exploratory c = 1
    assert default_c(build_params(4, 2, 2, allow_inadmissible=True)) == 1.0


def test_default_c_rejects_spiral(p324):
    with pytest.raises(NotApplicable, match="has a spiral equilibrium"):
        default_c(p324)


def test_c_out_of_range(p322):
    with pytest.raises(ValueError, match=r"c must be in \(0, 1\]"):
        case1_check(p322, c=0.0)
    with pytest.raises(ValueError, match=r"c must be in \(0, 1\]"):
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


def test_case1_verdict_includes_the_grid_margin(p322, monkeypatch):
    # the closed forms pass; a negative grid margin alone fails the report
    monkeypatch.setattr("lo_dynamics.barrier.barrier_h_prime",
                        lambda phi, params, c, lift=0.0: -1e9)
    report = case1_check(p322, grid_points=20)
    assert report.f0 >= 0.0 and report.g0 > 0.0 and report.g_end > 0.0
    assert report.grid_margin < 0.0 and not report.passed


@pytest.mark.parametrize("c", [1e-160, 1e-300, 5e-324])
def test_case1_c_outside_the_float_range(p322, c):
    # (phi + psi) ** 2 overflowed as a traceback, or F(0) and G(0) came out
    # -inf and nan, which barrier.json cannot hold
    with pytest.raises(ValueError, match=rf"\(3,2,2\) with c={c} leaves the float range"):
        case1_check(p322, c=c, grid_points=20)


def test_case2_k_outside_the_float_range():
    # the step-1 margin of (3,2,1e154) came out -inf and printed FAIL
    with pytest.raises(ValueError, match=r"\(3,2,10{154}\) leaves the float range"):
        case2_check(build_params(3, 2, 10 ** 154), grid_points=20, cycle_grid=(4, 4))


def test_case1_rejects_spiral(p324):
    with pytest.raises(NotApplicable, match="has a spiral equilibrium"):
        case1_check(p324)


def test_barrier_curve_consistency(p322):
    # h and h' used by the grid sweep agree with a finite difference
    c = default_c(p322)
    for phi in [0.2, 0.5, 0.9]:
        d = 1e-6
        fd = (barrier_h(phi + d, p322, c) - barrier_h(phi - d, p322, c)) / (2 * d)
        assert barrier_h_prime(phi, p322, c) == pytest.approx(fd, rel=1e-8)


def _envelope(a, b=1):
    """F(s) = (4/25) ((3+5s)/(1+s))^2 (1+5s)/(1+10s) at s = a/b, exact in
    Fractions; each factor is homogeneous of degree 0 in (a, b), so (1, 0)
    gives the limit s -> infinity."""
    return (Fraction(4, 25) * Fraction(3 * b + 5 * a, b + a) ** 2
            * Fraction(b + 5 * a, b + 10 * a))


def test_fs_minimum_exact():
    s_star = Fraction(1, 5)
    assert FS_ARGMIN == float(s_star) and FS_MIN == float(Fraction(32, 27))
    assert _envelope(s_star) == Fraction(32, 27)
    # the critical point: for s > 0, F'(s) has the sign of 175 s^2 + 20 s - 11
    assert 175 * s_star ** 2 + 20 * s_star - 11 == 0
    assert min(_envelope(s_star - Fraction(1, 1000)),
               _envelope(s_star + Fraction(1, 1000))) > Fraction(32, 27)


def test_fs_envelope_limits():
    assert _envelope(0) == Fraction(36, 25)
    assert _envelope(1, 0) == 2


@pytest.mark.parametrize("npk", [(3, 2, 4), (5, 4, 6)])
def test_case2_step1(npk):
    params = build_params(*npk)
    report = case2_check(params, grid_points=2000, cycle_grid=(2, 1))
    assert report.g_grid_margin > 0.0
    assert (report.fs_min, report.fs_argmin) == (FS_MIN, FS_ARGMIN)
    assert report.cycle_margin < 0.0
    assert report.passed


@pytest.mark.parametrize("npk", SPIRAL_TRIPLES)
def test_spiral_certificates_on_the_whole_table(npk):
    # the lemma's lowest psi row holds the maximum of its whole grid, bit for bit
    params = build_params(*npk)
    assert case2_check(params).passed
    for grid in [(200, 200), (40, 40), (4, 4)]:
        assert no_limit_cycle_check(params, grid=grid) == no_limit_cycle_full_grid(params, grid)


@pytest.mark.parametrize("npk", SPIRAL_TRIPLES)
def test_step1_sweep_is_the_reduced_certificate(npk):
    # the paper's I - II + III*IV at s(phi) is the slope margin of the step-1
    # curve g = (2 f1 + 1/5) phi, the barrier family's member c = 1/2, lift = 1/5
    params = build_params(*npk)
    lam2, phi0, points = params.lambda_sq, params.phi0, DEFAULT_GRID_POINTS
    s_end = 1.0 + lam2 * phi0 * phi0
    swept, worst = [], 0.0
    for i in range(1, points + 1):
        phi = phi0 * i / (points + 1)
        x1, x2 = vector_field_xy(phi, barrier_h(phi, params, 0.5, 0.2), params)
        swept.append(barrier_h_prime(phi, params, 0.5, 0.2) - x2 / x1)
        reduced = step1_margin(s_end / (1.0 + lam2 * phi * phi) - 1.0, params)
        worst = max(worst, abs(reduced / swept[-1] - 1.0))
    assert worst <= 1e-13
    assert case2_check(params, cycle_grid=(2, 1)).g_grid_margin == min(swept)


def _step1_both_sides(phi: Fraction, params):
    """The reduced I - II + III*IV at s(phi) and the swept g' - X2(phi, g)/g,
    with g = (2 f1 + 1/5) phi, both exact at a rational phi; also g and g'."""
    n, p = params.n, params.p
    lam2 = params.lambda_sq_frac
    den = 1 + lam2 * phi * phi
    s = (1 + lam2 * params.phi0_sq_frac) / den - 1
    term_i = Fraction(6, 5) + 2 * s
    term_ii = 4 * (lam2 * p - n - s) * (1 + s) / ((lam2 - 1) * p)
    term_iii = (lam2 + s) / (lam2 - 1) - s / (2 * s + Fraction(1, 5))
    term_iv = 1 + (lam2 * p - n - s) * (Fraction(6, 5) + 2 * s) ** 2 / (lam2 * (1 + s))
    f1_v = (lam2 - 1) * p / den - (n - p)
    f1_p = -2 * (lam2 - 1) * p * lam2 * phi / (den * den)
    f2_v = n - p + p / den
    g = (2 * f1_v + Fraction(1, 5)) * phi
    g_prime = 2 * (f1_v + f1_p * phi) + Fraction(1, 5)
    x2 = -g - (f2_v * g - f1_v * phi) * (1 + (phi + g) ** 2)
    return term_i - term_ii + term_iii * term_iv, g_prime - x2 / g, g, g_prime


@pytest.mark.parametrize("npk", [(3, 2, 4), (5, 4, 6)])
def test_step1_reduction_is_exact(npk):
    params = build_params(*npk)
    phi_top = Fraction(params.phi0).limit_denominator(1000)
    while phi_top ** 2 >= params.phi0_sq_frac:
        phi_top -= Fraction(1, 1000)
    for j in range(1, 25):
        phi = phi_top * j / 24
        reduced, swept, g, g_prime = _step1_both_sides(phi, params)
        assert reduced == swept
        assert barrier_h(float(phi), params, 0.5, 0.2) == pytest.approx(float(g), rel=1e-14)
        assert barrier_h_prime(float(phi), params, 0.5, 0.2) == pytest.approx(
            float(g_prime), rel=1e-14)


def test_case2_rejects_type1(p322):
    with pytest.raises(NotApplicable, match="has a non-spiral equilibrium"):
        case2_check(p322)
    with pytest.raises(NotApplicable, match="has a non-spiral equilibrium"):
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


def _nan_once(monkeypatch, hit):
    """Make barrier's vector_field_xy return X2 = nan at the first point
    (phi, psi) where hit(phi, psi, params) holds; returns that point's list."""
    seen = []

    def field(phi, psi, params):
        x1, x2 = vector_field_xy(phi, psi, params)
        if not seen and hit(phi, psi, params):
            seen.append((phi, psi))
            return x1, math.nan
        return x1, x2

    monkeypatch.setattr("lo_dynamics.barrier.vector_field_xy", field)
    return seen


@pytest.mark.parametrize("triple, hit", [
    # the case-1 sweep and the step-1 sweep, halfway along (0, phi0)
    ((3, 2, 2), lambda phi, psi, params: phi > params.phi0 / 2.0),
    ((3, 2, 4), lambda phi, psi, params: phi > params.phi0 / 2.0),
    # the cycle-lemma row: only it evaluates X2 at psi < 0
    ((3, 2, 4), lambda phi, psi, params: psi < 0.0 and phi > params.phi0),
], ids=["case1", "step1", "cycle"])
def test_a_nan_grid_point_refuses_the_certificate(triple, hit, monkeypatch, tmp_path, capsys):
    # min and max drop a nan, so one nan point used to leave PASS standing
    seen = _nan_once(monkeypatch, hit)
    with pytest.raises(ValueError, match="leaves the float range"):
        (case1_check if triple == (3, 2, 2) else case2_check)(build_params(*triple))
    assert len(seen) == 1
    seen.clear()
    out = tmp_path / "out"
    assert main(["verify", *map(str, triple), "--out-dir", str(out)]) == 2
    assert "PASS" not in capsys.readouterr().out and len(seen) == 1
    assert not out.exists()


def test_a_nan_point_ends_the_cycle_row(p324, monkeypatch):
    seen = _nan_once(monkeypatch, lambda phi, psi, params: psi < 0.0)
    assert math.isnan(no_limit_cycle_check(p324))
    assert len(seen) == 1
