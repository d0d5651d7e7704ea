import math

import numpy as np
import pytest

from lo_dynamics import (
    StabilityType,
    build_params,
    detect_phi_hits,
    enumerate_admissible,
    detect_psi_zeros,
    shoot_unstable_manifold,
)
from lo_dynamics.analysis import (
    DensityReport,
    _cut,
    density_report,
    theta_infinity,
    theta_of_radius,
)
from lo_dynamics.errors import IntegrationFailure, NotApplicable
from lo_dynamics.geometry import volume_ratio
from lo_dynamics.radial import Profile, rescale_profile, to_profile
from oracles import (
    ball_volume,
    cone_profile,
    dense,
    mp_theta,
    orbit_at,
    simpson_theta,
    simpson_theta_at_cut,
    sphere_volume,
)


def graph_volume(profile, params, R):
    """Volume of the graph inside the ball of radius R, from Theta(R)."""
    n = params.n
    return theta_of_radius(profile, params, R) * ball_volume(n + 1) * R ** (n + 1)


def _cone_volume_exact(params, R):
    phi0 = params.phi0
    r_bar = R / math.sqrt(1.0 + phi0 ** 2)
    return (sphere_volume(params.n) * math.sqrt(1.0 + phi0 ** 2)
            * (1.0 + params.lambda_sq * phi0 ** 2) ** (params.p / 2.0)
            * r_bar ** (params.n + 1) / (params.n + 1))


@pytest.fixture(scope="module")
def cone322(p322):
    return cone_profile(p322, list(np.geomspace(1e-8, 50.0, 4000)))


def test_cone_volume_closed_form(p322, cone322):
    for R in [0.5, 2.0, 11.0]:
        got = graph_volume(cone322, p322, R)
        assert got == pytest.approx(_cone_volume_exact(p322, R), rel=1e-8)


def test_flat_disk_volume(p322):
    x = np.log(np.geomspace(1e-8, 10.0, 2000))
    zero = np.zeros_like(x)
    flat = Profile(x=x, phi=zero, psi=zero, dpsi=zero)
    R = 3.0
    got = graph_volume(flat, p322, R)
    n = p322.n
    assert got == pytest.approx(sphere_volume(n) * R ** (n + 1) / (n + 1), rel=1e-8)
    assert got == pytest.approx(ball_volume(n + 1) * R ** (n + 1), rel=1e-8)


def test_quadrature_panel_refinement(p322, cone322):
    # the Gauss-Legendre volume against the 65 536-panel Simpson oracle
    # (measured: 5.4e-15)
    a = graph_volume(cone322, p322, 2.0)
    b = simpson_theta(cone322, p322, 2.0, 65536) * ball_volume(p322.n + 1) * 2.0 ** (p322.n + 1)
    assert abs(b / a - 1.0) < 1e-12


def test_quadrature_sample_refinement(p322):
    coarse = cone_profile(p322, list(np.geomspace(1e-8, 50.0, 2000)))
    fine = cone_profile(p322, list(np.geomspace(1e-8, 50.0, 4000)))
    a = graph_volume(coarse, p322, 2.0)
    b = graph_volume(fine, p322, 2.0)
    assert abs(b / a - 1.0) < 1e-9


def test_radius_out_of_range(p322, cone322):
    with pytest.raises(ValueError, match="outside profile span"):
        graph_volume(cone322, p322, 1e-10)
    with pytest.raises(ValueError, match="outside profile span"):
        graph_volume(cone322, p322, 1e4)


@pytest.mark.parametrize("R", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_radius_must_be_positive_and_finite(p322, cone322, R):
    with pytest.raises(ValueError, match="R must be positive and finite"):
        theta_of_radius(cone322, p322, R)


@pytest.mark.parametrize("n_panels", [0, -4])
def test_volume_core_needs_a_panel(p322, cone322, traj324, n_panels):
    # the quadrature reads no n_panels, but the benchmark counts
    # with it, so theta_of_radius and density_report still check it
    with pytest.raises(ValueError, match="n_panels must be at least 1"):
        theta_of_radius(cone322, p322, 2.0, n_panels=n_panels)
    with pytest.raises(ValueError, match="n_panels must be at least 1"):
        density_report(traj324, n_panels=n_panels)


def _first_rescaled_5_4_1e9():
    params = build_params(5, 4, 10 ** 9)
    traj = shoot_unstable_manifold(params)
    hit = detect_phi_hits(traj, params.phi0)[0]
    return traj, rescale_profile(to_profile(traj), hit.dilation)


def test_radii_sharing_a_log_radius_5_4_1e9():
    # the first rescaled profile of (5,4,10^9) has radii that round onto
    # each other near its start, and this R cuts it there: the profile
    # keeps every sample, as its x is the orbit's time and ln d is kept
    # apart from it (x - ln d rounds neighbouring samples together)
    traj, first = _first_rescaled_5_4_1e9()
    params = traj.params
    assert len(first) == len(traj) and np.any(np.diff(first.r) == 0.0)
    assert not np.all(np.diff(first.x - first.log_d) > 0.0)
    theta = theta_of_radius(first, params, 0.07147138634964101)
    assert 1.0 <= theta <= theta_of_radius(first, params, 0.0716) < theta_infinity(params)


def test_simpson_oracle_refuses_unresolvable_segments(p322, cone322):
    # segments a few ulps of x wide below the cut are beyond any float node
    # grid, and the oracle refuses them; x = t - ln d would give the first
    # rescaled profile of (5,4,10^9) 373 such segments, x = t none
    x = np.array(cone322.x) + 100.0
    x[1001] = np.nextafter(x[1000], math.inf)
    narrow = Profile(x=x, phi=cone322.phi, psi=cone322.psi, dpsi=cone322.dpsi)
    with pytest.raises(ValueError, match="float nodes cannot resolve it"):
        simpson_theta(narrow, p322, math.exp(102.0), 65536)


def test_simpson_oracle_resolves_the_5_4_1e9_profile():
    # at R = 0.07147138634964101 the cut of (5,4,10^9)'s first rescaled
    # profile lies among segments where psi reaches 2e7, 1.5e-8 after the
    # first sample; in x = t the oracle's nodes resolve them, and its
    # 1 048 576-panel value agrees with theta_of_radius (measured: 1.2e-10;
    # 4.2e-7 at 65 536 panels)
    traj, first = _first_rescaled_5_4_1e9()
    R = 0.07147138634964101
    oracle = simpson_theta(first, traj.params, R, 1048576)
    assert abs(theta_of_radius(first, traj.params, R) / oracle - 1.0) < 1e-9


@pytest.mark.parametrize("bad", [math.nan, 0.5])
def test_profile_radii_must_not_decrease(p322, cone322, bad):
    x = np.array(cone322.x)
    x[100] = math.log(bad)  # log 0.5 lies below x[99] and above x[101]
    with pytest.raises(ValueError, match="x = log r must be strictly increasing"):
        Profile(x=x, phi=cone322.phi, psi=cone322.psi, dpsi=cone322.dpsi)


def test_theta_refuses_a_profile_whose_r2_rho2_stops_rising(p322):
    # r^2 + rho^2 = e^{2x} (1 + phi^2) falls where phi drops fast enough
    x = np.linspace(0.0, 1.0, 5)
    phi = np.array([1.0, 1.0, 0.1, 0.1, 0.1])
    zero = np.zeros_like(x)
    profile = Profile(x=x, phi=phi, psi=zero, dpsi=zero)
    with pytest.raises(IntegrationFailure, match="not strictly increasing"):
        theta_of_radius(profile, p322, 1.5)


def test_theta_infinity_identity():
    # Theta_inf (n+1) omega_{n+1} is the graph sphere's volume
    # volume_ratio |S^n|, and theta_infinity is volume_ratio itself
    for params in enumerate_admissible(31, 20):
        t_inf = theta_infinity(params)
        assert t_inf == volume_ratio(params)
        n = params.n
        assert t_inf * (n + 1) * ball_volume(n + 1) == pytest.approx(
            volume_ratio(params) * sphere_volume(n), rel=1e-10)


def test_cone_theta_constant(p324):
    prof = cone_profile(p324, list(np.geomspace(1e-8, 50.0, 4000)))
    t_inf = theta_infinity(p324)
    for R in [0.3, 1.0, 9.0]:
        assert theta_of_radius(prof, p324, R) == pytest.approx(t_inf, rel=1e-8)


@pytest.mark.parametrize("fixture", ["traj322", "traj324"])
def test_theta_nondecreasing_along_orbit(fixture, request):
    traj = request.getfixturevalue(fixture)
    profile = to_profile(traj)
    r2 = profile.r ** 2 + profile.rho ** 2
    radii = np.sqrt(np.geomspace(r2[2], r2[-1] * 0.999, 50))
    thetas = [theta_of_radius(profile, traj.params, R) for R in radii]
    diffs = np.diff(thetas)
    assert np.all(diffs > -1e-9)


def test_density_report_324(p324, traj324):
    report = density_report(traj324)
    assert isinstance(report, DensityReport)
    assert len(report.thetas) >= 10
    assert report.strictly_below_cone
    assert report.thetas[0] < report.theta_infinity - 1e-9
    assert np.all(np.diff(report.thetas) > -1e-9)
    # R_i = sqrt(d_i^2 + rho(d_i)^2) = d_i sqrt(1 + phi0^2) at slope crossings
    for R, expect in zip(report.radii, (h * math.hypot(1.0, p324.phi0)
                                        for h in _dilations(traj324, p324))):
        assert R == pytest.approx(expect, rel=1e-9)


def _dilations(traj, params):
    return [h.dilation for h in detect_phi_hits(traj, params.phi0)]


def test_density_radii_are_the_rescaled_unit_radius(spirals):
    # at a crossing phi = phi0, so R_i = d_i sqrt(1 + phi0^2) by definition;
    # interpolating phi there moved R_i by at most 2.3e-14 relative
    for traj in spirals.values():
        phi0 = traj.params.phi0
        hits = detect_phi_hits(traj, phi0)
        assert density_report(traj).radii == [h.dilation * math.sqrt(1 + phi0 ** 2)
                                              for h in hits]


def test_density_rejects_type1(traj322):
    with pytest.raises(NotApplicable, match="is not of the spiral type"):
        density_report(traj322)


def test_density_needs_hits(p324):
    short = shoot_unstable_manifold(p324, t_max=1.0, max_crossings=10 ** 6)
    with pytest.raises(NotApplicable, match="need >= 2 slope crossings"):
        density_report(short)


def _in_band(traj, phi_b):
    """phi_2 <= phi_b <= phi_1 at the first two psi zeros, where the orbit's
    family is only a lower bound on the solutions with boundary slope phi_b."""
    zeros = detect_psi_zeros(traj)
    return len(zeros) >= 2 and zeros[1].phi <= phi_b <= zeros[0].phi


def test_dirichlet_type1_unique(p322, traj322):
    phi_b = 0.5 * p322.phi0
    assert len(detect_phi_hits(traj322, phi_b)) == 1
    assert not _in_band(traj322, phi_b)


def test_dirichlet_type2_at_cone_slope(p324, traj324):
    assert len(detect_phi_hits(traj324, p324.phi0)) >= 10
    assert _in_band(traj324, p324.phi0)


def test_dirichlet_above_cone_slope(p324, traj324):
    phi_1 = detect_psi_zeros(traj324)[0].phi
    phi_b = p324.phi0 + 0.3 * (phi_1 - p324.phi0)
    assert len(detect_phi_hits(traj324, phi_b)) >= 2
    assert _in_band(traj324, phi_b)


def test_dilations_reproduce_boundary_data(p324, traj324):
    phi_b = p324.phi0
    for hit in detect_phi_hits(traj324, phi_b):
        t = math.log(hit.dilation)
        rho_over_d = orbit_at(traj324, t).phi  # rho(d)/d = phi(log d)
        assert abs(rho_over_d - phi_b) < 1e-9


def test_dirichlet_rejects_nonpositive_slope(traj322):
    for phi_b in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="target must be positive and finite"):
            detect_phi_hits(traj322, phi_b)


# ----------------------------------------------------------------------
# the density computation written sample by sample, kept as the reference
# for the columnar one: the columns gathered from the trajectory one sample
# at a time, phi evaluated through 1-element arrays, the levels as a list,
# and the volume by the Simpson oracle

class _PerSampleColumns:
    def __init__(self, traj, log_d=0.0):
        rows = [(t, traj.params.phi0 + u, psi, dpsi)
                for t, u, psi, dpsi in zip(traj.t, traj.u, traj.psi, traj.dpsi)]
        self.x, self.phi, self.psi, self.dpsi = (np.array(col) for col in zip(*rows))
        self.log_d = log_d
        assert np.all(np.diff(self.x) > 0.0)

    def cut_x(self, R):
        target = 2.0 * (math.log(R) + self.log_d)

        def phi(x):
            return float(dense(self.x, np.array([x]), (self.phi, self.psi))[0][0])

        def g(x):
            return 2.0 * x + math.log1p(phi(x) ** 2) - target

        levels = [2.0 * x + math.log1p(v * v) for x, v in zip(self.x.tolist(), self.phi.tolist())]
        assert all(a < b for a, b in zip(levels, levels[1:]))
        assert levels[0] - target <= 1e-12 and levels[-1] - target >= -1e-12
        # the last sample at or below the target, on the last segment at most
        i = max([j for j, level in enumerate(levels[:-1]) if level <= target], default=0)
        a, b = float(self.x[i]), float(self.x[i + 1])
        ga, gb = g(a), g(b)
        if ga >= 0.0:
            return a, phi(a)
        if gb <= 0.0:
            return b, phi(b)
        while True:
            m = 0.5 * (a + b)
            if m <= a or m >= b:
                break
            gm = g(m)
            if gm == 0.0:
                return m, phi(m)
            if gm < 0.0:
                a = m
            else:
                b = m
        m = 0.5 * (a + b)
        return m, phi(m)


def _theta_per_sample(cols, params, R, n_panels):
    return simpson_theta_at_cut(cols, params, cols.cut_x(R), n_panels)


@pytest.mark.parametrize("triple", [(3, 2, 4), (3, 2, 10), (5, 4, 20)])
def test_density_report_matches_per_sample_code(triple):
    # theta_1_volume agrees with the per-sample 65 536-panel Simpson oracle
    # to 1e-12 (measured: at most 6.7e-16)
    traj = shoot_unstable_manifold(build_params(*triple))
    report = density_report(traj)
    params = traj.params
    R = math.sqrt(1.0 + params.phi0 ** 2)
    hits = detect_phi_hits(traj, params.phi0)
    oracle = _theta_per_sample(_PerSampleColumns(traj, math.log(hits[0].dilation)), params, R,
                               65536)
    assert abs(report.theta_1_volume / oracle - 1.0) < 1e-12
    # the per-sample Simpson densities of the rescaled profiles are the
    # independent route: where a Simpson gap Theta_inf - Theta_i exceeds 1e-8
    # and its own error, measured by halving the panels, is below 1e-4 of it,
    # it agrees with the gap from the monotonicity identity to 1e-3
    # (measured: 1.9e-6, 1.7e-6 and 4.0e-5, 2.6e-4 relative)
    compared = []
    for i, hit in enumerate(hits[:3]):
        rescaled = _PerSampleColumns(traj, math.log(hit.dilation))
        fine, coarse = (report.theta_infinity - _theta_per_sample(rescaled, params, R, m)
                        for m in (32768, 16384))
        gap = 10.0 ** report.log10_gaps[i]
        if gap > 1e-8 and abs(fine - coarse) < 1e-4 * gap:
            assert abs(fine / gap - 1.0) < 1e-3
            compared.append(i)
    assert compared[0] == 0
    for R_i, hit in zip(report.radii, hits):
        assert R_i == pytest.approx(hit.dilation * R, rel=1e-12)


@pytest.mark.parametrize("fixture", ["traj322", "traj542"])
def test_theta_of_radius_matches_per_sample_code(fixture, request):
    traj = request.getfixturevalue(fixture)
    profile = to_profile(traj)
    cols = _PerSampleColumns(traj)
    # within 1e-12 of the 65 536-panel oracle (measured: at most 4.9e-14)
    for R in (0.5, 1.0, 2.0):
        oracle = _theta_per_sample(cols, traj.params, R, 65536)
        assert abs(theta_of_radius(profile, traj.params, R) / oracle - 1.0) < 1e-12


def _separate_lookup_hermite(x, xq, y, m):
    """The interpolant as evaluated when phi and psi each located the query
    points themselves, with the Hermite basis written in (s, h) form."""
    i = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, len(x) - 2)
    x0 = x[i]
    h = x[i + 1] - x0
    s = (xq - x0) / h
    s2 = s * s
    s3 = s2 * s
    return ((2.0 * s3 - 3.0 * s2 + 1.0) * y[i] + (s3 - 2.0 * s2 + s) * h * m[i]
            + (-2.0 * s3 + 3.0 * s2) * y[i + 1] + (s3 - s2) * h * m[i + 1])


@pytest.mark.parametrize("fixture", ["traj322", "traj324"])
def test_dense_matches_separate_lookups(fixture, request):
    profile = to_profile(request.getfixturevalue(fixture))
    x = profile.x
    xq = np.concatenate([np.linspace(x[0], x[-1], 8193), [x[0] - 1.0, x[-1] + 1.0]])
    phi, psi = dense(x, xq, (profile.phi, profile.psi), (profile.psi, profile.dpsi))
    assert np.array_equal(phi, _separate_lookup_hermite(x, xq, profile.phi, profile.psi))
    assert np.array_equal(psi, _separate_lookup_hermite(x, xq, profile.psi, profile.dpsi))
    # the cut takes phi there from the cut's own segment: the same bits
    for R in (0.5, 1.0, 2.0):
        x_cut, phi_cut = _cut(profile, R)
        assert phi_cut == dense(x, np.array([x_cut]), (profile.phi, profile.psi))[0][0]


def _log_radii(profile):
    """ln sqrt(r^2 + rho^2) = x + log1p(phi^2)/2 at each sample."""
    return profile.x + np.log1p(profile.phi * profile.phi) / 2.0


def test_cut_solves_its_level_equation(table_trajs):
    # on every table profile at three radii across its span, the cut that
    # theta_of_radius solves meets 2x + log1p(phi(x)^2) = 2 ln R to within
    # a few ulp of its largest term (measured: at most 2)
    for traj in table_trajs.values():
        profile = to_profile(traj)
        lo, hi = _log_radii(profile)[[0, -1]]
        for f in (0.25, 0.5, 0.75):
            R = math.exp(lo + f * (hi - lo))
            target = 2.0 * math.log(R)
            x_cut, phi_cut = _cut(profile, R)
            assert profile.x[0] <= x_cut <= profile.x[-1]
            terms = (2.0 * x_cut, math.log1p(phi_cut * phi_cut), target)
            assert abs(sum(terms[:2]) - target) <= 4.0 * math.ulp(max(map(abs, terms)))


def test_theta_matches_the_simpson_oracle_on_the_table(table_trajs):
    # on every table profile, at one radius before the splice (a quarter,
    # half or three quarters across its span, in turn), theta_of_radius
    # agrees with the 65 536-panel Simpson oracle to that oracle's own
    # error (measured: at most 1.3e-10, on (31,30,2))
    for n, traj in enumerate(table_trajs.values()):
        profile = to_profile(traj)
        spiral = traj.params.stability is StabilityType.SPIRAL_TYPE_II
        end = traj.splice_index if spiral else len(traj) - 1
        lo, hi = _log_radii(profile)[[0, end]]
        R = math.exp(lo + (0.25, 0.5, 0.75)[n % 3] * (hi - lo))
        oracle = simpson_theta(profile, traj.params, R, 65536)
        assert abs(theta_of_radius(profile, traj.params, R) / oracle - 1.0) < 5e-10, traj.params


def test_theta_past_the_splice_matches_the_simpson_oracle(spirals):
    # past the splice a segment spans a quarter-turn, several e-folds of
    # the volume integrand, and each is split into panels: theta_of_radius
    # agrees with the 524 288-panel oracle to 1e-13 halfway from the
    # splice to the run's end (measured: at most 4.8e-14)
    for traj in spirals.values():
        profile, params = to_profile(traj), traj.params
        t = 0.5 * (traj.t[traj.splice_index] + traj.t_end)
        R = math.exp(t) * math.hypot(1.0, params.phi0)
        oracle = simpson_theta(profile, params, R, 524288)
        assert abs(theta_of_radius(profile, params, R) / oracle - 1.0) < 1e-13, params


def test_theta_where_the_gap_route_cancels():
    # for (31,28,4) at R = 1.049, Theta(R) = 50.8 against Theta_inf = 4.2e7,
    # so Theta_inf - gap loses 3.1e-5 relative there; the volume does not
    # (measured: 7.3e-15 from the 524 288-panel oracle)
    traj = shoot_unstable_manifold(build_params(31, 28, 4))
    profile = to_profile(traj)
    oracle = simpson_theta(profile, traj.params, 1.049, 524288)
    assert abs(theta_of_radius(profile, traj.params, 1.049) / oracle - 1.0) < 1e-13


@pytest.mark.parametrize("triple", [(29, 28, 20), (27, 26, 6), (23, 22, 18), (31, 30, 12)])
def test_theta_matches_its_rule_at_40_digits(triple):
    # the same panels, nodes and cut in mpmath on the exact samples: what
    # is left is the rounding of theta_of_radius, which x = t keeps small
    # (measured: 1.3e-15, 4.0e-15, 1.3e-15, 2.9e-15; x = log(e^t) gives
    # 1.6e-14, 8.9e-15, 1.4e-14, 8.5e-15, as e^{(n+1)x} amplifies its rounding)
    traj = shoot_unstable_manifold(build_params(*triple))
    theta = theta_of_radius(to_profile(traj), traj.params, 2.0)
    assert abs(theta / mp_theta(traj, 2.0) - 1.0) < 6e-15
