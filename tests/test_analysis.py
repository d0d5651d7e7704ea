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
    _ProfileInterp,
    density_report,
    theta_infinity,
    theta_of_radius,
)
from lo_dynamics.errors import NotApplicable
from lo_dynamics.geometry import volume_ratio
from lo_dynamics.radial import Profile, rescale_profile, to_profile
from oracles import (
    ProfileSample,
    ball_volume,
    cone_profile,
    dense,
    interp_simpson_theta,
    orbit_at,
    simpson_theta,
    sphere_volume,
    to_profile_per_sample,
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
    r = np.geomspace(1e-8, 10.0, 2000)
    zero = np.zeros_like(r)
    flat = Profile(r=r, rho=zero, rho_r=zero, rho_rr=zero)
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


def test_repeated_radii_keep_the_first_sample(p322, cone322):
    # DP5 steps below an ulp of r = e^t repeat a radius, and distinct radii
    # can share one log r (density 5 4 1e9); the interpolant keeps the first
    # sample of each run of equal log r, so Theta(R) is that of the profile
    # without the repeats, whatever the repeats hold
    i = [11, 1001, 2001, 2001]  # a repeat of r[10], r[1000]'s next float, two of r[2000]
    extra = cone322.r[[10, 1000, 2000, 2000]]
    extra[1] = np.nextafter(extra[1], math.inf)
    assert extra[1] > cone322.r[1000] and np.log(extra[1]) == np.log(cone322.r[1000])
    repeated = Profile(r=np.insert(cone322.r, i, extra),
                       rho=np.insert(cone322.rho, i, 7.0),
                       rho_r=np.insert(cone322.rho_r, i, -7.0),
                       rho_rr=np.insert(cone322.rho_rr, i, 7.0))
    assert len(repeated) == len(cone322) + 4
    for R in (0.5, 2.0, 11.0):
        assert theta_of_radius(repeated, p322, R) == theta_of_radius(cone322, p322, R)


def test_radii_sharing_a_log_radius_5_4_1e9():
    # the first rescaled profile of (5,4,10^9) has distinct radii sharing
    # one log r near its start, and this R cuts it there: the cut's cubic
    # once divided by the zero width of such a segment
    params = build_params(5, 4, 10 ** 9)
    traj = shoot_unstable_manifold(params)
    first = rescale_profile(to_profile(traj), detect_phi_hits(traj, params.phi0)[0].dilation)
    assert np.any((np.diff(first.r) > 0.0) & (np.diff(np.log(first.r)) == 0.0))
    theta = theta_of_radius(first, params, 0.07147138634964101)
    assert 1.0 <= theta <= theta_of_radius(first, params, 0.0716) < theta_infinity(params)


def test_simpson_oracle_refuses_unresolvable_segments():
    # the same profile and R: the oracle gave 2 433 at 65 536 panels and 154
    # at 1 048 576, against 93.61, as segments below the cut as narrow as
    # one ulp of x hold psi up to 2e7, beyond any float node grid; it now
    # refuses the profile instead
    params = build_params(5, 4, 10 ** 9)
    traj = shoot_unstable_manifold(params)
    first = rescale_profile(to_profile(traj), detect_phi_hits(traj, params.phi0)[0].dilation)
    interp = _ProfileInterp(first)
    x_cut = interp.cut_x(0.07147138634964101)[0]
    widths = np.diff(interp.x[interp.x <= x_cut])
    assert widths.min() == np.spacing(2.64) and np.sum(widths < 1e-13) > 300
    for n_panels in (65536, 1048576):
        with pytest.raises(ValueError, match="float nodes cannot resolve it"):
            simpson_theta(first, params, 0.07147138634964101, n_panels)


@pytest.mark.parametrize("bad", [math.nan, 0.5])
def test_profile_radii_must_not_decrease(p322, cone322, bad):
    r = cone322.r.copy()
    r[100] = bad  # 0.5 lies below r[99] and above r[101]
    profile = Profile(r=r, rho=cone322.rho, rho_r=cone322.rho_r, rho_rr=cone322.rho_rr)
    with pytest.raises(ValueError, match="profile radii must not decrease"):
        theta_of_radius(profile, p322, 2.0)


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
# the density computation as it was written for lists of samples, kept as
# the reference for the columnar one: arrays gathered sample by sample,
# phi evaluated through 1-element arrays, a new sample list per crossing,
# and the volume by the Simpson oracle

class _PerSampleInterp(_ProfileInterp):
    def __init__(self, samples):
        r = np.array([s.r for s in samples])
        rho = np.array([s.rho for s in samples])
        rho_r = np.array([s.rho_r for s in samples])
        rho_rr = np.array([s.rho_rr for s in samples])
        assert np.all(np.diff(r) > 0.0)
        self.x = np.log(r)
        self.phi = rho / r
        self.psi = rho_r - self.phi
        self.dpsi = r * rho_rr - self.psi
        self.r2rho2 = r * r + rho * rho
        assert np.all(np.diff(self.r2rho2) > 0.0)

    def cut_x(self, R):
        target = 2.0 * math.log(R)

        def phi(x):
            return float(dense(self.x, np.array([x]), (self.phi, self.psi))[0][0])

        def g(x):
            return 2.0 * x + math.log1p(phi(x) ** 2) - target

        levels = [2.0 * x + math.log1p(v * v) for x, v in zip(self.x.tolist(), self.phi.tolist())]
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


def _theta_per_sample(samples, params, R, n_panels):
    return interp_simpson_theta(_PerSampleInterp(samples), params, R, n_panels)


def _rescaled_per_sample(samples, d):
    return [ProfileSample(r=s.r / d, rho=s.rho / d, rho_r=s.rho_r, rho_rr=s.rho_rr * d)
            for s in samples]


@pytest.mark.parametrize("triple", [(3, 2, 4), (3, 2, 10), (5, 4, 20)])
def test_density_report_matches_per_sample_code(triple):
    # theta_1_volume agrees with the per-sample 65 536-panel Simpson oracle
    # to 1e-12 (measured: at most 4.4e-16)
    traj = shoot_unstable_manifold(build_params(*triple))
    report = density_report(traj)
    samples = to_profile_per_sample(traj)
    params = traj.params
    R = math.sqrt(1.0 + params.phi0 ** 2)
    hits = detect_phi_hits(traj, params.phi0)
    oracle = _theta_per_sample(_rescaled_per_sample(samples, hits[0].dilation), params, R, 65536)
    assert abs(report.theta_1_volume / oracle - 1.0) < 1e-12
    # the per-sample Simpson densities of the rescaled profiles are the
    # independent route: where a Simpson gap Theta_inf - Theta_i exceeds 1e-8
    # and its own error, measured by halving the panels, is below 1e-4 of it,
    # it agrees with the gap from the monotonicity identity to 1e-3
    # (measured: 1.9e-6, 1.7e-6 and 4.0e-5, 2.6e-4 relative)
    compared = []
    for i, hit in enumerate(hits[:3]):
        rescaled = _rescaled_per_sample(samples, hit.dilation)
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
    samples = to_profile_per_sample(traj)
    # within 1e-12 of the 65 536-panel oracle (measured: at most 4.9e-14)
    for R in (0.5, 1.0, 2.0):
        oracle = _theta_per_sample(samples, traj.params, R, 65536)
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
    interp = _ProfileInterp(to_profile(request.getfixturevalue(fixture)))
    x = interp.x
    xq = np.concatenate([np.linspace(x[0], x[-1], 8193), [x[0] - 1.0, x[-1] + 1.0]])
    phi, psi = dense(x, xq, (interp.phi, interp.psi), (interp.psi, interp.dpsi))
    assert np.array_equal(phi, _separate_lookup_hermite(x, xq, interp.phi, interp.psi))
    assert np.array_equal(psi, _separate_lookup_hermite(x, xq, interp.psi, interp.dpsi))
    # cut_x takes phi at the cut from the cut's own segment: the same bits
    for R in (0.5, 1.0, 2.0):
        x_cut, phi_cut = interp.cut_x(R)
        assert phi_cut == dense(x, np.array([x_cut]), (interp.phi, interp.psi))[0][0]


def test_cut_solves_its_level_equation(table_trajs):
    # on every table profile at three radii across its span, the cut that
    # theta_of_radius solves meets 2x + log1p(phi(x)^2) = 2 ln R to within
    # a few ulp of its largest term (measured: at most 2)
    for traj in table_trajs.values():
        interp = _ProfileInterp(to_profile(traj))
        lo, hi = np.log(interp.r2rho2[[0, -1]]) / 2.0
        for f in (0.25, 0.5, 0.75):
            R = math.exp(lo + f * (hi - lo))
            target = 2.0 * math.log(R)
            x_cut, phi_cut = interp.cut_x(R)
            assert interp.x[0] <= x_cut <= interp.x[-1]
            terms = (2.0 * x_cut, math.log1p(phi_cut * phi_cut), target)
            assert abs(sum(terms[:2]) - target) <= 4.0 * math.ulp(max(map(abs, terms)))


def test_theta_matches_the_simpson_oracle_on_the_table(table_trajs):
    # on every table profile, at one radius before the splice (a quarter,
    # half or three quarters across its span, in turn), theta_of_radius
    # agrees with the 65 536-panel Simpson oracle to that oracle's own
    # error (measured: at most 1.3e-10, on (31,30,2))
    for n, traj in enumerate(table_trajs.values()):
        profile = to_profile(traj)
        interp = _ProfileInterp(profile)
        spiral = traj.params.stability is StabilityType.SPIRAL_TYPE_II
        end = traj.splice_index if spiral else len(traj) - 1
        lo, hi = np.log(interp.r2rho2[[0, end]]) / 2.0
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
    # (measured: 5.8e-15 from the 524 288-panel oracle)
    traj = shoot_unstable_manifold(build_params(31, 28, 4))
    profile = to_profile(traj)
    oracle = simpson_theta(profile, traj.params, 1.049, 524288)
    assert abs(theta_of_radius(profile, traj.params, 1.049) / oracle - 1.0) < 1e-13
