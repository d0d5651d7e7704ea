import math

import numpy as np
import pytest

from lo_dynamics import (
    build_params,
    detect_phi_hits,
    detect_psi_zeros,
    shoot_unstable_manifold,
)
from lo_dynamics.analysis import (
    DEFAULT_QUAD_PANELS,
    DensityReport,
    _ProfileInterp,
    _volume_core,
    density_report,
    dirichlet_solutions,
    graph_volume,
    theta_infinity,
    theta_of_radius,
)
from lo_dynamics.errors import InsufficientHits, NotTypeII, RadiusOutOfRange
from lo_dynamics.geometry import los_volume, unit_ball_volume, unit_sphere_volume
from lo_dynamics.radial import Profile, ProfileSample, cone_profile, to_profile


def _cone_volume_exact(params, R):
    phi0 = params.phi0
    r_bar = R / math.sqrt(1.0 + phi0 ** 2)
    return (unit_sphere_volume(params.n) * math.sqrt(1.0 + phi0 ** 2)
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
    assert got == pytest.approx(unit_sphere_volume(n) * R ** (n + 1) / (n + 1), rel=1e-8)
    assert got == pytest.approx(unit_ball_volume(n + 1) * R ** (n + 1), rel=1e-8)


def test_quadrature_panel_refinement(p322, cone322):
    a = graph_volume(cone322, p322, 2.0, n_panels=8192)
    b = graph_volume(cone322, p322, 2.0, n_panels=16384)
    assert abs(b / a - 1.0) < 1e-9


def test_quadrature_sample_refinement(p322):
    coarse = cone_profile(p322, list(np.geomspace(1e-8, 50.0, 2000)))
    fine = cone_profile(p322, list(np.geomspace(1e-8, 50.0, 4000)))
    a = graph_volume(coarse, p322, 2.0)
    b = graph_volume(fine, p322, 2.0)
    assert abs(b / a - 1.0) < 1e-9


def test_radius_out_of_range(p322, cone322):
    with pytest.raises(RadiusOutOfRange):
        graph_volume(cone322, p322, 1e-10)
    with pytest.raises(RadiusOutOfRange):
        graph_volume(cone322, p322, 1e4)


@pytest.mark.parametrize("R", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_radius_must_be_positive_and_finite(p322, cone322, R):
    for volume in (graph_volume, theta_of_radius):
        with pytest.raises(RadiusOutOfRange, match="R must be positive and finite"):
            volume(cone322, p322, R)


@pytest.mark.parametrize("n_panels", [0, -4])
def test_volume_core_needs_a_panel(p322, cone322, traj324, n_panels):
    # a Simpson rule with no panel samples nothing and would divide by zero
    interp = _ProfileInterp(cone322)
    with pytest.raises(ValueError, match="n_panels must be at least 1"):
        _volume_core(interp, p322, interp.cut_x(2.0), n_panels)
    for volume in (graph_volume, theta_of_radius):
        with pytest.raises(ValueError, match="n_panels must be at least 1"):
            volume(cone322, p322, 2.0, n_panels=n_panels)
    with pytest.raises(ValueError, match="n_panels must be at least 1"):
        density_report(traj324, n_panels=n_panels)


def test_theta_infinity_identity():
    for npk in [(3, 2, 2), (3, 2, 4), (5, 4, 6), (15, 8, 2)]:
        params = build_params(*npk)
        t_inf = theta_infinity(params)
        n = params.n
        assert t_inf * (n + 1) * unit_ball_volume(n + 1) == pytest.approx(
            los_volume(params), rel=1e-10)


def test_cone_theta_constant(p324):
    prof = cone_profile(p324, list(np.geomspace(1e-8, 50.0, 4000)))
    t_inf = theta_infinity(p324)
    for R in [0.3, 1.0, 9.0]:
        assert theta_of_radius(prof, p324, R) == pytest.approx(t_inf, rel=1e-8)


@pytest.mark.parametrize("fixture", ["traj322", "traj324"])
def test_theta_nondecreasing_along_orbit(fixture, request):
    traj = request.getfixturevalue(fixture)
    profile = to_profile(traj)
    r2 = np.array([s.r ** 2 + s.rho ** 2 for s in profile])
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


def test_density_rejects_type1(traj322):
    with pytest.raises(NotTypeII):
        density_report(traj322)


def test_density_needs_hits(p324):
    short = shoot_unstable_manifold(p324, t_max=1.0, max_crossings=10 ** 6)
    with pytest.raises(InsufficientHits):
        density_report(short)


def test_dirichlet_type1_unique(p322, traj322):
    report = dirichlet_solutions(traj322, 0.5 * p322.phi0)
    assert len(report.dilations) == 1
    assert not report.count_is_lower_bound
    assert not report.includes_singular_cone


def test_dirichlet_type2_at_cone_slope(p324, traj324):
    report = dirichlet_solutions(traj324, p324.phi0)
    assert len(report.dilations) >= 10
    assert report.count_is_lower_bound
    assert report.includes_singular_cone


def test_dirichlet_above_cone_slope(p324, traj324):
    phi_1 = detect_psi_zeros(traj324)[0].phi
    phi_b = p324.phi0 + 0.3 * (phi_1 - p324.phi0)
    report = dirichlet_solutions(traj324, phi_b)
    assert len(report.dilations) >= 2
    assert report.count_is_lower_bound
    assert not report.includes_singular_cone


def test_dilations_reproduce_boundary_data(p324, traj324):
    phi_b = p324.phi0
    report = dirichlet_solutions(traj324, phi_b)
    for d in report.dilations:
        t = math.log(d)
        rho_over_d = traj324.phi_at(t)  # rho(d)/d = phi(log d)
        assert abs(rho_over_d - phi_b) < 1e-9


def test_dirichlet_rejects_nonpositive_slope(traj322):
    with pytest.raises(ValueError):
        dirichlet_solutions(traj322, 0.0)


# ----------------------------------------------------------------------
# the density computation as it was written for lists of samples, kept as
# the reference for the columnar one: arrays gathered sample by sample,
# phi evaluated through 1-element arrays, a new sample list per crossing

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

        def g(x):
            return 2.0 * x + math.log1p(float(self.phi_at(np.array([x]))[0]) ** 2) - target

        a, b = float(self.x[0]), float(self.x[-1])
        ga, gb = g(a), g(b)
        assert ga <= 1e-12 and gb >= -1e-12
        if ga >= 0.0:
            return a
        if gb <= 0.0:
            return b
        for _ in range(200):
            m = 0.5 * (a + b)
            if m <= a or m >= b:
                break
            if g(m) < 0.0:
                a = m
            else:
                b = m
        return 0.5 * (a + b)


def _theta_per_sample(samples, params, R, n_panels=DEFAULT_QUAD_PANELS):
    n = params.n
    interp = _PerSampleInterp(samples)
    x_cut = interp.cut_x(R)
    core = _volume_core(interp, params, x_cut, n_panels)
    phi_cut = float(interp.phi_at(np.array([x_cut]))[0])
    ratio = (1.0 + phi_cut * phi_cut) ** (-(n + 1.0) / 2.0)
    return unit_sphere_volume(n) / unit_ball_volume(n + 1) * core * ratio


def _rescaled_per_sample(samples, d):
    return [ProfileSample(r=s.r / d, rho=s.rho / d, rho_r=s.rho_r, rho_rr=s.rho_rr * d)
            for s in samples]


@pytest.mark.parametrize("triple", [(3, 2, 4), (3, 2, 10), (5, 4, 20)])
def test_density_report_matches_per_sample_code(triple, to_profile_per_sample):
    # the per-sample Simpson densities of the rescaled profiles are the
    # independent route: where a Simpson gap Theta_inf - Theta_i exceeds 1e-8
    # and its own error, measured by halving the panels, is below 1e-4 of it,
    # it agrees with the gap from the monotonicity identity to 1e-3
    # (measured: 1.9e-6, 1.7e-6 and 4.0e-5, 2.6e-4 relative)
    traj = shoot_unstable_manifold(build_params(*triple))
    report = density_report(traj)
    samples = to_profile_per_sample(traj)
    params = traj.params
    R = math.sqrt(1.0 + params.phi0 ** 2)
    hits = detect_phi_hits(traj, params.phi0)
    assert report.theta_1_simpson == _theta_per_sample(
        _rescaled_per_sample(samples, hits[0].dilation), params, R)
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
def test_theta_of_radius_matches_per_sample_code(fixture, request, to_profile_per_sample):
    traj = request.getfixturevalue(fixture)
    profile = to_profile(traj)
    samples = to_profile_per_sample(traj)
    for R in (0.5, 1.0, 2.0):
        assert theta_of_radius(profile, traj.params, R) == \
            _theta_per_sample(samples, traj.params, R)


def test_density_report_builds_no_samples(monkeypatch, p324, traj324):
    built = []
    init = ProfileSample.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ProfileSample, "__init__", counting_init)
    density_report(traj324)
    assert built == []
    to_profile(traj324)[0]  # the counter sees a row read
    assert built == [1]


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
def test_phi_psi_at_matches_separate_lookups(fixture, request):
    interp = _ProfileInterp(to_profile(request.getfixturevalue(fixture)))
    x = interp.x
    xq = np.concatenate([np.linspace(x[0], x[-1], DEFAULT_QUAD_PANELS + 1),
                         [x[0] - 1.0, x[-1] + 1.0]])
    phi, psi = interp.phi_psi_at(xq)
    assert np.array_equal(phi, _separate_lookup_hermite(x, xq, interp.phi, interp.psi))
    assert np.array_equal(psi, _separate_lookup_hermite(x, xq, interp.psi, interp.dpsi))
    assert np.array_equal(interp.phi_at(xq), phi)
    assert [interp.phi_at_scalar(float(v)) for v in xq[::97]] == phi[::97].tolist()
