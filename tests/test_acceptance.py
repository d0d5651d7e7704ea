"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run under pytest (each test prints its verdict line; use -s to see them
live) or standalone:

    python tests/test_acceptance.py

which executes the criteria in order and prints one pass/fail line each;
a criterion that raises any exception fails with its type and message,
and the run goes on to the summary, exiting 1.
"""

import math
from fractions import Fraction

import numpy as np

from lo_dynamics import (
    Termination,
    build_params,
    detect_phi_hits,
    detect_psi_zeros,
    enumerate_admissible,
    shoot_unstable_manifold,
)
from lo_dynamics.analysis import density_report, theta_infinity, theta_of_radius
from lo_dynamics.barrier import (
    barrier_h,
    case1_closed_forms,
    FS_ARGMIN,
    FS_MIN,
    default_c,
    no_limit_cycle_check,
)
from lo_dynamics.geometry import geometry_report, volume_ratio
from lo_dynamics.hopf import angle_sum, hopf_map, numeric_singular_values
from lo_dynamics.params import StabilityType
from lo_dynamics.radial import ode1_residual, to_profile
from oracles import (
    HOPF_ROUNDING,
    PhaseState,
    advance_from,
    ball_volume,
    condition_b_sum,
    cone_profile,
    fd_jacobian,
    linearize_origin,
    ode_general_residual,
    orbit_at,
    profile_rows,
    reference_integrate,
    sphere_points,
    sphere_volume,
)

_CACHE = {}


def _params(n, p, k):
    key = ("params", n, p, k)
    if key not in _CACHE:
        _CACHE[key] = build_params(n, p, k)
    return _CACHE[key]


def _shot(n, p, k, **kwargs):
    key = ("shot", n, p, k, tuple(sorted(kwargs.items())))
    if key not in _CACHE:
        _CACHE[key] = shoot_unstable_manifold(_params(n, p, k), **kwargs)
    return _CACHE[key]


def _ok(num, name):
    print(f"criterion {num:02d} [{name}]: PASS")


def test_criterion_01_exact_constants():
    p = _params(3, 2, 2)
    assert abs(math.cos(p.theta) - 2.0 / 3.0) < 1e-12
    assert abs(p.phi0 - math.sqrt(5.0) / 2.0) < 1e-12
    for m, (n_, p_) in [(4, (7, 4)), (8, (15, 8))]:
        params = _params(n_, p_, 2)
        target = 4.0 * (m - 1) / (3.0 * (2 * m - 1))
        assert abs(math.cos(params.theta) ** 2 - target) < 1e-12
    _ok(1, "classical angle constants exact")


def test_criterion_02_eigenvalue_structure():
    # step 1e-6: the cubic term of the field grows like (lambda^2)^2 p, so at
    # k = 20 the truncation error of a 1e-5 central difference alone exceeds
    # the 1e-6 gate; 1e-6 keeps truncation and roundoff both below it for
    # every admissible triple in range
    for params in enumerate_admissible(31, 20):
        lin = linearize_origin(params)
        assert lin.mu1 == params.k - 1
        assert lin.mu2 == -params.n - params.k
        assert lin.mu1 > 0.0 > lin.mu2
        assert np.max(np.abs(fd_jacobian(0.0, 0.0, params, h=1e-6) - lin.matrix_a)) < 1e-6
    _ok(2, "eigenvalue structure, saddle via FD Jacobian")


def test_criterion_03_stability_lists():
    for params in enumerate_admissible(31, 20):
        expect_spiral = ((params.n, params.p) == (3, 2) and params.k >= 4) or \
                        ((params.n, params.p) == (5, 4) and params.k >= 6)
        assert (params.stability is StabilityType.SPIRAL_TYPE_II) == expect_spiral
    _ok(3, "stability type partition")


def test_criterion_04_barrier_constants():
    targets = [
        ((3, 2, 2), 1.0, 1.0 / 12.0, 3.0 / 4.0),
        ((5, 4, 2), 1.0, 11.0 / 12.0, 13.0 / 6.0),
        ((5, 4, 4), 6.0 / 7.0, 0.0, 5.0 / 7.0),
    ]
    for npk, c, f0_target, g0_target in targets:
        f0, g0, g_end = case1_closed_forms(_params(*npk), c)
        assert abs(f0 - f0_target) < 1e-12
        assert abs(g0 - g0_target) < 1e-12
        assert g_end > 0.0
    for params in enumerate_admissible(31, 20):
        if params.stability is StabilityType.CENTER_TYPE_I:
            _, _, g_end = case1_closed_forms(params, default_c(params))
            assert g_end > 0.0
    _ok(4, "invariant-region constants exact")


def test_criterion_05_spiral_certificates():
    s = Fraction(1, 5)
    envelope = Fraction(4, 25) * ((3 + 5 * s) / (1 + s)) ** 2 * (1 + 5 * s) / (1 + 10 * s)
    assert envelope == Fraction(32, 27) and 175 * s * s + 20 * s - 11 == 0
    assert (FS_MIN, FS_ARGMIN) == (32.0 / 27.0, 0.2)
    for npk in [(3, 2, 4), (5, 4, 6)]:
        assert no_limit_cycle_check(_params(*npk), grid=(150, 150)) < 0.0
    _ok(5, "envelope minimum 32/27 and negative cycle margin")


def test_criterion_06_type1_dynamics():
    params = _params(3, 2, 2)
    traj = _shot(3, 2, 2)
    assert traj.terminated_by is Termination.CONVERGED_TO_P1
    assert traj.t_end <= 100.0
    assert math.hypot(traj.u[-1], traj.psi[-1]) < 1e-6
    assert np.all(traj.psi > 0.0)
    assert np.all(np.diff(traj.u) > 0.0)
    c = default_c(params)
    for phi, psi, u in zip(traj.phi, traj.psi, traj.u):
        assert psi >= -1e-9
        assert psi - barrier_h(phi, params, c) <= 1e-9
        assert u <= 1e-9 and phi >= -1e-9
    _ok(6, "monotone orbit inside the invariant region")


def test_criterion_07_type2_dynamics():
    params = _params(3, 2, 4)
    traj = _shot(3, 2, 4)
    zeros = detect_psi_zeros(traj)
    assert len(zeros) >= 10
    offsets = [z.phi_offset for z in zeros]
    odd = offsets[0::2]
    even = offsets[1::2]
    assert all(a > b for a, b in zip(odd, odd[1:]))
    assert all(a < b for a, b in zip(even, even[1:]))
    phi0 = params.phi0
    for z in zeros:
        assert 0.8 * phi0 - 1e-9 <= z.phi <= 1.2 * phi0 + 1e-9
    assert len(offsets) >= 30 and abs(offsets[29]) < 1e-3
    assert np.all(traj.phi + traj.psi > 0.0)
    _ok(7, "alternating spiral crossings within the 4/5..6/5 band")


def test_criterion_08_launch_asymptotics():
    for npk in [(3, 2, 2), (3, 2, 4), (5, 4, 2), (5, 4, 6)]:
        traj = _shot(*npk)
        phi = traj.phi
        mask = phi <= 10.0 * phi[0]
        slope = np.polyfit(traj.t[mask], np.log(phi[mask]), 1)[0]
        k = traj.params.k
        assert abs(slope - (k - 1)) <= 0.01 * (k - 1)
    _ok(8, "log phi growth rate k-1 near launch")


def test_criterion_09_ode_residuals():
    for npk in [(3, 2, 2), (3, 2, 4), (5, 4, 2), (5, 4, 6)]:
        traj = _shot(*npk)
        params = traj.params
        sv = [params.lam] * params.p + [0.0] * (params.n - params.p)
        for s in profile_rows(to_profile(traj)):
            res = ode1_residual(s, params)
            assert abs(res) < 1e-6 * (1.0 + abs(s.rho_rr))
            general = ode_general_residual(s, sv, params.n)
            assert abs(general - res) < 1e-14 * (1.0 + abs(res))
    _ok(9, "radial ODE residuals, general form matches reduced form")


def test_criterion_10_multiplicity():
    params = _params(3, 2, 4)
    short = shoot_unstable_manifold(params, t_max=60.0, max_crossings=10 ** 6)
    long = shoot_unstable_manifold(params, t_max=120.0, max_crossings=10 ** 6)
    n_short = len(detect_phi_hits(short, params.phi0))
    n_long = len(detect_phi_hits(long, params.phi0))
    assert n_short >= 10
    assert n_long > n_short
    traj = _shot(3, 2, 4)
    phi_1 = detect_psi_zeros(traj)[0].phi
    inside = detect_phi_hits(traj, params.phi0 + 0.4 * (phi_1 - params.phi0))
    assert len(inside) >= 2
    _ok(10, "dilation family grows without bound; interior band has >= 2")


def test_criterion_11_non_minimizing():
    params = _params(3, 2, 4)
    report = density_report(_shot(3, 2, 4))
    assert np.all(np.diff(report.thetas) > -1e-9)
    assert report.thetas[0] < report.theta_infinity - 1e-9
    assert report.strictly_below_cone
    cone = cone_profile(params, list(np.geomspace(1e-8, 50.0, 4000)))
    t_inf = theta_infinity(params)
    for radius in [0.5, 2.0, 20.0]:
        assert abs(theta_of_radius(cone, params, radius) / t_inf - 1.0) < 1e-8
    _ok(11, "density strictly below the cone density")


def test_criterion_12_geometry_closed_forms():
    rep = geometry_report(_params(3, 2, 2))
    assert abs(rep.cos_alpha - 1.0 / 9.0) < 1e-12
    assert abs(rep.volume_ratio - 16.0 / 9.0) < 1e-12
    assert abs(rep.slope_w - 9.0) < 1e-12
    assert [m for _, m in rep.jordan_angles] == [2, 1, 1]
    for npk in [(3, 2, 2), (3, 2, 4), (5, 4, 6), (15, 8, 2)]:
        params = _params(*npk)
        n = params.n
        lhs = theta_infinity(params) * (n + 1) * ball_volume(n + 1)
        assert abs(lhs / (volume_ratio(params) * sphere_volume(n)) - 1.0) < 1e-10
    _ok(12, "geometry invariants exact; density identity")


def test_criterion_13_hopf_witness():
    params = _params(3, 2, 2)
    pts = sphere_points(4, 100, seed=0)
    sv = numeric_singular_values(pts)
    assert np.max(np.abs(sv - [2.0, 2.0, 0.0])) < HOPF_ROUNDING
    assert np.max(np.abs(angle_sum(sv, params.theta) - 3.0)) < HOPF_ROUNDING
    # the finite-difference oracle converges to it at O(h^2)
    probe = pts[:20]
    def dev(h):
        return max(abs(condition_b_sum(hopf_map, x, params.theta, h) - 3.0) for x in probe)
    ratio = dev(8e-4) / dev(4e-4)
    assert 2.5 < ratio < 6.0
    _ok(13, "witness singular values (2,2,0), angle sum n, oracle O(h^2)")


def test_criterion_14_oracle_equivalence():
    for npk in [(3, 2, 2), (3, 2, 4)]:
        params = _params(*npk)
        s0 = PhaseState(0.1, 0.05, 0.0)
        ref = reference_integrate(params, s0, 5.0, h=1e-5)
        adaptive = orbit_at(advance_from(params, s0, 5.0), 5.0)
        assert abs(adaptive.phi - ref.phi) < 1e-8
        assert abs(adaptive.psi - ref.psi) < 1e-8
    _ok(14, "adaptive path matches fixed-step RK4 oracle")


def test_criterion_15_eps_robustness():
    traj = _shot(3, 2, 4)
    half = shoot_unstable_manifold(_params(3, 2, 4), eps=0.5e-6)
    za = detect_psi_zeros(traj)
    zb = detect_psi_zeros(half)
    assert len(za) == len(zb)
    for a, b in zip(za, zb):
        assert abs(a.phi_offset - b.phi_offset) < 1e-7
    hits_a = detect_phi_hits(traj, 0.9 * traj.params.phi0)
    hits_b = detect_phi_hits(half, 0.9 * traj.params.phi0)
    for a, b in zip(hits_a, hits_b):
        assert abs(orbit_at(traj, a.t).phi - orbit_at(half, b.t).phi) < 1e-7
    _ok(15, "reported crossings stable under halving eps")


_ALL = [
    test_criterion_01_exact_constants,
    test_criterion_02_eigenvalue_structure,
    test_criterion_03_stability_lists,
    test_criterion_04_barrier_constants,
    test_criterion_05_spiral_certificates,
    test_criterion_06_type1_dynamics,
    test_criterion_07_type2_dynamics,
    test_criterion_08_launch_asymptotics,
    test_criterion_09_ode_residuals,
    test_criterion_10_multiplicity,
    test_criterion_11_non_minimizing,
    test_criterion_12_geometry_closed_forms,
    test_criterion_13_hopf_witness,
    test_criterion_14_oracle_equivalence,
    test_criterion_15_eps_robustness,
]


def main() -> int:
    failures = 0
    for fn in _ALL:
        num = int(fn.__name__.split("_")[2])
        try:
            fn()
        except Exception as exc:  # any exception fails its criterion; the rest still run
            failures += 1
            print(f"criterion {num:02d} [{fn.__name__}]: FAIL ({type(exc).__name__}: {exc})")
    print(f"{len(_ALL) - failures}/{len(_ALL)} acceptance criteria passed")
    return 1 if failures else 0


def test_main_reports_an_exception_as_a_failure(monkeypatch, capsys):
    # a ValueError once ended the standalone run in a traceback, with no
    # summary and the later criteria not run
    def test_criterion_01_raises():
        raise ValueError("bad input")

    def test_criterion_02_passes():
        _ok(2, "passes")

    monkeypatch.setitem(globals(), "_ALL", [test_criterion_01_raises, test_criterion_02_passes])
    assert main() == 1
    assert capsys.readouterr().out.splitlines() == [
        "criterion 01 [test_criterion_01_raises]: FAIL (ValueError: bad input)",
        "criterion 02 [passes]: PASS",
        "1/2 acceptance criteria passed",
    ]


if __name__ == "__main__":
    raise SystemExit(main())
