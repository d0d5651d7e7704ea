import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lo_dynamics.params import build_params
from lo_dynamics.radial import Profile, ode1_residual, rescale_profile, to_profile
from oracles import (
    ProfileSample,
    cone_profile,
    ode_general_residual,
    profile_rows,
    recover_state,
    state_to_sample,
    to_profile_per_sample,
)


def test_cone_orbit_profile(p322):
    # the constant orbit phi == phi0 is the straight cone rho = phi0 r
    s = state_to_sample(p322.phi0, 0.0, 0.7, p322)
    r = math.exp(0.7)
    assert s.rho == pytest.approx(p322.phi0 * r, rel=1e-15)
    assert s.rho_r == pytest.approx(p322.phi0, rel=1e-15)
    assert abs(s.rho_rr) < 1e-15


def test_direct_transform(p322):
    s = state_to_sample(0.5, 0.1, 0.0, p322)
    assert (s.r, s.rho, s.rho_r) == (1.0, 0.5, 0.6)


def test_small_t_power_law(p324, traj324):
    profile = to_profile(traj324)
    k = p324.k
    head = [s for s in profile_rows(profile) if s.r <= 4.0 * profile.r[0]]
    consts = [s.rho / s.r ** k for s in head]
    assert len(consts) >= 3
    assert max(consts) / min(consts) < 1.5


def test_round_trip(traj324):
    profile = to_profile(traj324)
    for s, phi, psi, t in zip(profile_rows(profile), traj324.phi, traj324.psi, traj324.t):
        rphi, rpsi, rt = recover_state(s)
        assert rphi == pytest.approx(phi, rel=1e-14, abs=1e-300)
        assert rpsi == pytest.approx(psi, rel=1e-11, abs=1e-14 * abs(phi))
        assert rt == pytest.approx(t, rel=1e-14)


@settings(max_examples=50, deadline=None)
@given(phi=st.floats(1e-3, 3.0), psi=st.floats(-1.0, 1.0), t=st.floats(-5.0, 5.0))
def test_round_trip_property(phi, psi, t):
    params = build_params(3, 2, 2)
    s = state_to_sample(phi, psi, t, params)
    rphi, rpsi, rt = recover_state(s)
    assert math.isclose(rphi, phi, rel_tol=1e-13)
    assert math.isclose(rpsi, psi, rel_tol=0, abs_tol=1e-12 * (abs(phi) + abs(psi)))
    assert math.isclose(rt, t, rel_tol=0, abs_tol=1e-13)


def test_cone_sample_residual_zero(p322):
    for r in [0.1, 1.0, 7.3]:
        s = ProfileSample(r=r, rho=p322.phi0 * r, rho_r=p322.phi0, rho_rr=0.0)
        assert abs(ode1_residual(s, p322)) < 1e-12


def test_residual_hand_value(p322):
    # (r, rho, rho_r, rho_rr) = (1, 1, 0, 0): residual = 0 + 0 + 2(0-4)/(1+4)
    s = ProfileSample(r=1.0, rho=1.0, rho_r=0.0, rho_rr=0.0)
    assert ode1_residual(s, p322) == pytest.approx(-1.6, rel=1e-14)


@pytest.mark.parametrize("fixture", ["traj322", "traj324", "traj542", "traj546"])
def test_residual_small_on_shot_orbits(fixture, request):
    traj = request.getfixturevalue(fixture)
    for s in profile_rows(to_profile(traj)):
        assert abs(ode1_residual(s, traj.params)) < 1e-6 * (1.0 + abs(s.rho_rr))


def test_general_matches_special(p324, traj324):
    rows = profile_rows(to_profile(traj324))
    rng = np.random.default_rng(0)
    lam = p324.lam
    sv = [lam] * p324.p + [0.0] * (p324.n - p324.p)
    for i in rng.integers(0, len(rows), size=100):
        s = rows[int(i)]
        a = ode_general_residual(s, sv, p324.n)
        b = ode1_residual(s, p324)
        assert abs(a - b) < 1e-14 * (1.0 + abs(b))


def test_general_all_zero_singular_values_constant_profile():
    s = ProfileSample(r=2.0, rho=5.0, rho_r=0.0, rho_rr=0.0)
    assert ode_general_residual(s, [0.0, 0.0, 0.0], 3) == 0.0


def test_general_diagonal_graph():
    # all singular values 1 and rho(r) = r: each summand (1/r - 1/r) vanishes
    for r in [0.5, 1.0, 3.0]:
        s = ProfileSample(r=r, rho=r, rho_r=1.0, rho_rr=0.0)
        assert ode_general_residual(s, [1.0, 1.0, 1.0], 3) == 0.0


def test_general_length_mismatch():
    s = ProfileSample(r=1.0, rho=1.0, rho_r=0.0, rho_rr=0.0)
    with pytest.raises(ValueError, match="expected 3 singular values"):
        ode_general_residual(s, [1.0, 2.0], 3)


@pytest.mark.parametrize("d", [0.5, 2.0, math.e])
def test_rescaling_invariance(p322, traj322, d):
    profile = to_profile(traj322)
    rescaled = rescale_profile(profile, d)
    for orig, scaled in zip(profile_rows(profile), profile_rows(rescaled)):
        res = ode1_residual(orig, p322)
        res_d = ode1_residual(scaled, p322)
        # residuals scale exactly by d at corresponding points, so exact
        # solutions stay exact under every rescaling
        assert res_d == pytest.approx(d * res, rel=1e-12, abs=1e-13)
        assert abs(res_d) < 1e-6 * d * (1.0 + abs(orig.rho_rr))


def test_cone_profile_builder(p324):
    prof = cone_profile(p324, [1.0, 2.0])
    assert prof.rho[0] == pytest.approx(p324.phi0)
    assert prof.rho_r[1] == p324.phi0
    assert prof.rho_rr[0] == 0.0


def test_empty_trajectory_rejected(p322):
    empty = SimpleNamespace(params=p322, t=np.array([]), u=np.array([]), psi=np.array([]),
                            dpsi=np.array([]))
    with pytest.raises(ValueError, match="need at least 2 profile samples"):
        to_profile(empty)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_to_profile_columns_match_per_sample_transform(table_trajs):
    # all 230 (31, 20) triples: every column is bit-identical to the
    # former sample-by-sample transform, r included (math.exp, not np.exp)
    assert len(table_trajs) == 230
    for triple, traj in table_trajs.items():
        profile = to_profile(traj)
        ref = to_profile_per_sample(traj)
        for name in ("r", "rho", "rho_r", "rho_rr"):
            assert _same_bits(getattr(profile, name), [getattr(s, name) for s in ref]), \
                (triple, name)


def _rescaled_per_sample(traj, log_d: float) -> list[ProfileSample]:
    """The rows of a profile rescaled to log_d, one sample at a time:
    r = e^{t - log_d}, rho = r phi, rho_r = phi + psi, rho_rr = (dpsi + psi)/r."""
    out = []
    for t, u, psi, dpsi in zip(traj.t, traj.u, traj.psi, traj.dpsi):
        r = math.exp(t - log_d)
        phi = traj.params.phi0 + u
        out.append(ProfileSample(r=r, rho=r * phi, rho_r=phi + psi, rho_rr=(dpsi + psi) / r))
    return out


def test_profile_rows_and_rescaling_match_samples(traj324):
    profile = to_profile(traj324)
    ref = to_profile_per_sample(traj324)
    assert len(profile) == len(ref)
    assert profile_rows(profile) == ref
    d = 3.7
    rescaled = rescale_profile(profile, d)
    # the rescaled profile shares the columns and reads its rows off them
    assert rescaled.log_d == math.log(d) and rescaled.x is profile.x
    assert profile_rows(rescaled) == _rescaled_per_sample(traj324, math.log(d))
    assert profile_rows(rescale_profile(rescaled, 2.0)) == _rescaled_per_sample(
        traj324, math.log(d) + math.log(2.0))
    # residuals over the columns are the per-sample residuals
    params = traj324.params
    assert _same_bits(ode1_residual(profile, params), [ode1_residual(s, params) for s in ref])


def test_profile_columns_read_only_and_equal_length():
    x = np.array([0.0, 1.0])
    prof = Profile(x=x, phi=[1.0, 1.0], psi=[0.0, 0.0], dpsi=[0.0, 0.0])
    for col in (prof.x, prof.phi, prof.psi, prof.dpsi):
        assert not col.flags.writeable
    x[0] = -5.0  # the profile holds copies of writeable arrays
    assert prof.x[0] == 0.0 and prof.rho[0] == 1.0
    with pytest.raises(ValueError):
        prof.psi[0] = 2.0
    with pytest.raises(ValueError, match="column psi has shape"):
        Profile(x=x, phi=[1.0, 1.0], psi=[1.0], dpsi=[0.0, 0.0])


def test_residual_rejects_nonpositive_radius_column(p322):
    # e^{-800} underflows to the radius 0
    bad = Profile(x=[-800.0, 0.0], phi=[1.0, 1.0], psi=[0.0, 0.0], dpsi=[0.0, 0.0])
    assert bad.r[0] == 0.0
    with pytest.raises(ValueError, match="r must be > 0"):
        ode1_residual(bad, p322)


@pytest.mark.parametrize("columns, match", [
    ({"x": [0.0]}, "need at least 2 profile samples"),
    # a repeated x: x is the orbit's time, which strictly increases
    ({"x": [0.0, 0.0]}, "strictly increasing"),
    ({"log_d": math.nan}, "log_d must be finite"),
    ({"log_d": math.inf}, "log_d must be finite"),
])
def test_profile_refusals(columns, match):
    good = {"x": [0.0, 1.0], "phi": [1.0, 1.0], "psi": [0.0, 0.0], "dpsi": [0.0, 0.0]}
    n = len(columns.get("x", good["x"]))
    good = {name: col[:n] for name, col in good.items()}
    with pytest.raises(ValueError, match=match):
        Profile(**{**good, **columns})


@pytest.mark.parametrize("d", [math.nan, math.inf, 0.0, -1.0])
def test_rescaling_refuses_a_bad_dilation(traj322, d):
    with pytest.raises(ValueError, match="dilation must be positive and finite"):
        rescale_profile(to_profile(traj322), d)
