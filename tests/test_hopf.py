import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lo_dynamics.hopf import (
    MAX_SAMPLE_COUNT,
    _POINT_BLOCK,
    angle_sum,
    condition_b_check,
    hopf_map,
    numeric_singular_values,
    random_sphere_points,
)
from lo_dynamics.integrate import shoot_unstable_manifold
from lo_dynamics.params import build_params
from lo_dynamics.radial import to_profile
from oracles import (
    HOPF_ROUNDING,
    condition_b_sum,
    cone_graph_eval,
    cone_profile,
    fd_differential,
    fd_singular_values,
    hopf_graph_residual,
    hopf_hessian,
    sphere_points,
    sphere_tangent_basis,
)

FD_STEP = 1e-5


def identity_s2(x):
    return np.asarray(x, dtype=float)


def constant_map(x):
    return np.array([0.0, 0.0, 1.0])


def equator_embedding(x):
    # S^1 -> S^2 as the equator; an isometric totally geodesic embedding
    return np.array([x[0], x[1], 0.0])


def test_hopf_poles():
    assert np.allclose(hopf_map([1.0, 0.0, 0.0, 0.0]), [0.0, 0.0, 1.0])
    assert np.allclose(hopf_map([0.0, 0.0, 1.0, 0.0]), [0.0, 0.0, -1.0])


def test_hopf_norm_preserving():
    norms = np.linalg.norm(hopf_map(sphere_points(4, 1000, seed=1)), axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_hopf_rejects_off_sphere():
    with pytest.raises(ValueError, match="is not 1"):
        hopf_map([1.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="nan is not 1"):
        numeric_singular_values([[1.0, 0.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="expected points of S\\^3 in R\\^4"):
        hopf_map([1.0, 0.0, 0.0])


def test_tangent_basis_orthonormal():
    for x in sphere_points(4, 20, seed=2):
        basis = sphere_tangent_basis(x)
        assert basis.shape == (4, 3)
        gram = basis.T @ basis
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12
        assert np.max(np.abs(basis.T @ x)) < 1e-12


def test_singular_values_at_100_points():
    sv = numeric_singular_values(sphere_points(4, 100, seed=0))
    assert sv.shape == (100, 3)
    assert np.max(np.abs(sv - [2.0, 2.0, 0.0])) < HOPF_ROUNDING


def test_zero_singular_value_is_resolved():
    # a direct SVD; the Gram matrix's eigenvalues would put the zero one at
    # about sqrt(machine epsilon)
    assert np.max(numeric_singular_values(sphere_points(4, 100, seed=0))[:, 2]) < 1e-15


def test_singular_values_constant_across_points():
    svs = numeric_singular_values(sphere_points(4, 200, seed=3))
    assert float(np.ptp(svs, axis=0).max()) < HOPF_ROUNDING


def test_sphere_points_are_drawn_in_blocks():
    # the points of one count x dim array, across block boundaries
    count = 2 * _POINT_BLOCK + 3
    pts = np.random.default_rng(12).normal(size=(count, 4))
    bulk = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    blocks = list(random_sphere_points(4, count, seed=12))
    assert [len(b) for b in blocks] == [_POINT_BLOCK, _POINT_BLOCK, 3]
    assert np.array_equal(np.concatenate(blocks), bulk)
    # a count far beyond memory costs nothing until its points are read
    huge = random_sphere_points(4, 10 ** 20, seed=12)
    assert np.array_equal(next(huge), bulk[:_POINT_BLOCK])


def test_identity_map_singular_values():
    for x in sphere_points(3, 10, seed=4):
        sv = fd_singular_values(identity_s2, x, FD_STEP)
        assert np.max(np.abs(sv - np.array([1.0, 1.0]))) < 1e-8


def test_constant_map_singular_values():
    x = sphere_points(4, 1, seed=5)[0]
    sv = fd_singular_values(constant_map, x, FD_STEP)
    assert np.max(np.abs(sv)) < 1e-12


def test_condition_b_hand_value(p322):
    # lambda_j = (2, 2, 0), cos^2 = 4/9: 2/(24/9) + 9/4 = 3/4 + 9/4 = 3 = n
    x = sphere_points(4, 1, seed=6)[0]
    assert angle_sum(numeric_singular_values(x), p322.theta) == pytest.approx(
        3.0, abs=HOPF_ROUNDING)


def test_condition_b_check_small(p322):
    sv_dev, sum_dev = condition_b_check(p322, sample_count=100)
    assert sv_dev < HOPF_ROUNDING
    assert sum_dev < HOPF_ROUNDING


@pytest.mark.parametrize("setting, message", [
    *(({"sample_count": bad}, "sample_count must be at least 1") for bad in (0, -5)),
    ({"sample_count": MAX_SAMPLE_COUNT + 1}, "sample_count must be at most 10000000"),
    ({"seed": -1}, "seed must be at least 0"),
])
def test_condition_b_check_rejects_a_bad_setting(p322, setting, message):
    # no point at all reported a perfect deviation of (0.0, 0.0)
    with pytest.raises(ValueError, match=message):
        condition_b_check(p322, **setting)


def _per_point_maximum(points, theta):
    """condition_b_check's two deviations, one point at a time."""
    svs = [numeric_singular_values(x) for x in points]
    return (max(float(np.max(np.abs(sv - [2.0, 2.0, 0.0]))) for sv in svs),
            max(abs(float(angle_sum(sv, theta)) - 3.0) for sv in svs))


def test_condition_b_check_is_the_per_point_maximum(p322):
    pts = sphere_points(4, 30, seed=5)
    assert condition_b_check(p322, 30, seed=5) == _per_point_maximum(pts, p322.theta)


def test_condition_b_check_is_the_maximum_over_its_blocks(p322):
    count = 2 * _POINT_BLOCK + 3
    pts = sphere_points(4, count, seed=13)
    assert condition_b_check(p322, count, seed=13) == _per_point_maximum(pts, p322.theta)


def test_condition_b_wrong_angle(p322):
    x = sphere_points(4, 1, seed=7)[0]
    assert abs(angle_sum(numeric_singular_values(x), p322.theta / 2.0) - 3.0) > 0.1


def test_condition_b_trivial_embedding():
    # n = 1 equatorial embedding: single singular value 1 collapses the
    # denominator, so the sum is 1 for every angle
    for x in sphere_points(2, 5, seed=8):
        for theta in [0.3, 0.7, 1.2]:
            assert condition_b_sum(equator_embedding, x, theta, FD_STEP) == pytest.approx(
                1.0, abs=1e-9)


def test_condition_b_second_order_in_h(p322):
    # the finite-difference oracle's error is O(h^2)
    x = sphere_points(4, 30, seed=9)
    def dev(h):
        return max(abs(condition_b_sum(hopf_map, pt, p322.theta, h) - 3.0) for pt in x)
    ratio = dev(8e-4) / dev(4e-4)
    assert 2.5 < ratio < 6.0


def test_cone_graph_at_origin(p322):
    assert np.array_equal(cone_graph_eval(np.zeros(4), p322), np.zeros(3))


def test_cone_graph_norm(p322):
    rng = np.random.default_rng(10)
    for y in rng.normal(size=(50, 4)):
        val = cone_graph_eval(y, p322)
        assert np.linalg.norm(val) == pytest.approx(
            p322.phi0 * np.linalg.norm(y), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(scale=st.floats(0.1, 10.0), seed=st.integers(0, 100))
def test_cone_graph_homogeneous(scale, seed):
    import lo_dynamics.params as params_mod
    params = params_mod.build_params(3, 2, 2)
    rng = np.random.default_rng(seed)
    y = rng.normal(size=4)
    a = cone_graph_eval(scale * y, params)
    b = scale * cone_graph_eval(y, params)
    assert np.max(np.abs(a - b)) < 1e-10 * (1.0 + np.max(np.abs(b)))


def test_differential_shape():
    x = sphere_points(4, 1, seed=11)[0]
    jac = fd_differential(hopf_map, x, FD_STEP)
    assert jac.shape == (3, 3)
    # image increments are projected onto the tangent space at the image
    fx = hopf_map(x)
    assert np.max(np.abs(fx @ jac)) < 1e-9


def test_exact_singular_values_match_the_finite_differences():
    # 2.1e-10 apart at h = 1e-5: the oracle's O(h^2) and eps/h errors
    pts = sphere_points(4, 50, seed=0)
    exact = numeric_singular_values(pts)
    fd = np.array([fd_singular_values(hopf_map, x, FD_STEP) for x in pts])
    assert np.max(np.abs(exact - fd)) < 4e-10


# ----------------------------------------------------------------------
# the reduction against the minimal surface system itself: the graph of
# F(y) = rho(|y|) H(y)/|y|^2 over R^4 solves g^ij d_ij F = 0 to rounding
# exactly when rho is a (3,2,2) profile (lambda = 2).  Measured with seed
# 0: median 6.4e-17 and largest 2.4e-16 over the 800 rows of (3,2,2)'s
# orbit, 6.7e-17 and 2.5e-16 on its cone

_RESIDUAL_MEDIAN = 1.2e-16
_RESIDUAL_MAX = 5e-16


def _orbit_profile(params):
    return to_profile(shoot_unstable_manifold(params))


def _graph_residual(profile):
    return hopf_graph_residual(profile, sphere_points(4, len(profile), seed=0))


def test_hopf_graph_of_the_322_orbit_is_minimal(p322):
    res = _graph_residual(_orbit_profile(p322))
    assert np.median(res) < _RESIDUAL_MEDIAN
    assert np.max(res) < _RESIDUAL_MAX


def test_hopf_graph_of_the_322_cone_is_minimal(p322):
    # the cone phi0 |y| H(y/|y|), at the orbit's radii
    res = _graph_residual(cone_profile(p322, _orbit_profile(p322).r))
    assert np.median(res) < _RESIDUAL_MEDIAN
    assert np.max(res) < _RESIDUAL_MAX


def test_hopf_graph_of_another_triple_is_not_minimal():
    # (3,2,4)'s profile solves the radial ODE at lambda^2 = 12, not 4:
    # median 2.4e-2, largest 0.42
    assert np.median(_graph_residual(_orbit_profile(build_params(3, 2, 4)))) > 1e-3


def test_hopf_hessian_is_the_maps_second_derivative():
    # H(x) = x^T A x / 2 at random points, A by polarization at unit vectors
    pts = sphere_points(4, 100, seed=14)
    quad = 0.5 * np.einsum("aij,mi,mj->ma", hopf_hessian(), pts, pts)
    assert np.max(np.abs(quad - hopf_map(pts))) < 1e-15
