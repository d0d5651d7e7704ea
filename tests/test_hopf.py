import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lo_dynamics.hopf import (
    MAX_SAMPLE_COUNT,
    _POINT_BLOCK,
    condition_b_check,
    hopf_map,
    map_differential,
    numeric_singular_values,
    random_sphere_points,
    sphere_tangent_basis,
)
from oracles import condition_b_sum, cone_graph_eval, fd_step


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
    for x in random_sphere_points(4, 1000, seed=1):
        assert abs(np.linalg.norm(hopf_map(x)) - 1.0) < 1e-12


def test_hopf_rejects_off_sphere():
    with pytest.raises(ValueError, match="is not 1"):
        hopf_map([1.0, 1.0, 0.0, 0.0])


def test_tangent_basis_orthonormal():
    for x in random_sphere_points(4, 20, seed=2):
        basis = sphere_tangent_basis(x)
        assert basis.shape == (4, 3)
        gram = basis.T @ basis
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12
        assert np.max(np.abs(basis.T @ x)) < 1e-12


def test_singular_values_at_100_points():
    expected = np.array([2.0, 2.0, 0.0])
    worst = 0.0
    for x in random_sphere_points(4, 100, seed=0):
        sv = numeric_singular_values(hopf_map, x)
        worst = max(worst, float(np.max(np.abs(sv - expected))))
    assert worst < 1e-8


def test_zero_singular_value_is_resolved():
    # a direct SVD; the Gram matrix's eigenvalues put the zero one at about
    # sqrt(machine epsilon), 3e-8 at these points
    for x in random_sphere_points(4, 100, seed=0):
        assert numeric_singular_values(hopf_map, x)[2] < 1e-12


def test_singular_values_constant_across_points():
    svs = np.array([numeric_singular_values(hopf_map, x)
                    for x in random_sphere_points(4, 200, seed=3)])
    assert float(svs.max(axis=0)[0] - svs.min(axis=0)[0]) < 1e-6
    assert float(np.ptp(svs, axis=0).max()) < 1e-6


def test_sphere_points_are_drawn_in_blocks():
    # the points of one count x dim array, across block boundaries
    count = 2 * _POINT_BLOCK + 3
    pts = np.random.default_rng(12).normal(size=(count, 4))
    bulk = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    assert np.array_equal(np.array(list(random_sphere_points(4, count, seed=12))), bulk)
    # a count far beyond memory costs nothing until its points are read
    huge = random_sphere_points(4, 10 ** 20, seed=12)
    assert np.array_equal(np.array([next(huge) for _ in range(3)]), bulk[:3])


def test_identity_map_singular_values():
    for x in random_sphere_points(3, 10, seed=4):
        sv = numeric_singular_values(identity_s2, x)
        assert np.max(np.abs(sv - np.array([1.0, 1.0]))) < 1e-8


def test_constant_map_singular_values():
    x = next(random_sphere_points(4, 1, seed=5))
    sv = numeric_singular_values(constant_map, x)
    assert np.max(np.abs(sv)) < 1e-12


def test_condition_b_hand_value(p322):
    # lambda_j = (2, 2, 0), cos^2 = 4/9: 2/(24/9) + 9/4 = 3/4 + 9/4 = 3 = n
    x = next(random_sphere_points(4, 1, seed=6))
    s = condition_b_sum(hopf_map, x, p322.theta)
    assert s == pytest.approx(3.0, abs=1e-9)


def test_condition_b_check_small(p322):
    sv_dev, sum_dev = condition_b_check(p322, sample_count=100)
    assert sv_dev < 1e-8
    assert sum_dev < 1e-5


@pytest.mark.parametrize("setting, message", [
    *(({"sample_count": bad}, "sample_count must be at least 1") for bad in (0, -5)),
    ({"sample_count": MAX_SAMPLE_COUNT + 1}, "sample_count must be at most 10000000"),
    ({"seed": -1}, "seed must be at least 0"),
])
def test_condition_b_check_rejects_a_bad_setting(p322, setting, message):
    # no point at all reported a perfect deviation of (0.0, 0.0)
    with pytest.raises(ValueError, match=message):
        condition_b_check(p322, **setting)


def test_condition_b_check_is_the_per_point_maximum(p322):
    pts = list(random_sphere_points(4, 30, seed=5))
    sv_dev = max(float(np.max(np.abs(numeric_singular_values(hopf_map, x) - [2.0, 2.0, 0.0])))
                 for x in pts)
    sum_dev = max(abs(condition_b_sum(hopf_map, x, p322.theta) - 3.0) for x in pts)
    assert condition_b_check(p322, 30, seed=5) == (sv_dev, sum_dev)


def test_condition_b_wrong_angle(p322):
    x = next(random_sphere_points(4, 1, seed=7))
    s = condition_b_sum(hopf_map, x, p322.theta / 2.0)
    assert abs(s - 3.0) > 0.1


def test_condition_b_trivial_embedding():
    # n = 1 equatorial embedding: single singular value 1 collapses the
    # denominator, so the sum is 1 for every angle
    x2 = random_sphere_points(2, 5, seed=8)
    for x in x2:
        for theta in [0.3, 0.7, 1.2]:
            assert condition_b_sum(equator_embedding, x, theta) == pytest.approx(
                1.0, abs=1e-9)


def test_condition_b_second_order_in_h(p322):
    x = list(random_sphere_points(4, 30, seed=9))
    def dev(h):
        with fd_step(h):
            return max(abs(condition_b_sum(hopf_map, pt, p322.theta) - 3.0) for pt in x)
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
    x = next(random_sphere_points(4, 1, seed=11))
    jac = map_differential(hopf_map, x)
    assert jac.shape == (3, 3)
    # image increments are projected onto the tangent space at the image
    fx = hopf_map(x)
    assert np.max(np.abs(fx @ jac)) < 1e-9
