import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lo_dynamics.barrier import f1, f1_prime, f2, vector_field_xy
from lo_dynamics.dynsys import linearize_p1, offset_field
from lo_dynamics.params import StabilityType, build_params, enumerate_admissible
from oracles import (PhaseState, fd_jacobian, jacobian, linearize_origin, mpmath_p1_eigenvalues,
                     reverse_field_xy)


def raw_display_field(phi, psi, params):
    """The system exactly as displayed, with the two bracket terms kept in
    their original (n - p + ...) form; oracle for the compact f1/f2 path."""
    lam2 = params.lambda_sq
    n, p = params.n, params.p
    den = 1.0 + lam2 * phi * phi
    x2 = -psi - ((n - p + p / den) * psi + (n - p + (1 - lam2) * p / den) * phi) \
        * (1.0 + (phi + psi) ** 2)
    return psi, x2


def test_f1_zero_at_phi0(p322):
    assert f1(p322.phi0, p322) == pytest.approx(0.0, abs=1e-14)


def test_f1_at_zero(p322):
    assert f1(0.0, p322) == 5.0  # (lambda^2-1)p - (n-p) = 6 - 1


def test_f2_at_zero(p322, p546):
    assert f2(0.0, p322) == p322.n
    assert f2(0.0, p546) == p546.n


def test_field_vanishes_at_equilibria(p322):
    assert vector_field_xy(0.0, 0.0, p322) == (0.0, 0.0)
    x1, x2 = vector_field_xy(p322.phi0, 0.0, p322)
    assert x1 == 0.0 and abs(x2) < 1e-14


def test_field_hand_value(p322):
    # f1(0.5) = 2, f2(0.5) = 2: X2 = -0.1 - (0.2 - 1.0) * 1.36 = 0.988
    x1, x2 = vector_field_xy(0.5, 0.1, p322)
    assert x1 == 0.1
    assert x2 == pytest.approx(0.988, abs=1e-15)


def test_field_odd_symmetry(p324):
    rng = np.random.default_rng(42)
    for phi, psi in rng.uniform(-2.0, 2.0, size=(1000, 2)):
        x1, x2 = vector_field_xy(phi, psi, p324)
        y1, y2 = vector_field_xy(-phi, -psi, p324)
        assert abs(x1 + y1) < 1e-13 and abs(x2 + y2) < 1e-13


@settings(max_examples=60, deadline=None)
@given(phi=st.floats(-3, 3), psi=st.floats(-3, 3))
def test_field_odd_symmetry_property(phi, psi):
    params = build_params(5, 4, 6)
    x1, x2 = vector_field_xy(phi, psi, params)
    y1, y2 = vector_field_xy(-phi, -psi, params)
    assert math.isclose(x1, -y1, rel_tol=0, abs_tol=1e-12 * (1 + abs(x1)))
    assert math.isclose(x2, -y2, rel_tol=0, abs_tol=1e-12 * (1 + abs(x2)))


def test_compact_form_equals_display(p324):
    rng = np.random.default_rng(7)
    for phi, psi in rng.uniform(-2.0, 2.0, size=(500, 2)):
        _, x2 = vector_field_xy(phi, psi, p324)
        _, raw = raw_display_field(phi, psi, p324)
        assert abs(x2 - raw) < 1e-12 * (1.0 + abs(raw))


def test_offset_f1_matches_textbook(p324):
    dpsi = offset_field(p324)
    for u in [-1.0, -0.3, -1e-3, 1e-3, 0.4, 1.1]:
        for psi in [-0.5, 0.0, 0.7]:
            _, x2 = vector_field_xy(p324.phi0 + u, psi, p324)
            assert dpsi(u, psi) == pytest.approx(x2, rel=1e-12, abs=1e-13)


def test_field_broadcasts_over_arrays(table_trajs):
    # each form of the field squares phi +- psi as a product, which numpy
    # and Python floats round alike, so a call on arrays equals the scalar
    # calls bit for bit.  Besides 400 random states per triple, the states
    # of each table orbit where libm pow(x, 2) != x * x, x = phi + psi or
    # phi - psi, are checked: there Python's x ** 2 and numpy's disagree
    # (measured: 270 and 313 of the table's 289 615 states, 581 in all)
    def assert_bits(fn, *states):
        vec = np.array(fn(*states))
        scalar = np.array([fn(*state) for state in zip(*(x.tolist() for x in states))]).T
        assert vec.tobytes() == scalar.tobytes()

    rng = np.random.default_rng(11)
    apart = 0
    for params in enumerate_admissible(31, 20):
        traj = table_trajs[params.triple()]
        scan = [i for i, (a, b) in enumerate(zip(traj.phi.tolist(), traj.psi.tolist()))
                if any(math.pow(x, 2) != x * x for x in (a + b, a - b))]
        apart += len(scan)
        phi, psi = rng.uniform(-3.0 * params.phi0, 3.0 * params.phi0, size=(2, 400))
        phi, u, psi = (np.concatenate((x, y[scan])) for x, y in (
            (phi, traj.phi), (phi - params.phi0, traj.u), (psi, traj.psi)))
        for fn in (f1, f2, f1_prime):
            assert_bits(lambda a, fn=fn: fn(a, params), phi)
        for fn in (vector_field_xy, reverse_field_xy):
            assert_bits(lambda a, b, fn=fn: fn(a, b, params), phi, psi)
        assert_bits(offset_field(params), u, psi)
    assert apart >= 500


def test_field_nonzero_away_from_equilibria(p322):
    phi0 = p322.phi0
    zeros = [(0.0, 0.0), (phi0, 0.0), (-phi0, 0.0)]
    grid = np.linspace(-2 * phi0, 2 * phi0, 200)
    for phi in grid:
        for psi in grid:
            if any(math.hypot(phi - z[0], psi - z[1]) <= 1e-6 for z in zeros):
                continue
            x1, x2 = vector_field_xy(phi, psi, p322)
            assert math.hypot(x1, x2) > 0.0


def test_linearize_origin_322(p322):
    lin = linearize_origin(p322)
    assert lin.mu1 == 1.0 and lin.mu2 == -5.0
    assert np.array_equal(lin.matrix_a, np.array([[0.0, 1.0], [5.0, -4.0]]))


def test_linearize_origin_324(p324):
    lin = linearize_origin(p324)
    assert lin.mu1 == 3.0 and lin.mu2 == -7.0


def test_origin_eigenvectors(p322):
    lin = linearize_origin(p322)
    for mu, v in [(lin.mu1, lin.v1), (lin.mu2, lin.v2)]:
        assert np.max(np.abs(lin.matrix_a @ v - mu * v)) < 1e-12


def test_origin_eigenvalues_against_numpy():
    for params in enumerate_admissible(31, 20):
        lin = linearize_origin(params)
        eigs = sorted(np.linalg.eigvals(lin.matrix_a))
        assert eigs[0] == pytest.approx(lin.mu2, rel=1e-12)
        assert eigs[1] == pytest.approx(lin.mu1, rel=1e-12)
        assert lin.mu1 == params.k - 1 and lin.mu2 == -params.n - params.k
        assert lin.mu1 > 0 > lin.mu2


def test_linearize_p1_322(p322):
    lin = linearize_p1(p322)
    assert lin.a == pytest.approx(-15.0 / 4.0, rel=1e-14)
    assert lin.b == -4.0
    assert p322.stability is StabilityType.CENTER_TYPE_I and lin.mu3.imag == 0.0
    # the other eigenvalue is trace - mu3 = b - mu3
    assert lin.mu3 == pytest.approx(-1.5) and lin.b - lin.mu3 == pytest.approx(-2.5)


def test_linearize_p1_324(p324):
    lin = linearize_p1(p324)
    assert lin.a == pytest.approx(-21.0 / 4.0, rel=1e-14)
    assert p324.stability is StabilityType.SPIRAL_TYPE_II and lin.mu3.imag > 0.0
    assert lin.mu3 == pytest.approx(complex(-2.0, math.sqrt(5.0) / 2.0))
    assert lin.b - lin.mu3 == pytest.approx(complex(-2.0, -math.sqrt(5.0) / 2.0))


# the table, and the off-table pairs (n, k), n < 40 and k < 60; P1 depends on n
# and k only, so p = n - 1 stands for every p
_P1_CASES = [*enumerate_admissible(31, 20),
             *(build_params(n, n - 1, k, allow_inadmissible=True)
               for n in range(2, 40) for k in range(2, 60))]


def test_p1_always_attracting():
    for params in _P1_CASES:
        lin = linearize_p1(params)
        assert lin.mu3.real < 0 and (lin.b - lin.mu3).real < 0
        assert lin.a < 0


def test_p1_spiral_iff_the_exact_type_says_so():
    # the branch comes from params.stability; mu3 must be a root of the
    # characteristic polynomial mu^2 - b mu - a, and the other branch's value is not
    for params in _P1_CASES:
        lin = linearize_p1(params)
        assert (lin.mu3.imag > 0) == (params.stability is StabilityType.SPIRAL_TYPE_II)
        mu = lin.mu3
        assert abs(mu * mu - lin.b * mu - lin.a) <= 1e-12 * (abs(lin.a) + lin.b * lin.b)


@pytest.mark.parametrize("params", [p for p in enumerate_admissible(31, 20)
                                    if p.stability is StabilityType.SPIRAL_TYPE_II],
                         ids=lambda p: str(p.triple()))
def test_p1_coordinate_and_envelope(params):
    # the coordinate z of a state x rebuilds it as (Re z, Re mu z), and is
    # twice its component c along numpy's eigenvector v of J for mu, scaled
    # to v[0] = 1: x = 2 Re(c v).  Over one turn of the flow, e^{-alpha tau}
    # exp(J tau) x = x cos(omega tau) + (J - alpha I) x sin(omega tau) /
    # omega, the max-norm reaches the envelope: at 360 phases it stays below
    # it and within 1e-3 of it (measured: x rebuilt within 1.7e-16 of the
    # envelope, z within 3.9e-15 |z| of numpy's, the phases within 3.8e-5 of
    # the envelope and never above it)
    lin = linearize_p1(params)
    alpha, omega, mu = lin.mu3.real, lin.mu3.imag, lin.mu3
    jac = np.array([[0.0, 1.0], [lin.a, lin.b]])
    vals, vecs = np.linalg.eig(jac)
    v = vecs[:, np.argmax(vals.imag)]
    phase = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
    rng = np.random.default_rng(27)
    for x in rng.standard_normal((64, 2)) * 10.0 ** rng.uniform(-280.0, 0.0, (64, 1)):
        z = lin.coordinates(*x.tolist())[0]
        env = lin.envelope(z)
        assert np.max(np.abs([z.real, (mu * z).real] - x)) <= 4e-16 * env
        c = np.linalg.solve(np.array([v, v.conj()]).T, x.astype(complex))[0]
        assert abs(z - 2.0 * c * v[0]) <= 1e-14 * abs(z)
        turn = np.outer(x, np.cos(phase)) + np.outer((jac - alpha * np.eye(2)) @ x,
                                                      np.sin(phase) / omega)
        reach = np.max(np.abs(turn))
        assert (1.0 - 1e-3) * env <= reach <= (1.0 + 1e-15) * env


def test_p1_discriminant_formula():
    for params in enumerate_admissible(31, 20):
        lin = linearize_p1(params)
        n, k = params.n, params.k
        disc = n * n - 6 * n + 1 + 8 * n * n / (k * (k + n - 1))
        assert lin.b ** 2 + 4 * lin.a == pytest.approx(disc, rel=1e-12)


def test_p1_eigenvalues_match_mpmath():
    # mu3 and mu4 come from the exact discriminant, a node's slow root as
    # -a/mu4, so they lie within 2.6e-16 relative of the 30-digit roots on
    # the whole table (measured: at most 2.53e-16, on (17,16,2))
    with mpmath.workdps(30):
        for params in enumerate_admissible(31, 20):
            lin = linearize_p1(params)
            for got, want in zip((lin.mu3, lin.mu4), mpmath_p1_eigenvalues(params)):
                assert abs(mpmath.mpmathify(got) - want) <= 2.6e-16 * abs(want), params.triple()


def test_fd_jacobian_at_equilibria(p322):
    lin = linearize_origin(p322)
    assert np.max(np.abs(fd_jacobian(0.0, 0.0, p322) - lin.matrix_a)) < 1e-6
    p1 = linearize_p1(p322)
    expected = np.array([[0.0, 1.0], [p1.a, p1.b]])
    assert np.max(np.abs(fd_jacobian(p322.phi0, 0.0, p322) - expected)) < 1e-6


def test_closed_form_jacobian_matches_fd(p324):
    rng = np.random.default_rng(3)
    for phi, psi in rng.uniform(-1.5, 1.5, size=(50, 2)):
        closed = jacobian(phi, psi, p324)
        assert np.max(np.abs(closed - fd_jacobian(phi, psi, p324))) < 1e-6


def test_reverse_field_matches_display(p324):
    # Y1 = -psi, Y2 = -psi - (f2 psi + f1 phi)(1 + (phi - psi)^2)
    rng = np.random.default_rng(11)
    for phi, psi in rng.uniform(0.0, 3.0, size=(200, 2)):
        y1, y2 = reverse_field_xy(phi, psi, p324)
        expected = -psi - (f2(phi, p324) * psi + f1(phi, p324) * phi) \
            * (1.0 + (phi - psi) ** 2)
        assert y1 == -psi
        assert y2 == pytest.approx(expected, rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(phi=st.floats(0, 5))
def test_f2_positive_f1_decreasing(phi):
    params = build_params(3, 2, 4)
    assert f2(phi, params) > 0
    assert f1(phi + 0.1, params) < f1(phi, params)


def test_phase_state_rejects_nan():
    with pytest.raises(ValueError):
        PhaseState(float("nan"), 0.0, 0.0)
