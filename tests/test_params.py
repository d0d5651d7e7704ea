import math
from fractions import Fraction

import pytest

from lo_dynamics import (
    StabilityType,
    build_params,
    check_admissibility,
    enumerate_admissible,
    stability_discriminant,
)
from lo_dynamics.errors import InadmissibleTriple


def test_322_derived_constants(p322):
    assert p322.lam == 2.0
    assert math.cos(p322.theta) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert p322.phi0 == pytest.approx(math.sqrt(5.0) / 2.0, abs=1e-12)
    assert p322.admissible
    assert check_admissibility(3, 2, 2).admissible


def test_odd_k_rejected():
    with pytest.raises(InadmissibleTriple):
        build_params(3, 2, 3)


def test_pair_in_no_family_rejected():
    with pytest.raises(InadmissibleTriple):
        build_params(4, 2, 2)


def test_1582_octonionic():
    params = build_params(15, 8, 2)
    assert params.admissible
    assert check_admissibility(15, 8, 2).admissible


@pytest.mark.parametrize("n,p,k", [(3, 3, 2), (3, 4, 2), (2, 2, 2), (1, 1, 2), (3, 2, 1), (3, 0, 2)])
def test_domain_errors(n, p, k):
    with pytest.raises(ValueError, match="must be|must satisfy"):
        build_params(n, p, k, allow_inadmissible=True)


@pytest.mark.parametrize("n,p,k", [(3.0, 2, 2), (3, "2", 2), (3, 2, 2.5), (3, 2, None)])
def test_non_integer_triple_rejected(n, p, k):
    with pytest.raises(ValueError, match=r"\(n, p, k\) must be integers"):
        build_params(n, p, k, allow_inadmissible=True)


def test_lambda_sq_outside_the_float_range():
    # k(k+n-1)/p overflowed in math.sqrt(K / p) as a traceback
    with pytest.raises(ValueError, match=r"\(31,30,10{400}\): lambda\^2 = k\(k\+n-1\)/p"):
        build_params(31, 30, 10 ** 400)
    assert build_params(31, 30, 10 ** 150).lambda_sq == pytest.approx(10.0 ** 300 / 30.0)


def test_allow_inadmissible_builds():
    params = build_params(4, 2, 2, allow_inadmissible=True)
    assert not params.admissible
    assert params.lambda_sq == pytest.approx(2 * 5 / 2)


def test_quaternionic_family():
    assert check_admissibility(7, 4, 2).admissible
    # n = p + 3 needs 4 | p
    assert check_admissibility(9, 6, 2).reason == "pair_not_in_families"


def test_classify_322_center():
    assert build_params(3, 2, 2).stability is StabilityType.CENTER_TYPE_I
    assert stability_discriminant(3, 2) == 1  # 9 - 18 + 1 + 72/8


def test_classify_324_spiral():
    assert build_params(3, 2, 4).stability is StabilityType.SPIRAL_TYPE_II
    assert stability_discriminant(3, 4) == -5  # 9 - 18 + 1 + 72/24


def test_classify_546_spiral():
    assert build_params(5, 4, 6).stability is StabilityType.SPIRAL_TYPE_II


@pytest.mark.parametrize("k", [2, 4, 6, 8, 20])
def test_classify_74k_center(k):
    assert build_params(7, 4, k).stability is StabilityType.CENTER_TYPE_I


def test_enumerate_small():
    got = [p.triple() for p in enumerate_admissible(5, 4)]
    assert got == [(3, 2, 2), (3, 2, 4), (5, 4, 2), (5, 4, 4)]


def test_enumerate_empty():
    assert enumerate_admissible(2, 10) == []


def test_enumerate_families_at_k2():
    triples = {p.triple() for p in enumerate_admissible(15, 2)}
    assert {(15, 8, 2), (7, 4, 2), (11, 8, 2)} <= triples


def test_enumerate_is_the_admissibility_filter():
    # every (n, p, k) in range, filtered by check_admissibility itself
    expected = [(n, p, k) for n in range(1, 32) for p in range(0, n + 1)
                for k in range(0, 21) if check_admissibility(n, p, k).admissible]
    assert [p.triple() for p in enumerate_admissible(31, 20)] == expected
    assert len(expected) == 230


def test_enumerate_sorted_lexicographically():
    triples = [p.triple() for p in enumerate_admissible(31, 20)]
    assert triples == sorted(triples)


def test_lambda_sq_exact_rational():
    for params in enumerate_admissible(31, 20):
        assert params.lambda_sq_frac * params.p == params.k * (params.k + params.n - 1)


def test_phi0_is_tan_theta():
    for params in enumerate_admissible(31, 20):
        assert math.tan(params.theta) == pytest.approx(params.phi0, rel=1e-12)
        phi0_sq = (params.p - params.n / params.lambda_sq) / (params.n - params.p)
        assert params.phi0 ** 2 == pytest.approx(phi0_sq, rel=1e-12)
        cos_sq = (1 - params.p / params.n) / (1 - params.p / params.big_k)
        assert math.cos(params.theta) ** 2 == pytest.approx(cos_sq, rel=1e-12)


def test_discriminant_sign_matches_explicit_lists():
    for params in enumerate_admissible(31, 20):
        spiral_by_list = (params.n, params.p) == (3, 2) and params.k >= 4 or \
                         (params.n, params.p) == (5, 4) and params.k >= 6
        spiral = params.stability is StabilityType.SPIRAL_TYPE_II
        assert spiral == spiral_by_list, params.triple()


@pytest.mark.parametrize("m", [2, 4, 8])
def test_original_hopf_angles(m):
    # the classical fibrations are the (2m-1, m, 2) triples, m = 2, 4, 8
    params = build_params(2 * m - 1, m, 2)
    expected = 4 * (m - 1) / (3 * (2 * m - 1))
    assert math.cos(params.theta) ** 2 == pytest.approx(expected, rel=1e-12)


def test_type2_requires_admissible_small_pairs():
    # Appendix case-4 precondition over the table: every admissible pair with
    # n >= 7 satisfies p < n < 2p and p >= 4
    for params in enumerate_admissible(31, 20):
        if params.n >= 7:
            assert params.p < params.n < 2 * params.p and params.p >= 4


def test_phi0_sq_frac_matches_float():
    params = build_params(3, 2, 4)
    assert float(params.phi0_sq_frac) == pytest.approx(params.phi0 ** 2, rel=1e-15)
    assert params.phi0_sq_frac == Fraction(7, 4)
