"""Parameter algebra for (n, p, k) equivariant cone maps.

A triple (n, p, k) fixes the whole reduced problem: the nonzero singular
value lambda with lambda^2 = k(k+n-1)/p, the cone angle theta, the cone
slope phi0 = tan(theta), and the stability type of the equilibrium
(phi0, 0) of the reduced planar system.

K = k(k+n-1) is kept as an exact integer and lambda^2 as the float K/p,
rounded once, because every downstream formula consumes lambda^2; derived
floats are computed from exact rationals in a single rounding step.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InadmissibleTriple


class StabilityType(enum.Enum):
    CENTER_TYPE_I = "center_type_I"
    SPIRAL_TYPE_II = "spiral_type_II"


@dataclass(frozen=True)
class AdmissibilityVerdict:
    admissible: bool
    reason: str


@dataclass(frozen=True)
class LomseParams:
    """The (n, p, k) triple with all derived constants.

    Invariants (enforced at construction):
      lambda_sq_frac == k(k+n-1)/p exactly, lambda_sq its rounding,
      lambda_sq_frac > n/p strictly,
      phi0 == tan(theta),
      phi0^2 == (p - n/lambda^2)/(n - p),
      cos(theta)^2 == (1 - p/n)/(1 - p/(k(k+n-1))).
    """

    n: int
    p: int
    k: int
    big_k: int  # k(k+n-1), the Laplace eigenvalue of the component functions
    lambda_sq: float  # big_k / p, rounded once
    lam: float
    theta: float
    phi0: float
    stability: StabilityType
    admissible: bool

    @property
    def lambda_sq_frac(self) -> Fraction:
        return Fraction(self.big_k, self.p)

    @property
    def phi0_sq_frac(self) -> Fraction:
        """phi0^2 = p(K - n) / (K(n - p)) exactly, K = k(k+n-1)."""
        K = self.big_k
        return Fraction(self.p * (K - self.n), K * (self.n - self.p))

    def triple(self) -> tuple[int, int, int]:
        return (self.n, self.p, self.k)


def check_admissibility(n: int, p: int, k: int) -> AdmissibilityVerdict:
    """Table membership: k even, k >= 2, and (n,p) in one of the three
    families (15,8), (2l+1,2l), (4l+3,4l)."""
    if k < 2 or k % 2 != 0:
        return AdmissibilityVerdict(False, "k_not_positive_even")
    if ((n, p) == (15, 8)
            or n == p + 1 and p % 2 == 0 and p >= 2
            or n == p + 3 and p % 4 == 0 and p >= 4):
        return AdmissibilityVerdict(True, "ok")
    return AdmissibilityVerdict(False, "pair_not_in_families")


def stability_discriminant(n: int, k: int) -> Fraction:
    """n^2 - 6n + 1 + 8n^2/(k(k+n-1)); spiral type iff negative.

    Exact rational so the sign decision has no floating edge cases.
    """
    K = k * (k + n - 1)
    return Fraction((n * n - 6 * n + 1) * K + 8 * n * n, K)


def _classify(n: int, k: int) -> StabilityType:
    if stability_discriminant(n, k) < 0:
        return StabilityType.SPIRAL_TYPE_II
    return StabilityType.CENTER_TYPE_I


def build_params(n: int, p: int, k: int, allow_inadmissible: bool = False) -> LomseParams:
    """Construct LomseParams, rejecting triples outside the admissibility
    table unless allow_inadmissible is set.

    The reduced planar system is well defined for any n > p >= 1 with
    lambda > sqrt(n/p), so inadmissible triples are useful for exploring
    the dynamics; they never correspond to an actual equivariant map.
    """
    if not (isinstance(n, int) and isinstance(p, int) and isinstance(k, int)):
        raise ValueError(f"(n, p, k) must be integers, got ({n!r}, {p!r}, {k!r})")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if not 1 <= p < n:
        raise ValueError(f"p must satisfy 1 <= p < n, got p={p}, n={n}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")

    verdict = check_admissibility(n, p, k)
    if not verdict.admissible and not allow_inadmissible:
        raise InadmissibleTriple(
            f"({n},{p},{k}) is not admissible ({verdict.reason}); "
            "pass --allow-inadmissible (allow_inadmissible=True) to explore the dynamics anyway"
        )

    K = k * (k + n - 1)
    # lambda^2 = K/p > n/p holds automatically for k >= 2.
    assert K > n
    try:
        lambda_sq = K / p
    except OverflowError:
        raise ValueError(f"({n},{p},{k}): lambda^2 = k(k+n-1)/p leaves the float range") from None
    phi0_sq = Fraction(p * (K - n), K * (n - p))
    cos_sq = Fraction(K * (n - p), n * (K - p))
    lam = math.sqrt(lambda_sq)
    phi0 = math.sqrt(phi0_sq)
    theta = math.acos(math.sqrt(cos_sq))
    return LomseParams(
        n=n,
        p=p,
        k=k,
        big_k=K,
        lambda_sq=lambda_sq,
        lam=lam,
        theta=theta,
        phi0=phi0,
        stability=_classify(n, k),
        admissible=verdict.admissible,
    )


def enumerate_admissible(n_max: int, k_max: int) -> list[LomseParams]:
    """The triples check_admissibility accepts with n <= n_max and k <= k_max,
    sorted lexicographically by (n, p, k)."""
    return [build_params(n, p, k)
            for n in range(2, n_max + 1)
            for p in range(1, n)
            if check_admissibility(n, p, 2).admissible
            for k in range(2, k_max + 1, 2)]
