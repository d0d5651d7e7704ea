"""Invariant-region and no-limit-cycle certificates for the reduced flow.

Real-eigenvalue case: the region bounded below by the phi-axis and above
by the graph of h(phi) = f1(phi) phi / (c (n-p)) is forward invariant
when the cubic F(s) = I(s) + II(s) + III(s) IV(s) satisfies F(0) >= 0,
G(0) > 0 and G(lambda^2 phi0^2) > 0, where F(s) = F(0) + s G(s) and s is
the substitution s = (1 + lambda^2 phi0^2)/(1 + lambda^2 phi^2) - 1.
The three quantities have printed closed forms; this module evaluates
them twice, once from the closed forms and once by assembling the cubic
from its four factors, and additionally sweeps the raw slope inequality
h'(phi) > (X2/X1)(phi, h(phi)) on a phi grid.  The grids complement the
closed forms: the inequalities hold analytically, so a negative grid
margin indicates an implementation bug, not a mathematical failure.

Spiral case: the same construction with g(phi) = (2 f1(phi) + 1/5) phi
controls the orbit until the first slope crossing (Step 1), and the
certificate that oscillations shrink is the cross-determinant condition
Y2 + X2 < 0 on the region phi >= sqrt((3p-n-1)/(3(n-p))) (the
no-limit-cycle lemma).  The envelope function
F(s) = (4/25) ((3+5s)/(1+s))^2 (1+5s)/(1+10s) attains its minimum 32/27
at s = 1/5, the positive root of 175 s^2 + 20 s - 11.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynsys import f1, f1_prime, reverse_field_xy, vector_field_xy
from .errors import COutOfRange, DomainError, NotTypeI, NotTypeII
from .params import LomseParams, StabilityType

DEFAULT_GRID_POINTS = 10_000
DEFAULT_CYCLE_GRID = (200, 200)
FS_MIN_EXACT = 32.0 / 27.0


@dataclass(frozen=True)
class BarrierCase1Report:
    params: LomseParams
    c: float
    f0: float  # F(0)
    g0: float  # G(0)
    g_end: float  # G(lambda^2 phi0^2)
    grid_margin: float  # min over phi of h'(phi) - (X2/X1)(phi, h(phi))
    passed: bool  # F(0) >= 0, G(0) > 0, G(lambda^2 phi0^2) > 0


@dataclass(frozen=True)
class BarrierCase2Report:
    params: LomseParams
    g_grid_margin: float  # min over phi of I - II + III*IV
    fs_min: float
    fs_argmin: float
    cycle_margin: float  # max of Y2 + X2 over the lemma grid
    passed: bool


def _require_type1(params: LomseParams) -> None:
    if params.stability is not StabilityType.CENTER_TYPE_I:
        raise NotTypeI(f"({params.n},{params.p},{params.k}) has a spiral equilibrium")


def _require_type2(params: LomseParams) -> None:
    if params.stability is not StabilityType.SPIRAL_TYPE_II:
        raise NotTypeII(f"({params.n},{params.p},{params.k}) has a non-spiral equilibrium")


def default_c(params: LomseParams) -> float:
    """Barrier constant used in the invariant-region certificate."""
    _require_type1(params)
    triple = params.triple()
    if triple in ((3, 2, 2), (5, 4, 2)):
        return 1.0
    if triple == (5, 4, 4):
        return 6.0 / 7.0
    if params.n >= 7:
        return 0.5
    # not covered by the four printed cases (only reachable for inadmissible
    # triples); c = 1 is a reasonable exploratory default
    return 1.0


def barrier_h(phi: float, params: LomseParams, c: float) -> float:
    return f1(phi, params) * phi / (c * (params.n - params.p))


def barrier_h_prime(phi: float, params: LomseParams, c: float) -> float:
    return (f1(phi, params) + f1_prime(phi, params) * phi) / (c * (params.n - params.p))


def case1_closed_forms(params: LomseParams, c: float) -> tuple[float, float, float]:
    """(F(0), G(0), G(lambda^2 phi0^2)) from the printed closed forms."""
    n, p = params.n, params.p
    lam2 = params.lambda_sq
    f0 = (1.0 + n
          - 2.0 * (lam2 * p - n) / (c * (lam2 - 1.0) * p)
          - c * (lam2 - 1.0) * n / lam2)
    g0 = ((1.0 / c - 1.0) * p - 1.0 / c
          + ((4.0 - p) / c - p) * (n - p) / (lam2 * p - p)
          + ((c + 2.0) * n - c * p) / lam2)
    g_end = (1.0 / c + c * (n - p) / lam2
             + 2.0 * (n - p) / (c * (lam2 - 1.0) * p))
    return f0, g0, g_end


def case1_polynomial(params: LomseParams, c: float) -> np.ndarray:
    """Ascending coefficients of the cubic F(s) = I + II + III*IV.

    I(s)   = 1 + s/c
    II(s)  = -2(n-p)/(c(lambda^2-1)p) * (S - s)(1 + s),  S = lambda^2 phi0^2
    III(s) = (n-p)/(lambda^2-1) * (lambda^2 - c(lambda^2-1) + s)
    IV(s)  = 1 + (S - s)(1 + s/c)/lambda^2

    IV here is the proof's lower bound of the exact slope expression (the
    1/(1+s) factor dropped); see case1_iv_unreduced for the exact one.
    """
    n, p = params.n, params.p
    lam2 = params.lambda_sq
    S = (lam2 * p - n) / (n - p)
    poly_i = np.array([1.0, 1.0 / c, 0.0, 0.0])
    c2 = -2.0 * (n - p) / (c * (lam2 - 1.0) * p)
    poly_ii = c2 * np.array([S, S - 1.0, -1.0, 0.0])
    c3 = (n - p) / (lam2 - 1.0)
    poly_iii = c3 * np.array([lam2 - c * (lam2 - 1.0), 1.0])
    poly_iv = np.array([1.0 + S / lam2, (S / c - 1.0) / lam2, -1.0 / (c * lam2)])
    prod = np.convolve(poly_iii, poly_iv)
    return poly_i + poly_ii + prod


def case1_iv_unreduced(s: float, params: LomseParams, c: float) -> float:
    """The exact IV(s) with the 1/(1+s) factor kept; diagnostics only."""
    lam2 = params.lambda_sq
    S = (lam2 * params.p - params.n) / (params.n - params.p)
    return 1.0 + (S - s) * (1.0 + s / c) ** 2 / (lam2 * (1.0 + s))


def case1_from_polynomial(params: LomseParams, c: float) -> tuple[float, float, float]:
    """(F(0), G(0), G(S)) from the cubic assembly; the independent route."""
    coeff = case1_polynomial(params, c)
    lam2 = params.lambda_sq
    S = (lam2 * params.p - params.n) / (params.n - params.p)
    f0 = coeff[0]
    g = coeff[1:]  # G(s) = (F(s) - F(0))/s
    g0 = g[0]
    g_end = g[0] + g[1] * S + g[2] * S * S
    return float(f0), float(g0), float(g_end)


def case1_check(params: LomseParams, c: float | None = None,
                grid_points: int = DEFAULT_GRID_POINTS) -> BarrierCase1Report:
    """Closed-form certificate plus the raw slope inequality on a phi grid."""
    _require_type1(params)
    if grid_points < 1:
        raise ValueError(f"grid_points must be at least 1, got {grid_points}")
    if c is None:
        c = default_c(params)
    if not 0.0 < c <= 1.0:
        raise COutOfRange(f"c must be in (0, 1], got {c}")
    f0, g0, g_end = case1_closed_forms(params, c)
    phi0 = params.phi0
    margin = math.inf
    for i in range(1, grid_points + 1):
        phi = phi0 * i / (grid_points + 1)
        psi = barrier_h(phi, params, c)
        x1, x2 = vector_field_xy(phi, psi, params)
        margin = min(margin, barrier_h_prime(phi, params, c) - x2 / x1)
    return BarrierCase1Report(
        params=params,
        c=c,
        f0=f0,
        g0=g0,
        g_end=g_end,
        grid_margin=margin,
        passed=(f0 >= 0.0) and (g0 > 0.0) and (g_end > 0.0),
    )


def fs_envelope(s: float) -> float:
    """(4/25) ((3+5s)/(1+s))^2 (1+5s)/(1+10s); minimum 32/27 at s = 1/5."""
    return 0.16 * ((3.0 + 5.0 * s) / (1.0 + s)) ** 2 * (1.0 + 5.0 * s) / (1.0 + 10.0 * s)


def fs_minimum() -> tuple[float, float]:
    """(argmin, min) of the envelope over s > 0, from the closed-form
    critical point (positive root of 175 s^2 + 20 s - 11) plus endpoint
    comparisons."""
    s_star = (-20.0 + math.sqrt(20.0 ** 2 + 4.0 * 175.0 * 11.0)) / (2.0 * 175.0)
    f_star = fs_envelope(s_star)
    # endpoints: F -> 36/25 as s -> 0+, F -> 2 as s -> infinity
    assert fs_envelope(1e-9) > f_star and fs_envelope(1e9) > f_star
    return s_star, f_star


def step1_margin(s: float, params: LomseParams) -> float:
    """I - II + III*IV of the first-step certificate at the substitution
    value s; positive on (0, lambda^2 phi0^2) is what the certificate needs.
    Valid for n - p = 1 only."""
    n, p = params.n, params.p
    lam2 = params.lambda_sq
    term_i = 1.2 + 2.0 * s
    term_ii = 4.0 * (lam2 * p - n - s) * (1.0 + s) / ((lam2 - 1.0) * p)
    term_iii = (lam2 + s) / (lam2 - 1.0) - s / (2.0 * s + 0.2)
    term_iv = 1.0 + (lam2 * p - n - s) * (1.2 + 2.0 * s) ** 2 / (lam2 * (1.0 + s))
    return term_i - term_ii + term_iii * term_iv


def cycle_region_threshold(params: LomseParams) -> float:
    """sqrt((3p - n - 1)/(3(n - p))): the slope above which downward
    half-loops strictly shrink."""
    return math.sqrt((3.0 * params.p - params.n - 1.0) / (3.0 * (params.n - params.p)))


def no_limit_cycle_check(params: LomseParams,
                         grid: tuple[int, int] = DEFAULT_CYCLE_GRID) -> float:
    """Maximum of Y2 + X2 over the lemma region grid; must be negative.

    Grid: phi from the region threshold + 1e-6 up to 3 phi0, psi in
    (0, 3 phi0].  The final display bound
    (Y2+X2)/(2 psi) <= -(3 lambda^2 (n-p)/(1+lambda^2 phi^2)) phi^2
                        (phi^2 - threshold^2)
    is asserted pointwise along the way.
    """
    _require_type2(params)
    n_phi, n_psi = grid
    if n_phi < 2 or n_psi < 1:
        raise ValueError(f"grid must be at least (2, 1), got {grid}")
    phi0 = params.phi0
    lam2 = params.lambda_sq
    thr = cycle_region_threshold(params)
    phi_lo = thr + 1e-6
    phi_hi = 3.0 * phi0
    margin = -math.inf
    for i in range(n_phi):
        phi = phi_lo + (phi_hi - phi_lo) * i / (n_phi - 1)
        bound_factor = (-3.0 * lam2 * (params.n - params.p) / (1.0 + lam2 * phi * phi)
                        * phi * phi * (phi * phi - thr * thr))
        for j in range(1, n_psi + 1):
            psi = 3.0 * phi0 * j / n_psi
            _, x2 = vector_field_xy(phi, psi, params)
            _, y2 = reverse_field_xy(phi, psi, params)
            total = y2 + x2
            if total > 2.0 * psi * bound_factor + 1e-12:
                raise AssertionError(
                    f"display bound violated at phi={phi}, psi={psi}: "
                    f"{total} > {2.0 * psi * bound_factor}"
                )
            margin = max(margin, total)
    return margin


def case2_check(params: LomseParams,
                grid_points: int = DEFAULT_GRID_POINTS,
                cycle_grid: tuple[int, int] = DEFAULT_CYCLE_GRID) -> BarrierCase2Report:
    """Full spiral-case suite: the Step-1 certificate (envelope minimum plus
    the grid sweep of I - II + III*IV over phi in (0, phi0)) and the
    no-limit-cycle margin."""
    _require_type2(params)
    if params.n - params.p != 1:
        raise DomainError(f"step-1 certificate requires n - p = 1, got "
                          f"({params.n},{params.p})")
    if grid_points < 1:
        raise ValueError(f"grid_points must be at least 1, got {grid_points}")
    s_star, f_min = fs_minimum()
    phi0 = params.phi0
    lam2 = params.lambda_sq
    s_end = 1.0 + lam2 * phi0 * phi0
    margin = math.inf
    for i in range(1, grid_points + 1):
        phi = phi0 * i / (grid_points + 1)
        s = s_end / (1.0 + lam2 * phi * phi) - 1.0
        margin = min(margin, step1_margin(s, params))
    cycle_margin = no_limit_cycle_check(params, grid=cycle_grid)
    return BarrierCase2Report(
        params=params,
        g_grid_margin=margin,
        fs_min=f_min,
        fs_argmin=s_star,
        cycle_margin=cycle_margin,
        passed=(margin > 0.0 and abs(f_min - FS_MIN_EXACT) < 1e-10
                and cycle_margin < 0.0),
    )
