"""Invariant-region and no-limit-cycle certificates for the reduced flow.

Both certificates sweep the raw slope inequality
h'(phi) > (X2/X1)(phi, h(phi)) on a phi grid in (0, phi0), over one family
of barrier curves h(phi) = f1(phi) phi / (c (n-p)) + lift phi.  The
sweeps read the reduced field of dynsys in its (phi, psi) form, f1, f2,
f1_prime and vector_field_xy, which live here, as nothing else reads them.

Real-eigenvalue case (lift = 0): the region bounded below by the phi-axis
and above by the graph of h is forward invariant when the cubic
F(s) = I(s) + II(s) + III(s) IV(s) satisfies F(0) >= 0, G(0) > 0 and
G(lambda^2 phi0^2) > 0, where F(s) = F(0) + s G(s) and s is the
substitution s = (1 + lambda^2 phi0^2)/(1 + lambda^2 phi^2) - 1.  The
three quantities have printed closed forms, which case1_check evaluates
beside the sweep.  case1_from_polynomial evaluates them a second way, by
assembling the cubic from its four factors; only the tests and
perfbench's checks run it, against the closed forms.  The grid
complements the closed forms: the inequalities hold analytically, so a
negative grid margin indicates an implementation bug, not a mathematical
failure.

Spiral case (n - p = 1): g(phi) = (2 f1(phi) + 1/5) phi, the member
c = 1/2, lift = 1/5, controls the orbit until the first slope crossing
(Step 1); the paper's reduced form I - II + III IV of its slope
inequality equals the swept one identically.  The certificate that
oscillations shrink is the cross-determinant condition Y2 + X2 < 0, Y
being X reflected by (phi, psi) -> (phi, -psi), on the region
phi >= sqrt((3p-n-1)/(3(n-p))) (the no-limit-cycle lemma).  The envelope
function F(s) = (4/25) ((3+5s)/(1+s))^2 (1+5s)/(1+10s) attains its
minimum 32/27 over s > 0 at s = 1/5, the positive root of
175 s^2 + 20 s - 11, for every triple: case2_check reports them as
FS_MIN and FS_ARGMIN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NotApplicable
from .params import LomseParams, StabilityType

DEFAULT_GRID_POINTS = 10_000
DEFAULT_CYCLE_GRID = (200, 200)
FS_ARGMIN = 0.2
FS_MIN = 32.0 / 27.0


@dataclass(frozen=True)
class BarrierCase1Report:
    params: LomseParams
    c: float
    f0: float  # F(0)
    g0: float  # G(0)
    g_end: float  # G(lambda^2 phi0^2)
    grid_margin: float  # min over phi of h'(phi) - (X2/X1)(phi, h(phi))
    passed: bool  # F(0) >= 0, G(0) > 0, G(lambda^2 phi0^2) > 0 and grid_margin > 0


@dataclass(frozen=True)
class BarrierCase2Report:
    params: LomseParams
    g_grid_margin: float  # min over phi of g'(phi) - (X2/X1)(phi, g(phi))
    fs_min: float
    fs_argmin: float
    cycle_margin: float  # max of Y2 + X2 over the lemma grid
    passed: bool


def _require(params: LomseParams, kind: StabilityType) -> None:
    if params.stability is not kind:
        other = "spiral" if kind is StabilityType.CENTER_TYPE_I else "non-spiral"
        raise NotApplicable(f"({params.n},{params.p},{params.k}) has a {other} equilibrium")


def _require_finite(what: str, *values: float) -> None:
    """Refuse the certificate of what if it left the float range (a huge k, a tiny c)."""
    if not all(map(math.isfinite, values)):
        raise ValueError(f"the certificate of {what} leaves the float range")


def default_c(params: LomseParams) -> float:
    """Barrier constant of the invariant-region certificate: 6/7 for (5,4,4),
    1/2 for n >= 7, else 1 (the exploratory value where no printed case applies)."""
    _require(params, StabilityType.CENTER_TYPE_I)
    if params.triple() == (5, 4, 4):
        return 6.0 / 7.0
    return 0.5 if params.n >= 7 else 1.0


def f1(phi: float, params: LomseParams) -> float:
    lam2 = params.lambda_sq
    return (lam2 - 1.0) * params.p / (1.0 + lam2 * phi * phi) - (params.n - params.p)


def f2(phi: float, params: LomseParams) -> float:
    return params.n - params.p + params.p / (1.0 + params.lambda_sq * phi * phi)


def f1_prime(phi: float, params: LomseParams) -> float:
    lam2 = params.lambda_sq
    d = 1.0 + lam2 * phi * phi
    return -2.0 * (lam2 - 1.0) * params.p * lam2 * phi / (d * d)


def vector_field_xy(phi: float, psi: float, params: LomseParams) -> tuple[float, float]:
    """(X1, X2) at (phi, psi), the reduced field of dynsys in (phi, psi)
    form; the sweeps take their slopes and Y2 + X2 from it."""
    s = phi + psi
    x2 = -psi - (f2(phi, params) * psi - f1(phi, params) * phi) * (1.0 + s * s)
    return psi, x2


def barrier_h(phi: float, params: LomseParams, c: float, lift: float = 0.0) -> float:
    return f1(phi, params) * phi / (c * (params.n - params.p)) + lift * phi


def barrier_h_prime(phi: float, params: LomseParams, c: float, lift: float = 0.0) -> float:
    return (f1(phi, params) + f1_prime(phi, params) * phi) / (c * (params.n - params.p)) + lift


def _slope_margin(params: LomseParams, c: float, lift: float, grid_points: int,
                 what: str) -> float:
    """Minimum of h'(phi) - (X2/X1)(phi, h(phi)) over phi = phi0 i/(grid_points + 1),
    i = 1..grid_points, for the barrier curve h of (c, lift); refused, naming
    what, if it leaves the float range or any grid point is nan."""
    if grid_points < 1:
        raise ValueError(f"grid_points must be at least 1, got {grid_points}")
    phi0 = params.phi0
    margin = math.inf
    try:
        for i in range(1, grid_points + 1):
            phi = phi0 * i / (grid_points + 1)
            psi = barrier_h(phi, params, c, lift)
            x1, x2 = vector_field_xy(phi, psi, params)
            value = barrier_h_prime(phi, params, c, lift) - x2 / x1
            if not value >= margin:  # smaller, or nan, which ends the sweep
                margin = value
                if math.isnan(value):
                    break
    except OverflowError:
        margin = math.nan
    _require_finite(what, margin)
    return margin


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


def case1_polynomial(params: LomseParams, c: float):
    """Ascending coefficients of the cubic F(s) = I + II + III*IV.

    I(s)   = 1 + s/c
    II(s)  = -2(n-p)/(c(lambda^2-1)p) * (S - s)(1 + s),  S = lambda^2 phi0^2
    III(s) = (n-p)/(lambda^2-1) * (lambda^2 - c(lambda^2-1) + s)
    IV(s)  = 1 + (S - s)(1 + s/c)/lambda^2

    IV here is the proof's lower bound of the exact slope expression (the
    1/(1+s) factor dropped).  An array: numpy is imported here, so that
    verify runs without it.
    """
    import numpy as np

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
    _require(params, StabilityType.CENTER_TYPE_I)
    if c is None:
        c = default_c(params)
    if not 0.0 < c <= 1.0:
        raise ValueError(f"c must be in (0, 1], got {c}")
    f0, g0, g_end = case1_closed_forms(params, c)
    what = f"({params.n},{params.p},{params.k}) with c={c}"
    _require_finite(what, f0, g0, g_end)
    margin = _slope_margin(params, c, 0.0, grid_points, what)
    return BarrierCase1Report(
        params=params,
        c=c,
        f0=f0,
        g0=g0,
        g_end=g_end,
        grid_margin=margin,
        passed=f0 >= 0.0 and g0 > 0.0 and g_end > 0.0 and margin > 0.0,
    )


def cycle_region_threshold(params: LomseParams) -> float:
    """sqrt((3p - n - 1)/(3(n - p))): the slope above which downward
    half-loops strictly shrink."""
    return math.sqrt((3.0 * params.p - params.n - 1.0) / (3.0 * (params.n - params.p)))


def no_limit_cycle_check(params: LomseParams,
                         grid: tuple[int, int] = DEFAULT_CYCLE_GRID) -> float:
    """Maximum of Y2 + X2 over the lemma region grid; must be negative (nan if a point is).

    Grid: phi from the region threshold + 1e-6 up to 3 phi0, psi in
    (0, 3 phi0].  Y2 + X2 = 2 psi q, q = -1 - f2 (1 + phi^2 + psi^2) + 2 f1 phi^2
    falls in psi and d(2 psi q)/dpsi = 2q - 4 f2 psi^2 < 0 where q < 0, so
    only the lowest row psi = 3 phi0 / n_psi is evaluated: it holds each phi
    line's maximum when the lemma passes, and fails the grid when it fails.
    The display bound (Y2+X2)/(2 psi) <= -(3 lambda^2 (n-p)/(1+lambda^2 phi^2))
    phi^2 (phi^2 - threshold^2) is asserted along it, and so holds on every row.
    """
    _require(params, StabilityType.SPIRAL_TYPE_II)
    n_phi, n_psi = grid
    if n_phi < 2 or n_psi < 1:
        raise ValueError(f"grid must be at least (2, 1), got {grid}")
    phi0 = params.phi0
    lam2 = params.lambda_sq
    thr = cycle_region_threshold(params)
    phi_lo = thr + 1e-6
    phi_hi = 3.0 * phi0
    psi = 3.0 * phi0 / n_psi
    margin = -math.inf
    for i in range(n_phi):
        phi = phi_lo + (phi_hi - phi_lo) * i / (n_phi - 1)
        bound_factor = (-3.0 * lam2 * (params.n - params.p) / (1.0 + lam2 * phi * phi)
                        * phi * phi * (phi * phi - thr * thr))
        total = vector_field_xy(phi, psi, params)[1] - vector_field_xy(phi, -psi, params)[1]
        if total > 2.0 * psi * bound_factor + 1e-12:
            raise AssertionError(f"display bound violated at phi={phi}, psi={psi}: "
                                 f"{total} > {2.0 * psi * bound_factor}")
        if not total <= margin:  # larger, or nan, which ends the row
            margin = total
            if math.isnan(total):
                break
    return margin


def case2_check(params: LomseParams,
                grid_points: int = DEFAULT_GRID_POINTS,
                cycle_grid: tuple[int, int] = DEFAULT_CYCLE_GRID) -> BarrierCase2Report:
    """Full spiral-case suite: the Step-1 certificate (the slope sweep of
    g = (2 f1 + 1/5) phi over phi in (0, phi0), reported beside the
    envelope minimum FS_MIN) and the no-limit-cycle margin."""
    _require(params, StabilityType.SPIRAL_TYPE_II)
    if params.n - params.p != 1:
        raise ValueError(f"step-1 certificate requires n - p = 1, got "
                         f"({params.n},{params.p})")
    what = f"({params.n},{params.p},{params.k})"
    margin = _slope_margin(params, 0.5, 0.2, grid_points, what)  # (2 f1 + 1/5) phi
    cycle_margin = no_limit_cycle_check(params, grid=cycle_grid)
    _require_finite(what, cycle_margin)
    return BarrierCase2Report(
        params=params,
        g_grid_margin=margin,
        fs_min=FS_MIN,
        fs_argmin=FS_ARGMIN,
        cycle_margin=cycle_margin,
        passed=margin > 0.0 and cycle_margin < 0.0,
    )
