"""The reduced planar autonomous vector field and its linearizations.

With phi = rho/r, t = log r and psi = dphi/dt, the radial minimal-surface
ODE becomes the autonomous system

    phi_t = psi,
    psi_t = -psi - [f2(phi) psi - f1(phi) phi] [1 + (phi + psi)^2],

with
    f1(phi) = (lambda^2-1) p / (1 + lambda^2 phi^2) - (n - p),
    f2(phi) = n - p + p / (1 + lambda^2 phi^2).

The field vanishes exactly at (0,0) and (+-phi0, 0), is odd under
(phi,psi) -> (-phi,-psi), and its linearization at (phi0, 0) is available
in closed form below; whether it is a spiral is params.stability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import LomseParams, StabilityType

P1_SERIES_ORDER = 8
_NEWTON_STEPS = 8  # at most; each squares the relative error, |z| / 0.3 or so at first


def _flat(d: int, j: int) -> int:
    """Position of the coefficient of z^(d-j) zbar^j in the flat order
    (d, j) = (0, 0), (1, 0), (1, 1), (2, 0), ..."""
    return d * (d + 1) // 2 + j


_SERIES_SIZE = _flat(P1_SERIES_ORDER + 1, 0)
_DEGREE = np.array([d for d in range(P1_SERIES_ORDER + 1) for _ in range(d + 1)])
_POWER_Z = np.array([d - j for d in range(P1_SERIES_ORDER + 1) for j in range(d + 1)])
# one entry per coefficient (d, j), 2 <= d, j <= d/2, of a product of two
# series without constant terms: d, j, the flat index of (d, j) and of its
# mirror (d, d - j), and the flat index pairs of the factors' terms (k, i)
# and (d - k, j - i), 1 <= k < d
_PRODUCT_PLAN = [
    (d, j, _flat(d, j), _flat(d, d - j),
     tuple((_flat(k, i), _flat(d - k, j - i)) for k in range(1, d)
           for i in range(max(0, j - d + k), min(k, j) + 1)))
    for d in range(2, P1_SERIES_ORDER + 1) for j in range(d // 2 + 1)]


@dataclass(frozen=True)
class P1Linearization:
    a: float  # 2n(n/(k(k+n-1)) - 1) < 0
    b: float  # -n - 1
    mu3: complex


@dataclass(frozen=True)
class P1Conjugacy:
    """x = Phi(z, zbar) with z' = mu z, conjugating the field near a spiral
    P1 to its linear flow, truncated at total degree P1_SERIES_ORDER.

    rows[m] = (U_m, lam_m U_m) are the coefficients of z^(d-j) zbar^j in u
    and psi, in the flat order of _flat, with lam_m = (d - j) mu + j
    conj(mu); the row of (d, d - j) is the conjugate of the row of (d, j),
    so Phi is real, and U_(1,0) = 1/2 makes Phi(z) = Re(z (1, mu)) + O(z^2).
    defect is D with |DPhi mu z - F(Phi(z))| about D |z|^(order + 1), the
    invariance residual's first omitted order (p1_conjugacy).
    """

    lin: P1Linearization
    rows: np.ndarray
    defect: float

    def states(self, z: np.ndarray) -> np.ndarray:
        """The rows (u, psi) of Phi at the points z, a 1-d array."""
        return _series_sum(self.rows, z).real

    def radius(self, rel_tol: float) -> float:
        """|z| within which the estimated defect D |z|^(order + 1) is at
        most rel_tol/10 of |Phi(z)| in the max-norm, that norm taken as its
        linear part's least on the circle: Re(z (1, mu)) = |z| M (cos, sin)
        with M = [[1, 0], [alpha, -omega]], whose least singular value is at
        least |det M| / |M|_F = omega / sqrt(1 + |mu|^2), and the max-norm
        is at least the 2-norm over sqrt(2)."""
        mu = self.lin.mu3
        least = mu.imag / math.sqrt(2.0 * (1.0 + abs(mu) ** 2))
        return (rel_tol / 10.0 * least / self.defect) ** (1.0 / P1_SERIES_ORDER)

    def invert(self, u: float, psi: float) -> complex:
        """z with Phi(z) = (u, psi), by Newton's method from the linear
        guess z = (psi - conj(mu) u) / (i omega).  Phi's differential is
        dx = Re(2 A dz / z), with A the series of x with each term weighted
        by its power of z; the zbar terms give the conjugate half."""
        mu = self.lin.mu3
        z = (psi - mu.conjugate() * u) / (1j * mu.imag)
        rows = np.hstack((self.rows, self.rows * _POWER_Z[:, None]))
        for _ in range(_NEWTON_STEPS):
            u_z, psi_z, a0, a1 = _series_sum(rows, np.array([z]))[:, 0].tolist()
            k0, k1 = 2.0 * a0 / z, 2.0 * a1 / z
            r0, r1 = u - u_z.real, psi - psi_z.real
            det = k0.imag * k1.real - k0.real * k1.imag
            step = complex(k0.imag * r1 - k1.imag * r0, k0.real * r1 - k1.real * r0) / det
            z += step
            if abs(step) <= 1e-10 * abs(z):  # the error left is about its square
                break
        return z


def _series_sum(rows: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum over m of rows[m] z^(d-j) zbar^j at the points z, a 1-d array:
    one row per column of rows, one column per point.  The monomials of
    order d come from those of order d - 1 by one product each, and are
    summed order by order, so no more than two orders are held at once."""
    mono = np.ones((1, len(z)), dtype=complex)
    total = np.zeros((rows.shape[1], len(z)), dtype=complex)
    for d in range(1, P1_SERIES_ORDER + 1):
        mono = np.concatenate((mono * z, mono[-1:] * z.conjugate()))
        total += rows[_flat(d, 0):_flat(d + 1, 0)].T @ mono
    return total


def f1(phi: float, params: LomseParams) -> float:
    lam2 = params.lambda_sq
    return (lam2 - 1.0) * params.p / (1.0 + lam2 * phi * phi) - (params.n - params.p)


def f2(phi: float, params: LomseParams) -> float:
    lam2 = params.lambda_sq
    return params.n - params.p + params.p / (1.0 + lam2 * phi * phi)


def offset_field(params: LomseParams):
    """dpsi/dt(u, psi) as a scalar closure over the parameters, u = phi - phi0.

    The other component, du/dt, is psi itself and is not returned.
    f1(phi) phi is evaluated as -(n-p) lambda^2 u (phi + phi0) phi / (1 +
    lambda^2 phi^2), exact because f1(phi0) = 0; accurate relative to u
    however small u is.  (phi + psi) ** 2 is Python's float power (libm
    pow), which can differ from (phi + psi) * (phi + psi) in the last bit.
    """
    n_minus_p = float(params.n - params.p)

    # the constants are default arguments, read as fast locals; callers pass u, psi only
    def dpsi(u: float, psi: float, phi0=params.phi0, lam2=params.lambda_sq,
             n_minus_p=n_minus_p, p=float(params.p), c1=n_minus_p * params.lambda_sq) -> float:
        phi = phi0 + u
        den = 1.0 + lam2 * phi * phi
        f1_phi = -c1 * u * (phi + phi0) / den * phi  # f1(phi) * phi, no cancellation
        return -psi - ((n_minus_p + p / den) * psi - f1_phi) * (1.0 + (phi + psi) ** 2)

    return dpsi


def vector_field_xy(phi: float, psi: float, params: LomseParams) -> tuple[float, float]:
    """(X1, X2) at (phi, psi); barrier takes its slopes and Y2 + X2 from it."""
    x2 = -psi - (f2(phi, params) * psi - f1(phi, params) * phi) * (1.0 + (phi + psi) ** 2)
    return psi, x2


def f1_prime(phi: float, params: LomseParams) -> float:
    lam2 = params.lambda_sq
    d = 1.0 + lam2 * phi * phi
    return -2.0 * (lam2 - 1.0) * params.p * lam2 * phi / (d * d)


def f2_prime(phi: float, params: LomseParams) -> float:
    lam2 = params.lambda_sq
    d = 1.0 + lam2 * phi * phi
    return -2.0 * params.p * lam2 * phi / (d * d)


def p1_quadratic_bound(params: LomseParams) -> float:
    """c2 with |F(x) - J x| <= c2 |x|^2 + O(|x|^3) in the max-norm near P1.

    F = (psi, offset_field) at x = (u, psi), J the linearization at P1.  Only
    dpsi/dt has a remainder; c2 is half the sum of the absolute second
    derivatives of X2 = -psi - B C at P1, the mixed one counted twice, with
    B = f2(phi) psi - f1(phi) phi (zero at P1) and C = 1 + (phi + psi)^2.
    """
    phi0 = params.phi0
    lam2 = params.lambda_sq
    d = 1.0 + lam2 * phi0 * phi0
    f1pp = -2.0 * (lam2 - 1.0) * params.p * lam2 * (1.0 - 3.0 * lam2 * phi0 * phi0) / d ** 3
    f1p = f1_prime(phi0, params)
    f2v = f2(phi0, params)
    c = 1.0 + phi0 * phi0
    c_x = 2.0 * phi0  # dC/dphi = dC/dpsi at P1
    b_u = -f1p * phi0
    x2_uu = (f1pp * phi0 + 2.0 * f1p) * c - 2.0 * b_u * c_x
    x2_up = -(f2_prime(phi0, params) * c + (b_u + f2v) * c_x)
    x2_pp = -2.0 * f2v * c_x
    return 0.5 * (abs(x2_uu) + 2.0 * abs(x2_up) + abs(x2_pp))


def spiral_flow_growth(lin: P1Linearization) -> float:
    """G with |exp(J tau) x| <= G e^{alpha tau} |x| in the max-norm around a
    spiral P1 (eigenvalues alpha +- i omega): exp(J tau) x = e^{alpha tau}
    (x cos(omega tau) + (J - alpha I) x sin(omega tau) / omega), and the
    max-norm of J - alpha I = [[-alpha, 1], [a, b - alpha]] is its larger
    absolute row sum."""
    alpha, omega = lin.mu3.real, lin.mu3.imag
    return 1.0 + max(abs(alpha) + 1.0, abs(lin.a) + abs(lin.b - alpha)) / omega


def linearize_p1(params: LomseParams) -> P1Linearization:
    """J = [[0, 1], [a, b]] at P1 and mu3, its eigenvalue of larger real part, or of
    positive imaginary part on the spiral branch that params.stability picks."""
    n = params.n
    a = 2.0 * n * (n / params.big_k - 1.0)
    b = float(-n - 1)
    root = math.sqrt(abs(b * b + 4.0 * a))  # disc = n^2 - 6n + 1 + 8n^2/K
    mu3 = (complex(b / 2.0, root / 2.0) if params.stability is StabilityType.SPIRAL_TYPE_II
           else complex((b + root) / 2.0, 0.0))
    return P1Linearization(a=a, b=b, mu3=mu3)


def p1_conjugacy(params: LomseParams) -> P1Conjugacy:
    """The conjugacy x = Phi(z, zbar), z' = mu z, at a spiral P1 (Poincare's
    theorem: a focus has no resonances), to order P1_SERIES_ORDER.

    With u = U(z, zbar) = sum U_m z^(d-j) zbar^j, psi = u' has coefficients
    lam_m U_m and psi' coefficients lam_m^2 U_m, so psi' = X2(u, psi) reads
    (lam_m^2 - b lam_m - a) U_m = [X2 - a u - b psi]_m order by order (Haro
    et al., The Parameterization Method for Invariant Manifolds, 2016).  X2
    = -psi - B C takes six series operations: S^2, (S + psi)^2 and U (S^2
    + phi0 S) with S = phi0 + U, the reciprocal G = (p psi + (n-p) lam^2
    U (S^2 + phi0 S)) / D of D = 1 + lam^2 S^2 as D G = numerator, B = (n-p)
    psi + G, and B C with C = 1 + (S + psi)^2.  At order d every product
    term pairs orders 1 to d - 1, all known, and the new U_d enters each
    series linearly: its part is added once U_d is solved, with no second
    pass.  Only j <= d/2 is computed; (d, d - j) is the conjugate.

    Each series keeps its coefficients from order 1 on (the order-0 ones,
    phi0 and its powers, are folded into the constants): Q = S^2 + phi0 S,
    D, G, B, C and E = U + psi.  defect extrapolates the coefficients'
    decay one order on: with A_d = sum_j |U_(d,j)|, A_(N+1) ~ A_N^2 /
    A_(N-1), times the divisor's bound at order N + 1.
    """
    lin = linearize_p1(params)
    a, b, mu = lin.a, lin.b, lin.mu3
    phi0, lam2 = params.phi0, params.lambda_sq
    n_minus_p, p = float(params.n - params.p), float(params.p)
    c1 = n_minus_p * lam2
    d0, c0 = 1.0 + lam2 * phi0 * phi0, 1.0 + phi0 * phi0
    u_coef, e_coef, q_coef, d_coef, g_coef, b_coef, c_coef = (
        [0j] * _SERIES_SIZE for _ in range(7))
    lam = (_DEGREE - _POWER_Z) * mu.conjugate() + _POWER_Z * mu

    def solved(f, mirror, l, u, w, v, g0):
        # the order-d coefficient and its mirror of each series, from the
        # known parts w = [U^2]_d, v = [E^2]_d, g0 = [G]_d and the new U_d
        psi = l * u
        g = g0 + (p * psi + 2.0 * c1 * phi0 * phi0 * u) / d0
        for series, x in ((u_coef, u), (e_coef, u + psi), (q_coef, w + 3.0 * phi0 * u),
                          (d_coef, lam2 * (w + 2.0 * phi0 * u)), (g_coef, g),
                          (b_coef, n_minus_p * psi + g), (c_coef, v + 2.0 * phi0 * (u + psi))):
            series[f] = x
            series[mirror] = x.conjugate()

    solved(_flat(1, 0), _flat(1, 1), mu, 0.5 + 0j, 0j, 0j, 0j)
    for d, j, f, mirror, pairs in _PRODUCT_PLAN:
        w, v, uq, dg, bc = (sum(x[i] * y[k] for i, k in pairs) for x, y in (
            (u_coef, u_coef), (e_coef, e_coef), (u_coef, q_coef), (d_coef, g_coef),
            (b_coef, c_coef)))
        l = (d - j) * mu + j * mu.conjugate()
        g0 = (c1 * uq - dg) / d0
        solved(f, mirror, l, -(c0 * g0 + bc) / (l * l - b * l - a), w, v, g0)
    u_coef = np.array(u_coef)
    size = [float(np.abs(u_coef[_DEGREE == d]).sum())
            for d in (P1_SERIES_ORDER - 1, P1_SERIES_ORDER)]
    top = (P1_SERIES_ORDER + 1) * abs(mu)
    defect = (top * top + abs(b) * top + abs(a)) * size[1] * size[1] / size[0]
    return P1Conjugacy(lin=lin, rows=np.stack((u_coef, lam * u_coef), axis=1), defect=defect)
