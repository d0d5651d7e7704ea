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

from .params import LomseParams, StabilityType


@dataclass(frozen=True)
class P1Linearization:
    a: float  # 2n(n/(k(k+n-1)) - 1) < 0
    b: float  # -n - 1
    mu3: complex


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
