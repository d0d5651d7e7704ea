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
in closed form below; whether it is a spiral is params.stability.  The
field squares phi + psi as a product, rounding alike on floats and numpy
arrays; P1's eigenvalues split the exact discriminant without cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import LomseParams, StabilityType, stability_discriminant

P1_SERIES_ORDER = 8
_NEWTON_STEPS = 8  # at most; each squares the relative error, |z| / 0.3 or so at first


def _flat(d: int, j: int) -> int:
    """Position of the coefficient of z1^(d-j) z2^j in the flat order
    (d, j) = (0, 0), (1, 0), (1, 1), (2, 0), ..."""
    return d * (d + 1) // 2 + j


_SERIES_SIZE = _flat(P1_SERIES_ORDER + 1, 0)
_DEGREE = np.array([d for d in range(P1_SERIES_ORDER + 1) for _ in range(d + 1)])
_POWER_Z = np.array([d - j for d in range(P1_SERIES_ORDER + 1) for j in range(d + 1)])
# one entry per coefficient (d, j), 2 <= d, of a product of two series
# without constant terms: d, j, the flat index of (d, j) and of its mirror
# (d, d - j), and the flat index pairs of the factors' terms (k, i) and
# (d - k, j - i), 1 <= k < d.  At a spiral P1 only j <= d/2 is solved,
# (d, d - j) being the conjugate; at a node every (d, j), with no mirror
_NODE_PLAN = [
    (d, j, _flat(d, j), None,
     tuple((_flat(k, i), _flat(d - k, j - i)) for k in range(1, d)
           for i in range(max(0, j - d + k), min(k, j) + 1)))
    for d in range(2, P1_SERIES_ORDER + 1) for j in range(d + 1)]
_SPIRAL_PLAN = [(d, j, f, _flat(d, d - j), pairs) for d, j, f, _, pairs in _NODE_PLAN
                if 2 * j <= d]
# dPhi/dz1 and dPhi/dz2 as series of one order less: the flat indices of
# the entries (d, j) and (d, j + 1) that their entry (d - 1, j) takes, and
# the factors d - j and j + 1
_LOWER = [(d, j) for d in range(1, P1_SERIES_ORDER + 1) for j in range(d)]
_DERIVATIVES = [(np.array([_flat(d, j + 1) if dz2 else _flat(d, j) for d, j in _LOWER]),
                 np.array([j + 1.0 if dz2 else d - j for d, j in _LOWER]))
                for dz2 in (False, True)]


@dataclass(frozen=True)
class P1Linearization:
    """J = [[0, 1], [a, b]] at P1 and its eigenvalues mu3 and mu4, the roots
    of mu^2 = b mu + a: at a spiral P1 mu3 = alpha + i omega and mu4 its
    conjugate, at a node (type I) the slow and the fast real root.  The
    coordinates (z1, z2) write the state as x = (z1 (1, mu3) + z2 (1,
    mu4)) / 2 and the linear flow exp(J tau) x as (z1 e^{mu3 tau}, z2
    e^{mu4 tau}); at a spiral z2 = conj(z1), x = (Re z, Re mu3 z) with z
    = z1, and the linear flow is z e^{mu3 tau}."""

    a: float  # 2n(n/(k(k+n-1)) - 1) < 0
    b: float  # -n - 1
    mu3: complex
    mu4: complex

    @property
    def spiral(self) -> bool:
        return self.mu3.imag != 0.0

    def coordinates(self, u, psi):
        """(z1, z2) = ((psi - mu4 u) / h, (psi - mu3 u) / -h), h = (mu3 -
        mu4) / 2 (i omega at a spiral), of states (u, psi), floats or arrays."""
        half = 0.5 * (self.mu3 - self.mu4)
        return (psi - self.mu4 * u) / half, (psi - self.mu3 * u) / -half

    def envelope(self, z):
        """max(1, |mu3|) |z|, the largest max-norm the state reaches over one
        turn of a spiral's phase: |exp(J tau) x| <= envelope e^{alpha tau}."""
        return max(1.0, abs(self.mu3)) * abs(z)

    @property
    def least(self) -> float:
        """A lower bound on |x|_max / max(|z1|, |z2|): x = M (z1, z2) / 2 with M
        = [[1, 1], [mu3, mu4]] of least singular value >= |det M| / |M|_F,
        |x|_max >= |x|_2 / sqrt(2), and |(z1, z2)|_2 is sqrt(2) |z| at a
        spiral and >= |z| at a node."""
        mu3, mu4 = self.mu3, self.mu4
        least = abs(mu3 - mu4) / math.sqrt(2.0 + abs(mu3) ** 2 + abs(mu4) ** 2) / 2.0
        return least if self.spiral else least / math.sqrt(2.0)


@dataclass(frozen=True)
class P1Conjugacy:
    """x = Phi(z1, z2) with z1' = mu3 z1, z2' = mu4 z2, conjugating the field
    near P1 to its linear flow, truncated at total degree P1_SERIES_ORDER.

    rows[m] = (U_m, lam_m U_m) are the coefficients of z1^(d-j) z2^j in u
    and psi, in the flat order of _flat, with lam_m = (d - j) mu3 + j mu4;
    U_(1,0) = U_(1,1) = 1/2 makes Phi(z) = x of P1Linearization's
    coordinates + O(z^2).  At a spiral P1 the row of (d, d - j) is the
    conjugate of the row of (d, j) and z2 = conj(z1), so Phi is real; at a
    node the rows and the coordinates are real.  norms[d] = sum_j |U_(d,
    j)|, the u row's norm at degree d; the psi row's is at most d max(|mu3|,
    |mu4|) times it, as |lam_m| is.  defect is D with |DPhi(mu3 z1, mu4 z2)
    - F(Phi(z))| about D |z|^(order + 1), |z| = max(|z1|, |z2|), the
    invariance residual's first omitted order (p1_conjugacy).
    """

    lin: P1Linearization
    rows: np.ndarray
    norms: np.ndarray
    defect: float

    def states(self, z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
        """The rows (u, psi) of Phi at the points (z1, z2), 1-d arrays."""
        return _series_sum(self.rows, z1, z2).real

    def radius(self, rel_tol: float) -> float:
        """|z| within which the estimated defect D |z|^(order + 1) is at
        most rel_tol/10 of |Phi(z)| in the max-norm, that norm taken as its
        linear part's least (P1Linearization.least)."""
        return (rel_tol / 10.0 * self.lin.least / self.defect) ** (1.0 / P1_SERIES_ORDER)

    def terms(self) -> np.ndarray:
        """max(1, d max(|mu3|, |mu4|)) norms[d], d = 0, ..., order: at least
        the max-norm of Phi's terms of degree d where max(|z1|, |z2|) = 1."""
        top = max(abs(self.lin.mu3), abs(self.lin.mu4))
        return np.maximum(1.0, np.arange(P1_SERIES_ORDER + 1) * top) * self.norms

    def bound(self, r, lowest: int = 2):
        """sum over d >= lowest of terms()[d] r^d, r a float or an array:
        where max(|z1|, |z2|) <= r, a bound on Phi's terms from degree lowest
        on, so on |Phi(z)| with 1 and N(r) >= |Phi(z) - L(z)|, L linear, with 2."""
        return np.power.outer(r, np.arange(lowest, P1_SERIES_ORDER + 1)) @ self.terms()[lowest:]

    def splice_radius(self, rel_tol: float) -> float:
        """The largest r with N(r) <= rel_tol/10 of least r, the linear
        part's least max-norm at |z| = r, to rounding: N(r) / r^2 rises, so
        from r0 = rel_tol least / (10 terms()[2]), at or above the root, one
        step r = rel_tol least r0^2 / (10 N(r0)) lands just below it."""
        target = rel_tol / 10.0 * self.lin.least
        r0 = target / self.terms()[2]
        return float(target * r0 * r0 / self.bound(r0))

    def invert(self, u: float, psi: float):
        """(z1, z2) with Phi(z1, z2) = (u, psi), by Newton's method from the
        linear guess, the coordinates of (u, psi).  Each step solves
        dPhi/dz1 dz1 + dPhi/dz2 dz2 = (u, psi) - Phi(z1, z2) by Cramer's
        rule, the two columns being series of one order less
        (_DERIVATIVES); at a spiral z2 is kept the conjugate of z1."""
        z1, z2 = self.lin.coordinates(u, psi)
        rows = np.zeros((_SERIES_SIZE, 6), dtype=self.rows.dtype)
        rows[:, :2] = self.rows
        for col, (src, factor) in zip((2, 4), _DERIVATIVES):
            rows[:len(src), col:col + 2] = self.rows[src] * factor[:, None]
        for _ in range(_NEWTON_STEPS):
            u_z, psi_z, a0, a1, b0, b1 = _series_sum(
                rows, np.array([z1]), np.array([z2]))[:, 0].tolist()
            r0, r1 = u - u_z.real, psi - psi_z.real
            det = a0 * b1 - a1 * b0
            step1, step2 = (r0 * b1 - r1 * b0) / det, (a0 * r1 - a1 * r0) / det
            z1 += step1
            z2 = z1.conjugate() if self.lin.spiral else z2 + step2
            if max(abs(step1), abs(step2)) <= 1e-10 * max(abs(z1), abs(z2)):
                break  # the error left is about its square
        return z1, z2


def _series_sum(rows: np.ndarray, z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """sum over m of rows[m] z1^(d-j) z2^j, from order 0, at the points (z1,
    z2), 1-d arrays: one row per column of rows, one column per point.  The
    monomials of order d come from those of order d - 1 by one product
    each, and are summed order by order, so no more than two orders are
    held at once."""
    mono = np.ones((1, len(z1)), dtype=np.result_type(z1, z2, rows))
    total = rows[:1].T @ mono
    for d in range(1, P1_SERIES_ORDER + 1):
        mono = np.concatenate((mono * z1, mono[-1:] * z2))
        total += rows[_flat(d, 0):_flat(d + 1, 0)].T @ mono
    return total


def f1(phi: float, params: LomseParams) -> float:
    lam2 = params.lambda_sq
    return (lam2 - 1.0) * params.p / (1.0 + lam2 * phi * phi) - (params.n - params.p)


def f2(phi: float, params: LomseParams) -> float:
    lam2 = params.lambda_sq
    return params.n - params.p + params.p / (1.0 + lam2 * phi * phi)


def offset_field(params: LomseParams):
    """dpsi/dt(u, psi) as a closure over the parameters, u = phi - phi0, on
    floats or arrays alike.

    The other component, du/dt, is psi itself and is not returned.
    f1(phi) phi is evaluated as -(n-p) lambda^2 u (phi + phi0) phi / (1 +
    lambda^2 phi^2), exact because f1(phi0) = 0; accurate relative to u
    however small u is.  (phi + psi)^2 is the product s * s of s = phi +
    psi, correctly rounded, so a call on arrays equals the scalar calls bit
    for bit.
    """
    n_minus_p = float(params.n - params.p)

    # the constants are default arguments, read as fast locals; callers pass u, psi only
    def dpsi(u: float, psi: float, phi0=params.phi0, lam2=params.lambda_sq,
             n_minus_p=n_minus_p, p=float(params.p), c1=n_minus_p * params.lambda_sq) -> float:
        phi = phi0 + u
        den = 1.0 + lam2 * phi * phi
        f1_phi = -c1 * u * (phi + phi0) / den * phi  # f1(phi) * phi, no cancellation
        s = phi + psi
        return -psi - ((n_minus_p + p / den) * psi - f1_phi) * (1.0 + s * s)

    return dpsi


def vector_field_xy(phi: float, psi: float, params: LomseParams) -> tuple[float, float]:
    """(X1, X2) at (phi, psi); barrier takes its slopes and Y2 + X2 from it."""
    s = phi + psi
    x2 = -psi - (f2(phi, params) * psi - f1(phi, params) * phi) * (1.0 + s * s)
    return psi, x2


def f1_prime(phi: float, params: LomseParams) -> float:
    lam2 = params.lambda_sq
    d = 1.0 + lam2 * phi * phi
    return -2.0 * (lam2 - 1.0) * params.p * lam2 * phi / (d * d)


def linearize_p1(params: LomseParams) -> P1Linearization:
    """J at P1 and its eigenvalues: mu3 of larger real part, or of positive
    imaginary part on the spiral branch that params.stability picks.

    a = 2n(n - K)/K is rounded once, and root = sqrt|b^2 + 4a| from the
    exact params.stability_discriminant.  At a spiral mu3 = (b + i root)/2
    and mu4 is its conjugate; at a node mu4 = (b - root)/2 and the slow
    root is mu3 = -a/mu4, the roots' product being -a, where (b + root)/2
    would cancel."""
    n, K = params.n, params.big_k
    a = 2 * n * (n - K) / K
    b = float(-n - 1)
    root = math.sqrt(abs(stability_discriminant(n, params.k)))
    if params.stability is StabilityType.SPIRAL_TYPE_II:
        mu3 = complex(b / 2.0, root / 2.0)
        return P1Linearization(a=a, b=b, mu3=mu3, mu4=mu3.conjugate())
    mu4 = (b - root) / 2.0
    return P1Linearization(a=a, b=b, mu3=-a / mu4, mu4=mu4)


def p1_conjugacy(params: LomseParams) -> P1Conjugacy:
    """The conjugacy x = Phi(z1, z2), z1' = mu3 z1, z2' = mu4 z2, at P1, to
    order P1_SERIES_ORDER (the parameterization method: Haro et al., The
    Parameterization Method for Invariant Manifolds, 2016; Cabre, Fontich
    and de la Llave, Indiana Univ. Math. J. 52, 2003).  Both P1 types lie in
    the Poincare domain; a focus has no resonances, and a node's only
    possible ones, mu4 = d mu3, leave small divisors on the table's nearly
    resonant triples but no zero one.

    With u = U(z1, z2) = sum U_m z1^(d-j) z2^j, psi = u' has coefficients
    lam_m U_m and psi' coefficients lam_m^2 U_m, so psi' = X2(u, psi) reads
    (lam_m - mu3)(lam_m - mu4) U_m = [X2 - a u - b psi]_m order by order.
    X2 = -psi - B C takes six series operations: S^2, (S + psi)^2 and U
    (S^2 + phi0 S) with S = phi0 + U, the reciprocal G = (p psi + (n-p) lam^2
    U (S^2 + phi0 S)) / D of D = 1 + lam^2 S^2 as D G = numerator, B = (n-p)
    psi + G, and B C with C = 1 + (S + psi)^2.  At order d every product
    term pairs orders 1 to d - 1, all known, and the new U_d enters each
    series linearly: its part is added once U_d is solved, with no second
    pass.  At a spiral P1 only j <= d/2 is computed, (d, d - j) being the
    conjugate; at a node every coefficient is computed, and all are real.

    Each series keeps its coefficients from order 1 on (the order-0 ones,
    phi0 and its powers, are folded into the constants): Q = S^2 + phi0 S,
    D, G, B, C and E = U + psi.  defect extrapolates the coefficients'
    decay one order on: with A_d = sum_j |U_(d,j)| (norms), A_(N+1) ~ A_N^2
    / A_(N-1), times the divisor's bound at order N + 1.
    """
    lin = linearize_p1(params)
    a, b, mu3, mu4, spiral = lin.a, lin.b, lin.mu3, lin.mu4, lin.spiral
    phi0, lam2 = params.phi0, params.lambda_sq
    n_minus_p, p = float(params.n - params.p), float(params.p)
    c1 = n_minus_p * lam2
    d0, c0 = 1.0 + lam2 * phi0 * phi0, 1.0 + phi0 * phi0
    zero = 0j if spiral else 0.0
    u_coef, e_coef, q_coef, d_coef, g_coef, b_coef, c_coef = (
        [zero] * _SERIES_SIZE for _ in range(7))
    lam = _POWER_Z * mu3 + (_DEGREE - _POWER_Z) * mu4

    def solved(f, mirror, l, u, w, v, g0):
        # the order-d coefficient and its mirror of each series, from the
        # known parts w = [U^2]_d, v = [E^2]_d, g0 = [G]_d and the new U_d
        psi = l * u
        g = g0 + (p * psi + 2.0 * c1 * phi0 * phi0 * u) / d0
        for series, x in ((u_coef, u), (e_coef, u + psi), (q_coef, w + 3.0 * phi0 * u),
                          (d_coef, lam2 * (w + 2.0 * phi0 * u)), (g_coef, g),
                          (b_coef, n_minus_p * psi + g), (c_coef, v + 2.0 * phi0 * (u + psi))):
            series[f] = x
            if mirror is not None:
                series[mirror] = x.conjugate()

    for f, mirror, l in ((1, 2, mu3),) if spiral else ((1, None, mu3), (2, None, mu4)):
        solved(f, mirror, l, 0.5, zero, zero, zero)  # the flat indices of (1, 0) and (1, 1)
    for d, j, f, mirror, pairs in _SPIRAL_PLAN if spiral else _NODE_PLAN:
        w = v = uq = dg = bc = zero
        for i, k in pairs:  # [U^2]_d, [E^2]_d, [U Q]_d, [D G]_d and [B C]_d in one pass
            u_i = u_coef[i]
            w += u_i * u_coef[k]
            v += e_coef[i] * e_coef[k]
            uq += u_i * q_coef[k]
            dg += d_coef[i] * g_coef[k]
            bc += b_coef[i] * c_coef[k]
        l = (d - j) * mu3 + j * mu4
        g0 = (c1 * uq - dg) / d0
        # the divisor l^2 - b l - a = (l - mu3)(l - mu4)
        solved(f, mirror, l, -(c0 * g0 + bc) / (l * l - b * l - a), w, v, g0)
    u_coef = np.array(u_coef)
    norms = np.array([np.abs(u_coef[_DEGREE == d]).sum() for d in range(P1_SERIES_ORDER + 1)])
    top = (P1_SERIES_ORDER + 1) * max(abs(mu3), abs(mu4))
    defect = (top * top + abs(b) * top + abs(a)) * norms[-1] * norms[-1] / norms[-2]
    return P1Conjugacy(lin, np.stack((u_coef, lam * u_coef), axis=1), norms, float(defect))
