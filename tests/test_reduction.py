"""The reduction checked against its source, the area functional.

The equivariant graph rho(r) f(omega) has area |S^n| times the integral of

    L = r^n sqrt(1 + rho'^2) (1 + lambda^2 rho^2 / r^2)^{p/2},

so the planar field must be the Euler-Lagrange equation of L written in phi
= rho/r, psi = dphi/dt, t = log r (rho' = phi + psi, rho'' = (psi' + psi)/r).
The density's boundary term (analysis) rests on the Noether identity of the
dilations, d/dt[e^{(n+1)t} (l - psi l_psi)] = (n+1) e^{(n+1)t} l with l = S W,
S = sqrt(1 + (phi + psi)^2) and W = (1 + lambda^2 phi^2)^{p/2}, along the
field.  sympy checks both for symbolic n, p and lambda^2 on the package's
own field functions; the numeric checks compare dynsys.offset_field with
them at random states of every table triple, where a wrong coefficient of
the field shows (n - p + 0.01 in offset_field fails both).
"""

import types

import numpy as np
import pytest

from lo_dynamics.barrier import vector_field_xy
from lo_dynamics.dynsys import offset_field
from lo_dynamics.params import build_params, enumerate_admissible

_TABLE = enumerate_admissible(31, 20)
_STATES = 20  # random states per triple


def _states(params, seed):
    """phi in (0, 3 phi0), psi in (-3, 3) and r in (e^-3, e^3), drawn per triple."""
    rng = np.random.default_rng(seed)
    return (params.phi0 * rng.uniform(0.0, 3.0, _STATES), rng.uniform(-3.0, 3.0, _STATES),
            np.exp(rng.uniform(-3.0, 3.0, _STATES)))


def test_euler_lagrange_equation_is_the_field():
    # L's Euler-Lagrange equation d/dr L_rho' = L_rho, solved for psi', is
    # vector_field_xy's X2 with symbols for n, p and lambda^2, and
    # offset_field's closed form in u = phi - phi0 is X2, lambda^2 written
    # n / (p - (n - p) phi0^2), so that f1(phi0) = 0
    sp = pytest.importorskip("sympy")
    n, p, lam2, phi0 = sp.symbols("n p lambda2 phi0", positive=True)
    r = sp.symbols("r", positive=True)
    rho, rho_r, rho_rr, phi, psi, u, x = sp.symbols("rho rho_r rho_rr phi psi u x", real=True)
    area = r ** n * sp.sqrt(1 + rho_r ** 2) * (1 + lam2 * rho ** 2 / r ** 2) ** (p / 2)
    momentum = sp.diff(area, rho_r)
    euler_lagrange = (sp.diff(momentum, r) + sp.diff(momentum, rho) * rho_r
                      + sp.diff(momentum, rho_r) * rho_rr - sp.diff(area, rho))
    psi_t = sp.solve(euler_lagrange.subs({rho: r * phi, rho_r: phi + psi,
                                          rho_rr: (x + psi) / r}), x)
    field = vector_field_xy(phi, psi, types.SimpleNamespace(n=n, p=p, lambda_sq=lam2))[1]
    assert len(psi_t) == 1 and sp.simplify(psi_t[0] - field) == 0
    lam2_of_phi0 = n / (p - (n - p) * phi0 ** 2)
    dpsi = offset_field(build_params(3, 2, 2))
    offset = dpsi(u, psi, phi0=phi0, lam2=lam2_of_phi0, n_minus_p=n - p, p=p,
                  c1=(n - p) * lam2_of_phi0)
    field = vector_field_xy(phi0 + u, psi,
                            types.SimpleNamespace(n=n, p=p, lambda_sq=lam2_of_phi0))[1]
    assert sp.simplify(offset - field) == 0


def test_dilation_identity():
    # G = l - psi l_psi = W (1 + phi (phi + psi)) / S, and (n+1) G + psi
    # G_phi + X2 G_psi = (n+1) l along vector_field_xy's field: the volume's
    # derivative in t is the boundary term's
    sp = pytest.importorskip("sympy")
    n, p, lam2 = sp.symbols("n p lambda2", positive=True)
    phi, psi = sp.symbols("phi psi", real=True)
    s = sp.sqrt(1 + (phi + psi) ** 2)
    w = (1 + lam2 * phi ** 2) ** (p / 2)
    ell = s * w
    g = ell - psi * sp.diff(ell, psi)
    assert sp.simplify(g - w * (1 + phi * (phi + psi)) / s) == 0
    field = vector_field_xy(phi, psi, types.SimpleNamespace(n=n, p=p, lambda_sq=lam2))[1]
    assert sp.simplify((n + 1) * g + psi * sp.diff(g, phi) + field * sp.diff(g, psi)
                       - (n + 1) * ell) == 0


def test_offset_field_is_the_euler_lagrange_equation_on_the_table():
    # rho'' from L's Euler-Lagrange equation in (r, rho, rho'), written
    # here by hand: with q = lambda^2 rho^2 / r^2 and S^2 = 1 + rho'^2,
    # rho'' = -S^2 (rho' (n - p q / (1 + q)) / r - p lambda^2 rho / (r^2 (1 + q))),
    # and psi' = r rho'' - psi, against offset_field at 20 random states
    # of each of the 230 table triples, to rounding (measured: at most
    # 3.9e-15 of the terms' size)
    worst = 0.0
    for i, params in enumerate(_TABLE):
        n, p, lam2 = params.n, params.p, params.lambda_sq
        phi, psi, r = _states(params, i)
        rho, rho_r = r * phi, phi + psi
        q = lam2 * rho * rho / (r * r)
        s2 = 1.0 + rho_r * rho_r
        terms = (rho_r * (n - p * q / (1.0 + q)) / r, p * lam2 * rho / (r * r * (1.0 + q)))
        psi_t = r * -s2 * (terms[0] - terms[1]) - psi
        size = np.abs(psi) + r * s2 * (np.abs(terms[0]) + terms[1])
        error = np.abs(offset_field(params)(phi - params.phi0, psi) - psi_t) / size
        worst = max(worst, float(error.max()))
        assert np.all(error < 8e-15), params.triple()
    assert worst > 0.0


def test_dilation_identity_holds_along_offset_field_on_the_table():
    # (n+1)(G - l) + psi G_phi + psi' G_psi = 0 with psi' = offset_field,
    # the derivatives of G = W (1 + phi sigma) / S, sigma = phi + psi,
    # written by hand: G - l = -W sigma psi / S, G_psi = -W psi / S^3 and
    # G_phi = W (p lambda^2 phi (1 + phi sigma) / ((1 + lambda^2 phi^2) S)
    # + (sigma^3 + phi) / S^3); at 20 random states of each of the 230 table
    # triples, to rounding (measured: at most 3.0e-15 of the terms' size)
    worst = 0.0
    for i, params in enumerate(_TABLE):
        n, p, lam2 = params.n, params.p, params.lambda_sq
        phi, psi, _ = _states(params, i)
        sigma = phi + psi
        s = np.sqrt(1.0 + sigma * sigma)
        w = (1.0 + lam2 * phi * phi) ** (p / 2.0)
        psi_t = offset_field(params)(phi - params.phi0, psi)
        g_phi = w * (p * lam2 * phi * (1.0 + phi * sigma) / ((1.0 + lam2 * phi * phi) * s)
                     + (sigma ** 3 + phi) / s ** 3)
        terms = (-(n + 1.0) * w * sigma * psi / s, psi * g_phi, -psi_t * w * psi / s ** 3)
        error = np.abs(sum(terms)) / sum(map(np.abs, terms))
        worst = max(worst, float(error.max()))
        assert np.all(error < 6e-15), params.triple()
    assert worst > 0.0
