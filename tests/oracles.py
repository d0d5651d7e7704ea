"""Oracles and paper-formula checks that only the tests use, kept out of the
package so they stay independent of the code they check; a plain module, not
conftest.py, so that `python tests/test_acceptance.py` imports it too."""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import mpmath
import numpy as np

from lo_dynamics import hopf
from lo_dynamics.analysis import _ProfileInterp
from lo_dynamics.barrier import cycle_region_threshold
from lo_dynamics.dynsys import f1, f1_prime, f2, f2_prime, vector_field_xy
from lo_dynamics.errors import IntegrationFailure
from lo_dynamics.geometry import volume_ratio
from lo_dynamics.hopf import angle_sum, hopf_map, numeric_singular_values
from lo_dynamics.dynsys import linearize_p1
from lo_dynamics.integrate import (
    _BLOWUP_FACTOR,
    _DEEP_FLOOR,
    DEFAULT_MAX_CROSSINGS,
    DEFAULT_REL_TOL,
    Termination,
    Trajectory,
    _advance,
    _hermite,
    _linear_flow,
    _segments,
    _strict_sign_change,
)
from lo_dynamics.params import LomseParams
from lo_dynamics.radial import Profile


@dataclass
class PhaseState:
    """A point (phi, psi) of the reduced phase plane at logarithmic radius t."""

    phi: float
    psi: float
    t: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.phi) and math.isfinite(self.psi) and math.isfinite(self.t)):
            raise ValueError(f"non-finite phase state ({self.phi}, {self.psi}, {self.t})")


def reference_integrate(params: LomseParams,
                        state0: PhaseState,
                        t_end: float,
                        h: float = 1e-5) -> PhaseState:
    """Classical fixed-step RK4 oracle in plain (phi, psi) coordinates.

    Used only as an independent cross-check of the adaptive path; shares
    no code with it (textbook f1/f2, no deviation variables).
    """
    if h <= 0.0:
        raise ValueError(f"h must be > 0, got {h}")
    if t_end < state0.t:
        raise ValueError("backward integration not supported")
    n, p = params.n, params.p
    lam2 = params.lambda_sq
    n_minus_p = float(n - p)
    blowup_at = _BLOWUP_FACTOR * params.phi0

    def f(phi, psi):
        den = 1.0 + lam2 * phi * phi
        f1v = (lam2 - 1.0) * p / den - n_minus_p
        f2v = n_minus_p + p / den
        return psi, -psi - (f2v * psi - f1v * phi) * (1.0 + (phi + psi) ** 2)

    t, phi, psi = state0.t, state0.phi, state0.psi
    remaining = t_end - t
    n_steps = max(1, math.ceil(remaining / h)) if remaining > 0.0 else 0
    if n_steps:
        hh = remaining / n_steps
        for _ in range(n_steps):
            k1u, k1p = f(phi, psi)
            k2u, k2p = f(phi + 0.5 * hh * k1u, psi + 0.5 * hh * k1p)
            k3u, k3p = f(phi + 0.5 * hh * k2u, psi + 0.5 * hh * k2p)
            k4u, k4p = f(phi + hh * k3u, psi + hh * k3p)
            phi += hh * (k1u + 2.0 * k2u + 2.0 * k3u + k4u) / 6.0
            psi += hh * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0
            if abs(phi) > blowup_at or abs(psi) > blowup_at:
                raise IntegrationFailure("reference RK4 left the bounded region")
    return PhaseState(phi, psi, t_end)


def advance_from(params: LomseParams, state0: PhaseState, t_end: float) -> Trajectory:
    """The package's adaptive DP5 path from an interior state to t_end."""
    ts, us, psis, dpsis, reason, rejected, _, _ = _advance(
        params, state0.t, state0.phi - params.phi0, state0.psi, t_end, DEFAULT_REL_TOL)
    return Trajectory(params, ts, us, psis, dpsis, None, DEFAULT_REL_TOL, reason, rejected)


def fine_tail(traj: Trajectory, t_end: float, max_crossings: int = DEFAULT_MAX_CROSSINGS):
    """The spiral tail of traj on a fine grid: the linear flow from its
    splice state at t_s = t[s], s = splice_index, at t_s + h, t_s + 2h,
    ... spaced by the last sample step h, with a last sample at t_end exactly,
    and dpsi = a u + b psi.  Returns the columns (t, u, psi, dpsi), the
    index of the first sample where a stop rule holds, tested in this order
    on each sample (max-norm below integrate._DEEP_FLOOR; max_crossings sign
    changes of psi counted from the launch; t_end), and the Termination it
    names."""
    s = traj.splice_index
    t_s, h = float(traj.t[s]), float(traj.t[s] - traj.t[s - 1])
    lin = linearize_p1(traj.params)
    tau = h * np.arange(1, math.floor((t_end - t_s) / h) + 2)
    keep = t_s + tau < t_end
    t = np.append(t_s + tau[keep], t_end)
    u, psi = _linear_flow(lin, float(traj.u[s]), float(traj.psi[s]),
                          np.append(tau[keep], t_end - t_s))
    count = np.cumsum(_strict_sign_change(np.concatenate((traj.psi[:s + 1], psi))))[s:]
    floor = np.maximum(np.abs(u), np.abs(psi)) < _DEEP_FLOOR
    full = count >= max_crossings
    stop = int(np.flatnonzero(floor | full | (t >= t_end))[0])
    reason = (Termination.CONVERGED_TO_P1 if floor[stop] else
              Termination.MAX_CROSSINGS if full[stop] else Termination.MAX_TIME)
    return (t, u, psi, lin.a * u + lin.b * psi), stop, reason


def dense(knots: np.ndarray, q, *pairs) -> tuple:
    """The cubic Hermite value at q of each (values, slopes) column pair on
    knots, on the segment the package's segment rule (integrate._segments)
    picks and with its Hermite evaluator (integrate._hermite)."""
    i = _segments(knots, q)
    t0, t1 = knots[i], knots[i + 1]
    return tuple(_hermite(q, t0, t1, y[i], y[i + 1], m[i], m[i + 1]) for y, m in pairs)


def orbit_at(traj: Trajectory, t: float) -> PhaseState:
    """(phi, psi) of traj at t in its span, read through the Hermite dense
    output on the samples (dense)."""
    if not traj.t[0] <= t <= traj.t[-1]:
        raise ValueError(f"t={t} outside trajectory span [{traj.t[0]}, {traj.t[-1]}]")
    u, psi = dense(traj.t, t, (traj.u, traj.psi), (traj.psi, traj.dpsi))
    return PhaseState(float(traj.params.phi0 + u), float(psi), t)


@dataclass(frozen=True)
class OriginLinearization:
    matrix_a: np.ndarray  # [[0,1],[k(k+n-1)-n, -n-1]]
    mu1: float  # k - 1
    mu2: float  # -n - k
    v1: np.ndarray  # (1, mu1)
    v2: np.ndarray  # (1, mu2)


def linearize_origin(params: LomseParams) -> OriginLinearization:
    n, k = params.n, params.k
    mu1 = float(k - 1)
    mu2 = float(-n - k)
    a21 = float(params.big_k - n)  # lambda^2 p - n
    matrix = np.array([[0.0, 1.0], [a21, float(-n - 1)]])
    return OriginLinearization(
        matrix_a=matrix,
        mu1=mu1,
        mu2=mu2,
        v1=np.array([1.0, mu1]),
        v2=np.array([1.0, mu2]),
    )


def jacobian(phi: float, psi: float, params: LomseParams) -> np.ndarray:
    """Closed-form Jacobian of the vector field at (phi, psi)."""
    b = f2(phi, params) * psi - f1(phi, params) * phi
    c = 1.0 + (phi + psi) ** 2
    db_dphi = f2_prime(phi, params) * psi - f1_prime(phi, params) * phi - f1(phi, params)
    d21 = -db_dphi * c - b * 2.0 * (phi + psi)
    d22 = -1.0 - f2(phi, params) * c - b * 2.0 * (phi + psi)
    return np.array([[0.0, 1.0], [d21, d22]])


def fd_jacobian(phi, psi, params, h=1e-5):
    """Central-difference Jacobian of vector_field_xy at (phi, psi)."""
    j = np.empty((2, 2))
    for col, (dphi, dpsi) in enumerate([(h, 0.0), (0.0, h)]):
        fp = vector_field_xy(phi + dphi, psi + dpsi, params)
        fm = vector_field_xy(phi - dphi, psi - dpsi, params)
        j[0, col] = (fp[0] - fm[0]) / (2 * h)
        j[1, col] = (fp[1] - fm[1]) / (2 * h)
    return j


@dataclass(frozen=True)
class ProfileSample:
    r: float
    rho: float
    rho_r: float
    rho_rr: float


def profile_rows(profile: Profile) -> list[ProfileSample]:
    """The rows of a profile as samples, in order."""
    return [ProfileSample(*row) for row in zip(profile.r.tolist(), profile.rho.tolist(),
                                               profile.rho_r.tolist(), profile.rho_rr.tolist())]


def to_profile_per_sample(traj) -> list[ProfileSample]:
    """The profile transform one sample at a time, as it was written before
    profiles became columns; the reference for the columnar transform."""
    out = []
    phi0 = traj.params.phi0
    for t, u, psi, dpsi in zip(traj.t, traj.u, traj.psi, traj.dpsi):
        r = math.exp(t)
        phi = phi0 + u
        out.append(ProfileSample(r=r, rho=r * phi, rho_r=phi + psi,
                                 rho_rr=(dpsi + psi) / r))
    return out


def state_to_sample(phi: float, psi: float, t: float, params: LomseParams) -> ProfileSample:
    """Profile sample of a single phase state, with rho_rr from the field."""
    r = math.exp(t)
    _, x2 = vector_field_xy(phi, psi, params)
    return ProfileSample(r=r, rho=r * phi, rho_r=phi + psi, rho_rr=(x2 + psi) / r)


def recover_state(sample: ProfileSample) -> tuple[float, float, float]:
    """(phi, psi, t) back from a profile sample; inverse of the transform."""
    phi = sample.rho / sample.r
    return phi, sample.rho_r - phi, math.log(sample.r)


def cone_profile(params: LomseParams, radii) -> Profile:
    """Exact cone rho = phi0 * r sampled at the given radii."""
    phi0 = params.phi0
    r = np.asarray(radii, dtype=float)
    return Profile(r=r, rho=phi0 * r, rho_r=np.full(len(r), phi0), rho_rr=np.zeros(len(r)))


def ode_general_residual(sample: ProfileSample, sing_values: list[float], n: int) -> float:
    """Residual of the general constant-singular-value radial ODE.

    With the list (lambda,)*p + (0,)*(n-p) this agrees with ode1_residual
    to rounding.  n is the expected list length.
    """
    if len(sing_values) != n:
        raise ValueError(f"expected {n} singular values, got {len(sing_values)}")
    r = sample.r
    if r <= 0.0:
        raise ValueError(f"r must be > 0, got {r}")
    rho, rho_r, rho_rr = sample.rho, sample.rho_r, sample.rho_rr
    total = rho_rr / (1.0 + rho_r * rho_r)
    for lam_i in sing_values:
        li2 = lam_i * lam_i
        total += (rho_r / r - li2 * rho / (r * r)) / (1.0 + li2 * rho * rho / (r * r))
    return total


def interp_simpson_theta(interp: _ProfileInterp, params: LomseParams, R: float,
                         n_panels: int) -> float:
    """Theta(R) by composite Simpson over n_panels uniform panels in x = log r
    from the first sample to the interpolant's cut (interp.cut_x), plus the
    power-law piece below the first sample, on uniform nodes that share
    nothing with the package's Gauss-Legendre panels: its oracle.  The
    integrand g(x) e^{(n+1)x} is scaled by e^{-(n+1) x_cut}, with
    g = sqrt(1 + rho_r^2) (1 + lambda^2 phi^2)^{p/2}."""
    n, p = params.n, params.p
    lam2 = params.lambda_sq
    x_cut, phi_cut = interp.cut_x(R)
    x0 = float(interp.x[0])

    def g_of(xq: np.ndarray) -> np.ndarray:
        phi, psi = dense(interp.x, xq, (interp.phi, interp.psi), (interp.psi, interp.dpsi))
        rho_r = phi + psi
        return np.sqrt(1.0 + rho_r * rho_r) * (1.0 + lam2 * phi * phi) ** (p / 2.0)

    core = 0.0
    if x_cut > x0:
        m = n_panels + (n_panels % 2)  # Simpson needs an even panel count
        xs = np.linspace(x0, x_cut, m + 1)
        w = np.ones(m + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        h = (x_cut - x0) / m
        core = float(np.sum(w * g_of(xs) * np.exp((n + 1.0) * (xs - x_cut)))) * h / 3.0
    tail = float(g_of(np.array([x0]))[0]) * math.exp((n + 1.0) * (x0 - x_cut)) / (n + 1.0)
    # (r_cut / R)^{n+1} = (1 + phi_cut^2)^{-(n+1)/2}, and |S^n| / omega_{n+1} = n + 1
    return (n + 1.0) * (core + tail) * (1.0 + phi_cut * phi_cut) ** (-(n + 1.0) / 2.0)


def simpson_theta(profile: Profile, params: LomseParams, R: float, n_panels: int) -> float:
    """interp_simpson_theta on the package's interpolant of profile."""
    return interp_simpson_theta(_ProfileInterp(profile), params, R, n_panels)


def sphere_volume(n: int) -> float:
    """|S^n| = 2 pi^((n+1)/2) / Gamma((n+1)/2), the volume of the unit
    n-sphere in R^{n+1}."""
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


def ball_volume(d: int) -> float:
    """omega_d = pi^(d/2) / Gamma(d/2 + 1), the volume of the unit ball in R^d."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def volume_element_factor(params: LomseParams, theta: float) -> float:
    """prod_j sqrt(cos^2 theta + sin^2 theta lambda_j^2) over the singular
    value list (lambda,)*p + (0,)*(n-p); the constant density of the twisted
    metric's volume form against the round one."""
    c2 = math.cos(theta) ** 2
    s2 = math.sin(theta) ** 2
    lam2 = params.lambda_sq
    p, n = params.p, params.n
    return (c2 + s2 * lam2) ** (p / 2.0) * c2 ** ((n - p) / 2.0)


def volume_element_check(params: LomseParams, theta: float | None = None) -> float:
    """Relative discrepancy between the volume-form product integrated as a
    constant over the sphere and the closed-form volume; ~1e-16 at the
    minimal angle, away from zero at any other theta."""
    if theta is None:
        theta = params.theta
    if not 0.0 < theta < math.pi / 2.0:
        raise ValueError(f"theta must be in (0, pi/2), got {theta}")
    prod = volume_element_factor(params, theta)
    return abs(prod / volume_ratio(params) - 1.0)


def cone_graph_eval(y, params: LomseParams) -> np.ndarray:
    """The degree-1 homogeneous cone graph map tan(theta) |y| H(y/|y|);
    Lipschitz but not C^1 at the origin.  Intended for (3,2,2) parameters,
    whose witness the Hopf map is."""
    y = np.asarray(y, dtype=float)
    norm = np.linalg.norm(y)
    if norm == 0.0:
        return np.zeros(3)
    return params.phi0 * norm * hopf_map(y / norm)


def condition_b_sum(map_fn, x, theta: float) -> float:
    """angle_sum over all n singular values of map_fn at x; equals n
    exactly at the minimality angle."""
    return angle_sum(numeric_singular_values(map_fn, x), theta)


@contextmanager
def fd_step(h: float):
    """hopf.DEFAULT_FD_STEP set to h inside the block, so that the order
    checks run the package's own differential at other steps."""
    saved = hopf.DEFAULT_FD_STEP
    hopf.DEFAULT_FD_STEP = h
    try:
        yield
    finally:
        hopf.DEFAULT_FD_STEP = saved


def case1_iv_unreduced(s: float, params: LomseParams, c: float) -> float:
    """The exact IV(s) of the case-1 certificate with the 1/(1+s) factor
    kept; barrier.case1_polynomial uses its lower bound."""
    lam2 = params.lambda_sq
    S = (lam2 * params.p - params.n) / (params.n - params.p)
    return 1.0 + (S - s) * (1.0 + s / c) ** 2 / (lam2 * (1.0 + s))


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


def reverse_field_xy(phi: float, psi: float, params: LomseParams) -> tuple[float, float]:
    """(Y1, Y2): the downward half-loop field obtained from X by the
    substitution (phi, psi) -> (phi, -psi) and negating the second
    component; used by the full-grid no-limit-cycle reference below.
    """
    x1, x2 = vector_field_xy(phi, -psi, params)
    return x1, -x2


def no_limit_cycle_full_grid(params: LomseParams, grid: tuple[int, int]) -> float:
    """Maximum of Y2 + X2 over the whole n_phi x n_psi lemma grid of
    barrier.no_limit_cycle_check, with the display bound asserted at every
    point: the reference for its evaluation on the lowest psi row."""
    n_phi, n_psi = grid
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


def mpmath_orbit(traj, start=None):
    """mpmath odefun (Taylor) solution of traj's launch in offset variables
    (u, psi), at the caller's working precision, with the exact phi0 and
    lambda^2 it uses; call it inside mpmath.workdps.  start, a sample index,
    starts it from that stored state instead of the launch."""
    params = traj.params
    n, p, big_k = params.n, params.p, params.big_k
    lam2 = mpmath.mpf(big_k) / p
    phi0 = mpmath.sqrt(mpmath.mpf(p * (big_k - n)) / (big_k * (n - p)))

    def field(_, y):
        u, psi = y
        phi = phi0 + u
        den = 1 + lam2 * phi * phi
        f1_phi = -(n - p) * lam2 * u * (phi + phi0) / den * phi
        f2 = (n - p) + p / den
        return [psi, -psi - (f2 * psi - f1_phi) * (1 + (phi + psi) ** 2)]

    if start is not None:
        state = [mpmath.mpf(float(col[start])) for col in (traj.u, traj.psi)]
        return mpmath.odefun(field, mpmath.mpf(float(traj.t[start])), state), phi0, lam2
    eps = mpmath.mpf(traj.eps_start)
    mu1 = params.k - 1
    norm_v1 = mpmath.sqrt(1 + mu1 * mu1)
    sol = mpmath.odefun(field, mpmath.log(eps) / mu1,
                        [eps / norm_v1 - phi0, eps * mu1 / norm_v1])
    return sol, phi0, lam2
