"""Oracles and paper-formula checks that only the tests use, kept out of the
package so they stay independent of the code they check; a plain module, not
conftest.py, so that `python tests/test_acceptance.py` imports it too."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np

import lo_dynamics.integrate as integrate
from lo_dynamics.analysis import _cut
from lo_dynamics.barrier import cycle_region_threshold
from lo_dynamics.dynsys import P1_SERIES_ORDER, f1, f1_prime, f2, vector_field_xy
from lo_dynamics.errors import IntegrationFailure
from lo_dynamics.geometry import volume_ratio
from lo_dynamics.hopf import angle_sum, hopf_map, random_sphere_points
from lo_dynamics.dynsys import linearize_p1
from lo_dynamics.integrate import (
    _BLOWUP_FACTOR,
    _DEEP_FLOOR,
    DEFAULT_MAX_CROSSINGS,
    DEFAULT_REL_TOL,
    Termination,
    Trajectory,
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


def dp5_run(params: LomseParams, t0: float, u0: float, psi0: float, t_end: float,
            rel_tol: float = DEFAULT_REL_TOL, max_crossings=math.inf) -> Trajectory:
    """The package's adaptive DP5 loop from the state (u0, psi0) at t0 to
    t_end, with the hand-off to P1's series turned off for the call
    (integrate._SERIES_AMPLITUDE patched to 0): DP5 to the end, cut by the
    package's end rules (integrate._run_end) at t_end at the latest."""
    start = [np.array([x]) for x in (t0, u0, psi0)] + [np.array([])]
    with mock.patch.object(integrate, "_SERIES_AMPLITUDE", 0.0):
        return integrate._advance(params, start, t_end, rel_tol, max_crossings)


def hand_off_index(traj: Trajectory) -> int:
    """The index of a run's last DP5 state, the hand-off state when the run
    has one: its launch samples and DP5 steps."""
    return traj.stats.launch_samples + traj.stats.accepted


def corner_defect(conj, r1: float, r2: float) -> float:
    """The P1 series' defect estimate that the hand-off used before it read
    the state's own coordinates, in place of P1Conjugacy.defect: the
    estimate at the corner |z1| = |z2| = max(r1, r2), D max(r1, r2)^(order
    + 1) with D = scale norms[order]^2 / norms[order - 1]."""
    return (conj.scale * conj.norms[-1] ** 2 / conj.norms[-2]
            * max(r1, r2) ** (P1_SERIES_ORDER + 1))


def dp5_from_the_launch(traj: Trajectory, t_end: float, rel_tol: float = DEFAULT_REL_TOL,
                        max_crossings=DEFAULT_MAX_CROSSINGS) -> Trajectory:
    """traj's run again from DP5's start, its launch series' last sample,
    with the series and the splice switched off (dp5_run) to t_end."""
    l = traj.stats.launch_samples
    return dp5_run(traj.params, float(traj.t[l]), float(traj.u[l]), float(traj.psi[l]), t_end,
                   rel_tol, max_crossings)


def advance_from(params: LomseParams, state0: PhaseState, t_end: float) -> Trajectory:
    """The package's adaptive DP5 path from an interior state to t_end."""
    return dp5_run(params, state0.t, state0.phi - params.phi0, state0.psi, t_end)


def fine_tail(traj: Trajectory, t_end: float, max_crossings: int = DEFAULT_MAX_CROSSINGS):
    """The spiral tail of traj on a fine grid: the linear flow from its tail
    coordinate at t_s = t[s], s = splice_index, at t_s + h, t_s + 2h,
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
    u, psi = _linear_flow(lin, traj.tail_coordinate, np.append(tau[keep], t_end - t_s))
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


def f2_prime(phi: float, params: LomseParams) -> float:
    lam2 = params.lambda_sq
    d = 1.0 + lam2 * phi * phi
    return -2.0 * params.p * lam2 * phi / (d * d)


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
    """Exact cone rho = phi0 * r sampled at the given radii: the constant
    orbit phi == phi0, psi == 0."""
    x = np.log(np.asarray(radii, dtype=float))
    zero = np.zeros(len(x))
    return Profile(x=x, phi=np.full(len(x), params.phi0), psi=zero, dpsi=zero)


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


# the narrowest profile segment below the cut, in ulps of its x, that
# simpson_theta_at_cut takes: the oracle's uses in the tests have at least
# 2.9e11, while in x = t - ln d the first rescaled profile of (5,4,10^9) at
# R = 0.07147138634964101, which it got wrong by a factor 26 there, has 373
# of its 1 088 segments below 1e-13 (225 ulps of x = -2.64), the narrowest
# one ulp
_MIN_SEGMENT_ULPS = 1e6


def simpson_theta_at_cut(cols, params: LomseParams, cut: tuple[float, float],
                         n_panels: int) -> float:
    """Theta(R) by composite Simpson over n_panels uniform panels in x
    from the first sample to the cut (x_cut, phi_cut) at R, plus the
    power-law piece below the first sample, on the cubic Hermite
    interpolant of the columns x, phi, psi, dpsi of cols (a Profile, or
    any object with them), on uniform nodes that share nothing with the
    package's Gauss-Legendre panels: its oracle.  The integrand g(x)
    e^{(n+1)x} is scaled by e^{-(n+1) x_cut}, with g = sqrt(1 + rho_r^2) (1
    + lambda^2 phi^2)^{p/2}.

    Nodes placed by their float x cannot resolve a segment only a few ulps
    of x wide, where the profile may turn sharply (psi reaches 2e7 on such
    segments of (5,4,10^9)); a profile with a segment below the cut
    narrower than _MIN_SEGMENT_ULPS ulps is refused with ValueError."""
    n, p = params.n, params.p
    lam2 = params.lambda_sq
    x_cut, phi_cut = cut
    x = cols.x
    x0 = float(x[0])
    knots = x[:int(_segments(x, x_cut)) + 2]  # those of the segments to the cut
    if np.any(np.diff(knots) < _MIN_SEGMENT_ULPS * np.spacing(np.abs(knots[:-1]))):
        raise ValueError(f"a profile segment below the cut is narrower than "
                         f"{_MIN_SEGMENT_ULPS:g} ulps of x: float nodes cannot resolve it")

    def g_of(xq: np.ndarray) -> np.ndarray:
        phi, psi = dense(x, xq, (cols.phi, cols.psi), (cols.psi, cols.dpsi))
        rho_r = phi + psi
        return np.sqrt(1.0 + rho_r * rho_r) * (1.0 + lam2 * phi * phi) ** (p / 2.0)

    core = 0.0
    if x_cut > x0:
        m = n_panels + (n_panels % 2)  # Simpson needs an even panel count
        h = (x_cut - x0) / m
        # nodes counted back from the cut, where e^{(n+1)x} puts the weight:
        # spaced by h there to rounding, as linspace's are not, whose last
        # step to the cut is off by about m ulps of h, a 1e-13 error
        xs = x_cut - h * np.arange(m, -1, -1)
        w = np.ones(m + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        core = float(np.sum(w * g_of(xs) * np.exp((n + 1.0) * (xs - x_cut)))) * h / 3.0
    tail = float(g_of(np.array([x0]))[0]) * math.exp((n + 1.0) * (x0 - x_cut)) / (n + 1.0)
    # (r_cut / R)^{n+1} = (1 + phi_cut^2)^{-(n+1)/2}, and |S^n| / omega_{n+1} = n + 1
    return (n + 1.0) * (core + tail) * (1.0 + phi_cut * phi_cut) ** (-(n + 1.0) / 2.0)


def simpson_theta(profile: Profile, params: LomseParams, R: float, n_panels: int) -> float:
    """simpson_theta_at_cut at the package's cut of profile at R."""
    return simpson_theta_at_cut(profile, params, _cut(profile, R), n_panels)


def mp_theta(traj: Trajectory, R: float, dps: int = 40):
    """Theta(R) on traj's profile by the package's rule, evaluated in mpmath
    at dps digits on the exact samples: x = t and phi = phi0 + u summed
    exactly, the cut bisected to dps digits on the Hermite cubic of phi in
    the segment whose levels 2x + log1p(phi^2) bracket 2 ln R, the 5-point
    Gauss-Legendre rule on the same panels (each segment below the cut split
    into max(1, ceil(2(n+1) h')) equal panels, h' its width below the cut)
    and the same power-law piece below the first sample.  So it differs
    from quadrature_theta by that code's rounding alone."""
    params = traj.params
    n, p = params.n, params.p
    with mpmath.workdps(dps):
        mpf = mpmath.mpf
        lam2, phi0 = mpf(params.lambda_sq), mpf(params.phi0)
        target = 2 * mpmath.log(mpf(R))

        def level(x, phi):
            return 2 * x + mpmath.log1p(phi * phi)

        def hermite(s, y0, y1, m0, m1):  # the unit variable s, slopes times the width
            return ((2 * s - 3) * s * s + 1) * y0 + ((s - 2) * s + 1) * s * m0 \
                + (3 - 2 * s) * s * s * y1 + (s - 1) * s * s * m1

        def g(phi, psi):
            return mpmath.sqrt(1 + (phi + psi) ** 2) * (1 + lam2 * phi * phi) ** (mpf(p) / 2)

        rows = []
        for t, u, psi, dpsi in zip(traj.t.tolist(), traj.u.tolist(), traj.psi.tolist(),
                                   traj.dpsi.tolist()):
            rows.append((mpf(t), phi0 + mpf(u), mpf(psi), mpf(dpsi)))
            if len(rows) > 1 and level(rows[-1][0], rows[-1][1]) > target:
                break
        assert level(rows[0][0], rows[0][1]) <= target < level(rows[-1][0], rows[-1][1])
        (xa, pa, qa, da), (xb, pb, qb, db) = rows[-2:]
        h = xb - xa

        def phi_at(s):
            return hermite(s, pa, pb, h * qa, h * qb)

        lo, hi = mpf(0), mpf(1)
        for _ in range(4 * dps):
            mid = (lo + hi) / 2
            if level(xa + mid * h, phi_at(mid)) <= target:
                lo = mid
            else:
                hi = mid
        x_cut, phi_cut = xa + lo * h, phi_at(lo)
        r5a = mpmath.sqrt(5 - 2 * mpmath.sqrt(mpf(10) / 7)) / 3
        r5b = mpmath.sqrt(5 + 2 * mpmath.sqrt(mpf(10) / 7)) / 3
        w5a, w5b = (322 + 13 * mpmath.sqrt(70)) / 900, (322 - 13 * mpmath.sqrt(70)) / 900
        rule = [((1 + r) / 2, w / 2) for r, w in ((-r5b, w5b), (-r5a, w5a), (0, mpf(128) / 225),
                                                   (r5a, w5a), (r5b, w5b))]
        core = mpf(0)
        for j in range(len(rows) - 1):
            (x0, p0, q0, d0), (x1, p1, q1, d1) = rows[j], rows[j + 1]
            hj = x1 - x0
            frac = lo if j == len(rows) - 2 else mpf(1)
            m = max(int(mpmath.ceil(2 * (n + 1) * frac * hj)), 1)
            width = frac / m
            for k in range(m):
                for node, weight in rule:
                    s = width * (k + node)
                    f = g(hermite(s, p0, p1, hj * q0, hj * q1), hermite(s, q0, q1, hj * d0, hj * d1))
                    core += weight * f * mpmath.exp((n + 1) * (x0 + hj * s - x_cut)) * width * hj
        x0, p0, q0, _ = rows[0]
        tail = g(p0, q0) * mpmath.exp((n + 1) * (x0 - x_cut)) / (n + 1)
        return (n + 1) * (core + tail) * (1 + phi_cut * phi_cut) ** (-mpf(n + 1) / 2)


# ----------------------------------------------------------------------
# the volume and gap quadratures that analysis' closed forms replaced, kept
# as their independent routes: Gauss-Legendre on the orbit's Hermite
# segments, the gaps integrated from the monotonicity identity

# the 5- and 3-point Gauss-Legendre rules on [0, 1] in closed form: seven
# nodes, as the two share the midpoint, and one row of weights per rule
_R5A = math.sqrt(5.0 - 2.0 * math.sqrt(10.0 / 7.0)) / 3.0
_R5B = math.sqrt(5.0 + 2.0 * math.sqrt(10.0 / 7.0)) / 3.0
_R3 = math.sqrt(0.6)
_W5A = (322.0 + 13.0 * math.sqrt(70.0)) / 900.0
_W5B = (322.0 - 13.0 * math.sqrt(70.0)) / 900.0
GL_NODES = 0.5 + 0.5 * np.array([-_R5B, -_R5A, 0.0, _R5A, _R5B, -_R3, _R3])
GL_WEIGHTS = 0.5 * np.array([[_W5B, _W5A, 128.0 / 225.0, _W5A, _W5B, 0.0, 0.0],
                              [0.0, 0.0, 8.0 / 9.0, 0.0, 0.0, 5.0 / 9.0, 5.0 / 9.0]])
_CHUNK = 4096  # segments per evaluation, bounding the temporaries
_EPS = float(np.finfo(float).eps)


def volume_core(profile: Profile, params: LomseParams, x_cut: float) -> float:
    """integral of g(x) e^{(n+1)(x - x_cut)} dx over [x0, x_cut] plus the
    power-law tail below the first sample, g = sqrt(1 + rho_r^2) (1 +
    lambda^2 phi^2)^{p/2}: the 5-point Gauss-Legendre rule on the profile's
    Hermite segments, each split evenly into panels no wider than 0.5/(n+1)
    (a quarter-turn segment past a spiral's splice spans several e-folds of
    the exponential), in the segment's unit variable."""
    n, p = params.n, params.p
    lam2 = params.lambda_sq
    x = profile.x

    def g(phi, psi):
        rho_r = phi + psi
        return np.sqrt(1.0 + rho_r * rho_r) * (1.0 + lam2 * phi * phi) ** (p / 2.0)

    end = int(_segments(x, x_cut)) + 1
    core = 0.0
    for lo in range(0, end, _CHUNK):
        seg = np.arange(lo, min(lo + _CHUNK, end))
        h = x[seg + 1] - x[seg]
        frac = np.minimum((x_cut - x[seg]) / h, 1.0)  # the share of each below the cut
        m = np.maximum(np.ceil(2.0 * (n + 1.0) * frac * h), 1.0).astype(np.intp)
        i = np.repeat(seg, m)
        k = np.arange(len(i)) - np.repeat(np.cumsum(m) - m, m)  # panel number in its segment
        width = np.repeat(frac / m, m)
        s = width * (k + GL_NODES[:5, None])
        hi = np.repeat(h, m)
        phi = _hermite(s, 0.0, 1.0, profile.phi[i], profile.phi[i + 1],
                       hi * profile.psi[i], hi * profile.psi[i + 1])
        psi = _hermite(s, 0.0, 1.0, profile.psi[i], profile.psi[i + 1],
                       hi * profile.dpsi[i], hi * profile.dpsi[i + 1])
        f = g(phi, psi) * np.exp((n + 1.0) * (x[i] + hi * s - x_cut))
        core += float((GL_WEIGHTS[0, :5] @ f) @ (width * hi))
    # below the first sample the integrand is ~ f(r0) (r/r0)^n
    tail = (float(g(profile.phi[0], profile.psi[0])) * math.exp((n + 1.0) * (x[0] - x_cut))
            / (n + 1.0))
    return core + tail


def quadrature_theta(profile: Profile, params: LomseParams, R: float) -> float:
    """Theta(R) from the volume inside the cut (volume_core): the
    independent route to analysis.theta_of_radius, F at the cut."""
    n = params.n
    x_cut, phi_cut = _cut(profile, R)
    # (r_cut / R)^{n+1} = (1 + phi(x_cut)^2)^{-(n+1)/2}, and |S^n| / omega_{n+1} = n + 1
    return (n + 1.0) * volume_core(profile, params, x_cut) * (1.0 + phi_cut * phi_cut) ** (
        -(n + 1.0) / 2.0)


def segment_logs(traj: Trajectory, i: np.ndarray, start) -> tuple[np.ndarray, np.ndarray]:
    """ln of the gap integrand's integral over segment i of the trajectory
    from the fraction start of its length (0.0, or one per segment) to its
    end, by the 5-point Gauss-Legendre rule on the Hermite dense output, and
    ln of its distance to the 3-point rule's value.

    The cubics are evaluated in the segment's unit variable s, with slopes
    times the step, one row per node.  psi is divided by the largest of its
    four Hermite coefficients, so psi^2 does not underflow; that scale
    comes back as 2 ln(scale).
    """
    params = traj.params
    n, p = params.n, params.p
    lam2 = params.lambda_sq
    h = traj.t[i + 1] - traj.t[i]
    p0, p1 = traj.psi[i], traj.psi[i + 1]
    m0, m1 = h * traj.dpsi[i], h * traj.dpsi[i + 1]
    scale = np.maximum(np.maximum(np.abs(p0), np.abs(p1)), np.maximum(np.abs(m0), np.abs(m1)))
    scale[scale == 0.0] = 1.0
    s = start + (1.0 - start) * GL_NODES[:, None]
    phi = params.phi0 + _hermite(s, 0.0, 1.0, traj.u[i], traj.u[i + 1], h * p0, h * p1)
    psi_s = _hermite(s, 0.0, 1.0, p0 / scale, p1 / scale, m0 / scale, m1 / scale)
    rho_r = phi + psi_s * scale
    f = (psi_s * psi_s * (1.0 + lam2 * phi * phi) ** (p / 2.0)
         / (np.sqrt(1.0 + rho_r * rho_r) * (1.0 + phi * phi) ** ((n + 3.0) / 2.0)))
    s5, s3 = GL_WEIGHTS @ f
    log_len = np.log((1.0 - start) * h) + 2.0 * np.log(scale)
    return log_len + np.log(s5), log_len + np.log(np.abs(s5 - s3))


def tail_logs(params: LomseParams, u, psi, conj):
    """ln of the gap integrand's integral along the orbit from each state
    (u, psi) on, from the linear flow at P1, and ln of a bound on its error.

    With J = [[0, 1], [a, b]] Hurwitz (from conj, P1's conjugacy, or the
    parameters), P = diag(a/(2b), -1/(2b)) solves J^T P + P J = -diag(0,
    1), so the linear flow exp(J tau) x has integral of psi^2 = Q(x) = x^T
    P x = (|a| u^2 + psi^2) / (2|b|); the other factors of the integrand are
    taken at P1.  The bound is the tail itself at a node or without conj.

    At a spiral each x is the linear part L(z) = (Re z, Re mu z) of a
    coordinate z, and the orbit from there is Phi(z e^{mu tau}).  With r =
    |z|, V = max(1, |mu|) and N = conj.bound, |Phi - L| <= N(r e^{alpha
    tau}) and |psi_L| <= V r e^{alpha tau} along it, so the integral of
    |psi_Phi^2 - psi_L^2| <= (2 |psi_L| + N) N is at most R = (2 V r N(r) /
    3 + N(r)^2 / 4) / |alpha|, N's terms being of degree 2 and up (the
    remainder).  The other factors' logarithm, of gradient g = (g_u, g_psi)
    at P1, moves by g . L(z e^{mu tau}) = Re((g_u + g_psi mu) z e^{mu tau})
    plus g . (Phi - L), at most |g_u + g_psi mu| r + |g|_1 N(r), to first
    order (the variation).  The relative bound is twice R / Q(x) plus the
    variation, for the higher orders, plus the rounding, 8 eps |mu| /
    |alpha| (1 + |ln gap|): tau <= ln(1/r) / |alpha| enters mu tau, and ln
    gap the logarithms.
    """
    n, p, phi0, lam2 = params.n, params.p, params.phi0, params.lambda_sq
    lin = linearize_p1(params) if conj is None else conj.lin
    amp = np.maximum(np.abs(u), np.abs(psi))
    scale = np.where(amp > 0.0, amp, 1.0)
    u1, psi1 = u / scale, psi / scale  # the direction of x, in the max-norm
    abs_a, abs_b = abs(lin.a), abs(lin.b)
    q1 = (abs_a * u1 * u1 + psi1 * psi1) / (2.0 * abs_b)  # Q(x) / amp^2
    log_g = (p / 2.0) * math.log1p(lam2 * phi0 * phi0) - (n + 4.0) / 2.0 * math.log1p(phi0 * phi0)
    with np.errstate(divide="ignore"):
        log_tail = np.where(amp > 0.0, 2.0 * np.log(scale) + np.log(q1) + log_g, -math.inf)
    if conj is None or not lin.spiral:
        return log_tail, log_tail
    alpha, v = abs(lin.mu3.real), lin.envelope(1.0)
    r1 = np.abs(lin.coordinates(u1, psi1)[0])  # r / amp
    r = r1 * scale
    big_n = conj.bound(r)
    n1 = big_n / scale  # N(r) / amp
    # the other factors' logarithm has the gradient (g_u, -c) at P1
    c = phi0 / (1.0 + phi0 * phi0)
    g_u = p * lam2 * phi0 / (1.0 + lam2 * phi0 * phi0) - (n + 4.0) * c
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = (2.0 * ((2.0 * v * r1 * n1 / 3.0 + n1 * n1 / 4.0) / (alpha * q1)
                      + abs(g_u - c * lin.mu3) * r + (abs(g_u) + c) * big_n)
               + 8.0 * _EPS * abs(lin.mu3) / alpha * (1.0 + np.abs(log_tail)))
        return log_tail, np.where(amp > 0.0, log_tail + np.log(rel), -math.inf)


def gap_logs(traj: Trajectory, t_cuts) -> tuple[np.ndarray, np.ndarray]:
    """ln(Theta_inf - Theta) for the part of the graph beyond each cut time,
    and ln of its error bar, from one pass over the trajectory.

    The monotonicity identity gives Theta_inf - Theta(R) = |S^n|/omega_{n+1}
    = n + 1 times the integral from t_cut to infinity of

        psi^2 (1 + lambda^2 phi^2)^{p/2} / (sqrt(1 + (phi + psi)^2) (1 + phi^2)^{(n+3)/2})

    where r^2 (1 + phi^2) = R^2 at t_cut.  The sample segments before the
    splice index s = splice_index, DP5 steps and series samples, are
    integrated by quadrature, each kept as a logarithm and summed from the
    end, and a cut before the splice adds the part from the cut to the end
    of its segment.  tail_logs gives the rest: on a spiral run with a
    conjugacy from the linear part of the coordinate w at the splice
    (traj.tail_coordinate, or the last sample's by Newton when the run ended
    before its splice) and of w continued to each cut past it, otherwise
    from the last sample.  So the bar covers the quadrature before the
    splice (the 3-point/5-point differences) and tail_logs' bound past it,
    not the DP5 path's own error.  The independent route to
    analysis.density_report's closed-form gaps.
    """
    params, conj = traj.params, traj.conjugacy
    t_cuts = np.asarray(t_cuts, dtype=float)
    if not np.all((traj.t[0] <= t_cuts) & (t_cuts <= traj.t[-1])):
        raise ValueError(f"cut times must lie in the trajectory span [{traj.t[0]}, {traj.t[-1]}]")
    s = traj.splice_index
    seg, err = np.empty(s + 1), np.empty(s + 1)
    j = _segments(traj.t, t_cuts)
    flow = j >= s
    log_gap, log_err = np.empty(len(t_cuts)), np.empty(len(t_cuts))
    with np.errstate(divide="ignore"):
        for lo in range(0, s, _CHUNK):
            i = np.arange(lo, min(lo + _CHUNK, s))
            seg[i], err[i] = segment_logs(traj, i, 0.0)
        jd = j[~flow]
        start = (t_cuts[~flow] - traj.t[jd]) / (traj.t[jd + 1] - traj.t[jd])
        part, part_err = segment_logs(traj, jd, start)
    # the tail from the splice state, then from each cut past it
    x = traj.u[s:s + 1], traj.psi[s:s + 1]
    if conj is not None and conj.lin.spiral:
        w = traj.tail_coordinate
        if w is None:  # a run that ended before its splice
            w = conj.invert(float(traj.u[s]), float(traj.psi[s]))[0]
        x = _linear_flow(conj.lin, w, np.append(0.0, t_cuts[flow] - traj.t[s]))
    logs, errs = tail_logs(params, *x, conj)
    seg[s], err[s] = logs[0], errs[0]
    log_gap[flow], log_err[flow] = logs[1:], errs[1:]
    # suffix[j] sums the segments from j on and the tail from the splice
    suffix = np.logaddexp.accumulate(seg[::-1])[::-1]
    suffix_err = np.logaddexp.accumulate(err[::-1])[::-1]
    log_gap[~flow] = np.logaddexp(part, suffix[jd + 1])
    log_err[~flow] = np.logaddexp(part_err, suffix_err[jd + 1])
    log_c = math.log(params.n + 1.0)
    return log_gap + log_c, log_err + log_c


def verdict(log_gaps: np.ndarray, log_errs: np.ndarray) -> bool | None:
    """True when every gap exceeds its error bar, False when a gap is not
    positive, None (unresolved) otherwise."""
    if not np.all(log_gaps > -math.inf):
        return False
    if np.all(log_errs < log_gaps):
        return True
    return None


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


# a bound on hopf's rounding: 16 ulps of the singular value 2, 7.1e-15
HOPF_ROUNDING = 16 * math.ulp(2.0)


def sphere_points(dim: int, count: int, seed: int = 0) -> np.ndarray:
    """The points hopf.random_sphere_points draws, as one count x dim array."""
    return np.concatenate(list(random_sphere_points(dim, count, seed)))


def sphere_tangent_basis(x) -> np.ndarray:
    """Columns: a deterministic orthonormal basis of the tangent space at x."""
    x = np.asarray(x, dtype=float)
    d = len(x)
    # complete x with standard basis vectors, dropping the most parallel one
    drop = int(np.argmax(np.abs(x)))
    cols = [x] + [np.eye(d)[j] for j in range(d) if j != drop]
    q, _ = np.linalg.qr(np.column_stack(cols))
    return q[:, 1:]


def fd_differential(map_fn, x, h: float) -> np.ndarray:
    """Finite-difference pushforward matrix of any sphere map between
    tangent spaces.  Column j is the image of the j-th tangent basis vector:
    the central difference of map_fn, with step h, along the renormalized
    great-circle chord, projected onto the tangent space of the image
    sphere.  Its error is O(h^2) plus rounding of order eps/h."""
    x = np.asarray(x, dtype=float)
    fx = np.asarray(map_fn(x), dtype=float)
    basis = sphere_tangent_basis(x)
    cols = []
    for j in range(basis.shape[1]):
        v = basis[:, j]
        xp = x + h * v
        xm = x - h * v
        fp = np.asarray(map_fn(xp / np.linalg.norm(xp)), dtype=float)
        fm = np.asarray(map_fn(xm / np.linalg.norm(xm)), dtype=float)
        dv = (fp - fm) / (2.0 * h)
        dv = dv - fx * np.dot(fx, dv)
        cols.append(dv)
    return np.column_stack(cols)


def fd_singular_values(map_fn, x, h: float) -> np.ndarray:
    """Singular values of fd_differential, sorted descending."""
    return np.linalg.svd(fd_differential(map_fn, x, h), compute_uv=False)


def condition_b_sum(map_fn, x, theta: float, h: float) -> float:
    """angle_sum over the n finite-difference singular values of map_fn at
    x; equals n at the minimality angle, up to the differencing error."""
    return float(angle_sum(fd_singular_values(map_fn, x, h), theta))


def hopf_hessian() -> np.ndarray:
    """The constant Hessians A_a of hopf_map's three components, 3 x 4 x 4,
    so that H_a(x) = x^T A_a x / 2: polarization of H at unit vectors,
    A_ij = 2 H((e_i + e_j)/sqrt 2) - H(e_i) - H(e_j) and A_ii = 2 H(e_i)."""
    e = np.eye(4)
    a = np.empty((3, 4, 4))
    for i in range(4):
        for j in range(4):
            unit = (e[i] + e[j]) / np.linalg.norm(e[i] + e[j])
            a[:, i, j] = 2.0 * hopf_map(unit) - (i != j) * (hopf_map(e[i]) + hopf_map(e[j]))
    return a


def hopf_graph_residual(profile: Profile, directions) -> np.ndarray:
    """The minimal surface system g^ij d_ij F = 0, g = I + DF^T DF, for the
    graph of F(y) = rho(|y|) H(y)/|y|^2 over R^4, at y = r * directions for
    each row of the profile: |sum of the terms| / sum of |terms|, with
    vector norms over F's three components.  That is zero, to rounding,
    exactly when rho solves the radial ODE of (n, p) = (3, 2) at lambda = 2.

    Every derivative is exact.  With w = y/r, u = H(w) and the Hessians A,
    r du/dy_j = (A w)_j - 2 u w_j =: D_j and
    r^2 d_ij u = A_ij - 2 ((A w)_i w_j + (A w)_j w_i) - 2 u delta_ij + 8 u w_i w_j,
    so that d_ij F is the sum of the four terms
    rho'' w_i w_j u,  rho'/r (delta_ij - w_i w_j) u,  rho'/r (w_i D_j + w_j D_i)
    and rho/r^2 r^2 d_ij u, each of the size of rho'' or rho/r^2: none of
    them grows as r -> 0, where rho ~ r^2."""
    a = hopf_hessian()
    w = np.asarray(directions, dtype=float)
    r, rho, rho_r, rho_rr = profile.r, profile.rho, profile.rho_r, profile.rho_rr
    u = hopf_map(w)[:, :, None, None]                       # (m, 3, 1, 1)
    aw = np.einsum("aij,mj->mai", a, w)                     # (m, 3, 4)
    d = aw - 2.0 * u[..., 0] * w[:, None, :]                # D = r du/dy
    ww = (w[:, :, None] * w[:, None, :])[:, None]           # (m, 1, 4, 4)
    eye = np.eye(4)

    def sym(v):  # w_i v_j + w_j v_i, (m, 3, 4, 4)
        return w[:, None, :, None] * v[:, :, None, :] + w[:, None, None, :] * v[:, :, :, None]

    def coef(c):
        return c[:, None, None, None]

    terms = np.stack([
        coef(rho_rr) * ww * u,
        coef(rho_r / r) * (eye - ww) * u,
        coef(rho_r / r) * sym(d),
        coef(rho / (r * r)) * (a - 2.0 * sym(aw) - 2.0 * u * eye + 8.0 * u * ww),
    ])                                                      # (4, m, 3, 4, 4)
    jac = rho_r[:, None, None] * u[..., 0] * w[:, None, :] + (rho / r)[:, None, None] * d
    g_inv = np.linalg.inv(eye + np.einsum("mai,maj->mij", jac, jac))
    terms = terms * g_inv[:, None]
    total = np.linalg.norm(terms.sum(axis=(0, 3, 4)), axis=1)
    return total / np.linalg.norm(terms, axis=2).sum(axis=(0, 2, 3))


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


def launch_series_exact(params: LomseParams, order: int, b=None) -> list:
    """The saddle's unstable manifold phi(sigma) = sum c_j sigma^j, sigma =
    s/|V1|, s = e^{(k-1)t}, in exact rationals (Fraction) to order `order`,
    every order, the even ones included: c_0 = 0, c_1 = 1 and, as sigma' =
    mu1 sigma, psi = phi' has coefficients j mu1 c_j.  psi' = X2(phi, psi)
    at order j reads c_j (j^2 mu1^2 + b j mu1 - (K - n)) = [X2 of the
    series truncated below order j]_j, X2 in its textbook form -psi - (f2
    psi - f1 phi)(1 + (phi + psi)^2) with f1 and f2 through G = 1/(1 +
    lambda^2 phi^2); b is n + 1 unless given, which the linear part at the
    saddle fixes.  The package's x_j is c_j / |V1|^j."""
    n, p, big_k, mu1 = params.n, params.p, params.big_k, params.k - 1
    lam2 = Fraction(big_k, p)
    b = n + 1 if b is None else b
    size = order + 1

    def mul(a, c):
        return [sum((a[i] * c[m - i] for i in range(m + 1)), Fraction(0)) for m in range(size)]

    def add(*terms):
        return [sum(column, Fraction(0)) for column in zip(*terms)]

    def scaled(a, f):
        return [f * x for x in a]

    def constant(x):
        return [Fraction(x)] + [Fraction(0)] * order

    phi = [Fraction(0)] * size
    phi[1] = Fraction(1)
    for j in range(2, size):
        psi = [m * mu1 * x for m, x in enumerate(phi)]
        den = add(constant(1), scaled(mul(phi, phi), lam2))
        g = [Fraction(1)] + [Fraction(0)] * order  # 1/den, den[0] = 1
        for m in range(1, size):
            g[m] = -sum((den[i] * g[m - i] for i in range(1, m + 1)), Fraction(0))
        f1 = add(scaled(g, (lam2 - 1) * p), constant(-(n - p)))
        f2 = add(constant(n - p), scaled(g, p))
        slope = add(phi, psi)
        bracket = add(mul(f2, psi), scaled(mul(f1, phi), -1))
        x2 = add(scaled(psi, -1), scaled(mul(bracket, add(constant(1), mul(slope, slope))), -1))
        phi[j] = x2[j] / (j * j * mu1 * mu1 + b * j * mu1 - (big_k - n))
    return phi


def mpmath_p1_eigenvalues(params: LomseParams):
    """mu3 and mu4 of J = [[0, 1], [a, b]] at P1 from the exact a = 2n(n -
    K)/K and b = -n - 1, at the caller's working precision: (b +- sqrt(b^2
    + 4a)) / 2, mu3 of larger real part or of positive imaginary part; call
    it inside mpmath.workdps."""
    n, big_k = params.n, params.big_k
    a = mpmath.mpf(2 * n * (n - big_k)) / big_k
    b = mpmath.mpf(-n - 1)
    root = mpmath.sqrt(b * b + 4 * a)
    return (b + root) / 2, (b - root) / 2


def mpmath_orbit(traj, start=None):
    """mpmath odefun (Taylor) solution of traj's launch in offset variables
    (u, psi), at the caller's working precision, with the exact phi0 and
    lambda^2 it uses; call it inside mpmath.workdps.  It starts on the
    saddle's eigenvector at the launch's first point s = e^{(k-1)t} =
    integrate._LAUNCH_START, or, with start, a sample index, from that
    stored state."""
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
    s = mpmath.mpf(integrate._LAUNCH_START)
    mu1 = params.k - 1
    norm_v1 = mpmath.sqrt(1 + mu1 * mu1)
    sol = mpmath.odefun(field, mpmath.log(s) / mu1,
                        [s / norm_v1 - phi0, s * mu1 / norm_v1])
    return sol, phi0, lam2
