"""Graph densities, and the density comparison that certifies the
spiral-type cones non-minimizing.

Every time t* with phi(t*) = phi_b (integrate.detect_phi_hits) yields one
analytic solution on the unit disk with boundary slope phi_b, obtained by
rescaling the entire graph by d = e^{t*}.  The density of the graph at
radius R is

    Theta(R) = Vol(M inside ball R) / (omega_{n+1} R^{n+1}),

nondecreasing in R by the monotonicity of density for minimal
submanifolds, and its limit is the cone density Theta_inf.  It is a
boundary term: on a minimal submanifold div_M x = n + 1, so (n + 1) times
the volume inside B_R is the flux of the position x through M's conormal
on the sphere of radius R (the first variation along the position field;
Simon, Lectures on GMT, 1983, section 17).  For the graph rho(r) f(omega),
cut at the r with r^2 + rho^2 = R^2, that flux reads the state (phi, psi)
there alone:

    Theta(R) = F(phi, psi) = W (1 + phi (phi + psi)) / S (1 + phi^2)^{-(n+1)/2},
    W = (1 + lambda^2 phi^2)^{p/2},  S = sqrt(1 + (phi + psi)^2).

In t = log r it is the Noether identity of the dilations, d/dt[e^{(n+1)t}
(l - psi l_psi)] = (n+1) e^{(n+1)t} l with l = S W, which the tests check
symbolically and along the field.  F(phi0, 0) = W(phi0) (1 +
phi0^2)^{-n/2} = Theta_inf, and off P1

    Theta_inf - F(phi, psi) = [F(phi0, 0) - F(phi, 0)] + psi^2 B(phi, psi),
    B = W (1 + phi^2)^{-(n+1)/2} / (S (sqrt(1 + phi^2) S + 1 + phi (phi + psi))),

two terms that are never negative.  The second is the Lagrange identity
(1 + phi^2) S^2 - (1 + phi (phi + psi))^2 = psi^2.  The first holds as
F(phi, 0) = W (1 + phi^2)^{-n/2} has d ln F/d phi = lambda^2 (n - p) phi
(phi0^2 - phi^2) / ((1 + lambda^2 phi^2)(1 + phi^2)), whose one maximum on
phi > 0 is phi0 (real as lambda^2 > n/p, a LomseParams invariant, with n >
p).  So the cone comparison is a theorem: Theta < Theta_inf at every state
off P1.  At a slope crossing phi = phi0 the gap is psi^2 B(phi0, psi), a
closed form in psi there, kept as a logarithm since psi^2 underflows below
amplitudes of about 1e-162.  No integral along the orbit is needed.

The states come from integrate.state_at: the Hermite cubic up to the
splice, past it the orbit Phi(w) the tail stands for.  The cut bisects
the one segment whose sample levels 2x + log1p(phi^2) bracket 2(ln R +
log_d) to adjacent floats, as events are, on the Hermite cubic of phi in x
or, past the splice, on the tail's linear flow; it finds the segment with
integrate._segments.  The volume and gap quadratures this replaced are the
tests' independent routes (tests/oracles.py).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dynsys import linearize_p1
from .errors import IntegrationFailure, NotApplicable
from .geometry import volume_ratio
from .integrate import Trajectory, _bisect, _hermite, _segments, detect_phi_hits, state_at
from .params import LomseParams, StabilityType
from .radial import Profile, rescale_profile, to_profile

DEFAULT_QUAD_PANELS = 8192  # unused: the benchmark's count of quadrature points reads it
_LN10 = math.log(10.0)
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class DensityReport:
    """Densities at the slope crossings of a spiral orbit.

    log10_gaps[i] is log10(Theta_inf - Theta_i) = log10(psi_i^2 B(phi0,
    psi_i)), psi_i read at crossing i (integrate.state_at), and
    log10_gap_errors[i] the log10 of its error bar; thetas[i] = Theta_inf -
    gap_i, which rounds to Theta_inf once the gap falls below an ulp of it.
    The bar is twice a relative error of psi_i plus the rounding: past the
    splice the conjugacy's bound on the terms of Phi(w) beyond its linear
    part, the tail whose phase places the crossing, over |psi_i|; and 8 eps
    |mu3| / |alpha| (1 + |ln gap|), the rounding of w's phase and of the
    logarithms.  It leaves out the error of the path itself, DP5 and its
    dense output: cut at each orbit's own crossing, gap 1 of (3,2,4)
    differs from mpmath by 3.6e-8 relative.  theta_1_volume is Theta_1
    by theta_of_radius on the first rescaled profile: F at the cut of
    radius sqrt(1 + phi0^2), which falls on crossing 1, so it differs from
    thetas[0] by the cut's bisection and the rounding, and lies below
    Theta_inf where thetas[0] rounds onto it.
    strictly_below_cone is True when every psi_i is nonzero, each gap then
    being positive by the cone comparison (see the module docstring).
    """

    params: LomseParams
    radii: list[float]
    thetas: list[float]
    theta_infinity: float
    log10_gaps: list[float]
    log10_gap_errors: list[float]
    theta_1_volume: float
    strictly_below_cone: bool


def _cut(profile: Profile, R: float) -> tuple[float, float]:
    """x with r^2 + rho(r)^2 = R^2, and phi there.  The levels 2x +
    log1p(phi^2) = ln(r^2 + rho^2) + 2 log_d of the samples must strictly
    rise (IntegrationFailure otherwise); the one segment whose levels
    bracket 2(ln R + log_d) is bisected to adjacent floats, as events are,
    on the Hermite cubic of phi in x or, past the splice of the profile's
    orbit, where the quarter-turn samples leave the cubic far from the
    flow, on the tail's linear flow; phi comes from the same function."""
    levels = 2.0 * profile.x + np.log1p(profile.phi * profile.phi)
    if not np.all(np.diff(levels) > 0.0):
        raise IntegrationFailure("r^2 + rho^2 is not strictly increasing along the profile")
    if not 0.0 < R < math.inf:  # NaN fails too
        raise ValueError(f"R must be positive and finite, got {R}")
    target = 2.0 * (math.log(R) + profile.log_d)
    orbit = profile.orbit
    if levels[0] - target > 1e-12 or levels[-1] - target < -1e-12:
        r, rho = profile.r, profile.rho
        lo, hi = np.sqrt(r * r + rho * rho)[[0, -1]]
        end = "" if orbit is None else f" (the run ended {orbit.terminated_by.value})"
        raise ValueError(f"R={R} outside profile span [{lo}, {hi}]{end}")
    i = int(_segments(levels, target))
    if orbit is not None and orbit.tail_coordinate is not None and i >= orbit.splice_index:
        mu, z = orbit.conjugacy.lin.mu3, orbit.tail_coordinate
        t_s, phi0 = float(orbit.t[orbit.splice_index]), orbit.params.phi0

        def phi(x: float) -> float:
            return phi0 + (z * cmath.exp(mu * (x - t_s))).real
    else:
        seg = [float(v[j]) for v in (profile.x, profile.phi, profile.psi) for j in (i, i + 1)]

        def phi(x: float) -> float:
            return _hermite(x, *seg)

    def g(x: float) -> float:
        return 2.0 * x + math.log1p(phi(x) ** 2) - target

    x0, x1 = float(profile.x[i]), float(profile.x[i + 1])
    g0, g1 = g(x0), g(x1)
    x_cut = x0 if g0 >= 0.0 else x1 if g1 <= 0.0 else _bisect(g, x0, x1, g0, g1, tol=0.0)
    return x_cut, phi(x_cut)


def _theta(params: LomseParams, u: float, psi: float, t_inf: float) -> float:
    """F(phi0 + u, psi) where it is below Theta_inf / 2; elsewhere Theta_inf
    less the two terms of its deficit, so no value rounds above Theta_inf,
    and the float just below it where a state off P1 would round onto it."""
    n, p, lam2, phi0 = params.n, params.p, params.lambda_sq, params.phi0
    phi = phi0 + u
    slope = phi + psi
    s = math.sqrt(1.0 + slope * slope)
    c = 1.0 + phi * phi
    lead = (1.0 + lam2 * phi * phi) ** (p / 2.0) * c ** (-(n + 1.0) / 2.0)
    theta = lead * (1.0 + phi * slope) / s
    if theta < 0.5 * t_inf:
        return theta
    # ln F(phi, 0) - ln F(phi0, 0), in x = phi^2 - phi0^2; <= 0, a rounding above dropped
    x = u * (phi + phi0)
    log_ratio = min(0.5 * (p * math.log1p(lam2 * x / (1.0 + lam2 * phi0 * phi0))
                           - n * math.log1p(x / (1.0 + phi0 * phi0))), 0.0)
    deficit = (-t_inf * math.expm1(log_ratio)
               + psi * psi * lead / (s * (math.sqrt(c) * s + 1.0 + phi * slope)))
    theta = t_inf - deficit
    if theta >= t_inf and (u or psi):
        return math.nextafter(t_inf, 0.0)
    return theta


def theta_of_radius(profile: Profile, params: LomseParams, R: float,
                    n_panels: int = DEFAULT_QUAD_PANELS) -> float:
    """Density Theta(R): F at the cut, from the state there, the profile's
    orbit's (integrate.state_at) or, for a profile without one, the Hermite
    cubic of its columns.  n_panels is unused, kept (and checked) for the
    benchmark, which reads it."""
    if n_panels < 1:
        raise ValueError(f"n_panels must be at least 1, got {n_panels}")
    x = _cut(profile, R)[0]
    if profile.orbit is not None:
        u, psi = (float(v[0]) for v in state_at(profile.orbit, x))
    else:
        i = int(_segments(profile.x, x))
        seg = [float(v[j]) for v in (profile.x, profile.phi, profile.psi, profile.dpsi)
               for j in (i, i + 1)]
        u = _hermite(x, *seg[:6]) - params.phi0
        psi = _hermite(x, *seg[:2], *seg[4:])
    return _theta(params, u, psi, theta_infinity(params))


def theta_infinity(params: LomseParams) -> float:
    """Cone density Vol(graph sphere) / ((n+1) omega_{n+1}); as
    (n+1) omega_{n+1} = |S^n|, this is geometry.volume_ratio."""
    return volume_ratio(params)


def density_report(traj: Trajectory, n_panels: int = DEFAULT_QUAD_PANELS) -> DensityReport:
    """The gaps Theta_inf - Theta_i at the slope crossings, and the densities
    Theta_i of the rescaled solutions F_{rho_d}(y) = rho(d|y|) f(y/|y|) / d
    inside the fixed ball of radius sqrt(1 + phi0^2).

    Crossing i cuts the graph at t_i, where u = 0, so gap i is psi_i^2
    B(phi0, psi_i) with psi_i = psi(t_i) (DensityReport has the bars).
    n_panels is unused, as in theta_of_radius.
    """
    if n_panels < 1:
        raise ValueError(f"n_panels must be at least 1, got {n_panels}")
    params = traj.params
    if params.stability is not StabilityType.SPIRAL_TYPE_II:
        raise NotApplicable(f"({params.n},{params.p},{params.k}) is not of the spiral type")
    hits = detect_phi_hits(traj, params.phi0)
    if len(hits) < 2:
        raise NotApplicable(f"need >= 2 slope crossings, found {len(hits)}")
    n, p, lam2, phi0 = params.n, params.p, params.lambda_sq, params.phi0
    t = np.array([hit.t for hit in hits])
    psi = state_at(traj, t)[1]
    s = np.sqrt(1.0 + (phi0 + psi) ** 2)
    c = 1.0 + phi0 * phi0
    mu = linearize_p1(params).mu3
    with np.errstate(divide="ignore", invalid="ignore"):
        log_gaps = (2.0 * np.log(np.abs(psi)) + 0.5 * (p * math.log1p(lam2 * phi0 * phi0)
                                                       - (n + 1.0) * math.log(c))
                    - np.log(s * (math.sqrt(c) * s + 1.0 + phi0 * (phi0 + psi))))
        rel = 8.0 * _EPS * abs(mu) / abs(mu.real) * (1.0 + np.abs(log_gaps))
        if traj.tail_coordinate is not None:
            t_s = traj.t[traj.splice_index]
            tail = t > t_s
            r = abs(traj.tail_coordinate) * np.exp(mu.real * (t[tail] - t_s))
            rel[tail] += 2.0 * traj.conjugacy.bound(r) / np.abs(psi[tail])
        log_errs = log_gaps + np.log(rel)
    t_inf = theta_infinity(params)
    R = math.sqrt(1.0 + phi0 * phi0)
    return DensityReport(
        params=params,
        radii=[hit.dilation * R for hit in hits],
        thetas=(t_inf - np.exp(log_gaps)).tolist(),
        theta_infinity=t_inf,
        log10_gaps=(log_gaps / _LN10).tolist(),
        log10_gap_errors=(log_errs / _LN10).tolist(),
        theta_1_volume=theta_of_radius(rescale_profile(to_profile(traj), hits[0].dilation),
                                       params, R),
        strictly_below_cone=bool(np.all(log_gaps > -math.inf)),
    )
