"""Graph densities, and the density comparison that certifies the
spiral-type cones non-minimizing.

Every time t* with phi(t*) = phi_b (integrate.detect_phi_hits) yields one
analytic solution on the unit disk with boundary slope phi_b, obtained by
rescaling the entire graph by d = e^{t*}.  The density of the graph at
radius R is

    Theta(R) = Vol(M inside ball R) / (omega_ball^{n+1} R^{n+1}),

nondecreasing in R by the monotonicity of density for minimal
submanifolds, and its limit is the cone density Theta_inf.
thetas_of_radii (theta_of_radius for one R) integrates in x = log r by
Gauss-Legendre on the Hermite segments of the profile's own columns, with
the integrand factored as g(x) e^{(n+1)x}; the exponential is scaled out
analytically so that profiles spanning hundreds of e-folds stay in
floating range.  A rescaling enters only the cut's level 2(ln R + log_d).
The cut and gap_logs find their segments with integrate._segments.

The certificate Theta_i < Theta_inf at the slope crossings does not form
Theta_i: after the first crossings the gap lies far below one ulp of
Theta_inf.  It integrates the gap itself, from the monotonicity identity
(Simon, Lectures on GMT, section 17; Allard 1972)

    Theta_inf - Theta(R) = (1/omega_{n+1}) integral over M outside B_R
                           of |X^perp|^2 / |X|^{n+3},

whose integrand is positive off the cone, so every gap is positive and
the gaps decrease by construction.  gap_logs integrates it once over the
trajectory's Hermite segments up to the splice (DP5 steps and P1 series
samples) and keeps logarithms, since psi^2 underflows below amplitudes
of about 1e-162; past the splice each gap comes in closed form from the
tail's state at the cut, the linear part of the coordinate w the
trajectory continues from the hand-off, and its bar from P1's
conjugacy.  One Theta_1 from the volume of the first rescaled profile is
reported beside the gaps as the independent route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynsys import linearize_p1
from .errors import IntegrationFailure, NotApplicable
from .geometry import volume_ratio
from .integrate import (
    Trajectory,
    _bisect,
    _hermite,
    _linear_flow,
    _segments,
    detect_phi_hits,
)
from .params import LomseParams, StabilityType
from .radial import Profile, rescale_profile, to_profile

DEFAULT_QUAD_PANELS = 8192  # unused: the benchmark's count of quadrature points reads it
# the 5- and 3-point Gauss-Legendre rules on [0, 1] in closed form: seven
# nodes, as the two share the midpoint, and one row of weights per rule
# (numpy.polynomial would cost every import of the package about 1 MB)
_R5A = math.sqrt(5.0 - 2.0 * math.sqrt(10.0 / 7.0)) / 3.0
_R5B = math.sqrt(5.0 + 2.0 * math.sqrt(10.0 / 7.0)) / 3.0
_R3 = math.sqrt(0.6)
_W5A = (322.0 + 13.0 * math.sqrt(70.0)) / 900.0
_W5B = (322.0 - 13.0 * math.sqrt(70.0)) / 900.0
_GL_NODES = 0.5 + 0.5 * np.array([-_R5B, -_R5A, 0.0, _R5A, _R5B, -_R3, _R3])
_GL_WEIGHTS = 0.5 * np.array([[_W5B, _W5A, 128.0 / 225.0, _W5A, _W5B, 0.0, 0.0],
                              [0.0, 0.0, 8.0 / 9.0, 0.0, 0.0, 5.0 / 9.0, 5.0 / 9.0]])
_CHUNK = 4096  # segments per evaluation, bounding the temporaries
_LN10 = math.log(10.0)
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class DensityReport:
    """Densities at the slope crossings of a spiral orbit.

    log10_gaps[i] is log10(Theta_inf - Theta_i) and log10_gap_errors[i] the
    log10 of its error bar; thetas[i] = Theta_inf - gap_i, which rounds to
    Theta_inf once the gap falls below an ulp of it.  The bar covers the
    quadrature on the sample segments before the splice and, past it, the
    series' nonlinear terms the tail drops, the other factors' variation
    and the rounding (gap_logs, _tail_logs).  It leaves out the DP5 path's
    own error: cut at each orbit's own crossing, gap 1 of (3,2,4) differs
    from a fine RK4 re-integration, and from mpmath, by 3.6e-8 relative;
    and the cubic Hermite error on the series stretch, about 1e-9.  The
    series' truncation is at most rel_tol/10 of the state by construction
    (its invariance defect, integrate._closed_form).  theta_1_volume is
    Theta_1 by theta_of_radius, the independent route.
    strictly_below_cone is True when every gap exceeds its error bar,
    False when a gap is not positive, and None (unresolved) otherwise.
    """

    params: LomseParams
    radii: list[float]
    thetas: list[float]
    theta_infinity: float
    log10_gaps: list[float]
    log10_gap_errors: list[float]
    theta_1_volume: float
    strictly_below_cone: bool | None


def _cut(profile: Profile, R: float) -> tuple[float, float]:
    """x with r^2 + rho(r)^2 = R^2, and phi there.  The levels 2x +
    log1p(phi^2) = ln(r^2 + rho^2) + 2 log_d of the samples must strictly
    rise (IntegrationFailure otherwise); the one segment whose levels
    bracket 2(ln R + log_d) is bisected on the Hermite cubic of phi in x to
    adjacent floats, as events are, phi coming from that cubic."""
    levels = 2.0 * profile.x + np.log1p(profile.phi * profile.phi)
    if not np.all(np.diff(levels) > 0.0):
        raise IntegrationFailure("r^2 + rho^2 is not strictly increasing along the profile")
    if not 0.0 < R < math.inf:  # NaN fails too
        raise ValueError(f"R must be positive and finite, got {R}")
    target = 2.0 * (math.log(R) + profile.log_d)
    if levels[0] - target > 1e-12 or levels[-1] - target < -1e-12:
        r, rho = profile.r, profile.rho
        lo, hi = np.sqrt(r * r + rho * rho)[[0, -1]]
        raise ValueError(f"R={R} outside profile span [{lo}, {hi}]")
    i = int(_segments(levels, target))
    seg = [float(v[j]) for v in (profile.x, profile.phi, profile.psi) for j in (i, i + 1)]

    def g(x: float) -> float:
        return 2.0 * x + math.log1p(_hermite(x, *seg) ** 2) - target

    x0, x1 = seg[:2]
    g0, g1 = g(x0), g(x1)
    x_cut = x0 if g0 >= 0.0 else x1 if g1 <= 0.0 else _bisect(g, x0, x1, g0, g1, tol=0.0)
    return x_cut, _hermite(x_cut, *seg)


def _volume_core(profile: Profile, params: LomseParams, x_cut: float) -> float:
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
        s = width * (k + _GL_NODES[:5, None])
        hi = np.repeat(h, m)
        phi = _hermite(s, 0.0, 1.0, profile.phi[i], profile.phi[i + 1],
                       hi * profile.psi[i], hi * profile.psi[i + 1])
        psi = _hermite(s, 0.0, 1.0, profile.psi[i], profile.psi[i + 1],
                       hi * profile.dpsi[i], hi * profile.dpsi[i + 1])
        f = g(phi, psi) * np.exp((n + 1.0) * (x[i] + hi * s - x_cut))
        core += float((_GL_WEIGHTS[0, :5] @ f) @ (width * hi))
    # below the first sample the integrand is ~ f(r0) (r/r0)^n
    tail = (float(g(profile.phi[0], profile.psi[0])) * math.exp((n + 1.0) * (x[0] - x_cut))
            / (n + 1.0))
    return core + tail


def theta_of_radius(profile: Profile, params: LomseParams, R: float,
                    n_panels: int = DEFAULT_QUAD_PANELS) -> float:
    """Density Theta(R); evaluated in scaled form, stable for any span.
    n_panels is unused, kept (and checked) for the benchmark, which reads it."""
    if n_panels < 1:
        raise ValueError(f"n_panels must be at least 1, got {n_panels}")
    return thetas_of_radii(profile, params, [R])[0]


def thetas_of_radii(profile: Profile, params: LomseParams, radii) -> list[float]:
    """Theta(R) at each of the radii."""
    n = params.n
    thetas = []
    for R in radii:
        x_cut, phi_cut = _cut(profile, R)
        core = _volume_core(profile, params, x_cut)
        # (r_cut / R)^{n+1} = (1 + phi(x_cut)^2)^{-(n+1)/2}
        ratio = (1.0 + phi_cut * phi_cut) ** (-(n + 1.0) / 2.0)
        # |S^n| / omega_{n+1} = n + 1
        thetas.append((n + 1.0) * core * ratio)
    return thetas


def theta_infinity(params: LomseParams) -> float:
    """Cone density Vol(graph sphere) / ((n+1) omega_{n+1}); as
    (n+1) omega_{n+1} = |S^n|, this is geometry.volume_ratio."""
    return volume_ratio(params)


def _segment_logs(traj: Trajectory, i: np.ndarray, start) -> tuple[np.ndarray, np.ndarray]:
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
    s = start + (1.0 - start) * _GL_NODES[:, None]
    phi = params.phi0 + _hermite(s, 0.0, 1.0, traj.u[i], traj.u[i + 1], h * p0, h * p1)
    psi_s = _hermite(s, 0.0, 1.0, p0 / scale, p1 / scale, m0 / scale, m1 / scale)
    rho_r = phi + psi_s * scale
    f = (psi_s * psi_s * (1.0 + lam2 * phi * phi) ** (p / 2.0)
         / (np.sqrt(1.0 + rho_r * rho_r) * (1.0 + phi * phi) ** ((n + 3.0) / 2.0)))
    s5, s3 = _GL_WEIGHTS @ f
    log_len = np.log((1.0 - start) * h) + 2.0 * np.log(scale)
    return log_len + np.log(s5), log_len + np.log(np.abs(s5 - s3))


def _tail_logs(params: LomseParams, u, psi, conj):
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
    of its segment.  _tail_logs gives the rest: on a spiral run with a
    conjugacy from the linear part of the coordinate w at the splice
    (traj.tail_coordinate, or the last sample's by Newton when the run ended
    before its splice) and of w continued to each cut past it, otherwise
    from the last sample.  So the bar covers the quadrature before the
    splice (the 3-point/5-point differences) and _tail_logs' bound past it,
    not the DP5 path's own error (see DensityReport).
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
            seg[i], err[i] = _segment_logs(traj, i, 0.0)
        jd = j[~flow]
        start = (t_cuts[~flow] - traj.t[jd]) / (traj.t[jd + 1] - traj.t[jd])
        part, part_err = _segment_logs(traj, jd, start)
    # the tail from the splice state, then from each cut past it
    x = traj.u[s:s + 1], traj.psi[s:s + 1]
    if conj is not None and conj.lin.spiral:
        w = traj.tail_coordinate
        if w is None:  # a run that ended before its splice
            w = conj.invert(float(traj.u[s]), float(traj.psi[s]))[0]
        x = _linear_flow(conj.lin, w, np.append(0.0, t_cuts[flow] - traj.t[s]))
    logs, errs = _tail_logs(params, *x, conj)
    seg[s], err[s] = logs[0], errs[0]
    log_gap[flow], log_err[flow] = logs[1:], errs[1:]
    # suffix[j] sums the segments from j on and the tail from the splice
    suffix = np.logaddexp.accumulate(seg[::-1])[::-1]
    suffix_err = np.logaddexp.accumulate(err[::-1])[::-1]
    log_gap[~flow] = np.logaddexp(part, suffix[jd + 1])
    log_err[~flow] = np.logaddexp(part_err, suffix_err[jd + 1])
    log_c = math.log(params.n + 1.0)
    return log_gap + log_c, log_err + log_c


def _verdict(log_gaps: np.ndarray, log_errs: np.ndarray) -> bool | None:
    """True when every gap exceeds its error bar, False when a gap is not
    positive, None (unresolved) otherwise."""
    if not np.all(log_gaps > -math.inf):
        return False
    if np.all(log_errs < log_gaps):
        return True
    return None


def density_report(traj: Trajectory, n_panels: int = DEFAULT_QUAD_PANELS) -> DensityReport:
    """The gaps Theta_inf - Theta_i at the slope crossings, and the densities
    Theta_i of the rescaled solutions F_{rho_d}(y) = rho(d|y|) f(y/|y|) / d
    inside the fixed ball of radius sqrt(1 + phi0^2).

    Crossing i cuts the graph at t_cut = t_i, where phi = phi0, so each gap
    is one suffix of gap_logs.  theta_1_volume is Theta_1 from the volume
    of the first rescaled profile (theta_of_radius), an independent route
    reported beside the gaps.  n_panels is unused, as in theta_of_radius.
    """
    params = traj.params
    if params.stability is not StabilityType.SPIRAL_TYPE_II:
        raise NotApplicable(f"({params.n},{params.p},{params.k}) is not of the spiral type")
    hits = detect_phi_hits(traj, params.phi0)
    if len(hits) < 2:
        raise NotApplicable(f"need >= 2 slope crossings, found {len(hits)}")
    log_gaps, log_errs = gap_logs(traj, [hit.t for hit in hits])
    t_inf = theta_infinity(params)
    R = math.sqrt(1.0 + params.phi0 ** 2)
    first = rescale_profile(to_profile(traj), hits[0].dilation)
    return DensityReport(
        params=params,
        radii=[hit.dilation * R for hit in hits],
        thetas=(t_inf - np.exp(log_gaps)).tolist(),
        theta_infinity=t_inf,
        log10_gaps=(log_gaps / _LN10).tolist(),
        log10_gap_errors=(log_errs / _LN10).tolist(),
        theta_1_volume=theta_of_radius(first, params, R, n_panels=n_panels),
        strictly_below_cone=_verdict(log_gaps, log_errs),
    )
