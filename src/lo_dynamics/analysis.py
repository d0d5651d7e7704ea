"""Dirichlet solution multiplicity from orbit data, graph volumes, and the
density comparison that certifies the spiral-type cones non-minimizing.

Every time t* with phi(t*) = phi_b yields one analytic solution on the
unit disk with boundary slope phi_b, obtained by rescaling the entire
graph by d = e^{t*}.  The density of the graph at radius R is

    Theta(R) = Vol(M inside ball R) / (omega_ball^{n+1} R^{n+1}),

nondecreasing in R by the monotonicity of density for minimal
submanifolds, and its limit is the cone density Theta_inf.  graph_volume
and theta_of_radius use composite Simpson quadrature in x = log r with
the integrand factored as g(x) e^{(n+1)x}; the exponential is scaled out
analytically so that profiles spanning hundreds of e-folds stay in
floating range.

The certificate Theta_i < Theta_inf at the slope crossings does not form
Theta_i: after the first crossings the gap lies far below one ulp of
Theta_inf.  It integrates the gap itself, from the monotonicity identity
(Simon, Lectures on GMT, section 17; Allard 1972)

    Theta_inf - Theta(R) = (1/omega_{n+1}) integral over M outside B_R
                           of |X^perp|^2 / |X|^{n+3},

whose integrand is positive off the cone, so every gap is positive and
the gaps decrease by construction.  gap_logs integrates it once over the
trajectory's Hermite segments and keeps logarithms, since psi^2
underflows below amplitudes of about 1e-162; the part past the last
sample comes in closed form from the linearization at P1.  One Simpson
Theta_1 on the first rescaled profile is reported beside the gaps as the
independent route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynsys import linearize_p1, p1_quadratic_bound, spiral_flow_growth
from .errors import InsufficientHits, NotMonotone, NotTypeII, RadiusOutOfRange
from .geometry import los_volume, unit_ball_volume, unit_sphere_volume
from .integrate import Trajectory, _hermite, detect_phi_hits, detect_psi_zeros
from .params import LomseParams, StabilityType
from .radial import Profile, rescale_profile, to_profile

DEFAULT_QUAD_PANELS = 8192
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


@dataclass(frozen=True)
class SolutionFamilyReport:
    """The equivariant family of analytic solutions generated by one orbit.

    The report enumerates only this family; it makes no claim about
    solutions outside it, which is why the count is flagged as a lower
    bound whenever the boundary slope falls inside the oscillation band.
    """

    params: LomseParams
    boundary_slope: float
    dilations: list[float]
    count_is_lower_bound: bool
    includes_singular_cone: bool


@dataclass(frozen=True)
class DensityReport:
    """Densities at the slope crossings of a spiral orbit.

    log10_gaps[i] is log10(Theta_inf - Theta_i) and log10_gap_errors[i] the
    log10 of its error bar; thetas[i] = Theta_inf - gap_i, which rounds to
    Theta_inf once the gap falls below an ulp of it.  strictly_below_cone
    is True when every gap exceeds its error bar, False when a gap is not
    positive, and None (unresolved) otherwise.
    """

    params: LomseParams
    radii: list[float]
    thetas: list[float]
    theta_infinity: float
    log10_gaps: list[float]
    log10_gap_errors: list[float]
    theta_1_simpson: float
    strictly_below_cone: bool | None


class _ProfileInterp:
    """Cubic Hermite interpolant of (phi, psi) in x = log r built from
    profile samples; phi and psi vary slowly in x, so interpolating them
    (rather than rho, which grows like e^x) keeps the relative error tied
    to the step size and not to the radial growth."""

    def __init__(self, profile: Profile):
        if len(profile) < 2:
            raise ValueError("need at least 2 profile samples")
        r, rho = profile.r, profile.rho
        if not np.all(np.diff(r) > 0.0):
            raise ValueError("profile radii must be strictly increasing")
        self.x = np.log(r)
        self.phi = rho / r
        self.psi = profile.rho_r - self.phi
        # d(psi)/dx = r rho_rr - psi
        self.dpsi = r * profile.rho_rr - self.psi
        rr = r * r + rho * rho
        if not np.all(np.diff(rr) > 0.0):
            raise NotMonotone("r^2 + rho^2 is not strictly increasing along the profile")
        self.r2rho2 = rr

    def phi_psi_at(self, xq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """phi and psi at the points xq, each point located once."""
        i = np.clip(np.searchsorted(self.x, xq, side="right") - 1, 0, len(self.x) - 2)
        x0, x1 = self.x[i], self.x[i + 1]
        phi = _hermite(xq, x0, x1, self.phi[i], self.phi[i + 1], self.psi[i], self.psi[i + 1])
        psi = _hermite(xq, x0, x1, self.psi[i], self.psi[i + 1],
                       self.dpsi[i], self.dpsi[i + 1])
        return phi, psi

    def phi_at(self, xq: np.ndarray) -> np.ndarray:
        return self.phi_psi_at(xq)[0]

    def phi_at_scalar(self, x: float) -> float:
        """phi_at for one float x: the same operations on floats, so the
        same bits, without the per-call cost of 1-element arrays."""
        i = min(max(int(self.x.searchsorted(x, side="right")) - 1, 0), len(self.x) - 2)
        return _hermite(x, float(self.x[i]), float(self.x[i + 1]), float(self.phi[i]),
                        float(self.phi[i + 1]), float(self.psi[i]), float(self.psi[i + 1]))

    def cut_x(self, R: float) -> float:
        """x with r^2 + rho(r)^2 = R^2; unique by the monotonicity check."""
        if not 0.0 < R < math.inf:  # NaN fails too
            raise RadiusOutOfRange(f"R must be positive and finite, got {R}")
        target = 2.0 * math.log(R)

        def g(x):
            return 2.0 * x + math.log1p(self.phi_at_scalar(x) ** 2) - target

        a, b = float(self.x[0]), float(self.x[-1])
        ga, gb = g(a), g(b)
        if ga > 1e-12 or gb < -1e-12:
            raise RadiusOutOfRange(
                f"R={R} outside profile span [{math.sqrt(self.r2rho2[0])}, "
                f"{math.sqrt(self.r2rho2[-1])}]"
            )
        if ga >= 0.0:
            return a
        if gb <= 0.0:
            return b
        for _ in range(200):
            m = 0.5 * (a + b)
            if m <= a or m >= b:
                break
            if g(m) < 0.0:
                a = m
            else:
                b = m
        return 0.5 * (a + b)


def _volume_core(interp: _ProfileInterp, params: LomseParams, x_cut: float,
                 n_panels: int) -> float:
    """integral of g(x) e^{(n+1)(x - x_cut)} dx over [x0, x_cut] plus the
    power-law tail below the first sample, with
    g = sqrt(1 + rho_r^2) (1 + lambda^2 phi^2)^{p/2}."""
    if n_panels < 1:
        raise ValueError(f"n_panels must be at least 1, got {n_panels}")
    n, p = params.n, params.p
    lam2 = params.lambda_sq
    x0 = float(interp.x[0])
    if x_cut < x0:
        raise RadiusOutOfRange("cut radius below the first profile sample")

    def g_of(xq: np.ndarray) -> np.ndarray:
        phi, psi = interp.phi_psi_at(xq)
        rho_r = phi + psi
        return np.sqrt(1.0 + rho_r * rho_r) * (1.0 + lam2 * phi * phi) ** (p / 2.0)

    if x_cut == x0:
        core = 0.0
    else:
        m = n_panels + (n_panels % 2)  # Simpson needs an even panel count
        xs = np.linspace(x0, x_cut, m + 1)
        w = np.ones(m + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        h = (x_cut - x0) / m
        integrand = g_of(xs) * np.exp((n + 1.0) * (xs - x_cut))
        core = float(np.sum(w * integrand)) * h / 3.0
    # below the first sample the integrand is ~ f(r0) (r/r0)^n
    tail = float(g_of(np.array([x0]))[0]) * math.exp((n + 1.0) * (x0 - x_cut)) / (n + 1.0)
    return core + tail


def graph_volume(profile: Profile, params: LomseParams, R: float,
                 n_panels: int = DEFAULT_QUAD_PANELS) -> float:
    """Volume of the graph inside the ambient ball of radius R."""
    interp = _ProfileInterp(profile)
    x_cut = interp.cut_x(R)
    core = _volume_core(interp, params, x_cut, n_panels)
    return unit_sphere_volume(params.n) * core * math.exp((params.n + 1.0) * x_cut)


def theta_of_radius(profile: Profile, params: LomseParams, R: float,
                    n_panels: int = DEFAULT_QUAD_PANELS) -> float:
    """Density Theta(R); evaluated in scaled form, stable for any span."""
    n = params.n
    interp = _ProfileInterp(profile)
    x_cut = interp.cut_x(R)
    core = _volume_core(interp, params, x_cut, n_panels)
    # (r_cut / R)^{n+1} = (1 + phi(x_cut)^2)^{-(n+1)/2}
    phi_cut = interp.phi_at_scalar(x_cut)
    ratio = (1.0 + phi_cut * phi_cut) ** (-(n + 1.0) / 2.0)
    return unit_sphere_volume(n) / unit_ball_volume(n + 1) * core * ratio


def theta_infinity(params: LomseParams) -> float:
    """Cone density: Vol(graph sphere) / ((n+1) * vol of unit ball in R^{n+1})."""
    n = params.n
    return los_volume(params) / ((n + 1.0) * unit_ball_volume(n + 1))


def dirichlet_solutions(traj: Trajectory, phi_b: float) -> SolutionFamilyReport:
    """Enumerate the dilation family with boundary slope phi_b on this orbit."""
    if phi_b <= 0.0:
        raise ValueError(f"boundary slope must be > 0, got {phi_b}")
    params = traj.params
    hits = detect_phi_hits(traj, phi_b)
    spiral = params.stability is StabilityType.SPIRAL_TYPE_II
    lower_bound = False
    if spiral:
        zeros = detect_psi_zeros(traj)
        if len(zeros) >= 2:
            phi_1 = zeros[0].phi_offset + params.phi0
            phi_2 = zeros[1].phi_offset + params.phi0
            lower_bound = phi_2 <= phi_b <= phi_1
    return SolutionFamilyReport(
        params=params,
        boundary_slope=phi_b,
        dilations=[h.dilation for h in hits],
        count_is_lower_bound=bool(lower_bound),
        includes_singular_cone=bool(abs(phi_b - params.phi0) < 1e-10),
    )


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


def _tail_logs(traj: Trajectory) -> tuple[float, float]:
    """ln of the gap integrand's integral past t_end, from the linear flow
    at P1, and ln of a bound on its error.

    With J = [[0, 1], [a, b]] Hurwitz, P = diag(a/(2b), -1/(2b)) solves
    J^T P + P J = -diag(0, 1), so the linear flow exp(J tau) x* has
    integral of psi^2 = x*^T P x* = (|a| u*^2 + psi*^2) / (2|b|); the
    other factors of the integrand are taken at P1.  Along the true flow
    the same P gives integral of psi^2 = x*^T P x* + integral of 2 psi
    r / (2|b|), with r the field's quadratic remainder, |r| <= c2 |x|^2.
    On a spiral P1, |x| <= G e^{alpha tau} |x*| (spiral_flow_growth), so
    the relative error is at most 2 c2 G^3 |x*| / (3 |alpha| min(|a|, 1)),
    and the other factors add at most L G |x*| with L the sum of the
    absolute derivatives of their logarithm at P1.  The bound doubles
    the sum of both to cover the higher-order terms, as splice_amplitude
    does; it is the tail itself on a real-eigenvalue P1.
    """
    params = traj.params
    n, p, phi0 = params.n, params.p, params.phi0
    lam2 = params.lambda_sq
    lin = linearize_p1(params)
    u0, psi0 = float(traj.u[-1]), float(traj.psi[-1])
    amp = max(abs(u0), abs(psi0))
    if amp == 0.0:
        return -math.inf, -math.inf
    log_g = (p / 2.0) * math.log1p(lam2 * phi0 * phi0) - (n + 4.0) / 2.0 * math.log1p(phi0 * phi0)
    psi_sq = (abs(lin.a) * (u0 / amp) ** 2 + (psi0 / amp) ** 2) / (2.0 * abs(lin.b))
    log_tail = 2.0 * math.log(amp) + math.log(psi_sq) + log_g
    if not lin.spiral:
        return log_tail, log_tail
    alpha = lin.mu3.real
    growth = spiral_flow_growth(lin)
    c = phi0 / (1.0 + phi0 * phi0)
    dlog_g = abs(p * lam2 * phi0 / (1.0 + lam2 * phi0 * phi0) - (n + 4.0) * c) + c
    rel = 2.0 * amp * growth * (2.0 * p1_quadratic_bound(params) * growth * growth
                                / (3.0 * abs(alpha) * min(abs(lin.a), 1.0)) + dlog_g)
    return log_tail, log_tail + math.log(rel)


def gap_logs(traj: Trajectory, t_cuts) -> tuple[np.ndarray, np.ndarray]:
    """ln(Theta_inf - Theta) for the part of the graph beyond each cut time,
    and ln of its error bar, from one pass over the trajectory.

    The monotonicity identity gives Theta_inf - Theta(R) = |S^n|/omega_{n+1}
    times the integral from t_cut to infinity of

        psi^2 (1 + lambda^2 phi^2)^{p/2} / (sqrt(1 + (phi + psi)^2) (1 + phi^2)^{(n+3)/2})

    where r^2 (1 + phi^2) = R^2 at t_cut.  Each segment's integral is kept
    as a logarithm and the segments are summed from the end; the part from
    a cut to the end of its segment comes on top, and the part past t_end
    from _tail_logs.  The error bar adds the segments' 3-point/5-point
    differences and the tail's bound.
    """
    params = traj.params
    t_cuts = np.asarray(t_cuts, dtype=float)
    if not np.all((traj.t[0] <= t_cuts) & (t_cuts <= traj.t[-1])):
        raise ValueError(f"cut times must lie in the trajectory span [{traj.t[0]}, {traj.t[-1]}]")
    n_seg = len(traj) - 1
    seg = np.empty(n_seg + 1)
    err = np.empty(n_seg + 1)
    with np.errstate(divide="ignore"):
        for lo in range(0, n_seg, _CHUNK):
            i = np.arange(lo, min(lo + _CHUNK, n_seg))
            seg[i], err[i] = _segment_logs(traj, i, 0.0)
        seg[-1], err[-1] = _tail_logs(traj)
        j = np.clip(np.searchsorted(traj.t, t_cuts, side="right") - 1, 0, n_seg - 1)
        start = (t_cuts - traj.t[j]) / (traj.t[j + 1] - traj.t[j])
        part, part_err = _segment_logs(traj, j, start)
    # suffix[j] sums the segments from j on and the tail
    suffix = np.logaddexp.accumulate(seg[::-1])[::-1]
    suffix_err = np.logaddexp.accumulate(err[::-1])[::-1]
    log_c = math.log(unit_sphere_volume(params.n) / unit_ball_volume(params.n + 1))
    return (np.logaddexp(part, suffix[j + 1]) + log_c,
            np.logaddexp(part_err, suffix_err[j + 1]) + log_c)


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
    is one suffix of gap_logs.  theta_1_simpson is Theta_1 by composite
    Simpson with n_panels panels on the first rescaled profile, an
    independent route reported beside the gaps.
    """
    params = traj.params
    if params.stability is not StabilityType.SPIRAL_TYPE_II:
        raise NotTypeII(f"({params.n},{params.p},{params.k}) is not of the spiral type")
    hits = detect_phi_hits(traj, params.phi0)
    if len(hits) < 2:
        raise InsufficientHits(f"need >= 2 slope crossings, found {len(hits)}")
    log_gaps, log_errs = gap_logs(traj, [hit.t for hit in hits])
    t_inf = theta_infinity(params)
    R = math.sqrt(1.0 + params.phi0 ** 2)
    first = rescale_profile(to_profile(traj), hits[0].dilation)
    return DensityReport(
        params=params,
        radii=[math.hypot(h.dilation, h.dilation * traj.phi_at(h.t)) for h in hits],
        thetas=(t_inf - np.exp(log_gaps)).tolist(),
        theta_infinity=t_inf,
        log10_gaps=(log_gaps / _LN10).tolist(),
        log10_gap_errors=(log_errs / _LN10).tolist(),
        theta_1_simpson=theta_of_radius(first, params, R, n_panels=n_panels),
        strictly_below_cone=_verdict(log_gaps, log_errs),
    )
