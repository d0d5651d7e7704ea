"""Dirichlet solution multiplicity from orbit data, graph volumes, and the
density comparison that certifies the spiral-type cones non-minimizing.

Every time t* with phi(t*) = phi_b yields one analytic solution on the
unit disk with boundary slope phi_b, obtained by rescaling the entire
graph by d = e^{t*}.  The density of the graph at radius R is

    Theta(R) = Vol(M inside ball R) / (omega_ball^{n+1} R^{n+1}),

nondecreasing in R by the monotonicity of density for minimal
submanifolds, and its limit is the cone density.  Volumes are computed
by composite Simpson quadrature in x = log r with the integrand factored
as g(x) e^{(n+1)x}; the exponential is scaled out analytically so that
profiles spanning hundreds of e-folds stay in floating range.

Profiles are `radial.Profile` columns.  The rescaled copy for each
crossing is four array operations, and the interpolant reads the columns
directly; both give the same bits as the former per-sample transform, so
every Theta_i is unchanged by the columnar layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientHits, NotMonotone, NotTypeII, RadiusOutOfRange
from .geometry import los_volume, unit_ball_volume, unit_sphere_volume
from .integrate import Trajectory, _hermite, detect_phi_hits, detect_psi_zeros
from .params import LomseParams, StabilityType
from .radial import Profile, rescale_profile, to_profile

DEFAULT_QUAD_PANELS = 8192


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
    params: LomseParams
    radii: list[float]
    thetas: list[float]
    theta_infinity: float
    strictly_below_cone: bool


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
    if R <= 0.0:
        raise RadiusOutOfRange(f"R must be > 0, got {R}")
    interp = _ProfileInterp(profile)
    x_cut = interp.cut_x(R)
    core = _volume_core(interp, params, x_cut, n_panels)
    return unit_sphere_volume(params.n) * core * math.exp((params.n + 1.0) * x_cut)


def theta_of_radius(profile: Profile, params: LomseParams, R: float,
                    n_panels: int = DEFAULT_QUAD_PANELS) -> float:
    """Density Theta(R); evaluated in scaled form, stable for any span."""
    if R <= 0.0:
        raise RadiusOutOfRange(f"R must be > 0, got {R}")
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


def density_report(traj: Trajectory, params: LomseParams | None = None,
                   n_panels: int = DEFAULT_QUAD_PANELS) -> DensityReport:
    """Densities Theta_i at the slope crossings, via the rescaled profiles
    F_{rho_d}(y) = rho(d|y|) f(y/|y|) / d evaluated inside the fixed ball of
    radius sqrt(1 + phi0^2)."""
    if params is None:
        params = traj.params
    if params.stability is not StabilityType.SPIRAL_TYPE_II:
        raise NotTypeII(f"({params.n},{params.p},{params.k}) is not of the spiral type")
    hits = detect_phi_hits(traj, params.phi0)
    if len(hits) < 2:
        raise InsufficientHits(f"need >= 2 slope crossings, found {len(hits)}")
    profile = to_profile(traj)
    interp = _ProfileInterp(profile)
    R = math.sqrt(1.0 + params.phi0 ** 2)
    radii = []
    thetas = []
    for hit in hits:
        d = hit.dilation
        rho_d = d * interp.phi_at_scalar(hit.t)
        radii.append(math.hypot(d, rho_d))
        rescaled = rescale_profile(profile, d)
        thetas.append(theta_of_radius(rescaled, params, R, n_panels=n_panels))
    t_inf = theta_infinity(params)
    return DensityReport(
        params=params,
        radii=radii,
        thetas=thetas,
        theta_infinity=t_inf,
        strictly_below_cone=bool(thetas[0] < t_inf - 1e-9),
    )
