"""Radial profile rho(r) reconstruction and residuals of the reduced ODEs.

A phase-plane state (phi, psi) at t maps to a profile sample through
r = e^t, rho = r*phi, rho_r = phi + psi.  The second derivative comes
from the vector field, rho_rr = (psi_t + psi)/r with psi_t = X2, never
from differencing samples, so the residual checks below measure the
integration error and not a differentiation artifact.

A whole profile is a `Profile`: four read-only columns r, rho, rho_r,
rho_rr.  The columns are computed with the same IEEE operations, in the
same order, as the transform of one sample (r from `math.exp`, not
`np.exp`, which rounds differently), so each row is bit-identical to the
`ProfileSample` of that state; indexing a `Profile` returns that sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynsys import vector_field_xy
from .errors import LengthMismatch
from .integrate import Trajectory
from .params import LomseParams


@dataclass(frozen=True)
class ProfileSample:
    r: float
    rho: float
    rho_r: float
    rho_rr: float


@dataclass(frozen=True, eq=False)
class Profile:
    """Profile samples as columns: four equal-length read-only float arrays.

    `profile[i]` is the i-th row as a `ProfileSample`; iteration yields the
    rows in order.  The columns are read-only copies of the given values.
    """

    r: np.ndarray
    rho: np.ndarray
    rho_r: np.ndarray
    rho_rr: np.ndarray

    def __post_init__(self):
        n = len(self.r)
        for name in ("r", "rho", "rho_r", "rho_rr"):
            col = np.array(getattr(self, name), dtype=float)
            if col.shape != (n,):
                raise LengthMismatch(f"column {name} has shape {col.shape}, expected ({n},)")
            col.setflags(write=False)
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return len(self.r)

    def __getitem__(self, i: int) -> ProfileSample:
        return ProfileSample(r=float(self.r[i]), rho=float(self.rho[i]),
                             rho_r=float(self.rho_r[i]), rho_rr=float(self.rho_rr[i]))


def to_profile(traj: Trajectory) -> Profile:
    """Samplewise transform of a trajectory into a profile."""
    n = len(traj)
    if n == 0:
        raise ValueError("empty trajectory")
    r = np.fromiter(map(math.exp, traj.t.tolist()), float, n)
    phi = traj.params.phi0 + traj.u
    return Profile(r=r, rho=r * phi, rho_r=phi + traj.psi, rho_rr=(traj.dpsi + traj.psi) / r)


def state_to_sample(phi: float, psi: float, t: float, params: LomseParams) -> ProfileSample:
    """Profile sample of a single phase state, with rho_rr from the field."""
    r = math.exp(t)
    _, x2 = vector_field_xy(phi, psi, params)
    return ProfileSample(r=r, rho=r * phi, rho_r=phi + psi, rho_rr=(x2 + psi) / r)


def ode1_residual(sample: ProfileSample | Profile, params: LomseParams):
    """Residual of the reduced second-order ODE at the sample, or at every
    row of a profile as an array; zero on exact solutions."""
    r = sample.r
    if np.any(r <= 0.0):
        raise ValueError(f"r must be > 0, got {np.min(r)}")
    lam2 = params.lambda_sq
    n, p = params.n, params.p
    rho, rho_r, rho_rr = sample.rho, sample.rho_r, sample.rho_rr
    q = lam2 * rho * rho / (r * r)
    return (
        rho_rr / (1.0 + rho_r * rho_r)
        + (n - p) * rho_r / r
        + p * (rho_r / r - lam2 * rho / (r * r)) / (1.0 + q)
    )


def ode_general_residual(sample: ProfileSample, sing_values: list[float], n: int) -> float:
    """Residual of the general constant-singular-value radial ODE.

    With the list (lambda,)*p + (0,)*(n-p) this agrees with ode1_residual
    to rounding.  n is the expected list length.
    """
    if len(sing_values) != n:
        raise LengthMismatch(f"expected {n} singular values, got {len(sing_values)}")
    r = sample.r
    if r <= 0.0:
        raise ValueError(f"r must be > 0, got {r}")
    rho, rho_r, rho_rr = sample.rho, sample.rho_r, sample.rho_rr
    total = rho_rr / (1.0 + rho_r * rho_r)
    for lam_i in sing_values:
        li2 = lam_i * lam_i
        total += (rho_r / r - li2 * rho / (r * r)) / (1.0 + li2 * rho * rho / (r * r))
    return total


def recover_state(sample: ProfileSample) -> tuple[float, float, float]:
    """(phi, psi, t) back from a profile sample; inverse of the transform."""
    phi = sample.rho / sample.r
    return phi, sample.rho_r - phi, math.log(sample.r)


def rescale_profile(profile: Profile, d: float) -> Profile:
    """The profile rho_d(r) = rho(d r)/d; minimality is invariant under this."""
    if d <= 0.0:
        raise ValueError(f"dilation must be > 0, got {d}")
    return Profile(r=profile.r / d, rho=profile.rho / d, rho_r=profile.rho_r,
                   rho_rr=profile.rho_rr * d)


def cone_profile(params: LomseParams, radii) -> Profile:
    """Exact cone rho = phi0 * r sampled at the given radii."""
    phi0 = params.phi0
    r = np.asarray(radii, dtype=float)
    return Profile(r=r, rho=phi0 * r, rho_r=np.full(len(r), phi0), rho_rr=np.zeros(len(r)))
