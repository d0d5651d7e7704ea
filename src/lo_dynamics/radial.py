"""Radial profile rho(r) reconstruction and the residual of the reduced ODE.

A phase-plane state (phi, psi) at t maps to a profile sample through
r = e^t, rho = r*phi, rho_r = phi + psi.  The second derivative comes
from the vector field, rho_rr = (psi_t + psi)/r with psi_t = X2, never
from differencing samples.  So ode1_residual checks the r-form ODE against
the planar field up to rounding, not the integration error: at most 4e-15
on (3,2,2), (3,2,4) and (5,4,6), at rel_tol 1e-4 as at 1e-10.

A whole profile is a `Profile`, the orbit's own columns.  r, rho, rho_r
and rho_rr are read off them with the same IEEE operations as the
transform of one state (r from `math.exp`, not `np.exp`, which rounds
differently), so each row of an unrescaled profile is that state's sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrate import Trajectory
from .params import LomseParams


@dataclass(frozen=True, eq=False)
class Profile:
    """The profile rho(e^log_d r)/e^log_d, as the orbit's columns x = t
    (= log r before the rescaling), phi, psi and dpsi = psi_t: equal-length
    read-only float arrays (a writeable one is copied), x strictly rising.
    orbit is the run the columns come from, whose state reader
    (integrate.state_at) answers between them; None for a profile given by
    its columns alone, read on their Hermite cubic."""

    x: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    dpsi: np.ndarray
    log_d: float = 0.0
    orbit: Trajectory | None = None

    def __post_init__(self):
        n = len(self.x)
        for name in ("x", "phi", "psi", "dpsi"):
            col = np.asarray(getattr(self, name), dtype=float)
            col = col.copy() if col.flags.writeable else col
            if col.shape != (n,):
                raise ValueError(f"column {name} has shape {col.shape}, expected ({n},)")
            col.setflags(write=False)
            object.__setattr__(self, name, col)
        if n < 2:
            raise ValueError("need at least 2 profile samples")
        if not np.all(np.diff(self.x) > 0.0):  # NaN fails too
            raise ValueError("profile x = log r must be strictly increasing")
        if not math.isfinite(self.log_d):  # NaN fails too
            raise ValueError(f"log_d must be finite, got {self.log_d}")

    def __len__(self) -> int:
        return len(self.x)

    @property
    def r(self) -> np.ndarray:
        """e^{x - log_d}, from `math.exp` sample by sample."""
        return np.fromiter(map(math.exp, (self.x - self.log_d).tolist()), float, len(self))

    @property
    def rho(self) -> np.ndarray:
        return self.r * self.phi

    @property
    def rho_r(self) -> np.ndarray:
        return self.phi + self.psi

    @property
    def rho_rr(self) -> np.ndarray:
        return (self.dpsi + self.psi) / self.r


def to_profile(traj: Trajectory) -> Profile:
    """The profile of a trajectory: its columns, phi = phi0 + u."""
    return Profile(x=traj.t, phi=traj.params.phi0 + traj.u, psi=traj.psi, dpsi=traj.dpsi,
                   orbit=traj)


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
    """The profile rho_d(r) = rho(d r)/d, minimality being invariant under
    this: the same columns and orbit, ln d added to log_d."""
    if not 0.0 < d < math.inf:  # NaN fails too
        raise ValueError(f"dilation must be positive and finite, got {d}")
    return Profile(x=profile.x, phi=profile.phi, psi=profile.psi, dpsi=profile.dpsi,
                   log_d=profile.log_d + math.log(d), orbit=profile.orbit)
