import math

import mpmath
import pytest

from lo_dynamics import StabilityType, build_params, enumerate_admissible, shoot_unstable_manifold
from lo_dynamics.radial import ProfileSample


@pytest.fixture(scope="session")
def p322():
    return build_params(3, 2, 2)


@pytest.fixture(scope="session")
def p324():
    return build_params(3, 2, 4)


@pytest.fixture(scope="session")
def p542():
    return build_params(5, 4, 2)


@pytest.fixture(scope="session")
def p544():
    return build_params(5, 4, 4)


@pytest.fixture(scope="session")
def p546():
    return build_params(5, 4, 6)


@pytest.fixture(scope="session")
def traj322(p322):
    return shoot_unstable_manifold(p322)


@pytest.fixture(scope="session")
def traj324(p324):
    return shoot_unstable_manifold(p324)


@pytest.fixture(scope="session")
def traj542(p542):
    return shoot_unstable_manifold(p542)


@pytest.fixture(scope="session")
def traj546(p546):
    return shoot_unstable_manifold(p546)


@pytest.fixture(scope="session")
def table_trajs():
    """Default-shot trajectories of every admissible triple of (31, 20)."""
    return {p.triple(): shoot_unstable_manifold(p) for p in enumerate_admissible(31, 20)}


@pytest.fixture(scope="session")
def spirals(table_trajs):
    """The spiral-type trajectories of table_trajs, by triple."""
    return {triple: traj for triple, traj in table_trajs.items()
            if traj.params.stability is StabilityType.SPIRAL_TYPE_II}


def _to_profile_per_sample(traj) -> list[ProfileSample]:
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


@pytest.fixture(scope="session")
def to_profile_per_sample():
    return _to_profile_per_sample


def _mpmath_orbit(traj):
    """mpmath odefun (Taylor) solution of traj's launch in offset variables
    (u, psi), at the caller's working precision, with the exact phi0 and
    lambda^2 it uses; call it inside mpmath.workdps."""
    params = traj.params
    n, p, big_k = params.n, params.p, params.big_k
    lam2 = mpmath.mpf(params.lambda_sq_num) / params.lambda_sq_den
    phi0 = mpmath.sqrt(mpmath.mpf(p * (big_k - n)) / (big_k * (n - p)))

    def field(_, y):
        u, psi = y
        phi = phi0 + u
        den = 1 + lam2 * phi * phi
        f1_phi = -(n - p) * lam2 * u * (phi + phi0) / den * phi
        f2 = (n - p) + p / den
        return [psi, -psi - (f2 * psi - f1_phi) * (1 + (phi + psi) ** 2)]

    eps = mpmath.mpf(traj.eps_start)
    mu1 = params.k - 1
    norm_v1 = mpmath.sqrt(1 + mu1 * mu1)
    sol = mpmath.odefun(field, mpmath.log(eps) / mu1,
                        [eps / norm_v1 - phi0, eps * mu1 / norm_v1])
    return sol, phi0, lam2


@pytest.fixture(scope="session")
def mpmath_orbit():
    return _mpmath_orbit
