import math

import pytest

from lo_dynamics import build_params, enumerate_admissible, shoot_unstable_manifold
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
