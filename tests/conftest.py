import pytest

from lo_dynamics.integrate import shoot_unstable_manifold
from lo_dynamics.params import StabilityType, build_params, enumerate_admissible


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


@pytest.fixture(scope="session")
def fine_trajs():
    """Trajectories shot at rel_tol 1e-13 of every fifth triple of (31, 20)
    in its order and of every spiral triple, by triple."""
    return {p.triple(): shoot_unstable_manifold(p, rel_tol=1e-13)
            for i, p in enumerate(enumerate_admissible(31, 20))
            if i % 5 == 0 or p.stability is StabilityType.SPIRAL_TYPE_II}
