"""Numerical realization of the equivariant reduction of the minimal
surface system to a planar autonomous ODE: admissible (n, p, k) parameter
algebra, unstable-manifold shooting, barrier-function certificates,
geometric invariants of the associated cones, and the slope crossings and
densities of the Dirichlet solution family built on top of the orbits."""

from .params import (
    AdmissibilityVerdict,
    LomseParams,
    StabilityType,
    build_params,
    check_admissibility,
    enumerate_admissible,
    stability_discriminant,
)
from .dynsys import (
    P1Linearization,
    f1,
    f2,
    linearize_p1,
    vector_field_xy,
)
from .integrate import (
    CrossingReport,
    PhiHit,
    PsiZero,
    StepStats,
    Termination,
    Trajectory,
    crossing_report,
    detect_phi_hits,
    detect_psi_zeros,
    shoot_unstable_manifold,
)

__version__ = "0.1.0"
