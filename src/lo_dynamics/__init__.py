"""Numerical realization of the equivariant reduction of the minimal
surface system to a planar autonomous ODE: admissible (n, p, k) parameter
algebra, unstable-manifold shooting, barrier-function certificates,
geometric invariants of the associated cones, and the Dirichlet
solution-multiplicity bookkeeping built on top of the orbits."""

from .params import (
    AdmissibilityVerdict,
    LomseParams,
    MapFamily,
    StabilityType,
    build_params,
    check_admissibility,
    classify_stability,
    enumerate_admissible,
    stability_discriminant,
)
from .dynsys import (
    OriginLinearization,
    P1Linearization,
    PhaseState,
    f1,
    f2,
    jacobian,
    linearize_origin,
    linearize_p1,
    vector_field,
    vector_field_xy,
)
from .integrate import (
    CrossingReport,
    PhiHit,
    PsiZero,
    StepStats,
    Termination,
    Trajectory,
    adaptive_integrate,
    crossing_report,
    detect_phi_hits,
    detect_psi_zeros,
    reference_integrate,
    shoot_unstable_manifold,
)

__version__ = "0.1.0"
