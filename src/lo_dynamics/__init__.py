"""Numerical realization of the equivariant reduction of the minimal
surface system to a planar autonomous ODE: admissible (n, p, k) parameter
algebra, unstable-manifold shooting, barrier-function certificates,
geometric invariants of the associated cones, and the slope crossings and
densities of the Dirichlet solution family built on top of the orbits.

The package root re-exports nothing, so that importing one layer loads
only that layer and what it imports: callers import from the submodules
(lo_dynamics.params, lo_dynamics.integrate, ...)."""

__version__ = "0.1.0"
