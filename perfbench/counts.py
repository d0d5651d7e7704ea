"""Machine-independent counts taken from the results of layer calls.

Each function maps the bound arguments and the result of one call to
counts named as the per-layer metrics they feed.  The same functions serve
the checks of the timed run and the span hooks of the traced run, so both
report identical numbers.  Nothing here imports the package or numpy: the
CLI shim installs these hooks before its timed import of the package.

Counts whose name ends in `_min` combine by minimum, all others by sum.
"""

from __future__ import annotations


def sign_changes(values) -> int:
    """Sign changes between consecutive samples, tested as
    `(a < 0) != (b < 0)` so that products cannot underflow to zero."""
    neg = values < 0.0
    return int((neg[:-1] != neg[1:]).sum())


def is_spiral(params) -> bool:
    return params.stability.value == "spiral_type_II"


def shoot(args: dict, traj) -> dict:
    steps = len(traj) - 1
    spiral = is_spiral(traj.params)
    return {
        "integrate.accepted_steps": steps,
        "integrate.accepted_steps_spiral": steps if spiral else 0,
        "integrate.shoots_spiral" if spiral else "integrate.shoots_typeI": 1,
        f"integrate.term.{traj.terminated_by.value}": 1,
    }


def events(args: dict, report) -> dict:
    return {
        "integrate.psi_zeros": len(report.psi_zeros),
        "integrate.psi_sign_changes": sign_changes(args["traj"].psi),
        "integrate.phi_hits": len(report.phi_hits),
    }


def profile(args: dict, samples) -> dict:
    return {"radial.samples": len(samples)}


def density(args: dict, report) -> dict:
    t_inf = report.theta_infinity
    return {
        "analysis.thetas": len(report.thetas),
        "analysis.quad_points": len(report.thetas) * (args["n_panels"] + 1),
        "analysis.theta_above_cone": sum(th >= t_inf for th in report.thetas),
        "analysis.theta_gap_min": min(t_inf - th for th in report.thetas),
    }


def theta_radius(args: dict, theta: float) -> dict:
    return {"analysis.quad_points": args["n_panels"] + 1}


def case1(args: dict, report) -> dict:
    return {
        "barrier.grid_points": args["grid_points"],
        "barrier.grid_margin_min": report.grid_margin,
    }


def case2(args: dict, report) -> dict:
    n_phi, n_psi = args["cycle_grid"]
    return {
        "barrier.grid_points": args["grid_points"] + n_phi * n_psi,
        "barrier.grid_margin_min": report.g_grid_margin,
    }


HOOKS = {
    "integrate.shoot_unstable_manifold": shoot,
    "integrate.crossing_report": events,
    "radial.to_profile": profile,
    "analysis.density_report": density,
    "analysis.theta_of_radius": theta_radius,
    "barrier.case1_check": case1,
    "barrier.case2_check": case2,
}


def merge(into: dict, counts: dict) -> dict:
    for key, value in counts.items():
        if key.endswith("_min"):
            into[key] = min(into.get(key, value), value)
        else:
            into[key] = into.get(key, 0) + value
    return into
