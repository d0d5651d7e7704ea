"""Run one lo-dynamics command the way `python -m lo_dynamics` does.

Usage: python3 perfbench/cli_shim.py RECORD_JSON TRACE COMMAND [ARGS...]

Calls `lo_dynamics.cli.main` with COMMAND and ARGS, `src` being on the
path, and exits with its code.  Around it the speed sampler runs, and with
TRACE 1 the functions `lo_dynamics.cli` calls are wrapped, in this process
only.  The sampler's record and the spans go to RECORD_JSON when the
command returns.  The span `cli.import` covers this process from its first
line to the CLI imported; `cli.main` covers the command.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import speed  # noqa: E402

# functions the CLI calls, by the module attribute it reaches them through
CLI_CALLS = {
    None: ("build_params", "enumerate_admissible", "shoot_unstable_manifold",
           "crossing_report", "detect_psi_zeros"),
    "radial": ("to_profile", "ode1_residual"),
    "analysis": ("density_report", "theta_of_radius", "theta_infinity"),
    "barrier": ("case1_check", "case2_check"),
    "geometry": ("geometry_report",),
    "hopf": ("random_sphere_points", "numeric_singular_values", "condition_b_check"),
}


def main(argv: list[str]) -> int:
    record_path, traced, cli_args = argv[0], argv[1] == "1", argv[2:]
    sampler = speed.Sampler().start()
    from lo_dynamics import cli

    import counts
    from spans import ANALYSIS_IMPORTS, Tracer

    tracer = Tracer()
    tracer.end(tracer.begin("cli.import", start=_T0))
    if traced:
        for owner, attrs in CLI_CALLS.items():
            tracer.patch(cli if owner is None else getattr(cli, owner), attrs, counts.HOOKS)
        tracer.patch(cli.analysis, ANALYSIS_IMPORTS, {})
    span = tracer.begin("cli.main")
    try:
        return cli.main(cli_args)
    finally:
        tracer.end(span)
        sampler.stop()
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump({**sampler.record(), "spans": tracer.to_json()}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
