#!/usr/bin/env python3
"""lo-dynamics benchmark: run one workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload table_orbits --seed 1 --seconds 15 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  The full result, with run metadata, counts, failures and (when
traced) every span, is also written to .perfbench/ under the repository
root.  perfbench/DESIGN.md describes the workloads and metrics.
"""

import argparse
import json
import sys
from pathlib import Path


def main(argv=None) -> int:
    try:
        import bench
    except ImportError as exc:
        print(f"perfbench: cannot import the lo_dynamics package from "
              f"{Path(__file__).resolve().parent.parent / 'src'}: {exc}", file=sys.stderr)
        return 2
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=bench.workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    out = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = bench.WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    for line in bench.report_lines(args.workload, out):
        print(line)
    print(f"full result: {path}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
