#!/usr/bin/env python3
"""Shoot the four headline orbits and dump data plus phase/profile plots.

Writes one subdirectory per triple under the output root (default ./gallery):
trajectory.csv, profile.csv, events.json, phase.svg, profile.svg, plus the
certificate report barrier.json.
"""

import argparse
import sys

from lo_dynamics.cli import main as cli_main

TRIPLES = [(3, 2, 2), (3, 2, 4), (5, 4, 2), (5, 4, 6)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="gallery")
    args = ap.parse_args()
    for n, p, k in TRIPLES:
        out = f"{args.out}/{n}_{p}_{k}"
        print(f"== ({n},{p},{k}) -> {out}")
        # stop at the first failing command and pass its exit code on unchanged
        for argv in (["orbit", str(n), str(p), str(k),
                      "--out-dir", out, "--formats", "json,csv,svg"],
                     ["verify", str(n), str(p), str(k), "--out-dir", out]):
            rc = cli_main(argv)
            if rc:
                return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
