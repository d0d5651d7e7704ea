#!/usr/bin/env python3
"""Sweep the admissibility table and print per-triple invariants.

Columns: the triple, stability type, cone slope, normal-plane angle cosine,
volume ratio and slope function.  The value gaps visible down the cos(alpha)
and V/omega_n columns are the discreteness phenomenon: uncountably many maps
per triple, but the invariants take values in a discrete set.
"""

import argparse

from lo_dynamics.geometry import geometry_report
from lo_dynamics.params import StabilityType, enumerate_admissible


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=31)
    ap.add_argument("--k-max", type=int, default=20)
    args = ap.parse_args()

    print(f"{'n':>3} {'p':>3} {'k':>3} {'type':<6} "
          f"{'phi0':>12} {'cos_alpha':>12} {'V/omega_n':>14} {'W':>14}")
    for params in enumerate_admissible(args.n_max, args.k_max):
        rep = geometry_report(params)
        kind = "I" if params.stability is StabilityType.CENTER_TYPE_I else "II"
        print(f"{params.n:>3} {params.p:>3} {params.k:>3} {kind:<6} "
              f"{params.phi0:>12.6f} {rep.cos_alpha:>12.4e} "
              f"{rep.volume_ratio:>14.6e} {rep.slope_w:>14.6e}")


if __name__ == "__main__":
    main()
