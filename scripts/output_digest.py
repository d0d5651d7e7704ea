#!/usr/bin/env python3
"""Run a fixed list of CLI commands and print a digest of everything they wrote.

Usage: python scripts/output_digest.py OUT_DIR

Each command runs in this process through `lo_dynamics.cli.main`, as the
gallery script runs its commands, with its own output directory under
OUT_DIR.  Its stdout and stderr go to stdout.txt and stderr.txt there.
The digest prints `exit CODE  DIR` for each command, then `SHA256  PATH`
for every file under OUT_DIR, paths relative to OUT_DIR.  Two checkouts
run into two directories then compare with `diff`.  The commands are the
gallery's, the benchmark's nine headline commands and three density runs
that reach far along the orbits.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

from lo_dynamics.cli import CONFIG_ENV_VAR
from lo_dynamics.cli import main as cli_main

GALLERY = [argv for n, p, k in [(3, 2, 2), (3, 2, 4), (5, 4, 2), (5, 4, 6)]
           for argv in (["orbit", str(n), str(p), str(k), "--formats", "json,csv,svg"],
                        ["verify", str(n), str(p), str(k)])]
HEADLINE = [
    ["classify", "--sweep", "31", "20"],
    ["geometry", "3", "2", "2"],
    ["verify", "3", "2", "2"],
    ["orbit", "3", "2", "2", "--formats", "json,csv,svg"],
    ["density", "3", "2", "2", "--radii", "0.5,1,2"],
    ["maps-check", "--samples", "100", "--seed", "1"],
    ["verify", "3", "2", "4"],
    ["orbit", "5", "4", "6", "--formats", "json,csv,svg"],
    ["density", "3", "2", "4"],
]
DENSITY = [
    ["density", "5", "4", "6"],
    ["density", "31", "30", "2", "--radii", "1e5,1e9"],
    ["density", "3", "2", "4", "--radii", "1e10,1e20,1e40"],
]
COMMANDS = GALLERY + HEADLINE + DENSITY


def run(argv: list[str], out: Path) -> int:
    """argv with --out-dir out; its stdout and stderr are written there."""
    out.mkdir(parents=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main([*argv, "--out-dir", str(out)])
    (out / "stdout.txt").write_text(stdout.getvalue(), encoding="utf-8")
    (out / "stderr.txt").write_text(stderr.getvalue(), encoding="utf-8")
    return code


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_dir", type=Path, help="a directory that does not exist yet")
    root = ap.parse_args().out_dir
    os.environ.pop(CONFIG_ENV_VAR, None)  # a user's config file would change the outputs
    root.mkdir(parents=True)
    for i, argv in enumerate(COMMANDS):
        name = f"{i:02d}_" + "_".join(argv).replace("-", "").replace(",", "_")
        print(f"exit {run(argv, root / name)}  {name}")
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
