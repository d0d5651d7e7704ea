"""One set-up of a workload in a fresh interpreter, timed by the caller.

Usage: python3 perfbench/probe.py RECORD_JSON WORKLOAD SEED

Imports the package and builds the workload's inputs, exactly as the
benchmark process does before its first item, then exits.  The speed
sampler runs throughout; its record goes to RECORD_JSON.
"""

import json
import sys

import speed

if __name__ == "__main__":
    sampler = speed.Sampler().start()
    import workloads

    workloads.build_items(sys.argv[2], int(sys.argv[3]))
    sampler.stop()
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(sampler.record(), fh)
