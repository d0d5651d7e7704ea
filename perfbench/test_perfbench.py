"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import bench
import workloads

SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# enough items to mix the kinds of each workload: its first items in the fixed order
REDUCED = {"table_orbits": 3, "table_certificates": 3, "spiral_density": 3, "cli_headline": 4}


def declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_workloads_match_benchmark_json():
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.WORKLOADS
    assert SPEC["command"][1:] == ["perfbench/run.py"]


@pytest.mark.parametrize("trace", [False, True], ids=["timed", "traced"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reduced_pass_prints_the_declared_metrics(workload, trace):
    out = bench.run(workload, seed=1, seconds=0, trace=trace,
                    limit=REDUCED[workload], setup_runs=1)
    res = out["result"]
    assert res["correct"], out["crashes"] + out["nondeterministic"]
    assert res["attempted"] == REDUCED[workload] * (2 if trace else 1)
    metrics = {name: m["unit"] for name, m in res["metrics"].items()}
    assert metrics == declared("per_layer" if trace else "end_to_end")
    assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())


def _first(workload: str):
    return workloads.build_items(workload, seed=0, limit=1)[0]


def test_orbit_check_counts_a_wrong_termination():
    item = _first("table_orbits")  # (3,2,2), type I
    out = workloads.run_orbit(workloads.layer_functions(), item)
    assert workloads.check_orbit(item, out)[0] == []
    item.expected["term"] = "max_crossings"
    assert workloads.check_orbit(item, out)[0]


def test_certificate_check_counts_a_wrong_verdict():
    item = _first("table_certificates")
    out = workloads.run_certificate(workloads.layer_functions(), item)
    assert workloads.check_certificate(item, out)[0] == []
    item.expected["passed"] = False
    assert workloads.check_certificate(item, out)[0]


def test_radius_check_counts_a_wrong_cone_density():
    item = _first("spiral_density")  # Theta(R) on (3,2,2)
    out = workloads.run_radius(workloads.layer_functions(), item)
    assert workloads.check_radius(item, out)[0] == []
    item.expected["theta_inf"] = 1.0
    assert workloads.check_radius(item, out)[0]


def test_cli_check_counts_a_wrong_exit_code(tmp_path):
    item = _first("cli_headline")  # classify --sweep
    out = workloads.run_cli(item, tmp_path)
    assert workloads.check_cli(item, out)[0] == []
    item.expected["exit"] = 5
    assert workloads.check_cli(item, out)[0]


def test_without_the_package_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "table_orbits",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
