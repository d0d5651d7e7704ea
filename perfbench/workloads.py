"""The four workloads: fixed item sets, the calls each item makes, and the
checks each item's outputs must pass.

The item set of a workload never depends on the seed; the seed only
permutes the order and is passed to `maps-check`.  In-process items call
the package through a namespace of its public functions, so that the
traced run can swap in wrappers without touching the package.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import lo_dynamics  # noqa: E402
from lo_dynamics import analysis, barrier, cli, geometry, integrate, params, radial  # noqa: E402

if Path(lo_dynamics.__file__).resolve().parent != SRC / "lo_dynamics":
    raise ImportError(f"lo_dynamics comes from {lo_dynamics.__file__}, not from {SRC}")

import counts  # noqa: E402
import speed  # noqa: E402

WORKLOADS = ("table_orbits", "table_certificates", "spiral_density", "cli_headline")
TABLE = (31, 20)
DENSITY_TRIPLES = ((3, 2, 4), (3, 2, 10), (5, 4, 6), (5, 4, 14))
RADIUS_TRIPLES = ((3, 2, 2), (5, 4, 2))
RADII = (0.5, 1.0, 2.0)
CLI_TIMEOUT_S = 120
# exit codes the CLI docstring documents; any other code is a crash
DOCUMENTED_EXITS = {cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_INADMISSIBLE, cli.EXIT_BLOWUP,
                    cli.EXIT_BARRIER_FAILURE, cli.EXIT_WRONG_TYPE}
CSV_HEADERS = {"trajectory.csv": "t,phi,psi", "profile.csv": "r,rho,rho_r,rho_rr,residual"}
ORBIT_FILES = {"trajectory.csv", "profile.csv", "events.json", "phase.svg", "profile.svg"}

# public functions the in-process items call, by module
DIRECT_CALLS = {
    params: ("build_params", "enumerate_admissible"),
    integrate: ("shoot_unstable_manifold", "crossing_report"),
    radial: ("to_profile",),
    analysis: ("density_report", "theta_of_radius", "theta_infinity"),
    barrier: ("case1_check", "case2_check"),
    geometry: ("geometry_report",),
}


@dataclass
class Item:
    id: str
    kind: str  # orbit, certificate, density, radius or cli
    args: tuple  # an (n, p, k) triple, or the CLI argument list
    expected: dict = field(default_factory=dict)


def layer_functions() -> SimpleNamespace:
    return SimpleNamespace(**{name: getattr(mod, name)
                              for mod, names in DIRECT_CALLS.items() for name in names})


def triple_id(triple) -> str:
    return "-".join(map(str, triple))


def build_items(workload: str, seed: int, fns: SimpleNamespace | None = None,
                limit: int | None = None) -> list[Item]:
    """The workload's inputs in the order the seed gives; `limit` keeps the
    first items of the fixed order, for a reduced pass."""
    fns = fns or layer_functions()
    if workload in ("table_orbits", "table_certificates"):
        items = [_table_item(workload, p) for p in fns.enumerate_admissible(*TABLE)]
    elif workload == "spiral_density":
        items = [Item(f"radius-{triple_id(t)}", "radius", t,
                      {"theta_inf": fns.theta_infinity(fns.build_params(*t))})
                 for t in RADIUS_TRIPLES]
        items += [Item(f"density-{triple_id(t)}", "density", t,
                       {"theta_inf": fns.theta_infinity(fns.build_params(*t))})
                  for t in DENSITY_TRIPLES]
    elif workload == "cli_headline":
        items = _cli_items(seed, table_rows=len(fns.enumerate_admissible(*TABLE)))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    items = items[:limit]
    random.Random(seed).shuffle(items)
    return items


def _table_item(workload: str, p) -> Item:
    spiral = counts.is_spiral(p)
    if workload == "table_orbits":
        term = integrate.Termination.MAX_CROSSINGS if spiral else integrate.Termination.CONVERGED_TO_P1
        return Item(triple_id(p.triple()), "orbit", p.triple(),
                    {"term": term.value, "zero_recall": 1.0})
    return Item(triple_id(p.triple()), "certificate", p.triple(),
                {"passed": True, "agree_rel": 1e-12})


def _cli_items(seed: int, table_rows: int) -> list[Item]:
    """Cheapest commands first, so a reduced pass still mixes kinds."""
    def item(name, argv, files=(), **expected):
        return Item(name, "cli", tuple(argv),
                    {"exit": cli.EXIT_OK, "files": set(files), **expected})

    return [
        item("classify_sweep", ["classify", "--sweep", *map(str, TABLE)],
             stdout_lines=1 + table_rows),
        item("geometry", ["geometry", "3", "2", "2"], ["geometry.json"]),
        item("verify_typeI", ["verify", "3", "2", "2"], ["barrier.json"], last_line="PASS"),
        item("orbit_typeI", ["orbit", "3", "2", "2", "--formats", "json,csv,svg"], ORBIT_FILES),
        item("density_radii", ["density", "3", "2", "2", "--radii", "0.5,1,2"], ["density.json"]),
        item("maps_check", ["maps-check", "--samples", "100", "--seed", str(seed)],
             ["maps_check.json"]),
        item("verify_spiral", ["verify", "3", "2", "4"], ["barrier.json"], last_line="PASS"),
        item("orbit_spiral", ["orbit", "5", "4", "6", "--formats", "json,csv,svg"], ORBIT_FILES),
        item("density_spiral", ["density", "3", "2", "4"], ["density.json"]),
    ]


# ----------------------------------------------------------------------
# item runners: the timed calls; checks happen afterwards, untimed

def run_orbit(fns, item: Item) -> dict:
    p = fns.build_params(*item.args)
    traj = fns.shoot_unstable_manifold(p)
    report = fns.crossing_report(traj, p.phi0)
    profile = fns.to_profile(traj)
    fns.geometry_report(p)
    return {"traj": traj, "report": report, "profile": profile}


def run_certificate(fns, item: Item) -> dict:
    p = fns.build_params(*item.args)
    if counts.is_spiral(p):
        report = fns.case2_check(p)
    else:
        report = fns.case1_check(p)
    fns.geometry_report(p)
    return {"report": report}


def run_density(fns, item: Item) -> dict:
    p = fns.build_params(*item.args)
    traj = fns.shoot_unstable_manifold(p)
    return {"traj": traj, "report": fns.density_report(traj)}


def run_radius(fns, item: Item) -> dict:
    p = fns.build_params(*item.args)
    traj = fns.shoot_unstable_manifold(p)
    profile = fns.to_profile(traj)
    return {"traj": traj, "profile": profile,
            "thetas": [fns.theta_of_radius(profile, p, r) for r in RADII]}


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop(cli.CONFIG_ENV_VAR, None)  # a user's config file would change the work
    return env


def run_cli(item: Item, work_dir: Path, traced: bool = False) -> dict:
    """One command in a fresh interpreter and a fresh output directory,
    through `cli_shim.py`; its speed record, and with `traced` its spans,
    come back under "record"."""
    out_dir = Path(tempfile.mkdtemp(prefix=f"{item.id}-", dir=work_dir))
    record = work_dir / f"{item.id}.record.json"
    proc = subprocess.run([sys.executable, str(HERE / "cli_shim.py"), str(record),
                           str(int(traced)), *item.args, "--out-dir", str(out_dir)],
                          capture_output=True, text=True, env=cli_env(),
                          cwd=work_dir, timeout=CLI_TIMEOUT_S)
    try:
        with open(record, encoding="utf-8") as fh:
            rec = json.load(fh)
        record.unlink()
    except FileNotFoundError:  # the command died before the shim could write
        rec = {"samples": [speed.probe()], "cost": 0.0, "spans": []}
    return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "out_dir": out_dir, "record": rec}


# ----------------------------------------------------------------------
# checks: each returns (failure messages, counts for this item)

def check_orbit(item: Item, out: dict) -> tuple[list[str], dict]:
    traj, report, profile = out["traj"], out["report"], out["profile"]
    c = counts.shoot({}, traj)
    counts.merge(c, counts.events({"traj": traj}, report))
    counts.merge(c, counts.profile({}, profile))
    fails = []
    if traj.terminated_by.value != item.expected["term"]:
        fails.append(f"terminated_by={traj.terminated_by.value}, expected {item.expected['term']}")
    zeros, changes = c["integrate.psi_zeros"], c["integrate.psi_sign_changes"]
    recall = zeros / changes if changes else 1.0
    if recall != item.expected["zero_recall"]:
        fails.append(f"zero_recall={zeros}/{changes}, expected {item.expected['zero_recall']}")
    hit_t = [h.t for h in report.phi_hits]
    if any(b <= a for a, b in zip(hit_t, hit_t[1:])):
        fails.append("phi hit times do not strictly increase")
    if len(profile) != len(traj):
        fails.append(f"{len(profile)} profile samples for {len(traj)} states")
    return fails, c


def _relative_gap(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def check_certificate(item: Item, out: dict) -> tuple[list[str], dict]:
    report = out["report"]
    fails = []
    if report.passed is not item.expected["passed"]:
        fails.append(f"passed={report.passed}, expected {item.expected['passed']}")
    if isinstance(report, barrier.BarrierCase1Report):
        c = counts.case1({"grid_points": barrier.DEFAULT_GRID_POINTS}, report)
        if not report.grid_margin > 0.0:
            fails.append(f"grid margin {report.grid_margin!r} is not above 0")
        closed = (report.f0, report.g0, report.g_end)
        poly = barrier.case1_from_polynomial(report.params, report.c)
        gap = max(_relative_gap(a, b) for a, b in zip(closed, poly))
        if gap > item.expected["agree_rel"]:
            fails.append(f"closed forms and polynomial differ by {gap:.3g} relative")
    else:
        c = counts.case2({"grid_points": barrier.DEFAULT_GRID_POINTS,
                          "cycle_grid": barrier.DEFAULT_CYCLE_GRID}, report)
    return fails, c


def check_density(item: Item, out: dict) -> tuple[list[str], dict]:
    report = out["report"]
    c = counts.shoot({}, out["traj"])
    counts.merge(c, counts.density({"n_panels": analysis.DEFAULT_QUAD_PANELS}, report))
    fails = []
    th = report.thetas
    drops = sum(b < a for a, b in zip(th, th[1:]))
    if drops:
        fails.append(f"Theta_i decreases {drops} times")
    t_inf = item.expected["theta_inf"]
    above = sum(x >= t_inf for x in th)
    if above:
        fails.append(f"{above} of {len(th)} Theta_i not below Theta_inf "
                     f"(worst by {max(th) - t_inf:.3g})")
    return fails, c


def check_radius(item: Item, out: dict) -> tuple[list[str], dict]:
    th = out["thetas"]
    c = counts.shoot({}, out["traj"])
    counts.merge(c, counts.profile({}, out["profile"]))
    for theta in th:
        counts.merge(c, counts.theta_radius({"n_panels": analysis.DEFAULT_QUAD_PANELS}, theta))
    fails = []
    if any(b < a for a, b in zip(th, th[1:])):
        fails.append(f"Theta(R) decreases in R: {th}")
    if max(th) > item.expected["theta_inf"]:
        fails.append(f"Theta(R) exceeds Theta_inf by {max(th) - item.expected['theta_inf']:.3g}")
    return fails, c


def check_cli(item: Item, out: dict) -> tuple[list[str], dict]:
    exp = item.expected
    out_dir = out["out_dir"]
    files = {f.name: f for f in out_dir.iterdir()}
    c = {"cli.bytes_written": sum(f.stat().st_size for f in files.values()),
         "cli.exit_nonzero": int(out["exit"] != 0)}
    fails = []
    if out["exit"] != exp["exit"]:
        fails.append(f"exit {out['exit']}, expected {exp['exit']}: {out['stderr'].strip()[-300:]}")
    if set(files) != exp["files"]:
        fails.append(f"wrote {sorted(files)}, expected {sorted(exp['files'])}")
    for name, f in files.items():
        if name.endswith(".json"):
            try:
                json.loads(f.read_text(encoding="utf-8"))
            except ValueError as exc:
                fails.append(f"{name} does not parse: {exc}")
        elif name in CSV_HEADERS:
            with open(f, encoding="utf-8") as fh:
                header = fh.readline().strip()
            if header != CSV_HEADERS[name]:
                fails.append(f"{name} header {header!r}, expected {CSV_HEADERS[name]!r}")
    lines = out["stdout"].splitlines()
    if "last_line" in exp and (not lines or lines[-1] != exp["last_line"]):
        fails.append(f"last stdout line {lines[-1:]!r}, expected {exp['last_line']!r}")
    if "stdout_lines" in exp and len(lines) != exp["stdout_lines"]:
        fails.append(f"{len(lines)} stdout lines, expected {exp['stdout_lines']}")
    return fails, c


RUNNERS = {"orbit": run_orbit, "certificate": run_certificate,
           "density": run_density, "radius": run_radius}
CHECKS = {"orbit": check_orbit, "certificate": check_certificate,
          "density": check_density, "radius": check_radius, "cli": check_cli}


def crashed(item: Item, out: dict) -> bool:
    """True when a command died outside the CLI's documented exit codes."""
    return item.kind == "cli" and (out["exit"] not in DOCUMENTED_EXITS
                                   or "Traceback" in out["stderr"])
