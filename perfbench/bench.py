"""Measure one workload: set-up, passes over its items, checks, metrics.

A run is a closed loop with one client: items run one at a time, each
after the previous one returned.  The timed run (`trace=False`) repeats
untraced passes; the traced run alternates untraced and traced passes, so
that it can report the tracing overhead next to the per-layer numbers.

Every time reported is at nominal machine speed (see speed.py): a timer
samples the machine's speed throughout each pass and each set-up, and their
times are scaled by what it measured there.  The raw wall times are kept in
the full result.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import counts
import speed
import workloads
from spans import ANALYSIS_IMPORTS, Tracer, self_times

WORK_DIR = workloads.ROOT / ".perfbench"
SETUP_RUNS = 7
LAYERS = ("params", "integrate", "radial", "analysis", "barrier", "geometry", "hopf", "cli")
CLI_COMMANDS = ("classify_sweep", "orbit_typeI", "orbit_spiral", "verify_typeI", "verify_spiral",
                "geometry", "density_spiral", "density_radii", "maps_check")
# span names whose durations add up to a per-layer time
TIMES = {
    "integrate.shoot_s": ("integrate.shoot_unstable_manifold",),
    "integrate.events_s": ("integrate.crossing_report", "integrate.detect_psi_zeros",
                           "integrate.detect_phi_hits"),
    "radial.profile_s": ("radial.to_profile",),
    "analysis.density_s": ("analysis.density_report",),
    "analysis.theta_radius_s": ("analysis.theta_of_radius",),
    "barrier.case1_s": ("barrier.case1_check",),
    "barrier.case2_s": ("barrier.case2_check",),
    "geometry.report_s": ("geometry.geometry_report",),
}
COUNTS = ("integrate.accepted_steps", "integrate.accepted_steps_spiral", "integrate.psi_zeros",
          "integrate.psi_sign_changes", "integrate.phi_hits", "integrate.term.converged_to_p1",
          "integrate.term.max_crossings", "integrate.term.max_time", "radial.samples",
          "analysis.thetas", "analysis.quad_points", "analysis.theta_above_cone",
          "analysis.theta_gap_min", "barrier.grid_points", "barrier.grid_margin_min",
          "cli.bytes_written", "cli.exit_nonzero")
# unit by name suffix, first match wins; names outside these are counts
SUFFIX_UNITS = (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("_frac", "ratio"))
UNITS = {"integrate.zero_recall": "ratio", "analysis.theta_gap_min": "density",
         "barrier.grid_margin_min": "slope", "cli.bytes_written": "bytes"}


@dataclass
class Pass:
    traced: bool
    latencies: dict[str, float] = field(default_factory=dict)  # item id -> raw s
    factors: dict[str, float] = field(default_factory=dict)  # item id -> nominal s per raw s
    samples: int = 0  # speed samples behind the factors
    bounds: dict[str, tuple] = field(default_factory=dict)  # item id -> (start, end)
    counts: dict = field(default_factory=dict)  # item id -> counts
    failures: dict[str, list[str]] = field(default_factory=dict)  # item id -> why

    def nominal(self) -> dict[str, float]:
        """Item latencies at nominal speed."""
        return {i: t * self.factors.get(i, 1.0) for i, t in self.latencies.items()}

    @property
    def wall(self) -> float:
        """Nominal seconds spent inside the items; checks between items are untimed."""
        return sum(self.nominal().values())


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return next((unit for suffix, unit in SUFFIX_UNITS if name.endswith(suffix)), "count")


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metadata(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
        with open("/proc/loadavg", encoding="utf-8") as fh:
            load = [float(v) for v in fh.read().split()[:3]]
    except OSError:
        load = list(os.getloadavg())
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "nproc": os.cpu_count(), "cpu_model": cpu,
            "loadavg_start": load, "seed": seed}


def git_sha() -> str:
    """HEAD of the repository the benchmark sits in, or "unknown" outside one."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=workloads.ROOT, capture_output=True, text=True,
                             timeout=10, check=True).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    top, sha = out
    return sha if Path(top).resolve() == workloads.ROOT else "unknown"


def time_setup(workload: str, seed: int) -> float:
    """Nominal seconds from starting a fresh interpreter to import done and
    inputs built, including the interpreter's own start and exit."""
    path = WORK_DIR / f"setup-{os.getpid()}.json"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(workloads.HERE / "probe.py"), str(path), workload,
                    str(seed)], check=True, timeout=120, stdout=subprocess.DEVNULL)
    elapsed = time.perf_counter() - t0
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    finally:
        path.unlink(missing_ok=True)
    return (elapsed - record["cost"]) * speed.factor_of(record)


class Runner:
    """The state of one run: items, layer functions, tracer and passes."""

    def __init__(self, workload: str, seed: int, trace: bool, limit: int | None, work_dir: Path):
        self.tracer = Tracer()
        self.fns = workloads.layer_functions()
        self.work_dir = work_dir
        self.passes: list[Pass] = []
        self.crashes: list[str] = []
        self.in_process = workload != "cli_headline"
        self.tracer.item = "setup"
        with self.traced(trace), speed.Sampler() as sampler:
            self.items = workloads.build_items(workload, seed, self.fns, limit)
        self.setup_factor = sampler.factor()

    @contextlib.contextmanager
    def traced(self, on: bool):
        """While `on`, route the layer calls through traced wrappers."""
        saved = []
        if on:
            saved = self.tracer.patch(self.fns, list(vars(self.fns)), counts.HOOKS)
            saved += self.tracer.patch(workloads.analysis, ANALYSIS_IMPORTS, {})
        try:
            yield
        finally:
            Tracer.unpatch(saved)

    def execute(self, item, traced: bool) -> dict:
        if item.kind == "cli":
            out = workloads.run_cli(item, self.work_dir, traced)
            if traced:
                self.tracer.adopt(out["record"]["spans"])
            return out
        return workloads.RUNNERS[item.kind](self.fns, item)

    def warm_up(self) -> None:
        """One untimed item, the same for every seed, so that lazy set-up
        and caches do not land in a pass."""
        if self.in_process and self.items:
            self.execute(min(self.items, key=lambda i: i.id), traced=False)

    def run_pass(self, traced: bool) -> Pass:
        """In-process items share one speed sampler over the pass and take
        their factor from the samples around them; each CLI command samples
        itself, and the parent, which only waits, does not."""
        p = Pass(traced)
        self.tracer.pass_no = len(self.passes)
        sampler = speed.Sampler()
        with self.traced(traced):
            if self.in_process:
                with sampler:
                    for item in self.items:
                        self.run_item(item, p, traced, sampler)
                p.factors = {i: sampler.local_factor(*p.bounds[i]) for i in p.latencies}
                p.samples = len(sampler.samples)
            else:
                for item in self.items:
                    self.run_item(item, p, traced, sampler)
        self.passes.append(p)
        return p

    def run_item(self, item, p: Pass, traced: bool, sampler: speed.Sampler) -> None:
        self.tracer.item = item.id
        span = self.tracer.begin("bench.item") if traced else None
        cost, t0 = sampler.cost, time.perf_counter()
        try:
            out = self.execute(item, traced)
        except Exception as exc:  # an item that raises fails; the run goes on
            p.failures[item.id] = [f"raised {type(exc).__name__}: {exc}"]
            self.crashes.append(f"{item.id}: {traceback.format_exc(limit=3)}")
            return
        finally:
            t1 = time.perf_counter()
            p.bounds[item.id] = (t0, t1)
            p.latencies[item.id] = t1 - t0 - (sampler.cost - cost)
            if span:
                self.tracer.end(span)
        fails, item_counts = workloads.CHECKS[item.kind](item, out)
        if item.kind == "cli":
            record = out["record"]
            p.latencies[item.id] -= record["cost"]
            p.factors[item.id] = speed.factor_of(record)
            p.samples += len(record["samples"])
            if workloads.crashed(item, out):
                self.crashes.append(f"{item.id}: exit {out['exit']}: {out['stderr'][-500:]}")
            shutil.rmtree(out["out_dir"])
            if span:
                span.counts = item_counts  # seen here, not by any layer span
        p.counts[item.id] = item_counts
        if fails:
            p.failures[item.id] = fails

    def factor(self, pass_no: int, item: str) -> float:
        """Nominal seconds per raw second for a span of this pass and item,
        or of the set-up for pass -1."""
        return self.passes[pass_no].factors[item] if pass_no >= 0 else self.setup_factor

    def nondeterministic(self) -> list[str]:
        """Items whose counts differ between passes."""
        first = self.passes[0].counts
        return sorted({i for p in self.passes[1:] for i, c in p.counts.items()
                       if first.get(i) != c})


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, inclusive method, as statistics.quantiles gives it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median_or_0(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(runner: Runner, setup: list[float]) -> dict:
    wall = statistics.median(p.wall for p in runner.passes)
    lat = [v for p in runner.passes for v in p.nominal().values()]
    who = resource.RUSAGE_SELF if runner.in_process else resource.RUSAGE_CHILDREN
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "items_per_s": len(runner.items) / wall,
        "item_p50_ms": statistics.median(lat) * 1e3,
        "item_p95_ms": percentile(lat, 95) * 1e3,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }


def per_layer(runner: Runner) -> dict:
    traced = [i for i, p in enumerate(runner.passes) if p.traced]
    plain = [p for p in runner.passes if not p.traced]
    spans = [s for s in runner.tracer.spans if s.pass_no in traced or s.pass_no < 0]
    by_pass = {i: [s for s in spans if s.pass_no == i] for i in traced}

    def duration(s) -> float:
        return s.duration * runner.factor(s.pass_no, s.item)

    def median_over_passes(fn) -> float:
        return statistics.median(fn(by_pass[i]) for i in traced)

    def total(names, tag=None):
        return lambda ss: sum(duration(s) for s in ss
                              if s.name in names and (tag is None or tag in s.counts))

    def durations(name):
        return [duration(s) for s in spans if s.name == name]

    m = {name: median_over_passes(total(names)) for name, names in TIMES.items()}
    shoot = TIMES["integrate.shoot_s"]
    m["integrate.shoot_typeI_s"] = median_over_passes(total(shoot, "integrate.shoots_typeI"))
    m["integrate.shoot_spiral_s"] = median_over_passes(total(shoot, "integrate.shoots_spiral"))
    c: dict = {}
    for s in by_pass[traced[0]]:
        counts.merge(c, s.counts)
    m.update({name: c.get(name, 0) for name in COUNTS})
    m["integrate.steps_per_s"] = ratio(c.get("integrate.accepted_steps", 0), m["integrate.shoot_s"])
    m["integrate.zero_recall"] = ratio(c.get("integrate.psi_zeros", 0),
                                       c.get("integrate.psi_sign_changes", 0))
    m["analysis.density_p50_ms"] = median_or_0(durations("analysis.density_report")) * 1e3
    m["barrier.case1_p50_ms"] = median_or_0(durations("barrier.case1_check")) * 1e3
    m["barrier.case2_p50_ms"] = median_or_0(durations("barrier.case2_check")) * 1e3
    m["barrier.grid_points_per_s"] = ratio(c.get("barrier.grid_points", 0),
                                           m["barrier.case1_s"] + m["barrier.case2_s"])
    m["params.enumerate_ms"] = median_or_0(durations("params.enumerate_admissible")) * 1e3
    m["params.build_calls"] = sum(s.name == "params.build_params" for s in by_pass[traced[0]])
    for layer in LAYERS:
        # the import of the package is cli.import_s, not CLI work
        m[f"{layer}.self_s"] = median_over_passes(
            lambda ss: self_times([s for s in ss if s.name != "cli.import"], duration)
            .get(layer, 0.0))
    m["cli.import_s"] = median_or_0(durations("cli.import"))
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = median_or_0(p.nominal()[cmd] for p in plain if cmd in p.latencies)
    m["trace.overhead_frac"] = (statistics.median(runner.passes[i].wall for i in traced)
                                / statistics.median(p.wall for p in plain) - 1.0)
    return m


def run(workload: str, seed: int, seconds: float, trace: bool,
        limit: int | None = None, setup_runs: int = SETUP_RUNS) -> dict:
    """One benchmark run.  Returns the result object, the metadata, the
    counts and failures of the first pass, per-pass timings and the spans."""
    if workload not in workloads.WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {workloads.WORKLOADS}")
    meta = metadata(seed)
    WORK_DIR.mkdir(exist_ok=True)
    setup = [time_setup(workload, seed) for _ in range(setup_runs)]
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR))
    try:
        runner = Runner(workload, seed, trace, limit, work_dir)
        runner.warm_up()
        start = time.perf_counter()
        # the traced run alternates plain and traced passes and ends on a traced one
        while True:
            runner.run_pass(traced=trace and len(runner.passes) % 2 == 1)
            done = time.perf_counter() - start >= seconds
            if done and (not trace or len(runner.passes) % 2 == 0):
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    nondet = runner.nondeterministic()
    attempted = sum(len(p.latencies) for p in runner.passes)
    failed = sum(len(p.failures) for p in runner.passes)
    metrics = per_layer(runner) if trace else end_to_end(runner, setup)
    meta.update(passes=len(runner.passes), items_per_pass=len(runner.items),
                setup_runs=setup_runs, trace=trace)
    first_counts: dict = {}
    for c in runner.passes[0].counts.values():
        counts.merge(first_counts, c)
    return {
        "result": {
            "correct": not runner.crashes and not nondet,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        },
        "meta": meta,
        "fail_frac": failed / attempted,
        "counts": dict(sorted(first_counts.items())),
        "failures": runner.passes[0].failures,
        "crashes": runner.crashes,
        "nondeterministic": nondet,
        "setup_s": setup,
        "passes": [{"traced": p.traced, "wall_s": p.wall, "raw_wall_s": sum(p.latencies.values()),
                    "samples": p.samples, "raw_latencies_s": p.latencies, "factors": p.factors}
                   for p in runner.passes],
        "spans": runner.tracer.to_json() if trace else [],
    }


def report_lines(workload: str, out: dict) -> list[str]:
    """The run in human-readable form: metadata, every metric with its
    unit, fail_frac, counts of one pass and the failing items."""
    res, meta = out["result"], out["meta"]
    raw = statistics.median(p["raw_wall_s"] for p in out["passes"])
    lines = [f"perfbench {workload}: seed {meta['seed']}, {meta['passes']} passes of "
             f"{meta['items_per_pass']} items, trace {int(meta['trace'])}; "
             f"times at nominal speed (median raw pass wall {raw:.4g} s)",
             "meta " + json.dumps(meta)]
    for name, m in res["metrics"].items():
        lines.append(f"  {name:<34} {m['value']:<24.10g} {m['unit']}")
    lines.append(f"  {'fail_frac':<34} {out['fail_frac']:<24.10g} ratio "
                 f"({res['failed']} of {res['attempted']} item runs)")
    lines.append("counts in one pass:")
    lines += [f"  {name:<34} {value}" for name, value in out["counts"].items()]
    if out["failures"]:
        lines.append(f"failing items ({len(out['failures'])} in the first pass):")
        lines += [f"  {item}: {'; '.join(why)}" for item, why in sorted(out["failures"].items())]
    for crash in out["crashes"]:
        lines.append(f"CRASH {crash}")
    if out["nondeterministic"]:
        lines.append(f"NONDETERMINISTIC counts between passes: {out['nondeterministic']}")
    return lines
