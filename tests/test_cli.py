import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lo_dynamics
from lo_dynamics import analysis, barrier, build_params, enumerate_admissible, geometry
from lo_dynamics.cli import (
    EXIT_BARRIER_FAILURE,
    EXIT_BLOWUP,
    EXIT_INADMISSIBLE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_WRONG_TYPE,
    RunConfig,
    dumps_json,
    fmt17,
    load_config_file,
    main,
    write_csv,
    write_svg,
)
from lo_dynamics import crossing_report, detect_psi_zeros
from lo_dynamics.params import LomseParams, StabilityType
from lo_dynamics.radial import ode1_residual


def run(args):
    return main(args)


def test_classify_single(capsys):
    assert run(["classify", "3", "2", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "center(I)" in out
    assert "1.11803398875" in out


def test_classify_inadmissible_exit_code(capsys):
    assert run(["classify", "3", "2", "3"]) == EXIT_INADMISSIBLE


def test_classify_bad_domain_exit_code(capsys):
    assert run(["classify", "3", "4", "2"]) == EXIT_USAGE


def test_classify_sweep(capsys):
    assert run(["classify", "--sweep", "5", "4"]) == EXIT_OK
    lines = [l for l in capsys.readouterr().out.splitlines() if l and not l.startswith("  n")]
    assert len(lines) == 4


def test_classify_allow_inadmissible(capsys):
    assert run(["classify", "4", "2", "2", "--allow-inadmissible"]) == EXIT_OK
    assert "no" in capsys.readouterr().out


def test_orbit_type1_empty_zeros(tmp_path, capsys):
    assert run(["orbit", "3", "2", "2", "--out-dir", str(tmp_path)]) == EXIT_OK
    events = json.loads((tmp_path / "events.json").read_text())
    assert events["psi_zeros"] == []
    header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,phi,psi"
    header = (tmp_path / "profile.csv").read_text().splitlines()[0]
    assert header == "r,rho,rho_r,rho_rr,residual"


def test_orbit_type2_events(tmp_path):
    assert run(["orbit", "3", "2", "4", "--out-dir", str(tmp_path),
                "--target-phi", "1.3228757"]) == EXIT_OK
    events = json.loads((tmp_path / "events.json").read_text())
    assert len(events["psi_zeros"]) >= 10
    dirs = [z["direction"] for z in events["psi_zeros"]]
    assert all(a != b for a, b in zip(dirs, dirs[1:]))
    hits = events["phi_hits"]
    assert hits
    dils = [h["dilation"] for h in hits]
    assert dils == sorted(dils)


def test_orbit_profile_files_match_per_sample_code(tmp_path, traj324, to_profile_per_sample):
    # the files as they were written from a list of samples: one residual
    # per sample, the plot cut at the first sample past the 4th psi zero
    assert run(["orbit", "3", "2", "4", "--out-dir", str(tmp_path),
                "--formats", "csv,svg"]) == EXIT_OK
    params = traj324.params
    samples = to_profile_per_sample(traj324)
    ref = tmp_path / "ref"
    ref.mkdir()
    write_csv(ref / "profile.csv", ["r", "rho", "rho_r", "rho_rr", "residual"],
              ((s.r, s.rho, s.rho_r, s.rho_rr, ode1_residual(s, params)) for s in samples))
    t_cut = detect_psi_zeros(traj324)[3].t
    rs, rhos = [], []
    for s, t in zip(samples, traj324.t):
        if t > t_cut:
            break
        rs.append(s.r)
        rhos.append(s.rho)
    assert 1 < len(rs) < len(samples)
    write_svg(ref / "profile.svg",
              [(rs, rhos, "#1f77b4"), (rs, [params.phi0 * r for r in rs], "#d62728")])
    for name in ("profile.csv", "profile.svg"):
        assert (tmp_path / name).read_bytes() == (ref / name).read_bytes(), name


def test_orbit_svg(tmp_path):
    assert run(["orbit", "3", "2", "4", "--out-dir", str(tmp_path),
                "--formats", "svg"]) == EXIT_OK
    svg = (tmp_path / "phase.svg").read_text()
    assert svg.startswith("<svg") and "viewBox" in svg and "polyline" in svg
    assert (tmp_path / "profile.svg").exists()
    assert not (tmp_path / "trajectory.csv").exists()


def test_verify_type1(tmp_path, capsys):
    assert run(["verify", "3", "2", "2", "--out-dir", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out
    payload = json.loads((tmp_path / "barrier.json").read_text())
    assert payload["case"] == 1
    assert payload["f0"] == pytest.approx(1.0 / 12.0, abs=1e-12)


def test_verify_544(tmp_path, capsys):
    assert run(["verify", "5", "4", "4", "--out-dir", str(tmp_path)]) == EXIT_OK
    payload = json.loads((tmp_path / "barrier.json").read_text())
    assert payload["f0"] == pytest.approx(0.0, abs=1e-12)
    assert payload["g0"] == pytest.approx(5.0 / 7.0, abs=1e-12)


def test_verify_type2(tmp_path, capsys):
    assert run(["verify", "3", "2", "4", "--out-dir", str(tmp_path)]) == EXIT_OK
    payload = json.loads((tmp_path / "barrier.json").read_text())
    assert payload["case"] == 2
    assert payload["fs_min"] == pytest.approx(32.0 / 27.0, abs=1e-10)
    assert payload["cycle_margin"] < 0.0


def test_geometry_command(tmp_path, capsys):
    assert run(["geometry", "3", "2", "2", "--out-dir", str(tmp_path)]) == EXIT_OK
    payload = json.loads((tmp_path / "geometry.json").read_text())
    assert payload["cos_alpha"] == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert payload["slope_w"] == pytest.approx(9.0, abs=1e-12)


def test_density_wrong_type_exit(tmp_path):
    assert run(["density", "3", "2", "2", "--out-dir", str(tmp_path)]) == EXIT_WRONG_TYPE


def test_density_radius_sweep_type1(tmp_path, capsys):
    assert run(["density", "3", "2", "2", "--out-dir", str(tmp_path),
                "--radii", "0.5,1.0,2.0"]) == EXIT_OK
    payload = json.loads((tmp_path / "density.json").read_text())
    assert len(payload["thetas"]) == 3
    assert payload["thetas"] == sorted(payload["thetas"])


def test_verify_spiral_needs_unit_codimension(tmp_path, capsys):
    # (5,3,6) is a spiral triple with n - p = 2: outside the step-1 certificate's
    # domain, not of the wrong stability type
    assert run(["verify", "5", "3", "6", "--allow-inadmissible",
                "--out-dir", str(tmp_path)]) == EXIT_USAGE
    assert "requires n - p = 1" in capsys.readouterr().err


def test_density_546_resolves_every_gap(tmp_path, capsys):
    # Theta_1 of (5,4,6) lies 1.3e-19 below Theta_inf = 66.66, far below
    # one ulp of it: only the gaps resolve it
    assert run(["density", "5", "4", "6", "--out-dir", str(tmp_path)]) == EXIT_OK
    payload = json.loads((tmp_path / "density.json").read_text())
    assert payload["strictly_below_cone"] is True
    gaps, errors = payload["log10_gaps"], payload["log10_gap_errors"]
    assert len(gaps) == 28
    assert all(e < g for g, e in zip(gaps, errors))
    assert "resolved gaps = 28 of 28" in capsys.readouterr().out


def test_density_unresolved_exits_barrier_failure(tmp_path, capsys, monkeypatch):
    real = analysis.density_report

    def unresolved(traj):
        return dataclasses.replace(real(traj), strictly_below_cone=None)

    monkeypatch.setattr(analysis, "density_report", unresolved)
    argv = ["density", "3", "2", "4", "--max-crossings", "4", "--out-dir", str(tmp_path)]
    assert run(argv) == EXIT_BARRIER_FAILURE
    assert json.loads((tmp_path / "density.json").read_text())["strictly_below_cone"] is None
    assert "strictly_below_cone = None" in capsys.readouterr().out


@pytest.mark.parametrize("key", ["jobs", "abs_tol", "event_tol"])
def test_removed_knobs_are_usage_errors(key, tmp_path, capsys, monkeypatch):
    # geometry: classify reads no config file
    out = str(tmp_path / "out")
    assert run(["geometry", "3", "2", "2", "--" + key.replace("_", "-"), "2",
                "--out-dir", out]) == EXIT_USAGE
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 2\n")
    monkeypatch.setenv("LO_DYNAMICS_CONFIG", str(cfg))
    assert run(["geometry", "3", "2", "2", "--out-dir", out]) == EXIT_USAGE
    assert not (tmp_path / "out").exists()


def test_density_type2(tmp_path, capsys):
    assert run(["density", "3", "2", "4", "--out-dir", str(tmp_path),
                "--max-crossings", "12"]) == EXIT_OK
    payload = json.loads((tmp_path / "density.json").read_text())
    assert payload["strictly_below_cone"] is True
    assert payload["thetas"][0] < payload["theta_infinity"]


def test_maps_check(tmp_path, capsys):
    assert run(["maps-check", "--out-dir", str(tmp_path), "--samples", "20"]) == EXIT_OK
    payload = json.loads((tmp_path / "maps_check.json").read_text())
    assert payload["max_angle_sum_deviation"] < 1e-5
    assert payload["max_singular_value_deviation"] < 1e-6


def test_config_file_and_flag_precedence(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\neps_start = 1e-5\nmax_crossings = 6\nformats = json\n")
    out_a = tmp_path / "a"
    monkeypatch.setenv("LO_DYNAMICS_CONFIG", str(cfg))
    assert run(["orbit", "3", "2", "4", "--out-dir", str(out_a)]) == EXIT_OK
    events = json.loads((out_a / "events.json").read_text())
    assert len(events["psi_zeros"]) == 6
    assert not (out_a / "trajectory.csv").exists()
    # flags win over the config file
    out_b = tmp_path / "b"
    assert run(["orbit", "3", "2", "4", "--out-dir", str(out_b),
                "--max-crossings", "4"]) == EXIT_OK
    events = json.loads((out_b / "events.json").read_text())
    assert len(events["psi_zeros"]) == 4


def test_config_parser_grammar(tmp_path):
    cfg = tmp_path / "x.cfg"
    cfg.write_text("rel_tol = 1e-9  # inline comment\n\nseed=7\n")
    pairs = load_config_file(cfg)
    assert pairs == {"rel_tol": "1e-9", "seed": "7"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("not a pair\n")
    with pytest.raises(ValueError):
        load_config_file(bad)


def test_run_config_validation():
    cfg = RunConfig(formats=())
    with pytest.raises(ValueError):
        cfg.validate()
    cfg = RunConfig(formats=("bmp",))
    with pytest.raises(ValueError):
        cfg.validate()
    with pytest.raises(ValueError):
        RunConfig(rel_tol=0.0).validate()
    for bad in ("nan", "inf"):
        with pytest.raises(ValueError):
            RunConfig(eps_start=float(bad)).validate()


@pytest.mark.parametrize("argv, key", [
    (["maps-check", "--samples", "0"], "sample_count"),
    (["maps-check", "--samples=-3"], "sample_count"),
    (["orbit", "3", "2", "4", "--max-crossings", "0"], "max_crossings"),
    (["density", "3", "2", "4", "--max-crossings=-1"], "max_crossings"),
])
def test_counts_below_one_are_usage_errors(argv, key, tmp_path, capsys):
    # no sample would report deviation 0 and exit 0
    out = tmp_path / "out"
    assert run([*argv, "--out-dir", str(out)]) == EXIT_USAGE
    assert f"error: {key} must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_t_max_before_the_launch_names_t_max(tmp_path, capsys):
    # eps 2 launches at t = log 2 > 0.5, so the run would have one state
    out = tmp_path / "out"
    assert run(["orbit", "3", "2", "2", "--eps", "2", "--t-max", "0.5",
                "--out-dir", str(out)]) == EXIT_USAGE
    assert "error: t_max=0.5 must exceed the launch time" in capsys.readouterr().err
    assert not out.exists()


def test_step_size_underflow_exits_integration_failure(tmp_path, capsys):
    # no step meets an error test far below the rounding of the state
    assert run(["orbit", "3", "2", "2", "--rel-tol", "1e-300",
                "--out-dir", str(tmp_path)]) == EXIT_BLOWUP
    assert "step size underflow" in capsys.readouterr().err
    assert not (tmp_path / "events.json").exists()


def _log_uniform(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


# the (31, 20) table, plus any domain-valid triple run off-table
_TABLE = [p.triple() for p in enumerate_admissible(31, 20)]
_TRIPLES = st.one_of(
    st.sampled_from(_TABLE),
    st.integers(2, 31).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(1, n - 1), st.integers(2, 20))),
)


@settings(max_examples=60, deadline=None)
@given(triple=_TRIPLES,
       rel_tol=st.one_of(_log_uniform(-12.0, -3.0), st.just(1e-300)),
       eps=_log_uniform(-12.0, 3.0),
       t_max=_log_uniform(-2.0, 2.6),
       max_crossings=st.one_of(st.none(), st.integers(1, 60)))
def test_orbit_exits_with_a_documented_code(tmp_path_factory, triple, rel_tol, eps, t_max,
                                            max_crossings):
    # every run of the shooting loop ends in an exit code, never an exception:
    # 2 (t_max before the launch time leaves one sample, or --max-crossings
    # on a type-I triple), 4 (blowup for a large eps, step underflow for a
    # tiny rel_tol) and 0 are the ones seen
    out = tmp_path_factory.mktemp("orbit")
    crossings = [] if max_crossings is None else ["--max-crossings", str(max_crossings)]
    code = run(["orbit", *map(str, triple), "--allow-inadmissible",
                "--rel-tol", repr(rel_tol), "--eps", repr(eps), "--t-max", repr(t_max),
                *crossings, "--formats", "json", "--out-dir", str(out)])
    assert code in (0, 2, 3, 4, 5, 6)


# ----------------------------------------------------------------------
# verify, geometry, density and maps-check under random flags and config files

_JUNK = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "", "abc", "2.5", "1e400", ",json"])


def _one_in(n: int, rare, common):
    """rare about one time in n, common otherwise.  hypothesis draws the
    ends of a range, and the branches of one_of, more often than the rest,
    so rare sits in the middle."""
    return st.sampled_from(range(n)).flatmap(lambda i: rare if i == n // 2 else common)


def _usually(good):
    """A text from good, or one time in ten a junk one."""
    return _one_in(10, _JUNK, good)


# a value text for each config key but out_dir, which the flag always sets
_KEY_VALUES = {
    "rel_tol": _usually(st.one_of(_log_uniform(-12.0, -3.0), st.just(1e-300)).map(repr)),
    "conv_tol": _usually(_log_uniform(-12.0, 0.0).map(repr)),
    "eps_start": _usually(_log_uniform(-12.0, 3.0).map(repr)),
    "t_max": _usually(_log_uniform(-2.0, 2.6).map(repr)),
    "max_crossings": _usually(st.integers(1, 60).map(str)),
    "sample_count": _usually(st.integers(1, 40).map(str)),
    "seed": _usually(st.integers(0, 2 ** 40).map(str)),
    "formats": _usually(st.sampled_from(["json", "csv", "svg", "json,csv,svg"])),
}
assert set(_KEY_VALUES) == {f.name for f in dataclasses.fields(RunConfig)} - {"out_dir"}
_FOREIGN_KEYS = st.one_of(
    st.sampled_from(["grid_points", "cycle_grid", "quad_panels", "fd_step",
                     "jobs", "abs_tol", "event_tol"]),
    st.from_regex(r"[a-z][a-z_]{0,11}", fullmatch=True).filter(
        lambda k: k not in _KEY_VALUES and k != "out_dir"),
)
_KNOWN_LINE = st.sampled_from(sorted(_KEY_VALUES)).flatmap(
    lambda k: _KEY_VALUES[k].map(lambda v: f"{k} = {v}"))
# up to three known keys, and one time in eight a removed or unknown one
_CONFIG_LINES = st.tuples(
    st.lists(_KNOWN_LINE, max_size=3),
    _one_in(8, _FOREIGN_KEYS.map(lambda k: [f"{k} = 1"]), st.just([])),
).map(lambda parts: parts[0] + parts[1])

_SPIRALS = [p.triple() for p in enumerate_admissible(31, 20)
            if p.stability is StabilityType.SPIRAL_TYPE_II]
# radii inside and outside (0, inf), and at times no radius at all
_RADII = st.lists(st.one_of(st.sampled_from(["nan", "inf", "-inf", "0", "-0.5"]),
                            _log_uniform(-3.0, 4.0).map(repr)),
                  max_size=3).map(",".join)
# the flags for one stability type only, by the type they do not apply to
_WRONG_TYPE = {StabilityType.CENTER_TYPE_I: {"--max-crossings"},
               StabilityType.SPIRAL_TYPE_II: {"--conv-tol", "-c"}}
# (triples, the flags the command takes, flags it no longer takes)
_COMMANDS = {
    "verify": (_TRIPLES, {"-c": _usually(st.floats(0.05, 1.0).map(repr))},
               ["--grid-points=200", "--formats=json"]),
    "geometry": (_TRIPLES, {}, ["--formats=json"]),
    "density": (st.one_of(_TRIPLES, st.sampled_from(_SPIRALS)),
                {"--rel-tol": _KEY_VALUES["rel_tol"], "--conv-tol": _KEY_VALUES["conv_tol"],
                 "--eps": _KEY_VALUES["eps_start"], "--t-max": _KEY_VALUES["t_max"],
                 "--max-crossings": _KEY_VALUES["max_crossings"], "--radii": _RADII},
                ["--quad-panels=200", "--formats=csv"]),
    "maps-check": (None, {"--samples": _KEY_VALUES["sample_count"],
                          "--seed": _KEY_VALUES["seed"]}, ["--step=200", "--formats=json"]),
}


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(sorted(_COMMANDS)), data=st.data(), config=_CONFIG_LINES)
def test_commands_exit_with_a_documented_code(tmp_path_factory, command, data, config):
    # the command's flags (one time in eight also one it no longer takes,
    # or one for the other stability type) and a config file; every run
    # ends in an exit code, never an exception, and a run that exits 0
    # prints no nan or inf
    triples, flag_values, removed = _COMMANDS[command]
    out = tmp_path_factory.mktemp(command)
    argv = [command]
    wrong = set()
    if triples is not None:
        triple = data.draw(triples)
        wrong = _WRONG_TYPE[build_params(*triple, allow_inadmissible=True).stability]
        argv += [*map(str, triple), *data.draw(st.sampled_from([[], ["--allow-inadmissible"]]))]
    flags = data.draw(st.fixed_dictionaries(
        {}, optional={f: v for f, v in flag_values.items() if f not in wrong}))
    argv += [f"{flag}={value}" for flag, value in flags.items()]
    rare = removed + [f"{flag}=1" for flag in sorted(wrong & flag_values.keys())]
    argv += data.draw(_one_in(8, st.sampled_from(rare).map(lambda f: [f]), st.just([])))
    cfg = out / "run.cfg"
    cfg.write_text("".join(f"{line}\n" for line in config))
    stdout, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        code = run([*argv, "--config", str(cfg), "--out-dir", str(out / "out")])
    assert code in (0, 2, 3, 4, 5, 6)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_USAGE:
        assert err.getvalue()
    if code == EXIT_OK:
        assert not re.search(r"\b(nan|inf)\b", stdout.getvalue()), stdout.getvalue()


@settings(max_examples=60, deadline=None)
@given(triple=st.sampled_from(_TABLE), radii=_RADII)
@example(triple=(3, 2, 2), radii="nan,1")  # printed Theta(nan) and exited 0
def test_radii_sweep_prints_finite_densities(tmp_path_factory, triple, radii):
    # the Theta(R) sweep alone, which the fuzz above seldom reaches: it
    # prints finite densities or exits 2 naming radii
    out = tmp_path_factory.mktemp("radii")
    stdout, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        code = run(["density", *map(str, triple), f"--radii={radii}", "--out-dir", str(out)])
    if code == EXIT_OK:
        assert not re.search(r"\b(nan|inf)\b", stdout.getvalue()), stdout.getvalue()
    else:
        assert code == EXIT_USAGE
        assert "error: radii" in err.getvalue()
        assert not any(out.iterdir())


def test_write_csv_matches_csv_writer(tmp_path):
    # the former route: csv.writer over fmt17 strings, the reference bytes
    import csv

    rows = [(1.0 / 3.0, -0.0, 1e-300), (5e-324, -1.7976931348623157e308, 7.0),
            (float("inf"), float("-inf"), float("nan")), (0.1, 2.0 ** 60, -123.456)]
    header = ["a", "b", "c"]
    write_csv(tmp_path / "new.csv", header, iter(rows))
    with open(tmp_path / "ref.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([fmt17(v) for v in row] for row in rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_fmt17_round_trip():
    for x in [1.0 / 3.0, 1.3228756555322954, 1e-300, 7.0]:
        assert float(fmt17(x)) == x


def _as_json(obj):
    """obj as dumps_json writes it: a dataclass as its fields, LomseParams
    as {n, p, k}, a tuple as a list."""
    if isinstance(obj, LomseParams):
        return {"n": obj.n, "p": obj.p, "k": obj.k}
    if dataclasses.is_dataclass(obj):
        return {f.name: _as_json(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [_as_json(v) for v in obj]
    return obj


def test_json_report_round_trips(p322, p324, traj324):
    # every float comes back bit for bit from its 17 digits
    reports = [
        crossing_report(traj324),
        barrier.case1_check(p322, grid_points=200),
        barrier.case2_check(p324, grid_points=200, cycle_grid=(40, 40)),
        geometry.geometry_report(p322),
        analysis.dirichlet_solutions(traj324, p324.phi0),
        analysis.density_report(traj324, n_panels=1024),
    ]
    for rep in reports:
        assert json.loads(dumps_json(rep)) == _as_json(rep), type(rep).__name__


def test_json_key_order(tmp_path):
    assert run(["orbit", "3", "2", "2", "--out-dir", str(tmp_path), "--formats", "json"]) == EXIT_OK
    events = json.loads((tmp_path / "events.json").read_text())
    assert list(events) == ["target", "psi_zeros", "phi_hits"]
    for triple in (["3", "2", "2"], ["3", "2", "4"]):
        assert run(["verify", *triple, "--out-dir", str(tmp_path)]) == EXIT_OK
        barrier_json = json.loads((tmp_path / "barrier.json").read_text())
        assert list(barrier_json)[:2] == ["params", "case"]


def test_determinism_same_bytes(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert run(["orbit", "3", "2", "4", "--out-dir", str(out),
                    "--formats", "json,csv,svg"]) == EXIT_OK
    for name in ["events.json", "trajectory.csv", "profile.csv", "phase.svg"]:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def _run_module(*args):
    """`python -m lo_dynamics ARGS` in a child that imports the package this
    process imported, installed or not."""
    pkg_root = str(Path(lo_dynamics.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "lo_dynamics", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_module_entry_point():
    proc = _run_module("classify", "3", "2", "2")
    assert proc.returncode == 0
    assert "center(I)" in proc.stdout


def test_usage_exit_code():
    proc = _run_module("no-such-command")
    assert proc.returncode == EXIT_USAGE
