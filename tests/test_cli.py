import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lo_dynamics
from lo_dynamics import (analysis, barrier, build_params, enumerate_admissible, geometry, hopf,
                         stability_discriminant)
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
from lo_dynamics import crossing_report, detect_psi_zeros, shoot_unstable_manifold
from lo_dynamics.params import LomseParams, StabilityType
from lo_dynamics.radial import ode1_residual, to_profile
from oracles import HOPF_ROUNDING, simpson_theta, to_profile_per_sample


def run(args):
    return main(args)


def test_classify_single(capsys):
    assert run(["classify", "3", "2", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "center(I)" in out
    assert "1.11803398875" in out


def test_classify_inadmissible_exit_code(capsys):
    assert run(["classify", "3", "2", "3"]) == EXIT_INADMISSIBLE


def test_inadmissible_triple_error_names_the_flag(capsys):
    # a CLI user needs the flag, a library caller the keyword: both are named
    assert run(["classify", "3", "2", "3"]) == EXIT_INADMISSIBLE
    out, err = capsys.readouterr()
    assert out == "" and "--allow-inadmissible" in err and "allow_inadmissible=True" in err


def test_classify_bad_domain_exit_code(capsys):
    assert run(["classify", "3", "4", "2"]) == EXIT_USAGE


def test_classify_sweep(capsys):
    assert run(["classify", "--sweep", "5", "4"]) == EXIT_OK
    lines = [l for l in capsys.readouterr().out.splitlines() if l and not l.startswith("  n")]
    assert len(lines) == 4


def test_classify_with_a_triple_and_sweep_is_usage_error(capsys):
    assert run(["classify", "3", "2", "2", "--sweep", "31", "20"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("triple", [["3"], ["3", "2"]])
def test_classify_partial_triple_is_usage_error(triple, capsys):
    assert run(["classify", *triple]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: classify: provide n p k or --sweep N_MAX K_MAX\n"


def test_classify_allow_inadmissible(capsys):
    assert run(["classify", "4", "2", "2", "--allow-inadmissible"]) == EXIT_OK
    assert "no" in capsys.readouterr().out


# each command that writes files, with a cheap argument list
_WRITERS = [["orbit", "3", "2", "2", "--formats", "csv"], ["verify", "3", "2", "2"],
            ["geometry", "3", "2", "2"], ["density", "3", "2", "2", "--radii", "1"],
            ["maps-check", "--samples", "2"]]


@pytest.mark.parametrize("argv, out, message", [
    (["classify", "--config", "F"], "out", "unrecognized arguments: --config"),
    (["classify", "x", "2", "2"], "out", "argument n: invalid int value: 'x'"),
    (["classify", "3", "2", "2.0"], "out", "argument k: invalid int value: '2.0'"),
    *((["orbit", "3", "2", "4", f"--target-phi={target}"], "out",
       "target must be positive and finite") for target in ("nan", "inf", "-inf", "0", "-1")),
    *((argv, out, f"out_dir {out!r} is not a usable directory")
      for argv in _WRITERS for out in ("afile", "afile/sub")),
    *(([*argv, "--config", "missing.cfg"], "out",
       "config file 'missing.cfg' cannot be read: No such file or directory")
      for argv in (["orbit", "3", "2", "2"], ["geometry", "3", "2", "2"])),
    (["orbit", "3", "2", "2", "--config", "."], "out",
     "config file '.' cannot be read: Is a directory"),
    (["maps-check", "--config", "bad.cfg"], "out", "config file 'bad.cfg' is not UTF-8 text"),
    (["maps-check", "--seed=-1"], "out", "seed must be at least 0"),
])
def test_usage_errors_name_the_argument(argv, out, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("afile").write_text("kept\n")
    Path("bad.cfg").write_bytes(b"seed = \xff\n")
    assert run([*argv, "--out-dir", out]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert sorted(os.listdir()) == ["afile", "bad.cfg"] and Path("afile").read_text() == "kept\n"


def test_unreadable_config_from_the_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("LO_DYNAMICS_CONFIG", "missing.cfg")
    assert run(["geometry", "3", "2", "2", "--out-dir", "out"]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: config file 'missing.cfg' cannot be read: No such file or directory\n")
    assert os.listdir() == []


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


def test_orbit_profile_files_match_per_sample_code(tmp_path, traj324):
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
    assert max(payload["thetas"]) < payload["theta_infinity"]
    assert capsys.readouterr().err == ""


def _sweep_values(stdout):
    """The printed Theta(R) values and Theta_infinity of a --radii sweep."""
    values = [float(v) for v in re.findall(r"^Theta\S* = (\S+)$", stdout, re.M)]
    return values[:-1], values[-1]


@pytest.mark.parametrize("argv, resolved", [(["3", "2", "4", "--radii", "1e10,1e20,1e40"], 0),
                                            (["31", "30", "2", "--radii", "1e5,1e9"], 1)])
def test_radii_near_the_cone_density_match_the_oracle(argv, resolved, tmp_path, capsys):
    # Theta(R) rises to Theta_inf.  Past (3,2,4)'s splice and at (31,30,2)'s
    # R = 1e9, near its run's end, the true gap lies within rounding of
    # Theta_inf; at R = 1e5 it is 6.2e-9 of it, and that value is resolved.
    # Each value agrees with the 524 288-panel Simpson oracle to 1e-13
    # (measured: at most 3.2e-14). A value not below Theta_inf is printed
    # and written as any other, and named on stderr with exit 5
    code = run(["density", *argv, "--out-dir", str(tmp_path)])
    out, err = capsys.readouterr()
    payload = json.loads((tmp_path / "density.json").read_text())
    thetas, t_inf = _sweep_values(out)
    assert thetas == payload["thetas"] and t_inf == payload["theta_infinity"]
    params = build_params(*map(int, argv[:3]))
    profile = to_profile(shoot_unstable_manifold(params))
    radii = [float(r) for r in argv[-1].split(",")]
    for R, th in zip(radii, thetas):
        assert abs(th / simpson_theta(profile, params, R, 524288) - 1.0) < 1e-13, R
    assert all(th < t_inf for th in thetas[:resolved])
    above = [fmt17(R) for R, th in zip(radii, thetas) if not th < t_inf]
    if above:
        assert code == EXIT_BARRIER_FAILURE
        assert err == f"unresolved: Theta(R) not below Theta_infinity at R = {', '.join(above)}\n"
    else:
        assert code == EXIT_OK and err == ""


def test_radii_past_the_splice_are_below_the_cone_or_exit_5(spirals, tmp_path, capsys):
    # on every spiral triple, radii past the splice either print Theta(R)
    # below Theta_inf or exit 5 naming the others
    for triple, traj in spirals.items():
        s, phi0 = traj.splice_index, traj.params.phi0
        t = np.linspace(traj.t[s], traj.t_end, 4)[1:-1]
        radii = ",".join(repr(float(r)) for r in np.exp(t) * np.hypot(1.0, phi0))
        code = run(["density", *map(str, triple), "--radii", radii, "--out-dir", str(tmp_path)])
        out, err = capsys.readouterr()
        thetas, t_inf = _sweep_values(out)
        above = [fmt17(float(r)) for r, th in zip(radii.split(","), thetas) if not th < t_inf]
        if above:
            assert code == EXIT_BARRIER_FAILURE, triple
            assert err == f"unresolved: Theta(R) not below Theta_infinity at R = {', '.join(above)}\n"
        else:
            assert code == EXIT_OK and err == "", triple


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
    assert len(gaps) == 29
    assert all(e < g for g, e in zip(gaps, errors))
    assert "resolved gaps = 29 of 29" in capsys.readouterr().out


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
    assert payload["max_angle_sum_deviation"] < HOPF_ROUNDING
    assert payload["max_singular_value_deviation"] < HOPF_ROUNDING
    assert "fd_step" not in payload


def test_maps_check_reports_condition_b_check(tmp_path, capsys):
    assert run(["maps-check", "--out-dir", str(tmp_path), "--samples", "100",
                "--seed", "3"]) == EXIT_OK
    payload = json.loads((tmp_path / "maps_check.json").read_text())
    sv_dev, sum_dev = hopf.condition_b_check(build_params(3, 2, 2), 100, seed=3)
    assert payload["max_singular_value_deviation"] == sv_dev
    assert payload["max_angle_sum_deviation"] == sum_dev


def test_samples_above_the_bound_are_usage_errors(tmp_path, capsys, monkeypatch):
    # checked before the first point: without the bound, maps-check would
    # run until it is killed
    params = build_params(3, 2, 2)
    with monkeypatch.context() as m:  # the bound itself passes, over no point
        m.setattr(hopf, "random_sphere_points", lambda dim, count, seed: iter(()))
        assert hopf.condition_b_check(params, hopf.MAX_SAMPLE_COUNT) == (0.0, 0.0)
    with pytest.raises(ValueError, match="sample_count must be at most 10000000"):
        hopf.condition_b_check(params, hopf.MAX_SAMPLE_COUNT + 1)
    out = tmp_path / "out"
    assert run(["maps-check", "--samples", "100000000000000000000",
                "--out-dir", str(out)]) == EXIT_USAGE
    assert "error: sample_count must be at most 10000000" in capsys.readouterr().err
    assert not out.exists()


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
    # the shoot settings are checked where they are taken
    params = build_params(3, 2, 2)
    with pytest.raises(ValueError, match="rel_tol must be positive and finite"):
        shoot_unstable_manifold(params, rel_tol=0.0)
    for bad in ("nan", "inf"):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            shoot_unstable_manifold(params, eps=float(bad))


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


@pytest.mark.parametrize("argv, message", [
    *((["orbit", "3", "2", "2", flag, value], message)
      for flag, value, message in (
          ("--rel-tol", "nan", "rel_tol must be positive and finite, got nan"),
          ("--rel-tol", "0", "rel_tol must be positive and finite, got 0.0"),
          ("--eps", "inf", "eps must be positive and finite, got inf"),
          ("--t-max", "inf", "t_max must be positive and finite, got inf"))),
    (["density", "3", "2", "4", "--t-max", "-1"], "t_max must be positive and finite"),
])
def test_bad_shoot_settings_are_usage_errors(argv, message, tmp_path, capsys):
    # shoot_unstable_manifold checks them before the first step and the
    # command writes nothing
    out = tmp_path / "out"
    assert run([*argv, "--out-dir", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not out.exists()


def test_an_inadmissible_triple_outranks_a_bad_setting(tmp_path, capsys):
    # the triple is built before a library function checks the setting
    out = tmp_path / "out"
    assert run(["orbit", "4", "2", "2", "--rel-tol", "nan", "--out-dir", str(out)]) \
        == EXIT_INADMISSIBLE
    assert not out.exists()


def test_t_max_before_the_launch_names_t_max(tmp_path, capsys):
    # eps 2 launches at t = log 2 > 0.5, so the run would have one state
    out = tmp_path / "out"
    assert run(["orbit", "3", "2", "2", "--eps", "2", "--t-max", "0.5",
                "--out-dir", str(out)]) == EXIT_USAGE
    assert "error: t_max=0.5 must exceed the launch time" in capsys.readouterr().err
    assert not out.exists()


_K_400 = str(10 ** 400)


@pytest.mark.parametrize("argv, named", [
    *((["verify", "3", "2", "2", "-c", c], f"(3,2,2) with c={c} leaves the float range")
      for c in ("1e-160", "1e-300", "5e-324")),
    *(([command, "31", "30", _K_400], f"(31,30,{_K_400}): lambda^2")
      for command in ("classify", "geometry", "verify")),
    (["verify", "3", "2", str(10 ** 154)], f"(3,2,{10 ** 154}) leaves the float range"),
    (["geometry", "31", "30", "100000000000"], "cos_alpha of (31,30,100000000000)"),
    *(([command, *triple, "--eps", "1e-16"], "eps=1e-16 is below the resolution of phi0")
      for command, triple in (("orbit", ("3", "2", "4")), ("orbit", ("3", "2", "2")),
                              ("density", ("3", "2", "4")))),
    # lambda^4 in f1' overflows in the step-1 slope sweep; the reduced form
    # printed PASS here, its min() passing over a nan grid point
    (["verify", "5", "4", str(10 ** 150)], f"(5,4,{10 ** 150}) leaves the float range"),
    # the default eps/|V1| is about 1e-16 at this k, below half an ulp of phi0
    (["orbit", "3", "2", str(10 ** 10)], "eps=1e-06 is below the resolution of phi0"),
])
def test_runs_outside_the_float_range_are_usage_errors(argv, named, tmp_path, capsys):
    # each ended in a traceback (exit 1), in nan or inf in barrier.json at
    # exit 5, or in an orbit launched on the saddle, with no crossings
    out = tmp_path / "out"
    assert run([*argv, "--out-dir", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and named in captured.err
    assert not out.exists()


def test_eps_above_the_saddle_floor_still_shoots(tmp_path):
    assert run(["orbit", "3", "2", "4", "--eps", "1e-12", "--formats", "json",
                "--out-dir", str(tmp_path)]) == EXIT_OK
    assert len(json.loads((tmp_path / "events.json").read_text())["psi_zeros"]) == 40


def test_verify_reads_the_case1_verdict_from_the_report(tmp_path, capsys, monkeypatch):
    # a negative grid margin fails verify through report.passed alone
    monkeypatch.setattr(barrier, "barrier_h_prime", lambda phi, params, c, lift=0.0: -1e9)
    assert run(["verify", "3", "2", "2", "--out-dir", str(tmp_path)]) == EXIT_BARRIER_FAILURE
    assert capsys.readouterr().out.endswith("FAIL\n")
    assert json.loads((tmp_path / "barrier.json").read_text())["passed"] is False


def test_step_size_underflow_exits_integration_failure(tmp_path, capsys):
    # no step meets an error test far below the rounding of the state
    assert run(["orbit", "3", "2", "2", "--rel-tol", "1e-300",
                "--out-dir", str(tmp_path)]) == EXIT_BLOWUP
    assert "step size underflow" in capsys.readouterr().err
    assert not (tmp_path / "events.json").exists()


def _log_uniform(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


def _off_table(k):
    """Any domain-valid triple with n <= 31 and k drawn from k."""
    return st.integers(2, 31).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1), k))


# the (31, 20) table, plus any domain-valid triple run off-table
_TABLE = [p.triple() for p in enumerate_admissible(31, 20)]
_TRIPLES = st.one_of(st.sampled_from(_TABLE), _off_table(st.integers(2, 20)))
# k = 10^e up to 10^400, on and off the table: from k ~ 1e154 on,
# k(k+n-1)/p leaves the float range.  For the commands that shoot no
# orbit; orbit and density draw k up to 1e9, where bounded orbits still
# shoot, in test_huge_k_shoots_exit_with_a_documented_code
_HUGE_K = st.integers(2, 400).map(lambda e: 10 ** e)
_HUGE_TRIPLES = st.one_of(
    st.tuples(st.sampled_from(sorted({t[:2] for t in _TABLE})), _HUGE_K).map(
        lambda t: (*t[0], t[1])),
    _off_table(_HUGE_K),
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
# the commands but classify under random flags and config files

_JUNK = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "", "abc", "2.5", "1e400", ",json"])


def _one_in(n: int, rare, common):
    """rare about one time in n, common otherwise.  hypothesis draws the
    ends of a range, and the branches of one_of, more often than the rest,
    so rare sits in the middle."""
    return st.sampled_from(range(n)).flatmap(lambda i: rare if i == n // 2 else common)


def _usually(good):
    """A text from good, or one time in ten a junk one."""
    return _one_in(10, _JUNK, good)


# a value text for each config key but out_dir, which the flag always sets;
# an eps below about 1e-16 launches on the saddle
_KEY_VALUES = {
    "rel_tol": _usually(st.one_of(_log_uniform(-12.0, -3.0), st.just(1e-300)).map(repr)),
    "eps_start": _usually(st.one_of(_log_uniform(-12.0, 3.0),
                                    _log_uniform(-320.0, -12.0)).map(repr)),
    "t_max": _usually(_log_uniform(-2.0, 2.6).map(repr)),
    "max_crossings": _usually(st.integers(1, 60).map(str)),
    "sample_count": _usually(st.integers(1, 40).map(str)),
    "seed": _usually(st.integers(0, 2 ** 40).map(str)),
    "formats": _usually(st.sampled_from(["json", "csv", "svg", "json,csv,svg"])),
}
assert set(_KEY_VALUES) == {f.name for f in dataclasses.fields(RunConfig)} - {"out_dir"}
_FOREIGN_KEYS = st.one_of(
    st.sampled_from(["grid_points", "cycle_grid", "quad_panels", "fd_step", "conv_tol",
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
               StabilityType.SPIRAL_TYPE_II: {"-c"}}
_SHOOT_FLAGS = {"--rel-tol": _KEY_VALUES["rel_tol"], "--eps": _KEY_VALUES["eps_start"],
                "--t-max": _KEY_VALUES["t_max"], "--max-crossings": _KEY_VALUES["max_crossings"]}
# (triples, the flags the command takes, flags it no longer takes)
_COMMANDS = {
    "orbit": (st.one_of(_TRIPLES, st.sampled_from(_SPIRALS)),
              {**_SHOOT_FLAGS, "--formats": _KEY_VALUES["formats"],
               "--target-phi": _one_in(2, _JUNK, _log_uniform(-2.0, 1.0).map(repr))},
              ["--quad-panels=200", "--conv-tol=1e-8", "--radii=1"]),
    "verify": (st.one_of(_TRIPLES, _HUGE_TRIPLES),
               {"-c": _usually(st.one_of(st.floats(0.05, 1.0), _log_uniform(-323.3, 0.0),
                                         st.just(5e-324)).map(repr))},
               ["--grid-points=200", "--formats=json"]),
    "geometry": (st.one_of(_TRIPLES, _HUGE_TRIPLES), {}, ["--formats=json"]),
    "density": (st.one_of(_TRIPLES, st.sampled_from(_SPIRALS)),
                {**_SHOOT_FLAGS, "--radii": _RADII},
                ["--quad-panels=200", "--conv-tol=1e-8", "--formats=csv"]),
    "maps-check": (None, {"--samples": _KEY_VALUES["sample_count"],
                          "--seed": _KEY_VALUES["seed"]}, ["--step=200", "--formats=json"]),
}


def _stability(triple) -> StabilityType:
    """The type of any domain-valid triple, k in or out of the float range."""
    n, _, k = triple
    return (StabilityType.SPIRAL_TYPE_II if stability_discriminant(n, k) < 0
            else StabilityType.CENTER_TYPE_I)


def _assert_documented(code, stdout, err, out):
    """A run ends in a documented exit code, never an exception; a usage
    error says what it is; a run that reports (exit 0 or 5) prints no nan
    or inf; every JSON file written parses."""
    assert code in (0, 2, 3, 4, 5, 6)
    assert "Traceback" not in err
    if code == EXIT_USAGE:
        assert err
    if code in (EXIT_OK, EXIT_BARRIER_FAILURE):
        assert not re.search(r"\b(nan|inf)\b", stdout), stdout
    for f in out.glob("*.json"):
        json.loads(f.read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@settings(max_examples=25, deadline=None)
@given(data=st.data(), config=_CONFIG_LINES)
def test_commands_exit_with_a_documented_code(tmp_path_factory, command, data, config):
    # the command's flags (one time in eight also one it no longer takes,
    # or one for the other stability type) and a config file, each
    # command with its own budget, so that its rare cases come up
    triples, flag_values, removed = _COMMANDS[command]
    out = tmp_path_factory.mktemp(command)
    argv = [command]
    wrong = set()
    if triples is not None:
        triple = data.draw(triples)
        wrong = _WRONG_TYPE[_stability(triple)]
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
    _assert_documented(code, stdout.getvalue(), err.getvalue(), out / "out")


@settings(max_examples=25, deadline=None)
@given(triple=st.one_of(_TRIPLES, _HUGE_TRIPLES), allow=st.booleans())
def test_classify_exits_with_a_documented_code(tmp_path_factory, triple, allow):
    # classify takes no config file, so the test above leaves it out
    out = tmp_path_factory.mktemp("classify")
    stdout, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        code = run(["classify", *map(str, triple), *(["--allow-inadmissible"] if allow else []),
                    "--out-dir", str(out)])
    _assert_documented(code, stdout.getvalue(), err.getvalue(), out)


@settings(max_examples=60, deadline=None)
@given(triple=st.sampled_from(_TABLE), radii=_RADII)
@example(triple=(3, 2, 2), radii="nan,1")  # printed Theta(nan) and exited 0
def test_radii_sweep_prints_finite_densities(tmp_path_factory, triple, radii):
    # the Theta(R) sweep alone, which the fuzz above seldom reaches: it
    # prints finite densities, below Theta_inf or with exit 5, or exits 2
    # naming radii
    out = tmp_path_factory.mktemp("radii")
    stdout, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        code = run(["density", *map(str, triple), f"--radii={radii}", "--out-dir", str(out)])
    if code == EXIT_USAGE:
        assert "error: radii" in err.getvalue()
        assert not any(out.iterdir())
    else:
        assert not re.search(r"\b(nan|inf)\b", stdout.getvalue()), stdout.getvalue()
        thetas, t_inf = _sweep_values(stdout.getvalue())
        below = all(th < t_inf for th in thetas)
        assert code == (EXIT_OK if below else EXIT_BARRIER_FAILURE)
        assert (err.getvalue() == "") == below


@pytest.mark.parametrize("e", range(2, 10))
@pytest.mark.parametrize("pair", [(3, 2), (5, 4)])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bounded_orbits_shoot_at_huge_k(tmp_path, pair, e):
    # at default settings orbit shoots and density reports (exit 5 only on
    # an unresolved gap); density 5 4 1e9 exited 2 on the repeated radii of
    # steps below an ulp of r = e^t. Distinct radii there can also round to
    # one log r, a segment of width 0 that the volume quadrature must skip
    # rather than divide by
    triple = [*map(str, pair), str(10 ** e)]
    assert run(["orbit", *triple, "--out-dir", str(tmp_path / "orbit")]) == EXIT_OK
    assert run(["density", *triple, "--out-dir", str(tmp_path / "density")]) in (
        EXIT_OK, EXIT_BARRIER_FAILURE)


# k = 10^e up to 10^9, where bounded orbits shoot (test_first_zero_converges_in_k),
# at rel_tol >= 1e-10: at the default 1e-10 each such shoot took 0.01-0.06 s
# on a 2-core VM, while at 1e-12 one can take seconds (5.7 s for (31,30,1e9))
_SHOOTABLE_K = st.integers(2, 9).map(lambda e: 10 ** e)


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(["orbit", "density"]),
       triple=st.one_of(st.tuples(st.sampled_from(sorted({t[:2] for t in _TABLE})),
                                  _SHOOTABLE_K).map(lambda t: (*t[0], t[1])),
                        _off_table(_SHOOTABLE_K)),
       rel_tol=_log_uniform(-10.0, -3.0),
       eps=_log_uniform(-12.0, 3.0),
       t_max=_log_uniform(-2.0, 2.6),
       radii=st.one_of(st.none(), _RADII))
def test_huge_k_shoots_exit_with_a_documented_code(tmp_path_factory, command, triple, rel_tol,
                                                   eps, t_max, radii):
    out = tmp_path_factory.mktemp(command)
    extra = [f"--radii={radii}"] if command == "density" and radii is not None else []
    stdout, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        code = run([command, *map(str, triple), "--allow-inadmissible",
                    "--rel-tol", repr(rel_tol), "--eps", repr(eps), "--t-max", repr(t_max),
                    *extra, "--out-dir", str(out)])
    _assert_documented(code, stdout.getvalue(), err.getvalue(), out)


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


def _typed(obj):
    """obj with each leaf paired with its type, so that == tells 1 from 1.0."""
    if isinstance(obj, dict):
        return {k: _typed(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_typed(v) for v in obj]
    return (float if isinstance(obj, float) else type(obj), obj)


def test_json_report_round_trips(p322, p324, traj324):
    # every float comes back bit for bit, and as a float, from its shortest
    # round-trip text; case1_check's c is 1.0 for (3,2,2)
    reports = [
        crossing_report(traj324),
        barrier.case1_check(p322, grid_points=200),
        barrier.case2_check(p324, grid_points=200, cycle_grid=(40, 40)),
        geometry.geometry_report(p322),
        analysis.density_report(traj324, n_panels=1024),
    ]
    for rep in reports:
        assert _typed(json.loads(dumps_json(rep))) == _typed(_as_json(rep)), type(rep).__name__


def test_json_key_order(tmp_path):
    assert run(["orbit", "3", "2", "2", "--out-dir", str(tmp_path), "--formats", "json"]) == EXIT_OK
    events = json.loads((tmp_path / "events.json").read_text())
    assert list(events) == ["target", "psi_zeros", "phi_hits"]
    for triple in (["3", "2", "2"], ["3", "2", "4"]):
        assert run(["verify", *triple, "--out-dir", str(tmp_path)]) == EXIT_OK
        barrier_json = json.loads((tmp_path / "barrier.json").read_text())
        assert list(barrier_json)[:2] == ["params", "case"]


# the commands whose JSON files the format tests read, one of each kind
_JSON_COMMANDS = [
    ["verify", "3", "2", "2"], ["verify", "3", "2", "4"], ["verify", "5", "4", "4"],
    ["geometry", "3", "2", "2"], ["orbit", "3", "2", "4"], ["orbit", "5", "4", "6"],
    ["density", "3", "2", "4"], ["density", "3", "2", "2", "--radii", "0.5,1,2"],
    ["maps-check"],
]


@pytest.mark.parametrize("argv", _JSON_COMMANDS, ids=lambda argv: "-".join(argv))
def test_json_files_are_json_dumps_text(argv, tmp_path, capsys):
    assert run([*argv, "--out-dir", str(tmp_path)]) == EXIT_OK
    files = sorted(tmp_path.glob("*.json"))
    assert len(files) == 1
    text = files[0].read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_integral_floats_load_as_floats(tmp_path, capsys):
    assert run(["verify", "3", "2", "2", "--out-dir", str(tmp_path)]) == EXIT_OK
    assert _typed(json.loads((tmp_path / "barrier.json").read_text())["c"]) == (float, 1.0)
    assert run(["geometry", "3", "2", "2", "--out-dir", str(tmp_path)]) == EXIT_OK
    angles = json.loads((tmp_path / "geometry.json").read_text())["jordan_angles"]
    assert (float, 0.0) in [_typed(angle) for angle, _ in angles]
    assert run(["density", "3", "2", "2", "--radii", "0.5,1,2",
                "--out-dir", str(tmp_path)]) == EXIT_OK
    radii = json.loads((tmp_path / "density.json").read_text())["radii"]
    assert _typed(radii) == [(float, 0.5), (float, 1.0), (float, 2.0)]


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
