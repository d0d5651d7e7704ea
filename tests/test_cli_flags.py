"""The flag surface of each subcommand: every flag it takes changes an
output, and the flags it does not read are usage errors."""

import argparse
import dataclasses
import json
import re
from pathlib import Path

import pytest

from lo_dynamics import build_params, shoot_unstable_manifold
from lo_dynamics.cli import EXIT_BARRIER_FAILURE, EXIT_OK, EXIT_USAGE, RunConfig, main, make_parser
from lo_dynamics.radial import to_profile
from oracles import simpson_theta


def _commands() -> dict[str, argparse.ArgumentParser]:
    parser = make_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def _option_flags(cmd: argparse.ArgumentParser) -> set[str]:
    return {s for a in cmd._actions for s in a.option_strings} - {"-h", "--help"}


OPTION_FLAGS = {
    "classify": {"--allow-inadmissible", "--out-dir", "--sweep"},
    "orbit": {"--allow-inadmissible", "--config", "--eps", "--formats", "--max-crossings",
              "--out-dir", "--rel-tol", "--t-max", "--target-phi"},
    "verify": {"--allow-inadmissible", "--config", "--out-dir", "-c"},
    "geometry": {"--allow-inadmissible", "--config", "--out-dir"},
    "density": {"--allow-inadmissible", "--config", "--eps", "--max-crossings",
                "--out-dir", "--radii", "--rel-tol", "--t-max"},
    "maps-check": {"--config", "--out-dir", "--samples", "--seed"},
}


def test_option_flags_per_command():
    flags = {name: _option_flags(cmd) for name, cmd in _commands().items()}
    assert flags == OPTION_FLAGS
    assert sum(map(len, flags.values())) == 31


def _readme_flag_table() -> dict[str, set[str]]:
    """README's table of each command's flags, plus the --out-dir that its
    text says every command takes."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| command | flags |", 1)[1].split("\n\n", 1)[0]
    rows = [line.split("|")[1:3] for line in table.splitlines()[2:]]
    return {re.match(r" `([\w-]+)", cmd).group(1):
            set(re.findall(r"`(-[\w-]+)", flags)) | {"--out-dir"}
            for cmd, flags in rows}


def test_readme_flag_table_matches_parser():
    assert _readme_flag_table() == {name: _option_flags(cmd)
                                    for name, cmd in _commands().items()}


def test_run_config_fields():
    assert [f.name for f in dataclasses.fields(RunConfig)] == [
        "rel_tol", "eps_start", "t_max", "max_crossings", "sample_count", "seed",
        "out_dir", "formats"]


# ----------------------------------------------------------------------
# every config flag a command takes changes its stdout or its files

def _config_flags() -> list[tuple[str, str]]:
    """(command, flag) for each flag that sets a RunConfig field, but --out-dir."""
    fields = {f.name for f in dataclasses.fields(RunConfig)} - {"out_dir"}
    return sorted((name, flag) for name, cmd in _commands().items()
                  for a in cmd._actions if a.dest in fields for flag in a.option_strings)


_ORBIT = ["orbit", "3", "2", "2"]
_DENSITY = ["density", "3", "2", "4", "--max-crossings", "4"]
_MAPS = ["maps-check", "--samples", "5"]

# (command, flag) -> (base command line, a value of the flag that differs from the base)
FLAG_CASES = {
    ("orbit", "--rel-tol"): (_ORBIT, "1e-8"),
    ("orbit", "--eps"): (_ORBIT, "1e-5"),
    ("orbit", "--t-max"): (_ORBIT, "5"),
    ("orbit", "--max-crossings"): (["orbit", "3", "2", "4"], "4"),
    ("orbit", "--formats"): (_ORBIT, "json"),
    ("density", "--rel-tol"): (_DENSITY, "1e-8"),
    ("density", "--eps"): (_DENSITY, "1e-5"),
    ("density", "--t-max"): (_DENSITY, "8"),
    ("density", "--max-crossings"): (_DENSITY, "3"),
    ("maps-check", "--samples"): (_MAPS, "6"),
    ("maps-check", "--seed"): (_MAPS, "1"),
}


def _outputs(argv, out_dir, capsys):
    """Exit code, stdout and the files written by one run."""
    capsys.readouterr()
    rc = main([*argv, "--out-dir", str(out_dir)])
    files = {f.name: f.read_bytes() for f in out_dir.iterdir()} if out_dir.exists() else {}
    return rc, capsys.readouterr().out, files


@pytest.mark.parametrize("command,flag", _config_flags())
def test_every_flag_changes_an_output(command, flag, tmp_path, capsys):
    base, value = FLAG_CASES[command, flag]
    assert base[0] == command
    rc, *before = _outputs(base, tmp_path / "base", capsys)
    assert rc == EXIT_OK
    _, *after = _outputs([*base, flag, value], tmp_path / "flag", capsys)
    assert after != before


def test_flag_cases_are_all_taken():
    assert sorted(FLAG_CASES) == _config_flags()


# ----------------------------------------------------------------------
# flags every command took before, whether it read them or not; the
# sampling resolutions --grid-points and --quad-panels are now taken by
# none, --formats by orbit only and --config by all but classify

_FORMER_COMMON = ("--config", "--out-dir", "--formats", "--seed", "--rel-tol", "--conv-tol",
                  "--eps", "--t-max", "--max-crossings", "--grid-points", "--quad-panels")
_UNREAD = sorted((name, flag) for name, flags in OPTION_FLAGS.items()
                 for flag in _FORMER_COMMON if flag not in flags)


def test_unread_flag_count():
    assert len(_UNREAD) == 45


@pytest.mark.parametrize("command,flag", _UNREAD)
def test_unread_flags_are_usage_errors(command, flag, tmp_path, capsys):
    triple = [] if command == "maps-check" else ["3", "2", "2"]
    value = "json" if flag == "--formats" else "1"
    assert main([command, *triple, flag, value, "--out-dir", str(tmp_path)]) == EXIT_USAGE
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# ----------------------------------------------------------------------
# the sampling resolutions, the end of a real-eigenvalue run among them,
# are module constants: their former flags and config keys exit 2 and
# write nothing (the unread-flag test above covers --conv-tol)

_REMOVED_FLAGS = {
    ("verify", "--grid-points"): ["verify", "3", "2", "2"],
    ("density", "--quad-panels"): _DENSITY,
    ("maps-check", "--step"): _MAPS,
}
_REMOVED_KEYS = {
    "grid_points": ["verify", "3", "2", "2"],
    "cycle_grid": ["verify", "3", "2", "4"],
    "quad_panels": _DENSITY,
    "fd_step": _MAPS,
    "conv_tol": _ORBIT,
}


@pytest.mark.parametrize("command,flag", sorted(_REMOVED_FLAGS))
def test_removed_flags_are_usage_errors(command, flag, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*_REMOVED_FLAGS[command, flag], flag, "200", "--out-dir", str(out)]) \
        == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", sorted(_REMOVED_KEYS))
def test_removed_keys_are_usage_errors(key, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 200\n")
    out = tmp_path / "out"
    argv = [*_REMOVED_KEYS[key], "--config", str(cfg), "--out-dir", str(out)]
    assert main(argv) == EXIT_USAGE
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("triple, inside, past", [((7, 4, 20), "2.9e3", "3.1e3"),
                                                  ((31, 30, 2), "3.2e9", "3.4e9")])
def test_type_one_radii_end_with_the_fixed_stop(triple, inside, past, tmp_path, capsys):
    # the profile ends where its run met hypot(u, psi) < 1e-8, at R = 2 993
    # and 3.317e9; no setting moves that end, and a radius past it exits 2.
    # One inside it is reported and agrees with the 1 048 576-panel Simpson
    # oracle to 1e-13 (measured: 7.1e-15 and 1.2e-14). There the true gap
    # lies within rounding of Theta_inf, so the value lies below it (exit 0)
    # or is named unresolved (exit 5); measured: 1.4e-15 and 8.9e-16 below,
    # relative
    argv = ["density", *map(str, triple), "--radii"]
    code = main([*argv, inside, "--out-dir", str(tmp_path / "inside")])
    payload = json.loads((tmp_path / "inside" / "density.json").read_text())
    (theta,), t_inf = payload["thetas"], payload["theta_infinity"]
    params = build_params(*triple)
    oracle = simpson_theta(to_profile(shoot_unstable_manifold(params)), params, float(inside),
                           1048576)
    assert abs(theta / oracle - 1.0) < 1e-13
    assert code == (EXIT_OK if theta < t_inf else EXIT_BARRIER_FAILURE)
    out = tmp_path / "past"
    assert main([*argv, past, "--out-dir", str(out)]) == EXIT_USAGE
    assert f"radii: R={float(past)} outside profile span" in capsys.readouterr().err
    assert not out.exists()


def test_a_run_config_method_is_an_unknown_key(tmp_path, capsys):
    # "validate" named an attribute but no field, and ended in a TypeError
    cfg = tmp_path / "run.cfg"
    cfg.write_text("validate = 1\n")
    out = tmp_path / "out"
    assert main(["geometry", "3", "2", "2", "--config", str(cfg), "--out-dir", str(out)]) \
        == EXIT_USAGE
    assert "unknown config key 'validate'" in capsys.readouterr().err
    assert not out.exists()


def test_verify_c_on_spiral_triple_is_usage_error(tmp_path, capsys):
    argv = ["verify", "3", "2", "4", "-c", "0.3", "--out-dir", str(tmp_path)]
    assert main(argv) == EXIT_USAGE
    assert "-c applies only to the real-eigenvalue type" in capsys.readouterr().err
    assert not (tmp_path / "barrier.json").exists()


@pytest.mark.parametrize("argv", [["orbit", "3", "2", "2"],
                                  ["density", "3", "2", "2", "--radii", "1"]])
def test_max_crossings_on_type_one_triple_is_usage_error(argv, tmp_path, capsys):
    # a type-I orbit ends at the cone, never after a count of crossings
    out = tmp_path / "out"
    assert main([*argv, "--max-crossings", "3", "--out-dir", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{argv[0]}: --max-crossings applies only to the spiral type" in err
    assert not out.exists()


@pytest.mark.parametrize("argv,line", [
    (["orbit", "3", "2", "2", "--formats", "json"], "max_crossings = 1"),
])
def test_type_only_keys_are_ignored_on_the_other_type(argv, line, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{line}\n")
    before = _outputs(argv, tmp_path / "base", capsys)
    assert before[0] == EXIT_OK
    assert _outputs([*argv, "--config", str(cfg)], tmp_path / "cfg", capsys) == before


@pytest.mark.parametrize("argv,line", [
    (["verify", "3", "2", "2"], "rel_tol = nan"),
    (["geometry", "3", "2", "2"], "formats = bmp"),
    (["density", "3", "2", "2", "--radii", "1"], "seed = x"),
    (_MAPS, "max_crossings = 0"),
])
def test_unread_keys_are_neither_parsed_nor_checked(argv, line, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{line}\n")
    before = _outputs(argv, tmp_path / "base", capsys)
    assert before[0] == EXIT_OK
    assert _outputs([*argv, "--config", str(cfg)], tmp_path / "cfg", capsys) == before


def test_classify_reads_no_config(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("no_such_key = 1\n")
    monkeypatch.setenv("LO_DYNAMICS_CONFIG", str(cfg))
    assert main(["classify", "3", "2", "2"]) == EXIT_OK
    assert "center(I)" in capsys.readouterr().out


@pytest.mark.parametrize("radii", ["nan,1", "inf", "-inf", "0", "1,-2", ""])
def test_radii_must_be_positive_and_finite(radii, tmp_path, capsys):
    # nan once gave Theta(nan) = 1.0000000000019997 and exit 0; "" the
    # spiral report, exit 6 on this type-I triple
    out = tmp_path / "out"
    assert main(["density", "3", "2", "2", f"--radii={radii}", "--out-dir", str(out)]) \
        == EXIT_USAGE
    assert "error: radii" in capsys.readouterr().err
    assert not out.exists()


def test_bad_radii_name_the_flag(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["density", "3", "2", "2", "--radii", "1,x", "--out-dir", str(out)]
    assert main(argv) == EXIT_USAGE
    assert "error: radii must be a comma list of floats, got 'x'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--rel-tol", "abc"), ("--max-crossings", "2.5"),
                                        ("--formats", "bmp")])
def test_bad_flag_value_is_usage_error(flag, value, tmp_path, capsys):
    argv = ["orbit", "3", "2", "2", flag, value, "--out-dir", str(tmp_path)]
    assert main(argv) == EXIT_USAGE
    assert not any(tmp_path.iterdir())
