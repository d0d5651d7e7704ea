import hashlib
import importlib.util
from pathlib import Path

import pytest

from lo_dynamics import enumerate_admissible
from lo_dynamics.cli import EXIT_BLOWUP, EXIT_OK, EXIT_USAGE
from lo_dynamics.params import StabilityType

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("codes, expected, calls", [
    ({}, EXIT_OK, 8),
    ({"orbit": EXIT_BLOWUP, "verify": EXIT_USAGE}, EXIT_BLOWUP, 1),
    ({"verify": EXIT_USAGE}, EXIT_USAGE, 2),
])
def test_gallery_returns_first_failing_exit_code(monkeypatch, tmp_path, codes, expected, calls):
    gallery = _load("run_orbit_gallery")
    seen = []

    def fake_cli(argv):
        seen.append(argv[0])
        return codes.get(argv[0], EXIT_OK)

    monkeypatch.setattr(gallery, "cli_main", fake_cli)
    monkeypatch.setattr("sys.argv", ["run_orbit_gallery.py", "--out", str(tmp_path)])
    assert gallery.main() == expected
    assert len(seen) == calls


def test_sweep_table_prints_one_row_per_triple(monkeypatch, capsys):
    sweep = _load("sweep_table")
    monkeypatch.setattr("sys.argv", ["sweep_table.py", "--n-max", "7", "--k-max", "4"])
    sweep.main()
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[:4] == ["n", "p", "k", "type"]
    table = enumerate_admissible(7, 4)
    assert len(rows) == len(table)
    for row, params in zip(rows, table):
        n, p, k, kind = row.split()[:4]
        assert (int(n), int(p), int(k)) == params.triple()
        assert kind == ("I" if params.stability is StabilityType.CENTER_TYPE_I else "II")


def test_output_digest_lists_exit_codes_and_file_hashes(monkeypatch, tmp_path, capsys):
    digest = _load("output_digest")
    monkeypatch.setattr(digest, "COMMANDS", [["geometry", "3", "2", "2"], ["geometry", "3", "2", "9"]])
    monkeypatch.setattr("sys.argv", ["output_digest.py", str(tmp_path / "out")])
    assert digest.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["exit 0  00_geometry_3_2_2", "exit 3  01_geometry_3_2_9"]
    files = sorted(p for p in (tmp_path / "out").rglob("*") if p.is_file())
    assert [line.split("  ")[1] for line in lines[2:]] == [
        str(p.relative_to(tmp_path / "out")) for p in files]
    assert len(files) == 5  # geometry.json once, stdout and stderr twice
    first = (tmp_path / "out" / "00_geometry_3_2_2" / "geometry.json").read_bytes()
    assert lines[2] == f"{hashlib.sha256(first).hexdigest()}  00_geometry_3_2_2/geometry.json"
