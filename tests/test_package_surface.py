"""Every top-level function and class in src/lo_dynamics is reached from
`cli.main`, the package's module-level statements, or the names that
`scripts/*.py` and the non-test `perfbench/*.py` use; code only tests call
belongs in `tests/oracles.py`.  Uses are followed by name to a fixed point,
and a reached class uses every name in its body.  Imports are no use.
perfbench also binds functions by name, so there a string that is
exactly a name counts as a use.
"""

import ast
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _uses(stmts, strings: bool = False) -> set[str]:
    """Names and attribute names in stmts (and strings); imports excluded."""
    out = set()
    for stmt in stmts:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add(node.value)
    return out


def unreached(root: Path = ROOT, perfbench: bool = True) -> list[str]:
    """`module.name` of each top-level function or class of
    root/src/lo_dynamics that nothing outside the tests reaches; with
    perfbench False, perfbench's names reach nothing either."""
    defs, roots = {}, set()
    for path in sorted((root / "src" / "lo_dynamics").glob("*.py")):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        defs.update({f"{path.stem}.{s.name}": s for s in body if isinstance(s, _DEFS)})
        roots |= _uses(s for s in body if not isinstance(s, _DEFS))
    bench = (root / "perfbench").glob("*.py") if perfbench else []
    for path in [*(root / "scripts").glob("*.py"), *bench]:
        if not path.name.startswith("test_"):
            roots |= _uses(ast.parse(path.read_text(encoding="utf-8")).body, strings=True)
    reached = set()
    todo = ["cli.main", *(key for key in defs if key.split(".")[1] in roots)]
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            names = _uses([defs[key]])
            todo += [k for k in defs if k.split(".")[1] in names]
    return sorted(set(defs) - reached)


def test_every_package_definition_is_reached():
    names = unreached()
    assert not names, f"{len(names)} reached only from tests, if at all: {', '.join(names)}"


def test_only_the_certificate_oracle_is_reached_by_the_benchmark_alone():
    # perfbench checks each case-1 certificate against the cubic assembly;
    # every other definition it binds by name is one the commands use too
    assert sorted(set(unreached(perfbench=False)) - set(unreached())) == [
        "barrier.case1_from_polynomial", "barrier.case1_polynomial"]


def test_a_function_only_tests_call_is_found(tmp_path):
    for sub in ("src", "scripts", "perfbench"):
        shutil.copytree(ROOT / sub, tmp_path / sub)
    with open(tmp_path / "src" / "lo_dynamics" / "geometry.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef only_tested():\n    return _its_helper(unit_ball_volume(3))\n"
                 "\n\ndef _its_helper(x):\n    return x\n")
    assert unreached(tmp_path) == ["geometry._its_helper", "geometry.only_tested"]
