"""No dead code: every module under src/necklaces (but the re-exporting
__init__.py) uses each name it imports, and every module-level _private
function, class or constant is referenced somewhere in the package; the
same holds for the tests and the demos, checked as a second set.  No
module under src/necklaces holds an assert, which python -O strips, or a
module-level __getattr__ besides the package loader's, and cli.py builds no
CheckReport: the checks live in the library."""

import ast
from pathlib import Path

import necklaces

SOURCES = sorted(
    p for p in Path(necklaces.__file__).parent.glob("*.py") if p.name != "__init__.py"
)
REPO = Path(__file__).resolve().parent.parent
TESTS_AND_DEMOS = sorted([*REPO.glob("tests/*.py"), *REPO.glob("demos/*.py")])


def _imported(tree: ast.Module):
    """(line, bound name) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def _private_definitions(tree: ast.Module):
    """(line, name) for each module-level _private def, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield node.lineno, name


def _references(tree: ast.Module) -> set[str]:
    """Names read, attributes taken and names imported anywhere in tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _dead_code(paths) -> list[str]:
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in paths}
    everywhere = set().union(*(_references(t) for t in trees.values()))
    found = []
    for path, tree in trees.items():
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        for line, name in _imported(tree):
            if name not in read:
                found.append(f"{path.name}:{line}: import {name} is never used")
        for line, name in _private_definitions(tree):
            if name not in everywhere:
                found.append(f"{path.name}:{line}: {name} is referenced nowhere")
    return found


def test_no_unused_import_or_unreferenced_private_name():
    assert len(SOURCES) > 10
    found = _dead_code(SOURCES)
    assert not found, "\n".join(found)


def test_no_unused_import_or_unreferenced_private_name_in_tests_and_demos():
    assert len(TESTS_AND_DEMOS) > 20
    found = _dead_code(TESTS_AND_DEMOS)
    assert not found, "\n".join(found)


def test_no_assert_in_the_package():
    """A check the program relies on raises; python -O would strip an assert."""
    paths = sorted(Path(necklaces.__file__).parent.glob("*.py"))
    found = [
        f"{p.name}:{node.lineno}"
        for p in paths
        for node in ast.walk(ast.parse(p.read_text(), filename=str(p)))
        if isinstance(node, ast.Assert)
    ]
    assert len(paths) > 10 and not found, found


def test_deferred_loading_lives_in_the_package_loader_alone():
    """Only __init__.py defers a name with a module-level __getattr__; a
    module reads another module's names through the package's loader."""
    found = [
        p.name
        for p in SOURCES
        for node in ast.parse(p.read_text(), filename=str(p)).body
        if isinstance(node, ast.FunctionDef) and node.name == "__getattr__"
    ]
    assert not found, found


def test_the_cli_makes_no_check_report():
    """A check is a library function that returns a CheckReport; the CLI
    only formats the reports it gets."""
    path = Path(necklaces.__file__).parent / "cli.py"
    found = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and "CheckReport" in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
    ]
    assert not found, found


def _cached_functions(paths) -> set[str]:
    """Names of the functions decorated with functools.lru_cache or cache,
    called or not, by name or as an attribute."""
    found = set()
    for p in paths:
        for node in ast.walk(ast.parse(p.read_text(), filename=str(p))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    dec = dec.func if isinstance(dec, ast.Call) else dec
                    if getattr(dec, "id", getattr(dec, "attr", None)) in ("lru_cache", "cache"):
                        found.add(node.name)
    return found


def test_only_the_caches_that_pay_are_kept():
    """A cache holds state for the life of the process, so each one names
    the traffic that pays for it:
    - brackets._necklace_view: the last left argument's view, read by every
      bracket of a run with one left argument, such as the 1,017 brackets
      of c_3 in a center check;
    - traces._regular_mats: the certified left multiplications, about 4 ms
      warm, read by each of table2's 25 cells;
    - poisson.sl2_heisenberg_algebra: the immutable algebra, validated on
      every generator triple once and shared by change_coordinates and
      casimir_check.
    A new cache edits this set and says here what pays for it."""
    paths = sorted(Path(necklaces.__file__).parent.glob("*.py"))
    assert _cached_functions(paths) == {"_necklace_view", "_regular_mats", "sl2_heisenberg_algebra"}


def test_the_guard_sees_unused_imports_and_dead_privates(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import comb, gcd as g\n"
        "\n"
        "def _used():\n"
        "    return comb(2, 1)\n"
        "\n"
        "def _dead():\n"
        "    _local = 0\n"
        "    return _local\n"
        "\n"
        "_LIMIT, _SEEN = 3, 4\n"
        "\n"
        "class _Hidden:\n"
        "    _inner = 1\n"
    )
    b.write_text("from .a import _used\nfrom . import a\n\nVALUE = _used() + a._SEEN\n")
    assert _dead_code([a, b]) == [
        "a.py:2: import os is never used",
        "a.py:3: import g is never used",
        "a.py:8: _dead is referenced nowhere",
        "a.py:12: _LIMIT is referenced nowhere",
        "a.py:14: _Hidden is referenced nowhere",
    ]
