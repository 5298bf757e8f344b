"""The package's public names, and which library modules a command runs.

Importing necklaces registers every library module without running it; a
module runs the first time one of its attributes is read.  A probe in a
fresh interpreter tells a module that ran from one that did not by
type(module) alone, because reading any attribute of a lazy module runs it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import necklaces

ROOT = Path(__file__).resolve().parent.parent

# every name the package re-exported when it imported all of its modules
PUBLIC = [
    "BracketRule", "center_check", "center_element", "check_grading", "double_bracket",
    "kontsevich_bracket", "loday_bracket", "necklace_bracket", "verify_double_jacobi",
    "verify_loday_properties", "enumerate_necklaces", "lyndon_count",
    "necklace_count_by_enumeration", "necklace_dimension", "FreeElement", "Necklace",
    "NecklaceElement", "TensorElement", "TripleTensor", "format_element", "parse_element",
    "project_to_necklace", "AssociativityError", "StructureConstants",
    "check_degree1_commutator", "gl_constants", "linear_rule", "ngl", "Polynomial",
    "PolyMatrix", "symplectic_poisson", "PoissonPolyAlgebra", "casimir", "casimir_check",
    "change_coordinates", "sl2_heisenberg_algebra", "trace_generator_algebra",
    "Sl2Generators", "WeightDecomposition", "check_low_degree_structure", "cn_multiplicity",
    "decompose_bruteforce", "decompose_by_formula", "multiplicity_formula", "sl2_generators",
    "table1", "tensor_multiplicity", "word_weight", "LeafClass", "casimir_image",
    "casimir_image_as_displayed", "center_witness", "classify_point",
    "express_in_trace_generators", "generic_matrices", "table2", "trace_of",
    "verify_cayley_hamilton", "Letter", "Word", "canonical_rotation", "letters", "parse_word",
    "word",
]

LIBRARY = (
    "brackets", "counting", "elements", "linalg", "linear_rules", "multipoly", "poisson",
    "report", "sampling", "sl2", "traces", "words",
)


@pytest.mark.parametrize("name", PUBLIC)
def test_star_import_and_dir_give_every_public_name(name):
    namespace = {}
    exec("from necklaces import *", namespace)
    assert name in namespace
    assert name in dir(necklaces)
    assert namespace[name] is getattr(necklaces, name)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        necklaces.no_such_name


def _env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _modules_run(argv):
    """The library modules that have run in a fresh interpreter after
    `import necklaces.cli` and build_parser(), then main(argv) when argv is
    not empty, with main's exit code."""
    code = (
        "import contextlib, io, json, sys, types\n"
        "import necklaces.cli as cli\n"
        "cli.build_parser()\n"
        f"argv = {argv!r}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    exit_code = cli.main(argv) if argv else 0\n"
        f"ran = [m for m in {LIBRARY!r} if type(sys.modules.get('necklaces.' + m)) is types.ModuleType]\n"
        "print(json.dumps([exit_code, ran]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=_env(), capture_output=True, text=True, check=True
    ).stdout
    exit_code, ran = json.loads(out)
    return exit_code, set(ran)


@pytest.mark.parametrize(
    "argv, not_run",
    [
        ([], set(LIBRARY)),
        # the decompose path reads elements for no name it calls
        (["dims", "1", "2"], {"brackets", "elements", "traces", "sl2"}),
        (["classify", "1", "2", "3", "4", "5"], {"brackets", "sl2", "traces"}),
        (["decompose", "5"], {"brackets", "elements", "report", "traces"}),
        (["table1", "5"], {"brackets", "elements", "report", "traces"}),
        (
            ["bracket", "x", "x*"],
            {"counting", "report", "sampling", "traces", "sl2", "linalg", "linear_rules"},
        ),
        (["verify", "casimir"], {"brackets", "sampling", "traces"}),
        (["center", "1", "6", "8"], {"poisson"}),
        # traces reach the generators by 4 x 4 left multiplications, no solve
        (["table2"], {"linalg", "sl2", "sampling"}),
    ],
    ids=[
        "build_parser", "dims", "classify", "decompose", "table1", "bracket", "verify_casimir",
        "center_1", "table2",
    ],
)
def test_a_command_runs_only_the_modules_it_uses(argv, not_run):
    exit_code, ran = _modules_run(argv)
    assert exit_code == 0
    assert not ran & not_run, sorted(ran & not_run)


def test_decompose_and_table1_leave_the_bracket_module_unloaded():
    """The sl2 oracle brackets by substitution on code strings, so the
    decompose workload never runs brackets: after `decompose 8` and
    `table1 8` in one fresh interpreter it is still the lazy placeholder."""
    code = (
        "import contextlib, importlib.util, io, sys\n"
        "import necklaces.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['decompose', '8']), cli.main(['table1', '8'])]\n"
        "print(codes, type(sys.modules['necklaces.brackets']) is importlib.util._LazyModule)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=_env(), capture_output=True, text=True, check=True
    ).stdout
    assert out == "[0, 0] True\n"


@pytest.mark.parametrize("argv", [["decompose", "12"], ["dims", "2", "8"]], ids=" ".join)
def test_the_decompose_path_does_not_import_fractions(argv):
    """fractions also loads decimal and numbers; the oracle's ranks and the
    counts are all ints, so a fresh interpreter running one of these
    commands never imports it."""
    code = (
        "import contextlib, io, sys\n"
        "import necklaces.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    exit_code = cli.main({argv!r})\n"
        "print(exit_code, 'fractions' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=_env(), capture_output=True, text=True, check=True
    ).stdout
    assert out == "0 False\n"


def test_running_the_cli_as_a_module_writes_no_warning():
    # python -m warns when it finds necklaces.cli in sys.modules before it
    # runs it, so the package registers every module but cli
    result = subprocess.run(
        [sys.executable, "-m", "necklaces.cli", "dims", "1", "2"],
        env=_env(), capture_output=True, text=True,
    )
    assert result.returncode == 0 and result.stderr == ""
    assert result.stdout.startswith("necklace dimensions, d=1\n")
