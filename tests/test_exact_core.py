"""The core is exact: no module under src/necklaces writes a float or complex
literal or names the float or complex type."""

import ast
from pathlib import Path

import necklaces

SOURCES = sorted(Path(necklaces.__file__).parent.glob("*.py"))


def _inexact_uses(path: Path) -> list[str]:
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            out.append(f"{path.name}:{node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            out.append(f"{path.name}:{node.lineno}: name {node.id}")
    return out


def test_no_float_or_complex_in_the_core():
    assert len(SOURCES) > 10
    found = [use for path in SOURCES for use in _inexact_uses(path)]
    assert not found, "\n".join(found)


def test_the_guard_sees_literals_and_names(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("a = 1e-9\nb = 2j\nc = float(a)\nd = isinstance(b, complex)\ne = 'float'\n")
    assert _inexact_uses(probe) == [
        "probe.py:1: literal 1e-09",
        "probe.py:2: literal 2j",
        "probe.py:3: name float",
        "probe.py:4: name complex",
    ]
