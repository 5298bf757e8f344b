"""The benchmark's traced layers must still exist in the package, and be
loaded by the import every command makes.

perfbench/tracer.py names each layer function by module, class and
attribute; a rename would only drop that layer's metrics from a traced run.
Its install() wraps only modules already registered, so `import necklaces.cli`
must register every traced module.  The tracer is imported by path and its
install() is not called, so nothing is wrapped.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    return _tracer().TARGETS


@pytest.mark.parametrize("name, module, cls, attrs", [t[:4] for t in _targets()])
def test_traced_layer_resolves(name, module, cls, attrs):
    owner = importlib.import_module(f"necklaces.{module}")
    if cls is not None:
        owner = getattr(owner, cls)
    for attr in attrs:
        assert callable(getattr(owner, attr)), f"{name}: {attr} is not callable"


def test_cli_import_loads_the_traced_modules_and_not_dataclasses():
    # a fresh interpreter: this one has loaded whatever the other tests did
    code = "import sys, json, necklaces.cli; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    loaded = set(json.loads(out))
    # start-up cost paid by every command: dataclasses pulls in inspect
    assert "dataclasses" not in loaded and "inspect" not in loaded
    traced = {f"necklaces.{t[1]}" for t in _targets()}
    assert traced <= loaded, sorted(traced - loaded)


def test_tracer_wraps_the_layers_of_a_command(tmp_path):
    """The tracer, run as a script on one command, finds every target and
    records spans in the layers that command runs, although a module is
    registered before it is loaded."""
    out = tmp_path / "spans"
    command = [sys.executable, str(TRACER), str(out), "center", "1", "3", "4", "--format", "json"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(command, env=env, capture_output=True, check=True)
    header, kind, *_ = _tracer().load(out)
    assert header["untraced"] == []
    for name in ("traces.trace_of", "brackets.necklace_bracket", "words.canonical_rotation"):
        spans = sum(1 for k in kind if header["names"][k] == name)
        assert spans > 0, name


def _counted_rotations(monkeypatch) -> list:
    """Rebind canonical_rotation in brackets, as install() does, to a wrapper
    that records each word it is called on."""
    brackets = importlib.import_module("necklaces.brackets")
    original = brackets.canonical_rotation
    calls = []

    def wrapper(w):
        calls.append(w)
        return original(w)

    monkeypatch.setattr(brackets, "canonical_rotation", wrapper)
    return calls


def test_necklace_bracket_canonicalizes_through_its_module_binding(monkeypatch):
    """install() counts canonical rotations by rebinding canonical_rotation
    in every necklaces module that binds it.  The necklace bracket must call
    it through the binding in brackets, or the traced
    words.canonical_rotation metrics on center read 0.  {x x, x* x* x} does
    not cancel, so its nonzero sums must be canonicalized."""
    calls = _counted_rotations(monkeypatch)
    brackets = importlib.import_module("necklaces.brackets")
    assert brackets.necklace_bracket(brackets.BracketRule.canonical(1), "xx", "x*x*x")
    assert calls


def test_center_check_canonicalizes_few_of_the_words_that_cancel(monkeypatch):
    """Work guard.  {c_n, -} acts as a commutator, so its collapsed words
    cancel from each position to the next, around the wrap too, and the
    kernel merges each such pair in its gap row before it builds a word.
    Words that are still two rotations of one word are merged after each
    right-hand necklace, so no word of center_check(2, 3, 4) or (2, 3, 6)
    reaches canonical_rotation (3,424 and 32,476 with each word keyed from
    the first letter of the right-hand necklace alone, 848 and 8,108 with
    the last position rekeyed alone), and at most 16 of center_check(1, 6, 8)
    do (38 with rows spliced per position and the merge, 2,922 with the
    rekey alone)."""
    calls = _counted_rotations(monkeypatch)
    brackets = importlib.import_module("necklaces.brackets")
    assert brackets.center_check(2, 3, 4).ok
    assert brackets.center_check(2, 3, 6).ok
    assert len(calls) == 0
    assert brackets.center_check(1, 6, 8).ok
    assert len(calls) <= 16
