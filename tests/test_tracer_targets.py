"""The benchmark's traced layers must still exist in the package, and be
loaded by the import every command makes.

perfbench/tracer.py names each layer function by module, class and
attribute; a rename would only drop that layer's metrics from a traced run.
Its install() wraps only modules already loaded, so `import necklaces.cli`
must load every traced module.  The tracer is imported by path and its
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


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


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


def test_necklace_bracket_canonicalizes_through_its_module_binding(monkeypatch):
    """install() counts canonical rotations by rebinding canonical_rotation
    in every necklaces module that binds it.  The necklace bracket must call
    it through the binding in brackets, or the traced
    words.canonical_rotation metrics on center read 0."""
    brackets = importlib.import_module("necklaces.brackets")
    original = brackets.canonical_rotation
    calls = []

    def wrapper(w):
        calls.append(w)
        return original(w)

    monkeypatch.setattr(brackets, "canonical_rotation", wrapper)
    assert brackets.center_check(2, 2, 4).ok
    assert calls
