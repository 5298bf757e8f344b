"""The benchmark's traced layers must still exist in the package.

perfbench/tracer.py names each layer function by module, class and
attribute; a rename would only drop that layer's metrics from a traced run.
The tracer is imported by path and its install() is not called, so nothing
is wrapped.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
