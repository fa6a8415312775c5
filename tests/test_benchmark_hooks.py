"""Every layer the benchmark's traced run wraps must still exist.

perfbench/traced.py wraps the callables named in its HOOKS table and reports
a missing one as an absent layer, whose metrics then read 0. This resolves
each (module, attribute path) directly, without installing the tracer, so a
rename in snippetnet fails here instead of silently blanking a layer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


@pytest.mark.parametrize("layer, module_name, path", _hooks(), ids=lambda v: str(v))
def test_hook_resolves_to_a_callable(layer, module_name, path):
    target = importlib.import_module(module_name)
    for part in path.split("."):
        target = getattr(target, part)
    assert callable(target), f"{layer}: {module_name}:{path} is not callable"
