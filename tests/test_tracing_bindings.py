"""The benchmark's tracer wraps pmlab functions by (module, attribute) name.

``perfbench/tracing.py`` lives outside the package and outside this
suite's collection, so it is loaded here by file path.  A pmlab function
renamed or moved without updating ``BINDINGS`` fails here, not only when
the benchmark runs.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_bindings():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BINDINGS


@pytest.mark.parametrize("binding", load_bindings(), ids=lambda b: f"{b[0]}.{b[1]}")
def test_each_traced_name_resolves_to_a_callable(binding):
    module, attribute, span, _ = binding
    assert callable(getattr(importlib.import_module(module), attribute, None)), span
