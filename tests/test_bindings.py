"""The benchmark tracer wraps program attributes by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("module_name, attr",
                         [b[:2] for b in tracing.LIBRARY_BINDINGS + tracing.CLI_BINDINGS])
def test_traced_binding_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))
