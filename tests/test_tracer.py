"""The names the benchmark's tracer (perfbench/spans.py) wraps.

The tracer finds colog's functions and methods by name, from outside the
package.  A renamed or deleted one would break only a traced benchmark run,
so every name it lists must exist here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "spans", Path(__file__).resolve().parent.parent / "perfbench" / "spans.py")
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize("module, attr, span", spans.FUNCTIONS)
def test_every_traced_function_exists(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr, None)), span


@pytest.mark.parametrize("module, cls, method, span", spans.METHODS)
def test_every_traced_method_exists(module, cls, method, span):
    owner = getattr(importlib.import_module(module), cls, None)
    assert isinstance(owner, type), span
    assert callable(getattr(owner, method, None)), span
