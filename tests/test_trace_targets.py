"""The benchmark tracer wraps surfband functions by name; each name must still resolve."""

import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("target", sorted(set(tracing.SELF_TIME) | set(tracing.CALL_COUNTS)))
def test_trace_target_resolves(target):
    owner, attr, fn = tracing._resolve(target)
    assert callable(fn)
    if isinstance(owner, type):  # the tracer re-wraps the class's own staticmethod
        assert isinstance(owner.__dict__[attr], staticmethod)
