"""The names other code reaches into: the package's public ``__all__`` and the
functions the benchmark's layer tracer wraps (``bench/targets.json``).  A
refactor that deletes or renames one of them fails here, not only in a traced
benchmark run."""

import importlib.util
import json
from pathlib import Path

import pytest

import switchsde

BENCH = Path(__file__).resolve().parent.parent / "bench"
TARGETS = json.loads((BENCH / "targets.json").read_text())


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("dotted", sorted(TARGETS))
def test_trace_target_resolves(dotted):
    owner, name, obj = _tracer()._resolve(dotted)
    assert obj is None or callable(obj)
    assert name == dotted.rsplit(".", 1)[1]


@pytest.mark.parametrize("name", switchsde.__all__)
def test_public_name_resolves(name):
    assert getattr(switchsde, name) is not None
