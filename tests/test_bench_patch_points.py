"""The benchmark's tracer patches camph functions by name; keep them there.

A refactor that renames or removes one of those functions would otherwise
break only traced benchmark runs, which the test suite does not make.
"""
import importlib
from pathlib import Path

from camph import PrimeField, compute_persistence, diagram_equal, oracle_reduce

from tests.fixtures import path_3

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_bench_instrumentation_patches_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    sample = importlib.import_module("sample")
    tracing = importlib.import_module("tracing")
    engine_cls = sample.engine.PersistenceEngine
    original = engine_cls.lazy_evaluation
    tracer = tracing.Tracer()
    sample.instrument(tracer)
    try:
        c = path_3()
        diagram, _ = compute_persistence(c, PrimeField(2))
    finally:
        tracer.restore()
    assert engine_cls.lazy_evaluation is original
    assert diagram_equal(diagram, oracle_reduce(c, PrimeField(2)))
    # path_3 defers its vertices, so lazy evaluation forces some of them
    assert tracer.counts["engine.forced"] > 0
    assert {name for name, *_ in tracer.spans} >= {
        "engine.lazy_evaluation",
        "engine.finish",
        "reorder.reordered_filtration",
    }
