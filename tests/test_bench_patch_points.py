"""The benchmark's samplers reach into camph by name; keep those names there.

The tracer patches camph functions by name, and the count sampler reads
``reorder.slab_partition``, each block's ``simplices``,
``OpCountingField.ops`` and ``SimplexTree.cofacets``. A refactor that
renamed or removed one of them would otherwise break only benchmark
runs, which the test suite does not make.
"""
import dataclasses
import importlib
from pathlib import Path

import pytest

from camph import PrimeField, compute_persistence, diagram_equal, oracle_reduce

from tests.fixtures import path_3

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
RP2 = ROOT / "tests" / "data" / "rp2.flt"


@pytest.fixture
def sample(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("sample")


def test_bench_instrumentation_patches_and_restores(sample):
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


def test_bench_samplers_run_on_a_filtration(sample, tmp_path):
    # rp2 over Z_2 under the tied_blocks flags: lazy, reordered, three blocks
    workload = dataclasses.replace(sample.WORKLOADS["tied_blocks"], prime=2)
    counted = sample.count_sample(workload, RP2, tmp_path / "count.dgm")
    assert counted["oracle_equal"]
    assert counted["counts"]["reorder.blocks"] > 0
    assert counted["counts"]["field.oracle_ops"] > 0
    traced = sample.traced_sample(workload, RP2, tmp_path / "traced.dgm")
    assert traced["oracle_equal"]
    assert traced["digest"] == counted["digest"]


def test_bench_sees_every_lazy_insertion(sample, tmp_path):
    # under the tied_blocks flags every simplex enters once through
    # lazy_evaluation and every forced face once more (insert is never
    # called, so engine.calls counts lazy_evaluation spans alone): the
    # bench's spans see each per-simplex call
    workload = dataclasses.replace(sample.WORKLOADS["tied_blocks"], prime=2)
    traced = sample.traced_sample(workload, RP2, tmp_path / "traced.dgm")
    counts = traced["counts"]
    assert counts["engine.forced"] > 0
    assert counts["engine.calls"] == traced["simplices"] + counts["engine.forced"]
