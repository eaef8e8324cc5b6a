"""The benchmark's samplers reach into camph by name; keep those names there.

The tracer patches camph functions by name, ``SimplexTree.cofacets``
among them. The count sampler patches ``engine.reordered_filtration`` and
reads ``reorder.slab_partition``, each block's ``simplices``,
``SimplexTree.filtration_order``, ``OpCountingField.ops`` and the
``RunStats`` that ``compute_persistence`` returns. A refactor that
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


@pytest.mark.parametrize("workload_name", ["tied_blocks", "random_2complex"])
def test_bench_sees_every_lazy_insertion(sample, tmp_path, workload_name):
    # every simplex enters once through insert and every forced face once
    # more through lazy_evaluation, so engine.calls counts the spans of
    # both: the bench's spans see each per-simplex call. Faces are forced
    # only under the lazy tied_blocks flags, not under random_2complex's
    workload = dataclasses.replace(sample.WORKLOADS[workload_name], prime=2)
    traced = sample.traced_sample(workload, RP2, tmp_path / "traced.dgm")
    counts = traced["counts"]
    assert (counts["engine.forced"] > 0) == workload.lazy
    assert counts["engine.calls"] == traced["simplices"] + counts["engine.forced"]


@pytest.mark.parametrize("workload_name", ["tied_blocks", "rips_torus"])
def test_bench_attributes_setup_to_reader_and_finalize(sample, tmp_path, workload_name):
    # the reader or builder freezes its complex through SimplexTree.finalize,
    # so a traced load records a finalize span inside the reader's or the
    # builder's own span, and both layers get time
    workload = sample.WORKLOADS[workload_name]
    if workload.input_format == "points":
        path = tmp_path / "points.txt"
        path.write_text("0.0 0.0 0.0\n0.5 0.0 0.0\n0.0 0.5 0.0\n3.0 3.0 3.0\n")
        outer, layer = "builders.build_rips", "builders.rips_s"
    else:
        workload = dataclasses.replace(workload, prime=2)
        path = RP2
        outer, layer = "io.read_filtration", "io.read_s"
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    sample.instrument(tracer)
    try:
        sample.load(workload, path)
    finally:
        tracer.restore()
    names = [name for name, *_ in tracer.spans]
    assert names.count(outer) == 1 and names.count("simplex_tree.finalize") == 1
    finalize = tracer.spans[names.index("simplex_tree.finalize")]
    assert tracer.spans[finalize[3]][0] == outer
    layers = sample.traced_sample(workload, path, tmp_path / "traced.dgm")["layers"]
    assert layers[layer] > 0
    assert layers["simplex_tree.finalize_s"] > 0
