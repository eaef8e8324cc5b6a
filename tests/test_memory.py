"""The run path frees its memory by reference counting alone.

A reference cycle lives on until the cyclic collector runs, so a call
that leaves one holds its garbage (a walked block's coface index, the
builder's neighbour lists) past its return. Each check turns the
collector off, collects right before the measured call, and asserts that
a collection right after it finds nothing, while the call's result is
still held. The collection happens inside each check, not in a fixture,
because the traceback of an earlier failed test is cyclic garbage too.
"""
import gc
from pathlib import Path

import pytest

from camph import (
    EngineOptions,
    PrimeField,
    build_rips,
    compute_persistence,
    diagram_equal,
    oracle_reduce,
    read_filtration,
    reordered_filtration,
)

from tests.fixtures import (
    random_rips_corpus,
    tetra_boundary,
    torus_7,
    torus_point_sample,
)

DATA = Path(__file__).parent / "data"
F3 = PrimeField(3)


def _acyclic(call):
    """call() with the collector off; fails if it left cyclic garbage."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        result = call()
        assert gc.collect() == 0
        return result
    finally:
        if enabled:
            gc.enable()


# complexes with an equal-value block that reordering permutes
WALKED = {
    "tetra_boundary_iso": lambda: tetra_boundary(iso=True),
    "torus_7_iso": lambda: torus_7(iso=True),
    "quantized_rips": lambda: random_rips_corpus(1, seed=5150, quantize=True)[0],
}


@pytest.mark.parametrize("max_dim", [1, 2, 3])
def test_build_rips_leaves_no_cycle(max_dim):
    points = torus_point_sample()
    tree = _acyclic(lambda: build_rips(points, 1.0, max_dim))
    assert tree.finalized


def test_read_filtration_leaves_no_cycle():
    tree = _acyclic(lambda: read_filtration(DATA / "rp2.flt"))
    assert tree.finalized


@pytest.mark.parametrize("name", list(WALKED))
def test_reordered_filtration_leaves_no_cycle(name):
    complex = WALKED[name]()
    order = _acyclic(lambda: reordered_filtration(complex))
    assert order != list(complex.simplex_of)


@pytest.mark.parametrize("name", list(WALKED))
@pytest.mark.parametrize("lazy", [False, True])
@pytest.mark.parametrize("reorder", [False, True])
def test_persistence_and_oracle_leave_no_cycle(name, lazy, reorder):
    complex = WALKED[name]()
    options = EngineOptions(lazy=lazy, reorder=reorder, record_stats=True)
    diagram, stats = _acyclic(lambda: compute_persistence(complex, F3, options))
    assert stats.field_ops > 0
    oracle = _acyclic(lambda: oracle_reduce(complex, F3))
    assert diagram_equal(diagram, oracle)
