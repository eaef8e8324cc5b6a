import hashlib
import json
from collections import Counter
from pathlib import Path

from camph import (
    CompressedAnnotationMatrix,
    EngineOptions,
    PrimeField,
    RunStats,
    SimplexTree,
    compute_persistence,
    format_diagram,
    format_stats,
)
from camph.field import OpCountingField
from camph.stats import StatsCollector

from tests.fixtures import canned_complexes, full_triangle, random_rips_corpus

F2 = PrimeField(2)
STANDARD_STATS = EngineOptions(lazy=False, reorder=False, record_stats=True)
DATA = Path(__file__).parent / "data"


def test_empty_complex_all_zero():
    t = SimplexTree()
    t.finalize()
    _, stats = compute_persistence(t, F2, STANDARD_STATS)
    assert stats.field_ops == 0
    assert stats.matrix_nonzeros_peak == 0
    assert stats.g_max_total == 0
    assert stats.s_max_total == 0


def test_single_vertex_peaks():
    t = SimplexTree()
    t.insert_simplex([0], 0.0)
    t.finalize()
    _, stats = compute_persistence(t, F2, STANDARD_STATS)
    assert stats.matrix_nonzeros_peak == 1
    assert stats.g_max_total == 1
    assert stats.s_max_total == 1
    assert stats.g_max_by_dim == {0: 1}


def test_full_triangle_hand_trace():
    # manual trace of the seven standard-order insertions over Z_2:
    #   a,b,c create rows 0,1,2          -> peak total rank 3, 3 columns
    #   ab kills row 1 (1 neg, 1 neg+div, 1 add -> 4 ops), columns merge
    #   ac kills row 2 (4 ops)
    #   bc sums two equal classes to zero (1 neg, 1 add) and creates in dim 1
    #   abc kills the dim-1 row (neg+div, 1 add -> 3 ops)
    # totals: ops 4+4+2+3 = 13; peaks reached after inserting c
    _, stats = compute_persistence(full_triangle(), F2, STANDARD_STATS)
    assert stats.g_max_total == 3
    assert stats.s_max_total == 3
    assert stats.matrix_nonzeros_peak == 3
    assert stats.field_ops == 13
    assert stats.g_max_by_dim == {0: 3, 1: 1, 2: 0}
    assert stats.s_max_by_dim == {0: 3, 1: 1, 2: 0}


def test_stats_disabled_by_default():
    _, stats = compute_persistence(full_triangle(), F2)
    assert stats.field_ops == 0
    assert stats.g_max_total == 0


def test_field_ops_count_this_run_only():
    # a caller's counting field shows through neither with stats off nor,
    # with its earlier history, in a run with stats on
    field = OpCountingField(2)
    plain = EngineOptions(lazy=False, reorder=False)
    _, off = compute_persistence(full_triangle(), field, plain)
    assert off == RunStats()
    _, fresh = compute_persistence(full_triangle(), F2, STANDARD_STATS)
    _, reused = compute_persistence(full_triangle(), field, STANDARD_STATS)
    assert reused.field_ops == fresh.field_ops == 13


def test_distinct_column_peaks_stay_bounded():
    # per dimension: never more distinct columns than simplices, and over
    # Z_2 never more than the nonzero subsets of the live rows
    complexes = list(canned_complexes().values()) + random_rips_corpus(count=5, seed=9)
    for c in complexes:
        _, stats = compute_persistence(c, F2, STANDARD_STATS)
        per_dim = Counter(len(s) - 1 for s, _ in c.simplices())
        for dim, s_peak in stats.s_max_by_dim.items():
            assert s_peak <= per_dim.get(dim, 0)
            assert s_peak <= 2 ** stats.g_max_by_dim[dim]


def test_format_stats_layout():
    _, stats = compute_persistence(full_triangle(), F2, STANDARD_STATS)
    text = format_stats(stats)
    lines = text.splitlines()
    assert lines[0] == "field_ops=13"
    assert lines[1] == "matrix_nonzeros_peak=3"
    assert lines[2] == "G_m=3"
    assert lines[3] == "S_m=3"
    assert "g_m[0]=3" in lines
    assert "s_m[1]=1" in lines
    assert "g_m[2]=0" in lines


def stats_digest(c) -> str:
    """sha256 over the diagram and ``--stats`` text of every prime and mode."""
    text = []
    for p in (2, 3, 7919):
        field = PrimeField(p)
        for lazy in (False, True):
            for reorder in (False, True):
                options = EngineOptions(lazy=lazy, reorder=reorder, record_stats=True)
                diagram, stats = compute_persistence(c, field, options)
                text.append(f"p={p} lazy={lazy} reorder={reorder}\n")
                text.append(format_diagram(diagram) + format_stats(stats))
    return hashlib.sha256("".join(text).encode()).hexdigest()


def test_diagram_and_stats_bytes_match_recorded_digests():
    # pins G_m, S_m, matrix_nonzeros_peak and field_ops next to the diagram,
    # so a change to the matrix's internals cannot move the --stats bytes
    recorded = json.loads((DATA / "stats_sha256.json").read_text())
    canned = {name: stats_digest(c) for name, c in canned_complexes().items()}
    assert canned == recorded["canned"]
    quantized = [stats_digest(c) for c in random_rips_corpus(quantize=True)]
    assert quantized == recorded["random_rips_corpus_quantized"]


def test_full_triangle_lazy_hand_trace():
    # the lazy run folds b into ab, c into ac and bc into abc (see
    # test_engine.py): only a's class is stored, yet each folded class is
    # counted when its creation would have stored it, and the field is
    # charged the standard trace's 13 operations in the same steps
    #   ab: a is forced; b's birth samples rows a, b -> peak 2
    #   ab charges 1 neg + 3 (kill: neg, div, add) = 4, ac likewise 4
    #   bc sums two equal classes to zero (2 ops) and is deferred
    #   abc folds bc over a zero sum: 3 ops; dimension 1 peaks at 1
    _, stats = compute_persistence(
        full_triangle(), F2, EngineOptions(reorder=False, record_stats=True)
    )
    assert stats.field_ops == 13
    assert (stats.g_max_total, stats.s_max_total, stats.matrix_nonzeros_peak) == (2, 2, 2)
    assert stats.g_max_by_dim == stats.s_max_by_dim == {0: 2, 1: 1, 2: 0}


def test_transient_class_counted_in_its_dimension():
    # dimension 0 holds one stored class; a transient class in dimension 1
    # counts as one row, one distinct column and one nonzero there
    below, middle = CompressedAnnotationMatrix(F2), CompressedAnnotationMatrix(F2)
    below.create_cocycle("a")
    collector = StatsCollector()
    collector.sample([below, middle], top_rows=0, transient=1)
    collector.sample([below, middle], top_rows=0)
    stats = collector.result()
    assert (stats.g_max_total, stats.s_max_total, stats.matrix_nonzeros_peak) == (2, 2, 2)
    assert stats.g_max_by_dim == stats.s_max_by_dim == {0: 1, 1: 1, 2: 0}
