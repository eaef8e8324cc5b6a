import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from camph import (
    EngineOptions,
    PrimeField,
    SimplexTree,
    compute_persistence,
    diagram_equal,
    reordered_filtration,
)
from camph.reorder import _key_ranges, _walk, slab_partition

from tests.fixtures import (
    canned_complexes,
    full_triangle,
    random_rips_corpus,
    tetra_boundary,
    two_adjacent_triangles,
)

F2 = PrimeField(2)
DATA = Path(__file__).parent / "data"


def test_slab_partition_tiers():
    slabs = slab_partition(full_triangle())
    assert [s.value for s in slabs] == [0.0, 1.0, 2.0]
    assert [len(s.simplices) for s in slabs] == [3, 3, 1]


def test_slab_partition_all_distinct_values():
    t = SimplexTree()
    t.insert_simplex([0], 0.0)
    t.insert_simplex([1], 0.5)
    t.insert_simplex([0, 1], 1.0)
    t.finalize()
    slabs = slab_partition(t)
    assert [len(s.simplices) for s in slabs] == [1, 1, 1]


def test_slab_partition_single_block():
    c = tetra_boundary(iso=True)
    slabs = slab_partition(c)
    assert len(slabs) == 1
    assert len(slabs[0].simplices) == len(c)


def test_slab_concatenation_reproduces_order():
    for _, c in canned_complexes().items():
        flattened = [s for slab in slab_partition(c) for s in slab.simplices]
        assert flattened == c.filtration_order()


def test_reorder_is_inclusion_respecting_permutation():
    for _, c in canned_complexes().items():
        order = reordered_filtration(c)
        assert sorted(order) == sorted(c.filtration_order())
        seen = set()
        for simplex in order:
            for face, _ in c.boundary(simplex):
                assert face in seen, (simplex, face)
            seen.add(simplex)


def test_reorder_places_fill_right_after_its_faces():
    out = reordered_filtration(two_adjacent_triangles())
    tri = (0, 1, 2)
    edges = {(0, 1), (0, 2), (1, 2)}
    tri_pos = out.index(tri)
    assert all(out.index(e) < tri_pos for e in edges)
    # the first triangle is filled before the second hole is even cut
    assert tri_pos < max(out.index((1, 3)), out.index((2, 3)))


def test_reorder_shrinks_peak_dim1_rank():
    c = two_adjacent_triangles()
    lazy_off = dict(lazy=False, record_stats=True)
    _, plain = compute_persistence(c, F2, EngineOptions(reorder=False, **lazy_off))
    _, reordered = compute_persistence(c, F2, EngineOptions(reorder=True, **lazy_off))
    assert plain.g_max_by_dim[1] == 2
    assert reordered.g_max_by_dim[1] == 1


def test_reorder_helps_on_iso_sphere():
    c = tetra_boundary(iso=True)
    lazy_off = dict(lazy=False, record_stats=True)
    _, plain = compute_persistence(c, F2, EngineOptions(reorder=False, **lazy_off))
    _, reordered = compute_persistence(c, F2, EngineOptions(reorder=True, **lazy_off))
    assert reordered.g_max_total <= plain.g_max_total


def test_each_slab_edge_traversed_at_most_twice():
    # climb walks the in-block cofaces of the key it enters and descend its
    # in-block faces, so entering each member at most once per direction
    # walks each incidence edge at most twice: the walk is linear
    complexes = list(canned_complexes().values())
    complexes += random_rips_corpus(quantize=True)
    for c in complexes:
        for lo, hi in _key_ranges(c):
            entries: Counter = Counter()

            def count(frame, event, arg):
                name = frame.f_code.co_name
                if event == "call" and name in ("climb", "descend"):
                    entries[name, frame.f_locals["key"]] += 1

            sys.setprofile(count)
            try:
                _walk(c, lo, hi)
            finally:
                sys.setprofile(None)
            # only block members, each at most once per direction
            assert all(lo <= key < hi for _, key in entries)
            assert max(entries.values(), default=1) == 1, entries


def test_reorder_preserves_diagrams():
    complexes = list(canned_complexes().values())
    complexes += random_rips_corpus(count=8, seed=41, quantize=True)
    for c in complexes:
        base, _ = compute_persistence(c, F2, EngineOptions(lazy=False, reorder=False))
        redo, _ = compute_persistence(c, F2, EngineOptions(lazy=False, reorder=True))
        assert diagram_equal(base, redo)


def test_reorder_requires_a_finalized_complex():
    c = SimplexTree()
    for simplex in ((0,), (1,), (0, 1)):
        c.insert_simplex(simplex, 0.0)
    with pytest.raises(RuntimeError, match="finalized"):
        reordered_filtration(c)
    c.finalize()
    assert sorted(reordered_filtration(c)) == sorted(c.simplex_of)


def test_reorder_never_scans_the_whole_complex(monkeypatch):
    def trie_wide_scan(self, *args, **kwargs):
        raise AssertionError("reordering must not query cofacets of the complex")

    monkeypatch.setattr(SimplexTree, "cofacets", trie_wide_scan)
    complexes = list(canned_complexes().values())
    complexes += random_rips_corpus(quantize=True)
    for c in complexes:
        reordered_filtration(c)


def test_reorder_output_matches_recorded_digests():
    # recorded while reordering still found in-block cofaces through the
    # trie-wide SimplexTree.cofacets query; the order must not depend on it
    def digest(c):
        return hashlib.sha256(repr(reordered_filtration(c)).encode()).hexdigest()

    recorded = json.loads((DATA / "reorder_order_sha256.json").read_text())
    canned = {name: digest(c) for name, c in canned_complexes().items()}
    assert canned == recorded["canned"]
    quantized = [digest(c) for c in random_rips_corpus(quantize=True)]
    assert quantized == recorded["random_rips_corpus_quantized"]
