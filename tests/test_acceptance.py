"""Acceptance suite: one test per release criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""
import time
from collections import Counter
from pathlib import Path

import pytest

from camph import (
    EngineOptions,
    PersistenceEngine,
    PrimeField,
    betti_profile,
    build_rips,
    compute_persistence,
    diagram_equal,
    oracle_reduce,
)
from camph.cli import main as cli_main

from tests.fixtures import (
    EQUIVALENCE_PRIMES,
    canned_complexes,
    full_triangle,
    hollow_triangle,
    projective_plane_6,
    random_rips_corpus,
    tetra_boundary,
    torus_7,
    torus_point_sample,
    two_adjacent_triangles,
)

DATA = Path(__file__).parent / "data"

INVARIANCE_PRIMES = (2, 11)


@pytest.fixture(scope="module")
def corpus():
    complexes = list(canned_complexes().values())
    complexes += random_rips_corpus(count=100)
    return complexes


@pytest.fixture(scope="module")
def iso_heavy_corpus():
    # inputs with large equal-value blocks, up to whole complexes at one value
    complexes = [
        tetra_boundary(iso=True),
        torus_7(iso=True),
        projective_plane_6(iso=True),
        two_adjacent_triangles(),
    ]
    complexes += random_rips_corpus(count=20, seed=5150, quantize=True)
    return complexes


def _report(line):
    print(f"\n[PASS] {line}")


def test_criterion_oracle_equivalence(corpus):
    started = time.monotonic()
    for complex in corpus:
        for p in EQUIVALENCE_PRIMES:
            field = PrimeField(p)
            engine_diagram, _ = compute_persistence(complex, field)
            oracle_diagram = oracle_reduce(complex, field)
            assert diagram_equal(engine_diagram, oracle_diagram), (len(complex), p)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _report(
        f"oracle equivalence: {len(corpus)} inputs x {len(EQUIVALENCE_PRIMES)} "
        f"primes, exact multiset equality ({elapsed:.1f}s)"
    )


def test_criterion_lazy_invariance(corpus):
    for complex in corpus:
        for p in INVARIANCE_PRIMES:
            field = PrimeField(p)
            off, _ = compute_persistence(
                complex, field, EngineOptions(lazy=False, reorder=False)
            )
            on, _ = compute_persistence(
                complex, field, EngineOptions(lazy=True, reorder=False)
            )
            assert diagram_equal(on, off), (len(complex), p)
    _report(f"lazy invariance: exact equality on {len(corpus)} inputs")


def test_criterion_reorder_invariance(corpus, iso_heavy_corpus):
    inputs = corpus + iso_heavy_corpus
    for complex in inputs:
        for p in INVARIANCE_PRIMES:
            field = PrimeField(p)
            off, _ = compute_persistence(
                complex, field, EngineOptions(lazy=False, reorder=False)
            )
            on, _ = compute_persistence(
                complex, field, EngineOptions(lazy=False, reorder=True)
            )
            assert diagram_equal(on, off), (len(complex), p)
    _report(
        f"reorder invariance: exact equality on {len(inputs)} inputs "
        "including whole-complex iso blocks"
    )


def test_criterion_prefix_validity():
    fixtures = {
        "full_triangle": full_triangle(),
        "hollow_triangle": hollow_triangle(),
        "tetra_boundary": tetra_boundary(),
        "torus_7": torus_7(),
        "projective_plane_6": projective_plane_6(),
    }
    checks = 0
    for p in (2, 3):
        field = PrimeField(p)
        for name, complex in fixtures.items():
            profile = betti_profile(complex, field)
            engine = PersistenceEngine(
                complex, field, EngineOptions(lazy=False, reorder=False)
            )
            for i, simplex in enumerate(complex.filtration_order(), start=1):
                engine.insert(simplex)
                for dim in range(complex.dimension + 1):
                    assert engine.live_cocycle_count(dim) == profile[i][dim], (
                        name,
                        p,
                        i,
                        dim,
                    )
                    checks += 1
    _report(f"prefix validity: live ranks match oracle Betti at {checks} checkpoints")


def test_criterion_field_sensitivity():
    complex = projective_plane_6()
    expected = {2: [1, 1, 1], 3: [1, 0, 0]}
    for p, betti in expected.items():
        field = PrimeField(p)
        oracle_betti = betti_profile(complex, field)[len(complex)]
        assert oracle_betti == betti
        diagram, _ = compute_persistence(complex, field)
        essentials = Counter(q.dim for q in diagram if q.essential)
        assert [essentials[d] for d in range(3)] == betti
        assert diagram_equal(diagram, oracle_reduce(complex, field))
    _report("field sensitivity: projective plane (1,1,1) over Z_2, (1,0,0) over Z_3")


def test_criterion_reorder_effectiveness():
    started = time.monotonic()
    field = PrimeField(2)
    two = two_adjacent_triangles()
    _, plain = compute_persistence(
        two, field, EngineOptions(lazy=False, reorder=False, record_stats=True)
    )
    _, reordered = compute_persistence(
        two, field, EngineOptions(lazy=False, reorder=True, record_stats=True)
    )
    assert plain.g_max_by_dim[1] == 2
    assert reordered.g_max_by_dim[1] == 1

    sphere = tetra_boundary(iso=True)
    _, plain_sphere = compute_persistence(
        sphere, field, EngineOptions(lazy=False, reorder=False, record_stats=True)
    )
    _, reordered_sphere = compute_persistence(
        sphere, field, EngineOptions(lazy=False, reorder=True, record_stats=True)
    )
    assert reordered_sphere.g_max_total <= plain_sphere.g_max_total
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _report(
        "reorder effectiveness: peak rank-1 drops 2 -> 1 on adjacent triangles; "
        f"iso sphere peak {reordered_sphere.g_max_total} <= {plain_sphere.g_max_total}"
    )


def test_criterion_compression_effectiveness():
    started = time.monotonic()
    complex = build_rips(torus_point_sample(100), 1.5, 2)
    _, stats = compute_persistence(
        complex, PrimeField(11), EngineOptions(record_stats=True)
    )
    simplices_per_dim = Counter(len(s) - 1 for s, _ in complex.simplices())
    for dim, count in simplices_per_dim.items():
        assert stats.s_max_by_dim.get(dim, 0) < count, (dim, count)
    assert stats.s_max_total <= 4 * stats.g_max_total
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _report(
        f"compression: |K|={len(complex)}, S_m={stats.s_max_total} vs "
        f"G_m={stats.g_max_total} (factor "
        f"{stats.s_max_total / stats.g_max_total:.2f} <= 4), "
        f"distinct columns under per-dim simplex counts ({elapsed:.1f}s)"
    )


def test_criterion_structural_invariants(corpus):
    # full audit of every matrix after every operation, plus dd = 0
    inputs = list(canned_complexes().values()) + random_rips_corpus(count=10, seed=77)
    runs = 0
    for complex in inputs:
        for p in INVARIANCE_PRIMES:
            field = PrimeField(p)
            for lazy in (False, True):
                for reorder in (False, True):
                    compute_persistence(
                        complex,
                        field,
                        EngineOptions(lazy=lazy, reorder=reorder, debug=True),
                    )
                    runs += 1
    p = 3
    for complex in corpus:
        for simplex, _ in complex.simplices():
            if len(simplex) < 3:
                continue
            acc: dict = {}
            for face, sign in complex.boundary(simplex):
                outer = 1 if sign > 0 else p - 1
                for sub, sub_sign in complex.boundary(face):
                    coeff = outer if sub_sign > 0 else p - outer
                    acc[sub] = (acc.get(sub, 0) + coeff) % p
            assert all(v == 0 for v in acc.values()), simplex
    _report(
        f"structural invariants: zero violations across {runs} audited runs; "
        "double boundaries vanish on the whole corpus"
    )


def test_criterion_cli_determinism(tmp_path):
    first = tmp_path / "a.dgm"
    second = tmp_path / "b.dgm"
    args = ["--input", str(DATA / "rp2.flt"), "--format", "filtration", "--field", "11"]
    assert cli_main([*args, "--output", str(first)]) == 0
    assert cli_main([*args, "--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    # the oracle flag changes exit behavior only, never the written bytes
    third = tmp_path / "c.dgm"
    assert cli_main([*args, "--oracle", "--output", str(third)]) == 0
    assert third.read_bytes() == first.read_bytes()
    _report("CLI determinism: identical configs produce byte-identical diagrams")
