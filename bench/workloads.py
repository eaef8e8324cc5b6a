"""Seeded input generators for the benchmark workloads.

Each workload has one base instance, fixed by its ``base_seed``. The
benchmark's ``--seed`` changes how that instance is written, not what it
is, and the result goes to one input file; the program under test only
ever sees that file. For a point cloud the seed shuffles the points, so
every vertex gets another id. For a filtration it maps the vertex ids
into a ten times larger range by a random increasing map: a permutation
would reorder the vertices inside each simplex and each block of equal
values, which changes boundary signs and tie-breaking, and on
``tied_blocks`` that changed the oracle's work by 12% between seeds.
Either way the diagram stays the same, so every seed must give the
workload's one committed diagram digest. Drawing a fresh instance per
seed would make the work itself random: on ``random_2complex`` the
engine's time varied fourfold between instances (0.8-3.5 s over seeds
1-6), which no run length averages out.

The generators share no code with ``camph``, so a change to the program
cannot change the inputs it is measured on.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path

Simplices = list[tuple[float, tuple[int, ...]]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  # the one-line reason, as in BENCHMARK.json
    input_format: str  # "points" | "filtration"
    prime: int
    base_seed: int
    params: dict
    digest: str | None  # sha256 of the diagram file, the same for every seed
    lazy: bool = True
    reorder: bool = True
    rips_max_edge: float | None = None
    max_dim: int | None = None


def torus_points(n: int, seed: int) -> list[tuple[float, float, float]]:
    """Uniform angles on a torus surface in R^3 (R=2, r=1)."""
    rng = random.Random(seed)
    points = []
    for _ in range(n):
        u = rng.uniform(0.0, 2.0 * math.pi)
        v = rng.uniform(0.0, 2.0 * math.pi)
        w = 2.0 + math.cos(v)
        points.append((w * math.cos(u), w * math.sin(u), math.sin(v)))
    return points


def rips_simplices(points, max_edge: float, max_dim: int) -> Simplices:
    """(diameter, vertices) of every clique with diameter <= max_edge."""
    n = len(points)
    dist = [[math.dist(p, q) for q in points] for p in points]
    out: Simplices = []

    def expand(simplex, candidates, diameter):
        out.append((diameter, simplex))
        if len(simplex) - 1 == max_dim:
            return
        for i, v in enumerate(candidates):
            grown = max([diameter] + [dist[u][v] for u in simplex])
            shared = [w for w in candidates[i + 1 :] if dist[v][w] <= max_edge]
            expand(simplex + (v,), shared, grown)

    for v in range(n):
        expand((v,), [u for u in range(v + 1, n) if dist[v][u] <= max_edge], 0.0)
    return out


def random_2complex(seed: int, vertices: int, triangles: int) -> Simplices:
    """Linial-Meshulam-style random 2-complex.

    Vertices at 0, every edge of the complete graph at a uniform value in
    [0, 1), and ``triangles`` distinct triangles sampled without
    replacement at uniform values in [1, 2).
    """
    rng = random.Random(seed)
    out: Simplices = [(0.0, (v,)) for v in range(vertices)]
    for edge in itertools.combinations(range(vertices), 2):
        out.append((rng.random(), edge))
    chosen = rng.sample(list(itertools.combinations(range(vertices), 3)), triangles)
    for tri in chosen:
        out.append((1.0 + rng.random(), tri))
    return out


def permutation(n: int, seed: int) -> list[int]:
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return perm


def increasing_ids(n: int, seed: int) -> list[int]:
    """New ids for 0..n-1, drawn from 0..10n-1 and kept in order."""
    return sorted(random.Random(seed).sample(range(10 * n), n))


def relabel(simplices: Simplices, perm: list[int]) -> Simplices:
    return [(value, tuple(sorted(perm[v] for v in verts))) for value, verts in simplices]


def write_points(points, path: Path) -> None:
    path.write_text("".join(" ".join(map(repr, p)) + "\n" for p in points))


def write_simplices(simplices: Simplices, path: Path) -> None:
    rows = sorted(simplices, key=lambda item: (item[0], len(item[1]), item[1]))
    path.write_text(
        "".join(" ".join([repr(value), *map(str, verts)]) + "\n" for value, verts in rows)
    )


def generate(workload: Workload, seed: int, path: Path) -> None:
    """Write the workload's input for ``seed`` to ``path``."""
    params = workload.params
    if workload.name == "rips_torus":
        points = torus_points(params["points"], workload.base_seed)
        write_points([points[i] for i in permutation(len(points), seed)], path)
    elif workload.name == "tied_blocks":
        points = torus_points(params["points"], workload.base_seed)
        simplices = [
            (round(d, params["digits"]), s)
            for d, s in rips_simplices(points, params["max_edge"], params["max_dim"])
        ]
        write_simplices(relabel(simplices, increasing_ids(len(points), seed)), path)
    elif workload.name == "random_2complex":
        simplices = random_2complex(
            workload.base_seed, params["vertices"], params["triangles"]
        )
        write_simplices(relabel(simplices, increasing_ids(params["vertices"], seed)), path)
    else:
        raise ValueError(f"unknown workload {workload.name!r}")


WORKLOADS = {
    w.name: w
    for w in (
        # Why this workload:
        # - A points file of 300 points sampled from a torus (the
        #   torus_point_sample recipe, seed 55771). Rips eps = 1.0, max-dim 2,
        #   p = 11, default flags (lazy and reorder on). This is the README's
        #   point-cloud use.
        # - |K| = 10190.
        # - reorder is about 90% of diagram_s.
        # - The annotation matrix is almost idle: nonzeros ~ G_m = 5718, and
        #   there are 14.3k field ops.
        # - 5699 of the live rows are top-dimensional creators, which is
        #   ROADMAP item 5's target.
        # - This is the only workload where builders does work.
        Workload(
            name="rips_torus",
            why="300-point torus, Rips eps 1.0, dim 2, p 11, default flags: the "
            "point-cloud use; reorder is ~90% of diagram_s; the only workload "
            "where builders works",
            input_format="points",
            prime=11,
            base_seed=55771,
            rips_max_edge=1.0,
            max_dim=2,
            params={"points": 300},
            digest="570191595f9d656aa3d136a788c65cc02b921da601d4dc051c3a1bd6e3809ec9",
        ),
        # Why this workload:
        # - A filtration file of a 200-point torus Rips complex (eps = 1.2,
        #   max-dim 3) with values rounded to 1 decimal. p = 3, default flags.
        # - |K| = 14217, split into only 13 equal-value blocks of up to 4358
        #   simplices.
        # - Reordering permutes for real here and lazy deferral is heavy.
        # - io.read_filtration parses 230 KB.
        Workload(
            name="tied_blocks",
            why="200-point torus Rips, eps 1.2, dim 3, values rounded to 1 "
            "decimal, p 3: 13 large equal-value blocks, so reorder permutes "
            "for real and lazy deferral is heavy",
            input_format="filtration",
            prime=3,
            base_seed=55771,
            params={"points": 200, "max_edge": 1.2, "max_dim": 3, "digits": 1},
            digest="f66a3f488fcd8c6f71087459a2f7570a846f4ef01dcc9432a3fcf89490ba85d6",
        ),
        # Why this workload:
        # - A filtration file of a Linial-Meshulam-style 2-complex: 42
        #   vertices at 0, all 861 edges of K42 at uniform values in [0,1),
        #   1600 triangles sampled without replacement at uniform values in
        #   [1,2). p = 7919, with --no-lazy --no-reorder.
        # - This drives the same engine through the other entry point
        #   (insert) and bypasses reorder. On reorder changes the prediction
        #   is no change.
        # - Killed classes are old, so annotation columns grow long: peak
        #   nonzeros 21.8k against G_m = 821, and 2.23 M engine field ops.
        #   kill_cocycle is about 98% of engine time.
        # - The engine loses to the oracle here too.
        Workload(
            name="random_2complex",
            why="random 2-complex on 42 vertices, p 7919, no lazy, no reorder: "
            "insert path, long annotation columns, kill_cocycle-bound; bypasses "
            "reorder, so reorder changes predict no change",
            input_format="filtration",
            prime=7919,
            base_seed=1,
            lazy=False,
            reorder=False,
            params={"vertices": 42, "triangles": 1600},
            digest="55205b298fa6a722f6172025162e6772a8f61424345a6a49fd05fab97e1e708d",
        ),
    )
}
