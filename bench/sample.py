"""One benchmark sample, meant to run in a fresh process.

    PYTHONPATH=src python3 bench/sample.py MODE WORKLOAD INPUT OUTPUT

MODE is ``plain`` (timed, untraced), ``traced`` (timed, with spans) or
``count`` (untimed, with the engine's own counters). The sample reads
INPUT the way the command line does, writes the diagram to OUTPUT, runs
the reduction oracle on the same complex and prints one JSON object.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from camph import builders, engine, io, oracle, reorder
from camph.annotations import CompressedAnnotationMatrix
from camph.diagram import diagram_equal
from camph.field import OpCountingField, PrimeField
from camph.simplex_tree import SimplexTree

import probe
from tracing import Tracer, summarize
from workloads import WORKLOADS, Workload

# per-layer self time: the span names whose self times add up to it
SELF_TIME_SPANS = {
    "io.read_s": ("io.read_points", "io.read_filtration"),
    "io.write_s": ("io.format_diagram", "io.write"),
    "builders.rips_s": ("builders.build_rips",),
    "simplex_tree.finalize_s": ("simplex_tree.finalize",),
    "simplex_tree.query_s": ("simplex_tree.boundary", "simplex_tree.value"),
    "reorder.self_s": ("reorder.reordered_filtration",),
    "engine.self_s": ("engine.insert", "engine.lazy_evaluation", "engine.finish"),
    "annotations.kill_cocycle_s": ("annotations.kill_cocycle",),
    "annotations.find_annotation_s": ("annotations.find_annotation",),
    "oracle.reduce_s": ("oracle.reduce",),
}
# per-layer call count: the span names whose calls add up to it
CALL_SPANS = {
    "simplex_tree.boundary_calls": ("simplex_tree.boundary",),
    "simplex_tree.value_calls": ("simplex_tree.value",),
    "engine.calls": ("engine.insert", "engine.lazy_evaluation"),
    "annotations.kill_cocycle_calls": ("annotations.kill_cocycle",),
    "annotations.find_annotation_calls": ("annotations.find_annotation",),
    "annotations.create_cocycle_calls": ("annotations.create_cocycle",),
}


def load(workload: Workload, input_path) -> SimplexTree:
    """Input file -> finalized complex, as the command line does it."""
    if workload.input_format == "points":
        points = io.read_points(input_path)
        return builders.build_rips(points, workload.rips_max_edge, workload.max_dim)
    return io.read_filtration(input_path)


def pipeline(workload: Workload, input_path, output_path, tracer=None) -> dict:
    """Input file -> finalized complex -> written diagram -> oracle diagram.

    Every camph function is looked up at call time, so a tracer's patches
    apply. The three phases are timed between four speed probes and
    reported both as measured (``raw``) and rescaled by the probes'
    median (see probe.py). ``peak_rss_mib`` is the process's peak
    resident memory once the diagram is written.
    """
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    clock = time.perf_counter
    field = PrimeField(workload.prime)
    with probe.Server() as speed:
        probes = [speed()]
        t0 = clock()
        tree = load(workload, input_path)
        t1 = clock()
        probes.append(speed())
        options = engine.EngineOptions(lazy=workload.lazy, reorder=workload.reorder)
        t2 = clock()
        diagram, _ = engine.compute_persistence(tree, field, options)
        text = io.format_diagram(diagram)
        with span("io.write"):
            Path(output_path).write_text(text, encoding="utf-8")
        t3 = clock()
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        probes.append(speed())
        t4 = clock()
        reference = oracle.reduce(tree, field)
        t5 = clock()
        probes.append(speed())
    raw = {"setup_s": t1 - t0, "diagram_s": t3 - t2, "oracle_s": t5 - t4}
    scale = probe.scale(probes)
    return {
        "simplices": len(tree),
        **{name: value * scale for name, value in raw.items()},
        "wall_s": sum(raw.values()) * scale,
        "scale": scale,
        "raw": raw,
        "probes": probes,
        "peak_rss_mib": rss_kib / 1024,
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "oracle_equal": diagram_equal(diagram, reference),
    }


def instrument(tracer: Tracer) -> None:
    """Spans around the public calls into each camph module."""

    def spanned(name):
        return lambda fn: tracer.wrap(name, fn)

    def counting_forced(fn):
        def lazy_evaluation(self, simplex):
            if self.is_marked(simplex):
                tracer.counts["engine.forced"] += 1
            return fn(self, simplex)

        return tracer.wrap("engine.lazy_evaluation", lazy_evaluation)

    tracer.patch(io, "read_points", spanned("io.read_points"))
    tracer.patch(io, "read_filtration", spanned("io.read_filtration"))
    tracer.patch(io, "format_diagram", spanned("io.format_diagram"))
    tracer.patch(builders, "build_rips", spanned("builders.build_rips"))
    for method in ("finalize", "boundary", "value"):
        tracer.patch(SimplexTree, method, spanned(f"simplex_tree.{method}"))
    # counted only: reorder is its one caller, so its time stays reorder's
    tracer.patch(
        SimplexTree,
        "cofacets",
        lambda fn: tracer.counted("simplex_tree.cofacets_calls", fn),
    )
    # compute_persistence looks this up in the engine module
    tracer.patch(engine, "reordered_filtration", spanned("reorder.reordered_filtration"))
    engine_cls = engine.PersistenceEngine
    tracer.patch(engine_cls, "insert", spanned("engine.insert"))
    tracer.patch(engine_cls, "lazy_evaluation", counting_forced)
    tracer.patch(engine_cls, "finish", spanned("engine.finish"))
    for method in ("kill_cocycle", "create_cocycle", "find_annotation"):
        tracer.patch(
            CompressedAnnotationMatrix, method, spanned(f"annotations.{method}")
        )
    tracer.patch(oracle, "reduce", spanned("oracle.reduce"))


def traced_sample(workload: Workload, input_path, output_path) -> dict:
    """A timed sample with spans; self times are rescaled like the phases."""
    tracer = Tracer()
    instrument(tracer)
    try:
        result = pipeline(workload, input_path, output_path, tracer)
    finally:
        tracer.restore()
    scale = result["scale"]
    self_s, calls = summarize(tracer.spans)
    layers = {
        metric: scale * sum(self_s[name] for name in names)
        for metric, names in SELF_TIME_SPANS.items()
    }
    layers["engine.finish_s"] = scale * sum(
        end - start for name, start, end, _ in tracer.spans if name == "engine.finish"
    )
    counts = {
        metric: sum(calls[name] for name in names)
        for metric, names in CALL_SPANS.items()
    }
    counts["simplex_tree.cofacets_calls"] = tracer.counts["simplex_tree.cofacets_calls"]
    counts["engine.forced"] = tracer.counts["engine.forced"]
    result["layers"] = layers
    result["counts"] = counts
    result["unaccounted_s"] = result["wall_s"] - scale * sum(self_s.values())
    return result


def count_sample(workload: Workload, input_path, output_path) -> dict:
    """The paper's counters and reorder's work, from an untimed run."""
    tree = load(workload, input_path)
    sequences = []
    tracer = Tracer()

    def capturing(fn):
        def reordered_filtration(complex):
            sequences.append(fn(complex))
            return sequences[-1]

        return reordered_filtration

    tracer.patch(engine, "reordered_filtration", capturing)
    try:
        options = engine.EngineOptions(
            lazy=workload.lazy, reorder=workload.reorder, record_stats=True
        )
        diagram, stats = engine.compute_persistence(
            tree, PrimeField(workload.prime), options
        )
    finally:
        tracer.restore()
    text = io.format_diagram(diagram)
    Path(output_path).write_text(text, encoding="utf-8")
    oracle_field = OpCountingField(workload.prime)
    reference = oracle.reduce(tree, oracle_field)

    blocks = max_block = moved = 0
    if sequences:
        slabs = reorder.slab_partition(tree)
        blocks = len(slabs)
        max_block = max(len(slab.simplices) for slab in slabs)
        order = tree.filtration_order()
        moved = sum(a != b for a, b in zip(order, sequences[0]))
    return {
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "oracle_equal": diagram_equal(diagram, reference),
        "counts": {
            "io.input_bytes": Path(input_path).stat().st_size,
            "io.output_bytes": len(text.encode()),
            "reorder.blocks": blocks,
            "reorder.max_block": max_block,
            "reorder.moved_frac": moved / len(tree),
            "annotations.G_m": stats.g_max_total,
            "annotations.S_m": stats.s_max_total,
            "annotations.nonzeros_peak": stats.matrix_nonzeros_peak,
            "field.engine_ops": stats.field_ops,
            "field.oracle_ops": oracle_field.ops,
        },
    }


SAMPLERS = {"plain": pipeline, "traced": traced_sample, "count": count_sample}


if __name__ == "__main__":
    mode, name, input_path, output_path = sys.argv[1:]
    # One CPU for the sample and, by inheritance, for its probe process: the
    # two CPUs of the development VM slow down independently of each other.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print(json.dumps(SAMPLERS[mode](WORKLOADS[name], input_path, output_path)))
