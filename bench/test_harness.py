"""Fast self-test of the benchmark harness at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q bench/test_harness.py
"""
from __future__ import annotations

import dataclasses
import json
import types

import pytest

import probe
import run
import sample
from tracing import Tracer, self_times, summarize
from workloads import WORKLOADS, generate

REAL_SERVER = probe.Server  # before the fixture below replaces it
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY_PARAMS = {
    "rips_torus": {"points": 40},
    "tied_blocks": {"points": 30, "max_edge": 1.2, "max_dim": 3, "digits": 1},
    "random_2complex": {"vertices": 10, "triangles": 40},
}


class NominalProbe:
    def __call__(self):
        return probe.PROBE_NOMINAL_S

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        pass


@pytest.fixture(autouse=True)
def steady_probe(monkeypatch):
    """The speed probe is timed in the benchmark proper; here it only costs."""
    monkeypatch.setattr(probe, "Server", NominalProbe)


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], params=TINY_PARAMS[name])


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds mid [1, 5] and a leaf [6, 7]; mid holds a leaf [2, 3]
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda: None)
    with tracer.span("root"):
        with tracer.span("mid"):
            leaf()
        leaf()
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [
        ("root", -1),
        ("mid", 0),
        ("leaf", 1),
        ("leaf", 0),
    ]
    assert self_times(tracer.spans) == [5.0, 3.0, 1.0, 1.0]
    self_s, calls = summarize(tracer.spans)
    assert self_s == {"root": 5.0, "mid": 3.0, "leaf": 2.0}
    assert calls == {"root": 1, "mid": 1, "leaf": 2}


def test_probe_scale_uses_the_median_probe():
    nominal = probe.PROBE_NOMINAL_S
    assert probe.scale([nominal, 2 * nominal, 2 * nominal, 9 * nominal]) == 0.5


def test_probe_server_answers_each_call_and_exits():
    with REAL_SERVER() as speed:
        times = [speed(), speed()]
    assert all(t > 0 for t in times)


def test_patch_counts_and_restores():
    owner = types.SimpleNamespace(f=lambda x: x + 1)
    original = owner.f
    tracer = Tracer()
    tracer.patch(owner, "f", lambda fn: tracer.counted("f_calls", fn))
    assert owner.f(1) == 2 and owner.f(2) == 3
    tracer.restore()
    assert owner.f is original
    assert tracer.counts["f_calls"] == 2


def test_spans_close_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    name, start, end, parent = tracer.spans[0]
    assert end is not None and end >= start and parent == -1


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert all(w.digest for w in WORKLOADS.values())


def test_units_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert declared == {**run.END_TO_END, **run.PER_LAYER}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_relabels_without_changing_the_diagram(name, tmp_path):
    workload = tiny(name)
    paths = [tmp_path / f"in{seed}.txt" for seed in (1, 1, 2)]
    for seed, path in zip((1, 1, 2), paths):
        generate(workload, seed, path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()
    digests = {
        sample.pipeline(workload, path, tmp_path / "out.txt")["digest"]
        for path in paths
    }
    assert len(digests) == 1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_metric_names_and_shape(name, tmp_path):
    workload = tiny(name)
    input_path, output_path = tmp_path / "in.txt", tmp_path / "out.txt"
    generate(workload, 7, input_path)
    plain = [sample.pipeline(workload, input_path, output_path) for _ in range(2)]
    traced = [sample.traced_sample(workload, input_path, output_path) for _ in range(2)]
    counted = sample.count_sample(workload, input_path, output_path)
    for result in plain + traced + [counted]:
        run.check(result, None)
    assert traced[0]["counts"] == traced[1]["counts"]

    e2e = run.end_to_end(plain)
    layers = run.per_layer(plain, traced, counted)
    assert list(e2e) == [m["name"] for m in SPEC["end_to_end"]]
    assert sorted(layers) == sorted(m["name"] for m in SPEC["per_layer"])
    assert all(value > 0 for value in e2e.values())
    assert (layers["builders.rips_s"] > 0) == (name == "rips_torus")
    assert (layers["reorder.self_s"] > 0) == workload.reorder
    assert (layers["simplex_tree.cofacets_calls"] > 0) == workload.reorder


def test_check_rejects_wrong_diagrams():
    run.check({"oracle_equal": True, "digest": "a"}, "a")
    with pytest.raises(RuntimeError):
        run.check({"oracle_equal": False, "digest": "a"}, "a")
    with pytest.raises(RuntimeError):
        run.check({"oracle_equal": True, "digest": "a"}, "b")


def test_counts_that_differ_between_traced_samples_fail():
    plain = [{"wall_s": 1.0}]
    traced = [
        {"wall_s": 1.0, "layers": {}, "unaccounted_s": 0.0, "counts": {"n": 1}},
        {"wall_s": 1.0, "layers": {}, "unaccounted_s": 0.0, "counts": {"n": 2}},
    ]
    with pytest.raises(RuntimeError):
        run.per_layer(plain, traced, {"counts": {}})
