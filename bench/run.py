"""camph benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src``.
The input is generated from the seed into a scratch directory under
``bench/_work``. Every sample runs in a fresh process (``sample.py``),
which keeps one sample's heap and allocator state out of the next; the
metrics are medians over samples.

``--trace 0`` repeats untraced samples for S seconds and reports the
end-to-end metrics. ``--trace 1`` makes one untimed counting run, then
alternates untraced and traced samples for S seconds and reports the
per-layer metrics. Every sample checks its diagram against the reduction
oracle and the workload's committed digest. Each metric is printed as
``name value unit``; the last line is one JSON object. The exit code is
0 when every sample passed, 1 when one failed and 2 on a usage error.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, generate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SAMPLE_TIMEOUT_S = 150

END_TO_END = {
    "simplices_per_s": "1/s",
    "setup_s": "s",
    "diagram_s": "s",
    "oracle_s": "s",
    "peak_rss_mib": "MiB",
}
PER_LAYER_TIMES = [
    "io.read_s",
    "io.write_s",
    "builders.rips_s",
    "simplex_tree.finalize_s",
    "simplex_tree.query_s",
    "reorder.self_s",
    "engine.self_s",
    "engine.finish_s",
    "annotations.kill_cocycle_s",
    "annotations.find_annotation_s",
    "oracle.reduce_s",
    "trace.unaccounted_s",
]
PER_LAYER_COUNTS = {
    "io.input_bytes": "bytes",
    "io.output_bytes": "bytes",
    "simplex_tree.boundary_calls": "count",
    "simplex_tree.value_calls": "count",
    "simplex_tree.cofacets_calls": "count",
    "reorder.blocks": "count",
    "reorder.max_block": "count",
    "reorder.moved_frac": "ratio",
    "engine.calls": "count",
    "engine.forced": "count",
    "annotations.kill_cocycle_calls": "count",
    "annotations.find_annotation_calls": "count",
    "annotations.create_cocycle_calls": "count",
    "annotations.G_m": "count",
    "annotations.S_m": "count",
    "annotations.nonzeros_peak": "count",
    "field.engine_ops": "count",
    "field.oracle_ops": "count",
}
PER_LAYER = {
    **{name: "s" for name in PER_LAYER_TIMES},
    **PER_LAYER_COUNTS,
    "trace.overhead_frac": "ratio",
}


def run_sample(mode: str, workload: str, input_path: Path, output_path: Path) -> dict:
    """One sample in a fresh interpreter; raises RuntimeError if it fails."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "sample.py"), mode, workload,
         str(input_path), str(output_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=SAMPLE_TIMEOUT_S,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        reason = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        raise RuntimeError(f"sample exited {proc.returncode}: {reason[0]}")
    return json.loads(lines[-1])


def check(sample: dict, digest: str | None) -> None:
    if not sample["oracle_equal"]:
        raise RuntimeError("engine and oracle diagrams differ")
    if digest is not None and sample["digest"] != digest:
        raise RuntimeError(f"diagram digest {sample['digest']} != committed {digest}")


def end_to_end(plain: list[dict]) -> dict:
    """Medians over untraced samples."""
    median = statistics.median
    return {
        "simplices_per_s": median(
            s["simplices"] / (s["setup_s"] + s["diagram_s"]) for s in plain
        ),
        "setup_s": median(s["setup_s"] for s in plain),
        "diagram_s": median(s["diagram_s"] for s in plain),
        "oracle_s": median(s["oracle_s"] for s in plain),
        "peak_rss_mib": median(s["peak_rss_mib"] for s in plain),
    }


def per_layer(plain: list[dict], traced: list[dict], counted: dict) -> dict:
    """Median self times of the traced samples and their counts.

    Raises RuntimeError when two traced samples disagree on a count.
    """
    for sample in traced[1:]:
        if sample["counts"] != traced[0]["counts"]:
            raise RuntimeError("counts differ between traced samples")
    median = statistics.median
    metrics = {
        name: median(s["layers"][name] for s in traced)
        for name in traced[0]["layers"]
    }
    metrics["trace.unaccounted_s"] = median(s["unaccounted_s"] for s in traced)
    metrics["trace.overhead_frac"] = (
        median(s["wall_s"] for s in traced) / median(s["wall_s"] for s in plain) - 1
    )
    metrics.update(traced[0]["counts"])
    metrics.update(counted["counts"])
    return metrics


def collect(trace: bool, seconds: float, workload, input_path: Path, output_path: Path):
    """Samples for ``seconds``: returns the passing samples by mode and the
    failures. Every sample counts as attempted."""
    results: dict[str, list[dict]] = {"plain": [], "traced": [], "count": []}
    durations: dict[str, list[float]] = {mode: [] for mode in results}
    failures: list[str] = []

    def attempt(mode: str) -> None:
        started = time.perf_counter()
        try:
            sample = run_sample(mode, workload.name, input_path, output_path)
            check(sample, workload.digest)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            failures.append(f"{mode}: {exc}")
        else:
            results[mode].append(sample)
        durations[mode].append(time.perf_counter() - started)

    deadline = time.perf_counter() + seconds
    if trace:
        attempt("count")
    # Start a sample only if it should end before the deadline, but take at
    # least two of each mode: traced counts are compared between samples.
    for mode in itertools.cycle(["plain", "traced"] if trace else ["plain"]):
        expected = statistics.median(durations[mode] or [0])
        if len(failures) > 2 or (
            len(results[mode]) >= 2 and time.perf_counter() + expected > deadline
        ):
            break
        attempt(mode)
    return results, failures


def unscaled(plain: list[dict]) -> dict:
    """Median phase times as measured, and the median probe time."""
    out = {
        f"raw.{name}": statistics.median(s["raw"][name] for s in plain)
        for name in ("setup_s", "diagram_s", "oracle_s")
    }
    out["probe_s"] = statistics.median(p for s in plain for p in s["probes"])
    return out


def declared_names(trace: bool) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills and reaps the running sample,
    # and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "camph" / "__init__.py").is_file():
        print(f"bench: no camph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    units = PER_LAYER if args.trace else END_TO_END
    (BENCH / "_work").mkdir(exist_ok=True)
    work = BENCH / "_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        input_path = work / "input.txt"
        generate(workload, args.seed, input_path)
        results, failures = collect(
            args.trace, args.seconds, workload, input_path, work / "diagram.txt"
        )
    finally:
        shutil.rmtree(work)

    attempted = len(failures) + sum(map(len, results.values()))
    metrics = {}
    if not failures:
        try:
            if args.trace:
                metrics = per_layer(
                    results["plain"], results["traced"], results["count"][0]
                )
            else:
                metrics = end_to_end(results["plain"])
        except RuntimeError as exc:
            failures.append(str(exc))
    if metrics and sorted(metrics) != sorted(declared_names(args.trace)):
        failures.append("metric names differ from BENCHMARK.json")
    for failure in failures:
        print(f"bench: failed: {failure}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    if results["plain"]:
        for name, value in unscaled(results["plain"]).items():
            print(f"{name} {value} s")
    print(f"failed_frac {len(failures) / attempted} ratio")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
