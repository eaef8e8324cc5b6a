"""A speed probe for rescaling times measured on a drifting machine.

The development VM (2 vCPUs on a shared host) runs pure-Python code 1.6
to 1.9 times slower for stretches of seconds to minutes. ``probe()`` times
four small fixed kernels that share no code with camph, and times measured
between probes are rescaled to a machine on which the probe takes
PROBE_NOMINAL_S. The kernels mimic the kinds of work camph does, because
a single kernel tracks the drift less well: in one experiment of nine
40-second runs the geometric mean of all four cut the spread of the phase
times to a third, where the dict kernel alone left the diagram phase as
noisy as it was.

The probe runs in a process of its own (``Server``): run inside the
measured process it slowed down by up to 2x once that process held a
large heap, which would rescale away part of any change to camph's
memory use. The server inherits the caller's CPU affinity; pin the
caller to one CPU, because the VM's two CPUs slow down independently
(probe times taken back to back on the two correlate at 0.2).
"""
from __future__ import annotations

import itertools
import math
import statistics
import subprocess
import sys
import time

# about the probe's time on the development VM in its fast state
PROBE_NOMINAL_S = 0.04

_SIMPLICES = [s for k in (1, 2, 3) for s in itertools.combinations(range(24), k)]


def _table() -> None:
    """Dict and tuple traffic."""
    table: dict = {}
    for i in range(150_000):
        key = (i % 97, i % 89)
        table[key] = table.get((i % 89, i % 97), 0) + 1
    sorted(table.items())


def _arithmetic() -> None:
    total = 0
    for i in range(500_000):
        total += i * i % 7


def _trie() -> None:
    """Build a trie of nested dicts, then look up cofaces, as a simplex tree does."""
    top: dict = {}
    for simplex in _SIMPLICES:
        children = top
        for v in simplex:
            node = children.get(v)
            if node is None:
                node = children[v] = [{}, None]
            children = node[0]
        node[1] = len(simplex)
    for simplex in _SIMPLICES[:1500]:
        for v in range(24):
            if v in simplex:
                continue
            children, node = top, None
            for w in sorted(simplex + (v,)):
                node = children.get(w)
                if node is None:
                    break
                children = node[0]


def _columns() -> None:
    """Sparse column updates modulo a prime, as an annotation matrix does."""
    columns = {i: [(j, i * j % 7919) for j in range(i % 13 + 1)] for i in range(3000)}
    for step in range(6):
        for i, column in columns.items():
            columns[i] = [(j, v) for j, c in column if (v := (c * 37 + step) % 7919)]


KERNELS = (_table, _arithmetic, _trie, _columns)


def probe() -> float:
    """Geometric mean of the seconds each kernel takes."""
    logs = []
    for kernel in KERNELS:
        start = time.perf_counter()
        kernel()
        logs.append(math.log(time.perf_counter() - start))
    return math.exp(sum(logs) / len(logs))


def scale(probes: list[float]) -> float:
    """Factor from times measured between ``probes`` to nominal seconds."""
    return PROBE_NOMINAL_S / statistics.median(probes)


class Server:
    """Runs probe() in a separate process, one run per call.

    The caller waits while the probe runs, so the two never compete for a
    CPU. Use as a context manager; leaving it ends the process.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self()  # the first run also pays for the process's own warm-up

    def __call__(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait(timeout=30)


if __name__ == "__main__":
    for _ in sys.stdin:
        print(probe(), flush=True)
