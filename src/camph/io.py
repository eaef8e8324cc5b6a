"""Text file formats: point clouds, filtrations, diagrams.

One record per line, whitespace-separated; lines whose first nonblank
character is ``#`` are comments. Floats are written with ``repr`` so
output is byte-stable and reads back exactly.

- point cloud:   ``x_1 x_2 ... x_D``         (one point per line)
- filtration:    ``value v_0 v_1 ... v_k``   (one simplex per line)
- diagram:       ``dim birth death``         (``inf`` for essential classes)
"""
from __future__ import annotations

import math
import numpy as np

from .diagram import PersistenceDiagram
from .errors import ParseError
from .simplex_tree import SimplexTree


def _fmt(x: float) -> str:
    return repr(float(x))


def _data_lines(path):
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, line


def read_points(path) -> np.ndarray:
    """Load a point cloud; every line must have the same arity and every
    coordinate must be finite."""
    rows: list[list[float]] = []
    width = None
    for lineno, line in _data_lines(path):
        try:
            coords = [float(tok) for tok in line.split()]
        except ValueError as exc:
            raise ParseError(f"bad coordinate ({exc})", path=path, line=lineno)
        if not all(map(math.isfinite, coords)):
            raise ParseError("coordinates must be finite", path=path, line=lineno)
        if width is None:
            width = len(coords)
        elif len(coords) != width:
            raise ParseError(
                f"expected {width} coordinates, got {len(coords)}",
                path=path,
                line=lineno,
            )
        rows.append(coords)
    if not rows:
        return np.empty((0, 0))
    return np.array(rows, dtype=float)


def read_filtration(path) -> SimplexTree:
    """Load and finalize a filtration; closure/monotonicity violations
    surface from finalize()."""
    tree = SimplexTree()
    for lineno, line in _data_lines(path):
        tokens = line.split()
        if len(tokens) < 2:
            raise ParseError("expected: value v0 [v1 ...]", path=path, line=lineno)
        try:
            value = float(tokens[0])
            verts = [int(tok) for tok in tokens[1:]]
        except ValueError as exc:
            raise ParseError(f"bad token ({exc})", path=path, line=lineno)
        if not math.isfinite(value):
            raise ParseError("filtration value must be finite", path=path, line=lineno)
        if any(v < 0 for v in verts):
            raise ParseError("vertex ids must be non-negative", path=path, line=lineno)
        if len(set(verts)) != len(verts):
            raise ParseError("duplicate vertex in simplex", path=path, line=lineno)
        tree.insert_simplex(verts, value)
    tree.finalize()
    return tree


def format_diagram(diagram: PersistenceDiagram) -> str:
    """Canonical text rendering, sorted by (dim, birth, death)."""
    triples = sorted(diagram.triples())
    lines = [f"{dim} {_fmt(birth)} {_fmt(death)}" for dim, birth, death in triples]
    return "\n".join(lines) + ("\n" if lines else "")

