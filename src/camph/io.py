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

from .diagram import PersistenceDiagram
from .errors import ParseError
from .simplex_tree import SimplexTree, _checked


def _data_lines(path):
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, line


def read_points(path) -> list[tuple[float, ...]]:
    """Load a point cloud as one float tuple per point; every line must
    have the same arity and every coordinate must be finite."""
    rows: list[tuple[float, ...]] = []
    width = None
    for lineno, line in _data_lines(path):
        try:
            coords = tuple(map(float, line.split()))
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
    return rows


def read_filtration(path) -> SimplexTree:
    """Load and finalize a filtration; closure/monotonicity violations
    surface from finalize().

    Each line is checked as SimplexTree.insert_simplex checks a simplex,
    with the same messages, a simplex listed twice keeps its smaller
    value, and a value of -0.0 is stored as 0.0.
    """
    values: dict[tuple[int, ...], float] = {}
    for lineno, line in _data_lines(path):
        tokens = line.split()
        if len(tokens) < 2:
            raise ParseError("expected: value v0 [v1 ...]", path=path, line=lineno)
        try:
            value = float(tokens[0]) + 0.0  # -0.0 is read as 0.0, as _checked does
            verts = sorted(map(int, tokens[1:]))
        except ValueError as exc:
            raise ParseError(f"bad token ({exc})", path=path, line=lineno)
        simplex = tuple(verts)
        if verts[0] < 0 or len(set(verts)) < len(verts) or not math.isfinite(value):
            # _checked raises with the message insert_simplex gives
            try:
                _checked(simplex, value)
            except ValueError as exc:
                raise ParseError(str(exc), path=path, line=lineno)
        old = values.get(simplex)
        if old is None or value < old:
            values[simplex] = value
    return SimplexTree._from_values(values)


def format_diagram(diagram: PersistenceDiagram) -> str:
    """Canonical text rendering, in the diagram's (dim, birth, death) order.

    Each value is written as ``repr(float(value))``, computed once per run
    of equal values in its column: the pairs are sorted, so equal births
    of one dimension are adjacent, as are the ``inf`` deaths of essential
    classes that share a birth. A zero is always written on its own,
    because ``-0.0 == 0.0`` would let one run print both with one sign.
    """
    lines = []
    birth_text = death_text = last_birth = last_death = None
    for dim, birth, death, _, _ in diagram.pairs:
        if birth != last_birth or not birth:
            birth_text, last_birth = repr(float(birth)), birth
        if death != last_death or not death:
            death_text, last_death = repr(float(death)), death
        lines.append(f"{dim} {birth_text} {death_text}")
    return "\n".join(lines) + ("\n" if lines else "")
