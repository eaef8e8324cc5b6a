import math

import pytest

from camph import (
    PersistenceDiagram,
    PersistencePair,
    PrimeField,
    compute_persistence,
    format_diagram,
    read_diagram,
    read_filtration,
    read_points,
    write_diagram,
    write_filtration,
)
from camph.errors import ClosureViolation, MonotonicityViolation, ParseError

from tests.fixtures import full_triangle, torus_7

F2 = PrimeField(2)


def test_read_filtration_line(tmp_path):
    path = tmp_path / "edge.flt"
    path.write_text("0.0 0\n0.0 1\n1.0 0 1\n")
    c = read_filtration(path)
    assert c.value((0, 1)) == 1.0
    assert len(c) == 3


def test_read_points_line(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("# cloud in R^3\n0.0 0.0 1.5\n1.0 2.0 3.0\n")
    pts = read_points(path)
    assert pts.shape == (2, 3)
    assert pts[0, 2] == 1.5


def test_read_points_ragged_rejected(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("0.0 0.0\n1.0\n")
    with pytest.raises(ParseError) as err:
        read_points(path)
    assert err.value.line == 2


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_read_points_non_finite_rejected(tmp_path, bad):
    path = tmp_path / "pts.txt"
    path.write_text(f"0.0 0.0\n1.0 {bad}\n")
    with pytest.raises(ParseError, match="finite") as err:
        read_points(path)
    assert err.value.line == 2


def test_read_filtration_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.flt"
    path.write_text("0.0 0\nnot-a-number 1\n")
    with pytest.raises(ParseError) as err:
        read_filtration(path)
    assert err.value.line == 2

    path.write_text("0.0 0\n1.0 0 0\n")
    with pytest.raises(ParseError, match="duplicate"):
        read_filtration(path)

    path.write_text("1.0\n")
    with pytest.raises(ParseError):
        read_filtration(path)


def test_read_filtration_surfaces_validation_errors(tmp_path):
    path = tmp_path / "open.flt"
    path.write_text("1.0 0 1\n")
    with pytest.raises(ClosureViolation):
        read_filtration(path)
    path.write_text("2.0 0\n0.0 1\n1.0 0 1\n")
    with pytest.raises(MonotonicityViolation):
        read_filtration(path)


def test_filtration_round_trip(tmp_path):
    path = tmp_path / "torus.flt"
    original = torus_7()
    write_filtration(original, path)
    loaded = read_filtration(path)
    assert sorted(loaded.simplices()) == sorted(original.simplices())
    # and byte-stable on a second write
    second = tmp_path / "torus2.flt"
    write_filtration(loaded, second)
    assert path.read_bytes() == second.read_bytes()


def test_diagram_round_trip_and_idempotent_format(tmp_path):
    diagram, _ = compute_persistence(full_triangle(), F2)
    path = tmp_path / "tri.dgm"
    write_diagram(diagram, path)
    loaded = read_diagram(path)
    assert loaded.multiset() == diagram.multiset()
    again = tmp_path / "tri2.dgm"
    write_diagram(loaded, again)
    assert path.read_bytes() == again.read_bytes()


def test_essential_class_written_as_inf(tmp_path):
    d = PersistenceDiagram([PersistencePair(0, 0.0, math.inf)])
    assert format_diagram(d) == "0 0.0 inf\n"
    path = tmp_path / "e.dgm"
    write_diagram(d, path)
    assert read_diagram(path).triples() == [(0, 0.0, math.inf)]


def test_diagram_parse_error(tmp_path):
    path = tmp_path / "bad.dgm"
    path.write_text("0 0.0\n")
    with pytest.raises(ParseError):
        read_diagram(path)


def test_comments_and_blank_lines_skipped(tmp_path):
    path = tmp_path / "c.flt"
    path.write_text("# header\n\n0.0 0\n  # indented comment\n")
    c = read_filtration(path)
    assert len(c) == 1
