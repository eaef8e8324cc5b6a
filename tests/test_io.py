import math

import pytest

from camph import (
    PersistenceDiagram,
    PersistencePair,
    PrimeField,
    compute_persistence,
    format_diagram,
    read_filtration,
    read_points,
)
from camph.errors import ClosureViolation, MonotonicityViolation, ParseError

from tests.fixtures import torus_7


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
    assert [len(point) for point in pts] == [3, 3]
    assert pts[0][2] == 1.5
    assert pts == [(0.0, 0.0, 1.5), (1.0, 2.0, 3.0)]


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


def test_read_filtration_sorts_each_line(tmp_path):
    path = tmp_path / "unsorted.flt"
    path.write_text("0.0 2\n0.0 0\n0.0 1\n1.0 1 0\n1.0 2 0\n1.0 2 1\n2.0 2 0 1\n")
    c = read_filtration(path)
    assert c.simplex_of[-1] == (0, 1, 2)
    assert c.value((0, 1, 2)) == 2.0
    assert sorted(c.simplex_of) == [
        (0,), (0, 1), (0, 1, 2), (0, 2), (1,), (1, 2), (2,)
    ]


@pytest.mark.parametrize(
    "lines", [["0.0 0", "0.0 1", "1.0 0 1", "3.0 1 0"], ["0.0 0", "0.0 1", "3.0 0 1", "1.0 1 0"]]
)
def test_read_filtration_twice_listed_simplex_keeps_smaller_value(tmp_path, lines):
    path = tmp_path / "twice.flt"
    path.write_text("\n".join(lines) + "\n")
    c = read_filtration(path)
    assert len(c) == 3
    assert c.value((0, 1)) == 1.0
    assert c.value_of == (0.0, 0.0, 1.0)


@pytest.mark.parametrize(
    "line, message",
    [
        ("1.0 0 -1", "vertex ids must be non-negative ints, got -1"),
        ("1.0 -2 0 -1", "vertex ids must be non-negative ints, got -2"),
        ("1.0 0 0", "duplicate vertices in (0, 0)"),
        ("inf 1 0", "value inf of (0, 1) is not finite"),
        ("-inf 0", "value -inf of (0,) is not finite"),
        ("nan 1", "value nan of (1,) is not finite"),
        ("1e400 1 0", "value inf of (0, 1) is not finite"),
    ],
)
def test_read_filtration_rejects_bad_simplices_by_line(tmp_path, line, message):
    path = tmp_path / "bad.flt"
    path.write_text(f"# header\n0.0 0\n0.0 1\n\n{line}\n")
    with pytest.raises(ParseError) as err:
        read_filtration(path)
    assert err.value.line == 5
    assert str(err.value) == f"{path}:5: {message}"


def test_read_filtration_surfaces_validation_errors(tmp_path):
    path = tmp_path / "open.flt"
    path.write_text("1.0 0 1\n")
    with pytest.raises(ClosureViolation):
        read_filtration(path)
    path.write_text("2.0 0\n0.0 1\n1.0 0 1\n")
    with pytest.raises(MonotonicityViolation):
        read_filtration(path)


def test_filtration_round_trip(tmp_path):
    # values written with repr, as the file format says, read back exactly
    original = torus_7()
    path = tmp_path / "torus.flt"
    path.write_text(
        "".join(
            " ".join([repr(value), *map(str, simplex)]) + "\n"
            for simplex, value in zip(original.simplex_of, original.value_of)
        )
    )
    loaded = read_filtration(path)
    assert sorted(zip(loaded.simplex_of, loaded.value_of)) == sorted(
        zip(original.simplex_of, original.value_of)
    )


def test_essential_class_written_as_inf():
    d = PersistenceDiagram([PersistencePair(0, 0.0, math.inf)])
    assert format_diagram(d) == "0 0.0 inf\n"


def test_signed_zeros_keep_their_sign(tmp_path):
    # a filtration value of -0.0 is read as 0.0, so no insertion order can
    # decide which zero is printed
    path = tmp_path / "zeros.flt"
    path.write_text("0 0\n-0.0 1\n0.0 2\n-0.0 3\n")
    d, _ = compute_persistence(read_filtration(path), PrimeField(2))
    assert format_diagram(d) == "0 0.0 inf\n0 0.0 inf\n0 0.0 inf\n0 0.0 inf\n"
    # -0.0 == 0.0 and they hash alike, so a table of written values keyed
    # by value alone would print one sign for both
    d = PersistenceDiagram(
        [
            PersistencePair(0, -0.0, 0.0),
            PersistencePair(1, 0, -0.0),
            PersistencePair(1, 0.0, math.inf),
            PersistencePair(1, 1, 2.5),
            PersistencePair(1, 1.0, 2.5),
        ]
    )
    assert format_diagram(d) == (
        "0 -0.0 0.0\n1 0.0 -0.0\n1 0.0 inf\n1 1.0 2.5\n1 1.0 2.5\n"
    )


def test_comments_and_blank_lines_skipped(tmp_path):
    path = tmp_path / "c.flt"
    path.write_text("# header\n\n0.0 0\n  # indented comment\n")
    c = read_filtration(path)
    assert len(c) == 1
