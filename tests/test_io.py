import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from camph import (
    PersistenceDiagram,
    PersistencePair,
    PrimeField,
    SimplexTree,
    compute_persistence,
    format_diagram,
    read_filtration,
    read_points,
)
from camph import io
from camph.errors import (
    ClosureViolation,
    InvariantViolation,
    MonotonicityViolation,
    ParseError,
)

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


def test_read_points_bad_coordinate_rejected(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("# cloud\n1.0 2.0\n0.0 abc\n")
    with pytest.raises(ParseError, match="bad coordinate") as err:
        read_points(path)
    assert err.value.line == 3
    assert f"{path}:3" in str(err.value)


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


def test_rejected_group_without_a_faulty_line_is_an_invariant_violation(
    tmp_path, monkeypatch
):
    # a valid but unclosed file: the line-by-line read must find no faulty
    # line and report the disagreement before anything finalizes the file
    path = tmp_path / "open.flt"
    path.write_text("1.0 0 1\n")
    monkeypatch.setattr(io, "_group_records", lambda columns, ids: None)
    with pytest.raises(InvariantViolation, match="no line is faulty"):
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


def _format_each_pair(diagram: PersistenceDiagram) -> str:
    lines = [f"{dim} {float(b)!r} {float(d)!r}" for dim, b, d, _, _ in diagram.pairs]
    return "\n".join(lines) + ("\n" if lines else "")


_FORMAT_VALUES = st.sampled_from([0, 0.0, -0.0, 1, 1.0, 2.5, -1.5, math.inf])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), _FORMAT_VALUES, _FORMAT_VALUES)))
@example([(0, 1, 2.5), (0, 1.0, 2.5), (1, 1, 2.5), (1, 1, 2.5)])
@example([(0, 0.0, -0.0), (0, -0.0, 0.0), (0, 0, 0), (1, -0.0, -0.0)])
@example([(0, 1.0, math.inf), (0, 1, math.inf), (1, 1.0, math.inf), (2, 1.0, math.inf)])
def test_format_matches_one_string_per_pair(triples):
    # runs of equal values, and repeated lines, reuse earlier text; the
    # bytes must be those of formatting every pair on its own
    diagram = PersistenceDiagram([PersistencePair(*triple) for triple in triples])
    assert format_diagram(diagram) == _format_each_pair(diagram)


def test_comments_and_blank_lines_skipped(tmp_path):
    path = tmp_path / "c.flt"
    path.write_text("# header\n\n0.0 0\n  # indented comment\n")
    c = read_filtration(path)
    assert len(c) == 1


def read_line_by_line(path) -> SimplexTree:
    """Reference model of read_filtration: one insert_simplex per data
    line, in file order, then finalize()."""
    tree = SimplexTree()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            tokens = raw.split()
            if not tokens or tokens[0].startswith("#"):
                continue
            if len(tokens) < 2:
                raise ParseError("expected: value v0 [v1 ...]", path=path, line=lineno)
            try:
                value = float(tokens[0])
                vertices = [int(token) for token in tokens[1:]]
            except ValueError as exc:
                raise ParseError(f"bad token ({exc})", path=path, line=lineno)
            try:
                tree.insert_simplex(vertices, value)
            except ValueError as exc:
                raise ParseError(str(exc), path=path, line=lineno)
    tree.finalize()
    return tree


def outcome(read, path):
    """The frozen views of read(path), or the type, text and line of what
    it raised."""
    try:
        tree = read(path)
    except (ParseError, ClosureViolation, MonotonicityViolation) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return tree.simplex_of, tree.value_of, tree.dim_of, tree.faces_of, tree.dimension


VALUE_TOKENS = ["-0.0", "0.0", "0", "-0", "0.5", "1.0", "1", "1.5", "2.0", "1e0"]
FAULTY_LINES = ["1.0", "x 0", "1.0 0 y", "1.0 -1", "1.0 2 2", "inf 0", "nan 1 0", "1e400 0"]
SEPARATORS = [" ", " ", " ", "  ", "\t", " \t", "\x0c", "\x1c"]
LINE_ENDS = ["\n", "\n", "\r\n", "\r"]


@st.composite
def filtration_files(draw) -> str:
    n = draw(st.integers(1, 6))
    simplices = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True),
            max_size=10,
        )
    )
    if draw(st.booleans()):  # closed under faces, so finalize() checks values
        simplices += [
            [v for v in s if v != left_out] for s in simplices if len(s) > 1 for left_out in s
        ]
    # some simplices listed twice, each time with its own value
    simplices += draw(st.lists(st.sampled_from(simplices), max_size=4)) if simplices else []
    rows = [
        [draw(st.sampled_from(VALUE_TOKENS)), *map(str, draw(st.permutations(s)))]
        for s in simplices
    ]
    rows = draw(st.permutations(rows))  # dimensions interleaved
    lines = [draw(st.sampled_from(SEPARATORS)).join(row) for row in rows]
    extra = st.sampled_from(["", "   ", "# comment", "  # indented 1 2", "#", "#0.0 5", "\t"])
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(extra))
    if lines and draw(st.integers(0, 4)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(FAULTY_LINES)))
    lines = [draw(st.sampled_from(["", " ", "\t"])) + line for line in lines]
    ends = [draw(st.sampled_from(LINE_ENDS)) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line end after the last line
    return text


@settings(max_examples=300, deadline=None)
@given(filtration_files(), st.integers(1, 64))
def test_read_filtration_matches_line_by_line_model(tmp_path_factory, text, chunk):
    path = tmp_path_factory.mktemp("flt") / "drawn.flt"
    path.write_bytes(text.encode("utf-8"))
    saved, io._CHUNK = io._CHUNK, chunk  # small chunks: lines fall on every side of a cut
    try:
        got = outcome(read_filtration, path)
    finally:
        io._CHUNK = saved
    assert got == outcome(read_line_by_line, path)
    if not isinstance(got[0], type):
        value_of = got[1]
        assert not any(v == 0.0 and math.copysign(1.0, v) < 0 for v in value_of)


def _fault(path, text):
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        read_filtration(path)
    return str(err.value), err.value.line


@pytest.mark.parametrize("swap", [False, True])
def test_first_fault_in_file_order_across_token_counts(tmp_path, swap):
    path = tmp_path / "two.flt"
    bad_value, bad_vertex = "x 0 1", "1.0 -1"
    faults = [bad_vertex, bad_value] if swap else [bad_value, bad_vertex]
    message, line = _fault(path, "0.0 0\n0.0 1\n" + "\n".join(faults) + "\n")
    assert line == 3
    if swap:
        assert message == f"{path}:3: vertex ids must be non-negative ints, got -1"
    else:
        assert message == f"{path}:3: bad token (could not convert string to float: 'x')"


def test_fault_after_unsorted_line(tmp_path):
    path = tmp_path / "unsorted.flt"
    message, line = _fault(path, "0.0 0\n0.0 1\n1.0 1 0\n2.0 1 1\n")
    assert (message, line) == (f"{path}:4: duplicate vertices in (1, 1)", 4)


def test_fault_beyond_the_first_chunk(tmp_path):
    path = tmp_path / "long.flt"
    lines = [f"0.0 {v}" for v in range(4999)] + ["nan 5"]
    assert len("\n".join(lines)) > 2 * io._CHUNK
    message, line = _fault(path, "\n".join(lines) + "\n")
    assert (message, line) == (f"{path}:5000: value nan of (5,) is not finite", 5000)


def test_one_token_line_after_other_sizes(tmp_path):
    path = tmp_path / "short.flt"
    message, line = _fault(path, "0.0 0\n0.0 1\n1.0 0 1\n2.5\n")
    assert (message, line) == (f"{path}:4: expected: value v0 [v1 ...]", 4)


@pytest.mark.parametrize("separator", ["\x1c", "\x0c"])
def test_separator_that_splitlines_would_break_on_stays_in_its_line(tmp_path, separator):
    path = tmp_path / "sep.flt"
    path.write_text(f"0.0 0\n0.0{separator}1\n1.0 0{separator}1\n")
    c = read_filtration(path)
    assert c.simplex_of == ((0,), (1,), (0, 1))
    message, line = _fault(path, f"0.0 0\n0.0{separator}1\n1.0 0{separator}x\n")
    assert (message, line) == (
        f"{path}:3: bad token (invalid literal for int() with base 10: 'x')",
        3,
    )
