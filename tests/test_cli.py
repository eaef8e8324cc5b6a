import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from camph import PersistenceDiagram, PersistencePair
from camph.cli import main
from camph.errors import (
    InvariantViolation,
    SlotAlreadyAssigned,
    ZeroAnnotation,
)

DATA = Path(__file__).parent / "data"


def run_cli(*args):
    return main(list(args))


def test_filtration_to_diagram(tmp_path):
    out = tmp_path / "tri.dgm"
    code = run_cli(
        "--input", str(DATA / "tri.flt"),
        "--format", "filtration",
        "--field", "2",
        "--output", str(out),
    )
    assert code == 0
    assert out.read_bytes() == (DATA / "tri_z2.dgm").read_bytes()


@pytest.mark.parametrize(
    "flt,dgm,field",
    [
        ("tri.flt", "tri_z2.dgm", "2"),
        ("hollow.flt", "hollow_z2.dgm", "2"),
        ("rp2.flt", "rp2_z2.dgm", "2"),
        ("rp2.flt", "rp2_z3.dgm", "3"),
    ],
)
def test_golden_diagrams(tmp_path, flt, dgm, field):
    out = tmp_path / "out.dgm"
    code = run_cli(
        "--input", str(DATA / flt),
        "--format", "filtration",
        "--field", field,
        "--oracle",
        "--output", str(out),
    )
    assert code == 0
    assert out.read_bytes() == (DATA / dgm).read_bytes()


def test_composite_field_exits_1(tmp_path, capsys):
    code = run_cli(
        "--input", str(DATA / "tri.flt"),
        "--format", "filtration",
        "--field", "4",
        "--output", str(tmp_path / "x.dgm"),
    )
    assert code == 1
    assert "CompositeModulus" in capsys.readouterr().err


def test_strategies_do_not_change_output_bytes(tmp_path):
    fast = tmp_path / "fast.dgm"
    plain = tmp_path / "plain.dgm"
    base = ["--input", str(DATA / "rp2.flt"), "--format", "filtration", "--field", "2"]
    assert run_cli(*base, "--lazy", "--reorder", "--output", str(fast)) == 0
    assert run_cli(*base, "--no-lazy", "--no-reorder", "--output", str(plain)) == 0
    assert fast.read_bytes() == plain.read_bytes()


def test_repeated_runs_are_byte_identical(tmp_path):
    first = tmp_path / "a.dgm"
    second = tmp_path / "b.dgm"
    args = ["--input", str(DATA / "rp2.flt"), "--format", "filtration", "--field", "11"]
    assert run_cli(*args, "--output", str(first)) == 0
    assert run_cli(*args, "--output", str(second)) == 0
    assert first.read_bytes() == second.read_bytes()


# vertices and edges at 0.0 and -0.0, which compare equal, so which of
# them a mode pairs would decide the sign it prints: -0.0 is read as 0.0,
# and every mode writes the same bytes
SIGNED_ZEROS = "0 0\n-0.0 1\n0.0 2\n-0.0 3\n-0.0 0 1\n0.0 2 3\n0.5 1 2\n"
SIGNED_ZEROS_DIAGRAM = "0 0.0 0.0\n0 0.0 0.0\n0 0.0 0.5\n0 0.0 inf\n"


@pytest.mark.parametrize(
    "modes",
    [
        ["--lazy", "--reorder"],
        ["--no-lazy", "--reorder"],
        ["--lazy", "--no-reorder"],
        ["--no-lazy", "--no-reorder"],
    ],
    ids=["lazy-reorder", "reorder", "lazy", "plain"],
)
def test_signed_zeros_written_with_their_sign(tmp_path, modes):
    flt = tmp_path / "zeros.flt"
    flt.write_text(SIGNED_ZEROS)
    base = ["--input", str(flt), "--format", "filtration", "--field", "2", *modes]
    out = tmp_path / "all.dgm"
    assert run_cli(*base, "--emit-zero-length", "--output", str(out)) == 0
    assert out.read_text() == SIGNED_ZEROS_DIAGRAM
    assert run_cli(*base, "--output", str(out)) == 0
    nonzero_lengths = SIGNED_ZEROS_DIAGRAM.splitlines(keepends=True)[2:]
    assert out.read_text() == "".join(nonzero_lengths)


def test_points_mode(tmp_path):
    pts = tmp_path / "pts.txt"
    pts.write_text("0.0 0.0\n1.0 0.0\n0.0 1.0\n")
    out = tmp_path / "pts.dgm"
    code = run_cli(
        "--input", str(pts),
        "--format", "points",
        "--field", "2",
        "--rips-max-edge", "2.0",
        "--max-dim", "2",
        "--oracle",
        "--output", str(out),
    )
    assert code == 0
    assert out.read_text().splitlines()[0] == "0 0.0 1.0"


def test_points_mode_requires_rips_arguments(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("0.0\n1.0\n")
    code = run_cli("--input", str(pts), "--format", "points", "--field", "2")
    assert code == 1
    assert "rips-max-edge" in capsys.readouterr().err


def test_parse_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.flt"
    bad.write_text("zero 0\n")
    code = run_cli("--input", str(bad), "--format", "filtration", "--field", "2")
    assert code == 1
    assert "ParseError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,input_format,flags,message",
    [
        ("0.0 0.0\nnan 1.0\n0.0 1.0\n", "points",
         ["--rips-max-edge", "2.0", "--max-dim", "2"],
         r"ParseError: \S*pts\.txt:2: coordinates must be finite"),
        ("0.0 0\nnan 1\n", "filtration", [],
         r"ParseError: \S*pts\.txt:2: value nan of \(1,\) is not finite"),
        ("0.0 0.0\n0.0 1.0\n", "points", ["--rips-max-edge", "nan", "--max-dim", "2"],
         r"ValueError: max_edge_length must be non-negative, got nan"),
    ],
    ids=["coordinate", "filtration-value", "rips-max-edge"],
)
def test_non_finite_coordinate_exits_1(
    tmp_path, capsys, text, input_format, flags, message
):
    # a NaN anywhere in the input is bad input, named in the one error line
    pts = tmp_path / "pts.txt"
    pts.write_text(text)
    out = tmp_path / "pts.dgm"
    code = run_cli(
        "--input", str(pts),
        "--format", input_format,
        "--field", "2",
        *flags,
        "--output", str(out),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert re.search(message, err), err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_missing_file_exits_1(tmp_path):
    code = run_cli(
        "--input", str(tmp_path / "nope.flt"), "--format", "filtration", "--field", "2"
    )
    assert code == 1


def test_stats_written_next_to_output(tmp_path):
    out = tmp_path / "tri.dgm"
    code = run_cli(
        "--input", str(DATA / "tri.flt"),
        "--format", "filtration",
        "--field", "2",
        "--stats",
        "--no-lazy", "--no-reorder",
        "--output", str(out),
    )
    assert code == 0
    stats_text = (tmp_path / "tri.dgm.stats").read_text()
    assert "field_ops=13" in stats_text
    assert "G_m=3" in stats_text


def test_stats_to_stderr_without_output(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    shutil.copy(DATA / "tri.flt", "tri.flt")
    code = run_cli(
        "--input", "tri.flt", "--format", "filtration", "--field", "2", "--stats"
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "0 0.0 inf" in captured.out
    assert "G_m=" in captured.err


def test_oracle_mismatch_exits_3(tmp_path, capsys, monkeypatch):
    # force a disagreement to exercise the diff report path
    import camph.cli as cli_module

    def fake_reduce(complex, field, emit_zero_length=False):
        return PersistenceDiagram([PersistencePair(0, 0.0, 123.0)])

    monkeypatch.setattr(cli_module, "oracle_reduce", fake_reduce)
    out = tmp_path / "tri.dgm"
    code = run_cli(
        "--input", str(DATA / "tri.flt"),
        "--format", "filtration",
        "--field", "2",
        "--oracle",
        "--output", str(out),
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "differ" in err
    assert "oracle only" in err
    # the diagram itself is still written
    assert out.read_bytes() == (DATA / "tri_z2.dgm").read_bytes()


@pytest.mark.parametrize(
    "error",
    [SlotAlreadyAssigned, ZeroAnnotation, InvariantViolation],
)
def test_engine_error_exits_2(tmp_path, capsys, monkeypatch, error):
    # these subclass ValueError, yet raised by the engine they are bugs,
    # not bad input
    import camph.cli as cli_module

    def failing_engine(complex, field, options):
        raise error("raised inside the engine")

    monkeypatch.setattr(cli_module, "compute_persistence", failing_engine)
    out = tmp_path / "tri.dgm"
    code = run_cli(
        "--input", str(DATA / "tri.flt"),
        "--format", "filtration",
        "--field", "2",
        "--output", str(out),
    )
    assert code == 2
    assert f"internal {error.__name__}" in capsys.readouterr().err
    assert not out.exists()


def test_reader_check_failure_exits_2(tmp_path, capsys, monkeypatch):
    # a columnar check that fails on a file whose every line is valid is a
    # bug of the reader, not bad input
    import camph.io as io_module

    monkeypatch.setattr(io_module, "_group_records", lambda columns, ids: None)
    flt = tmp_path / "three.flt"
    flt.write_text("0.0 0\n0.0 1\n1.0 0 1\n", encoding="utf-8")
    out = tmp_path / "three.dgm"
    code = run_cli(
        "--input", str(flt),
        "--format", "filtration",
        "--field", "2",
        "--output", str(out),
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"camph: error: internal InvariantViolation: {flt}: "
        "a check failed, but no line is faulty"
    ]
    assert not out.exists()


def test_unwritable_output_exits_1(tmp_path, capsys):
    out = tmp_path / "missing" / "tri.dgm"
    code = run_cli(
        "--input", str(DATA / "tri.flt"),
        "--format", "filtration",
        "--field", "2",
        "--output", str(out),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("camph: error: FileNotFoundError")
    assert len(err.splitlines()) == 1


def test_unwritable_stats_file_exits_1(tmp_path, capsys):
    out = tmp_path / "tri.dgm"
    (tmp_path / "tri.dgm.stats").mkdir()
    code = run_cli(
        "--input", str(DATA / "tri.flt"),
        "--format", "filtration",
        "--field", "2",
        "--stats",
        "--output", str(out),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("camph: error: ")
    assert len(err.splitlines()) == 1



TRI = str(DATA / "tri.flt")


@pytest.mark.parametrize(
    "args,message",
    [
        (["--input", TRI, "--format", "filtration", "--field", "2", "--bogus"],
         "unrecognized arguments: --bogus"),
        (["--input", TRI, "--format", "points", "--field", "2",
          "--rips-max-edge", "1.0", "--max-dim", "two"], "--max-dim"),
        (["--input", TRI, "--format", "filtration", "--field", "two"], "--field"),
        (["--format", "filtration", "--field", "2"], "--input"),
        (["--input", TRI, "--format", "filtration"], "--field"),
        (["--input", TRI, "--format", "filtration", "--field", "2",
          "--max-dim", "0", "--rips-max-edge", "0.1"], "points input only"),
        (["--input", TRI, "--format", "filtration", "--field",
          "100000000000000000039"], "2**64"),
    ],
    ids=["unknown-flag", "bad-max-dim", "bad-field", "missing-input", "missing-field",
         "points-flags-on-filtration", "oversized-field"],
)
def test_usage_error_exits_1(args, message, capsys):
    # argparse alone prints the usage and exits 2, which is the engine-error code
    assert run_cli(*args) == 1
    err = capsys.readouterr().err
    assert err.startswith("camph: error: ")
    assert message in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "flag,code", [("--help", 0), ("--bogus", 1)], ids=["help", "unknown-flag"]
)
def test_python_dash_m_camph(flag, code):
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, "-m", "camph", flag],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert result.returncode == code, result.stderr
    if code == 0:
        assert result.stdout.startswith("usage: camph")
    else:
        assert result.stderr.startswith("camph: error: ")
