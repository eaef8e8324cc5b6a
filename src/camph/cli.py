"""Command-line front end.

Reads a point cloud or an explicit filtration, runs the engine, writes
the diagram (file or stdout). Exit codes: 0 success, 1 bad input, a bad
command line or an unwritable output file, 2 internal error (raised by
the engine, or a failed internal check while loading), 3 engine/oracle
mismatch under --oracle.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import io as formats
from .builders import build_rips
from .diagram import PersistenceDiagram, diagram_equal
from .engine import EngineOptions, compute_persistence
from .errors import CamphError
from .field import PrimeField
from .oracle import reduce as oracle_reduce

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2
EXIT_ORACLE = 3

# errors of reading the field, the points or the filtration; an error the
# engine raises is internal even where it subclasses ValueError
_INPUT_ERRORS = (ValueError, OSError)


class _UsageError(Exception):
    """A bad command line: unknown flag, bad value or missing argument."""


class _Parser(argparse.ArgumentParser):
    # argparse prints the usage and exits 2 on a bad flag; here that is an
    # input error (exit 1), and 2 stays reserved for engine errors
    def error(self, message: str):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="camph",
        description="Persistence diagrams of filtered simplicial complexes "
        "over prime fields.",
    )
    parser.add_argument("--input", required=True, help="input file path")
    parser.add_argument(
        "--format",
        required=True,
        choices=("points", "filtration"),
        help="points: build a flag-complex filtration; filtration: explicit list",
    )
    parser.add_argument(
        "--field", required=True, type=int, metavar="P", help="prime characteristic"
    )
    parser.add_argument(
        "--rips-max-edge",
        type=float,
        help="diameter cap for points input",
    )
    parser.add_argument(
        "--max-dim", type=int, help="top simplex dimension for points input"
    )
    parser.add_argument("--output", help="diagram file (default: stdout)")
    parser.add_argument(
        "--lazy",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="defer creator insertions (default on)",
    )
    parser.add_argument(
        "--reorder",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="reorder equal-value blocks (default on)",
    )
    parser.add_argument("--stats", action="store_true", help="emit run statistics")
    parser.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check against the reduction oracle",
    )
    parser.add_argument(
        "--emit-zero-length",
        action="store_true",
        help="keep pairs with equal birth and death",
    )
    return parser


def _fail(message: str) -> None:
    print(f"camph: error: {message}", file=sys.stderr)


def _print_diff(engine_d: PersistenceDiagram, oracle_d: PersistenceDiagram) -> None:
    left, right = engine_d.multiset(), oracle_d.multiset()
    print("camph: engine and oracle diagrams differ", file=sys.stderr)
    for label, extra in (("engine only", left - right), ("oracle only", right - left)):
        for (dim, birth, death), count in sorted(extra.items()):
            print(
                f"  {label}: dim={dim} birth={birth} death={death} x{count}",
                file=sys.stderr,
            )


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command line; returns the exit code."""
    try:
        field = PrimeField(args.field)
        if args.format == "points":
            if args.rips_max_edge is None or args.max_dim is None:
                _fail("points input requires --rips-max-edge and --max-dim")
                return EXIT_INPUT
            points = formats.read_points(args.input)
            complex = build_rips(points, args.rips_max_edge, args.max_dim)
        elif args.rips_max_edge is not None or args.max_dim is not None:
            _fail("--rips-max-edge and --max-dim apply to points input only")
            return EXIT_INPUT
        else:
            complex = formats.read_filtration(args.input)
    except _INPUT_ERRORS as exc:
        _fail(f"{type(exc).__name__}: {exc}")
        return EXIT_INPUT
    except CamphError as exc:
        # a failed check of the reader's own, not a fault of the input
        _fail(f"internal {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL
    options = EngineOptions(
        lazy=args.lazy,
        reorder=args.reorder,
        record_stats=args.stats,
        emit_zero_length=args.emit_zero_length,
    )
    try:
        diagram, stats = compute_persistence(complex, field, options)
    except CamphError as exc:
        _fail(f"internal {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL

    text = formats.format_diagram(diagram)
    stats_text = formats.format_stats(stats) if args.stats else ""
    if args.output:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
            if args.stats:
                Path(args.output + ".stats").write_text(stats_text, encoding="utf-8")
        except OSError as exc:
            _fail(f"{type(exc).__name__}: {exc}")
            return EXIT_INPUT
    else:
        sys.stdout.write(text)
        sys.stderr.write(stats_text)

    if args.oracle:
        oracle_diagram = oracle_reduce(
            complex, field, emit_zero_length=args.emit_zero_length
        )
        if not diagram_equal(diagram, oracle_diagram):
            _print_diff(diagram, oracle_diagram)
            return EXIT_ORACLE
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        _fail(str(exc))
        return EXIT_INPUT
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
