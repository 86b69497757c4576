"""Command-line front end with deterministic text, CSV and DOT output.

Exit codes: 0 success, 2 input error, 3 resource-cap error, 1 internal
failure (a consistency check or any other exception, reported as one
``error: internal:`` line instead of a traceback), 141 with nothing on
stderr when the reader of stdout closes it early.  A failed open, write
or close of an output file, and a failed write to stdout, exit 2.
Diagnostics go to stderr, results to stdout; identical inputs produce
byte-identical output.  ``qi-cert --jobs`` is accepted and validated for
compatibility; rows are computed in one thread, and their CSV goes to
stdout and ``--csv`` as it is made.  Each subcommand imports only the
modules it runs, to keep start-up short: ``fractions``, which
``cancelpairs`` uses, pulls in ``decimal``.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext, suppress

from .errors import CapExceeded, RankError
from .words import format_word, parse

__all__ = ["main"]

# 128 + SIGPIPE, the status a shell reports for a writer whose reader left
EXIT_BROKEN_PIPE = 141

# Largest rank for the subcommands that build all 2·rank vertices (not push)
MAX_RANK = 10_000


def _check_rank(rank: int) -> None:
    if rank < 2:
        raise RankError(f"rank must be at least 2, got {rank}")


def _check_rank_cap(rank: int) -> None:
    if rank > MAX_RANK:
        raise CapExceeded(f"rank {rank} exceeds cap {MAX_RANK}")


def _open_output(path: str | None):
    """Open an output file named on the command line, or a null context
    when there is none.  Commands call this after their argument checks
    and before any work, so an unwritable path exits 2 with no output."""
    if path is None:
        return nullcontext()
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None


def _write_output(out, lines, close: bool = True) -> None:
    """Write lines to a file from :func:`_open_output`, and close it unless
    ``close`` is false; an OSError closes it and exits 2."""
    try:
        out.writelines(lines)
        if close:
            out.close()
    except OSError as exc:
        with suppress(OSError):  # drop the unwritten rest, so no later close can fail
            out.close()
        raise ValueError(f"cannot write {out.name}: {exc.strerror}") from None


def _cmd_wg(args: argparse.Namespace) -> int:
    from . import whitehead
    _check_rank(args.rank)
    _check_rank_cap(args.rank)
    w = parse(args.word, args.rank)
    with _open_output(args.dot) as dot:
        graph = whitehead.whitehead_graph(w)
        print(f"word: {format_word(w)}")
        print(f"rank: {args.rank}")
        print("vertices: " + " ".join(whitehead.vertex_label(v) for v in graph.vertices))
        print(f"edges: {graph.edge_count}")
        for (u, v), mult in graph.edges:
            print(
                f"edge: {whitehead.vertex_label(u)} -- {whitehead.vertex_label(v)}"
                f" (multiplicity {mult})"
            )
        verdict = "yes" if whitehead.has_cut_vertex(graph) else "no"
        print(f"cut vertex: {verdict}")
        if dot:
            _write_output(dot, (whitehead.to_dot(graph),))
    return 0


def _cmd_simple_length(args: argparse.Namespace) -> int:
    from . import whitehead
    _check_rank(args.rank)
    _check_rank_cap(args.rank)
    w = parse(args.word, args.rank)
    witness = whitehead.simple_length(w)
    check = whitehead.simple_length_bruteforce(w) if args.oracle else None  # cap before output
    print(f"simple length: {witness.value}")
    if args.witness:
        for piece in witness.pieces:
            print(f"piece: {format_word(piece)}")
    if args.oracle:
        if check == witness.value:
            print("oracle: agree")
        else:
            print(f"oracle: disagree (enumeration found {check})")
            return 1
    return 0


def _cmd_cr_bounds(args: argparse.Namespace) -> int:
    from . import cancelpairs, whitehead
    _check_rank(args.rank)
    _check_rank_cap(args.rank)
    w = parse(args.word, args.rank)
    lower = cancelpairs.cr_lower_bound(w)
    witness = cancelpairs.cr_bruteforce(w)
    simple = whitehead.simple_length(w).value
    print(f"{lower} {witness.value} {simple}")
    if not lower <= witness.value <= simple:
        print("error: bound sandwich violated", file=sys.stderr)
        return 1
    return 0


def _cmd_qi_cert(args: argparse.Namespace) -> int:
    from . import qicert
    if args.rank < qicert.MIN_RANK:
        raise RankError(
            f"certificates need rank at least {qicert.MIN_RANK}, got {args.rank}"
        )
    if args.jobs < 1:
        raise ValueError("jobs must be positive")
    _check_rank_cap(args.rank)
    qicert.check_grid(args.rank, args.n, args.grid_max)
    with _open_output(args.csv) as csv:

        def write(text: str) -> None:
            sys.stdout.write(text)
            if csv:
                _write_output(csv, (text,), close=False)

        rows, low, high = qicert.stream_csv(args.rank, args.n, args.grid_max, write)
        print(f"rows: {rows}")
        print(f"min ratio: {low if low is not None else '-'}")
        print(f"max ratio: {high if high is not None else '-'}")
        if csv:
            _write_output(csv, ())
    return 0


def _cmd_push(args: argparse.Namespace) -> int:
    from . import pushcalc
    _check_rank(args.rank)
    arc = pushcalc.ArcLabel(parse(args.arc, args.rank))
    loop = parse(args.loop, args.rank)
    pushed = pushcalc.push_arc(arc, loop)
    print(f"arc: {format_word(pushed.word)}")
    return 0


def _cmd_torus_ball(args: argparse.Namespace) -> int:
    from . import torustree
    torustree.ball_size(args.radius, args.valency, args.leaves)
    if args.dot is not None:
        torustree.dot_size(args.radius, args.valency, args.leaves)
    with _open_output(args.dot) as dot:
        ball = torustree.build_ball(args.radius, args.valency, args.leaves)
        print(f"vertices: {len(ball.vertices)}")
        print(f"edges: {len(ball.edges)}")
        print(f"tree: {'yes' if torustree.is_tree(ball) else 'no'}")
        if dot:
            _write_output(dot, torustree.dot_lines(ball))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spotdisk",
        description="Word invariants, point-pushing bounds and embedding "
        "certificates for spotted disk and sphere graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wg", help="Whitehead graph and cut-vertex verdict")
    p.add_argument("word")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--dot", metavar="PATH", help="also write a DOT file")
    p.set_defaults(func=_cmd_wg)

    p = sub.add_parser("simple-length", help="simple length with optional witness")
    p.add_argument("word")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--witness", action="store_true", help="print the maximizing pieces")
    p.add_argument("--oracle", action="store_true", help="cross-check by enumeration")
    p.set_defaults(func=_cmd_simple_length)

    p = sub.add_parser("cr-bounds", help="conjugate-reduced length bounds")
    p.add_argument("word")
    p.add_argument("--rank", type=int, required=True)
    p.set_defaults(func=_cmd_cr_bounds)

    p = sub.add_parser("qi-cert", help="lattice embedding certificate grid")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid-max", type=int, required=True)
    p.add_argument("--csv", metavar="PATH", help="also write the CSV to a file")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_qi_cert)

    p = sub.add_parser("push", help="push an arc label along a loop")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--arc", required=True)
    p.add_argument("--loop", required=True)
    p.set_defaults(func=_cmd_push)

    p = sub.add_parser("torus-ball", help="truncated solid-torus disk graph ball")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--valency", type=int, required=True)
    p.add_argument("--leaves", type=int, required=True)
    p.add_argument("--dot", metavar="PATH", help="also write a DOT file")
    p.set_defaults(func=_cmd_torus_ball)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except OSError as exc:
        # Output files fail as ValueError, so this is stdout.  Send what is
        # still buffered to the null device so the flush at exit cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):  # the reader left: end quietly
            return EXIT_BROKEN_PIPE
        print(f"error: cannot write stdout: {exc.strerror}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"error: internal: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
