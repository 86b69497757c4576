"""Command-line front end with deterministic text, CSV and DOT output.

Exit codes: 0 success, 2 input error, 3 resource-cap error (1 is
reserved for internal consistency failures).  Diagnostics go to stderr,
results to stdout; identical inputs produce byte-identical output.
``qi-cert --jobs`` (default from SPOTDISK_JOBS) is accepted and validated
for compatibility; rows are computed in one thread.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import cancelpairs, pushcalc, qicert, torustree, whitehead
from .errors import CapExceeded, ParseError, RankError
from .words import format_word, parse

__all__ = ["RunConfig", "main"]

JOBS_ENV = "SPOTDISK_JOBS"


@dataclass(frozen=True)
class RunConfig:
    """Per-invocation knobs; caps must be positive."""

    rank: int
    oracle_cap: int = 14
    family_cap: int = 20
    max_ell: int = 3
    max_piece: int = 6
    max_conj: int = 3
    length_cap: int = 600
    jobs: int = 1
    dot_path: str | None = None
    csv_path: str | None = None

    def __post_init__(self) -> None:
        if self.rank < 2:
            raise RankError(f"rank must be at least 2, got {self.rank}")
        for name in ("oracle_cap", "family_cap", "max_ell", "length_cap", "jobs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.max_piece < 0 or self.max_conj < 0:
            raise ValueError("search bounds must be nonnegative")


def _default_jobs() -> int:
    raw = os.environ.get(JOBS_ENV, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _cmd_wg(args: argparse.Namespace) -> int:
    config = RunConfig(rank=args.rank, dot_path=args.dot)
    w = parse(args.word, config.rank)
    graph = whitehead.whitehead_graph(w)
    print(f"word: {format_word(w)}")
    print(f"rank: {config.rank}")
    print("vertices: " + " ".join(whitehead.vertex_label(v) for v in graph.vertices))
    print(f"edges: {graph.edge_count}")
    for (u, v), mult in graph.edges:
        print(
            f"edge: {whitehead.vertex_label(u)} -- {whitehead.vertex_label(v)}"
            f" (multiplicity {mult})"
        )
    verdict = "yes" if whitehead.has_cut_vertex(graph) else "no"
    print(f"cut vertex: {verdict}")
    if config.dot_path:
        Path(config.dot_path).write_text(whitehead.to_dot(graph), encoding="utf-8")
    return 0


def _cmd_simple_length(args: argparse.Namespace) -> int:
    config = RunConfig(rank=args.rank, oracle_cap=args.oracle_cap)
    w = parse(args.word, config.rank)
    witness = whitehead.simple_length(w)
    print(f"simple length: {witness.value}")
    if args.witness:
        for piece in witness.pieces:
            print(f"piece: {format_word(piece)}")
    if args.oracle:
        check = whitehead.simple_length_bruteforce(w, cap=config.oracle_cap)
        if check == witness.value:
            print("oracle: agree")
        else:
            print(f"oracle: disagree (enumeration found {check})")
            return 1
    return 0


def _cmd_cr_bounds(args: argparse.Namespace) -> int:
    config = RunConfig(
        rank=args.rank,
        max_ell=args.max_ell,
        max_piece=args.max_piece,
        max_conj=args.max_conj,
    )
    w = parse(args.word, config.rank)
    lower = cancelpairs.cr_lower_bound(w, length_cap=config.family_cap)
    witness = cancelpairs.cr_bruteforce(
        w,
        max_ell=config.max_ell,
        max_piece=config.max_piece,
        max_conj=config.max_conj,
    )
    simple = whitehead.simple_length(w).value
    print(f"{lower} {witness.value} {simple}")
    if not lower <= witness.value <= simple:
        print("error: bound sandwich violated", file=sys.stderr)
        return 1
    return 0


def _cmd_qi_cert(args: argparse.Namespace) -> int:
    if args.rank < qicert.MIN_RANK:
        raise RankError(
            f"certificates need rank at least {qicert.MIN_RANK}, got {args.rank}"
        )
    jobs = args.jobs if args.jobs is not None else _default_jobs()
    config = RunConfig(
        rank=args.rank, jobs=jobs, length_cap=args.length_cap, csv_path=args.csv
    )
    rows = qicert.certify_grid(
        config.rank,
        args.n,
        args.grid_max,
        budget=args.budget,
        length_cap=config.length_cap,
    )
    text = qicert.to_csv(rows, config.rank)
    sys.stdout.write(text)
    summary = qicert.summarize(rows)
    print(f"rows: {summary.rows}")
    print(f"min ratio: {summary.min_ratio if summary.min_ratio is not None else '-'}")
    print(f"max ratio: {summary.max_ratio if summary.max_ratio is not None else '-'}")
    if config.csv_path:
        Path(config.csv_path).write_text(text, encoding="utf-8")
    return 0


def _cmd_push(args: argparse.Namespace) -> int:
    config = RunConfig(rank=args.rank)
    arc = pushcalc.ArcLabel(parse(args.arc, config.rank))
    loop = parse(args.loop, config.rank)
    pushed = pushcalc.push_arc(arc, loop)
    print(f"arc: {format_word(pushed.word)}")
    return 0


def _cmd_torus_ball(args: argparse.Namespace) -> int:
    ball = torustree.build_ball(args.radius, args.valency, args.leaves)
    print(f"vertices: {len(ball.vertices)}")
    print(f"edges: {len(ball.edges)}")
    print(f"tree: {'yes' if torustree.is_tree(ball) else 'no'}")
    if args.dot:
        Path(args.dot).write_text(torustree.to_dot(ball), encoding="utf-8")
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
    p.add_argument("--oracle-cap", type=int, default=14)
    p.set_defaults(func=_cmd_simple_length)

    p = sub.add_parser("cr-bounds", help="conjugate-reduced length bounds")
    p.add_argument("word")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--max-ell", type=int, default=3)
    p.add_argument("--max-piece", type=int, default=6)
    p.add_argument("--max-conj", type=int, default=3)
    p.set_defaults(func=_cmd_cr_bounds)

    p = sub.add_parser("qi-cert", help="lattice embedding certificate grid")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid-max", type=int, required=True)
    p.add_argument(
        "--budget",
        type=int,
        default=qicert.PUSH_STEP_BUDGET,
        choices=(qicert.PUSH_STEP_BUDGET, qicert.PUSH_STEP_BUDGET_HIGH_RANK),
        help="per-power move cost (4 is valid from rank 6 on)",
    )
    p.add_argument("--csv", metavar="PATH", help="also write the CSV to a file")
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--length-cap", type=int, default=qicert.DEFAULT_LENGTH_CAP)
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
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, RankError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
