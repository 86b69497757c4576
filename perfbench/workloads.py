"""Workload definitions: seeded inputs and the CLI invocations they make.

Every input word comes from a fixed, recorded pool, so each output can be
compared with a value recorded at the seed commit.  Pool word ``i`` of a
slot is drawn from ``random.Random("<tag>:<rank>:<length>:<i>")``; the
workload seed only picks which pool words a run uses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("long-words", "qicert-grid", "cr-cap", "qicert-jobs2")

# long-words: one simple-length call per (rank, length) slot, all distinct,
# so no cache inside a child can help.
LONG_RANKS = (4, 8)
LONG_LENGTHS = (150, 300, 450, 600)
LONG_POOL = 8

# cr-cap: words at the 20-letter family cap.  Their cost is heavy tailed
# (9 to ~35k nested families per word), so the pool is cut into CR_WORDS
# strata by the cost recorded in reference.json and a run takes one word
# from each stratum: every seed then carries about the same work.  The
# cost is the traced cli.main time, not the family count: two seeds with
# equal family totals (178.5k) differed by 9% in wall time, because the
# candidate-pair scans behind each family vary from word to word.
CR_RANK = 2
CR_LENGTH = 20
CR_WORDS = 24
CR_POOL = CR_WORDS * 10

# The qi-cert grids are fixed: the cache and pool mechanisms they exercise
# depend on the exact grid, so the seed only orders the invocations.
QICERT_GRID = (
    ("--rank", "4", "--n", "2", "--grid-max", "4"),
    ("--rank", "4", "--n", "3", "--grid-max", "2"),
)
QICERT_JOBS2 = (("--rank", "4", "--n", "3", "--grid-max", "2"),)



@dataclass(frozen=True)
class Invocation:
    """One CLI call: its argv, its kind, the reference key of its expected
    output and, for word commands, the input word."""

    argv: tuple[str, ...]
    kind: str
    key: str
    rank: int = 0
    letters: tuple[int, ...] = ()


# A no-work invocation: interpreter start, imports and argparse only.
SETUP = Invocation(("push", "--rank", "2", "--arc", "", "--loop", "x1"), "push", "setup")


def pool_word(tag: str, rank: int, length: int, index: int) -> tuple[int, ...]:
    """Uniform random reduced word of exactly ``length`` letters."""
    rng = random.Random(f"{tag}:{rank}:{length}:{index}")
    alphabet = list(range(1, rank + 1)) + list(range(-1, -rank - 1, -1))
    letters: list[int] = []
    while len(letters) < length:
        a = rng.choice(alphabet)
        if letters and letters[-1] == -a:
            continue
        letters.append(a)
    return tuple(letters)


def tokens(letters: tuple[int, ...]) -> str:
    return " ".join(f"x{a}" if a > 0 else f"X{-a}" for a in letters)


def long_word_invocation(rank: int, length: int, index: int) -> Invocation:
    letters = pool_word("long", rank, length, index)
    return Invocation(
        ("simple-length", tokens(letters), "--rank", str(rank), "--witness"),
        "simple-length",
        f"{rank}:{length}:{index}",
        rank,
        letters,
    )


def cr_invocation(index: int) -> Invocation:
    letters = pool_word("cr", CR_RANK, CR_LENGTH, index)
    return Invocation(
        ("cr-bounds", tokens(letters), "--rank", str(CR_RANK)),
        "cr-bounds",
        str(index),
        CR_RANK,
        letters,
    )


def qicert_invocation(grid: tuple[str, ...], jobs: int) -> Invocation:
    # Output is byte-identical at any --jobs, so both share one reference.
    return Invocation(("qi-cert", *grid, "--jobs", str(jobs)), "qi-cert", " ".join(grid))


def cr_strata(cost: dict[str, float]) -> list[list[int]]:
    """Pool indices in CR_WORDS strata of equal size, by recorded cost."""
    order = sorted(range(CR_POOL), key=lambda i: (cost[str(i)], i))
    size = CR_POOL // CR_WORDS
    return [order[s * size : (s + 1) * size] for s in range(CR_WORDS)]


def invocations(workload: str, seed: int, reference: dict) -> list[Invocation]:
    """The fixed list of invocations one pass of ``workload`` makes."""
    rng = random.Random(seed)
    if workload == "long-words":
        return [
            long_word_invocation(rank, length, rng.randrange(LONG_POOL))
            for rank in LONG_RANKS
            for length in LONG_LENGTHS
        ]
    if workload == "cr-cap":
        cost = {k: v["cost_s"] for k, v in reference["cr-bounds"].items()}
        return [cr_invocation(rng.choice(stratum)) for stratum in cr_strata(cost)]
    if workload == "qicert-grid":
        out = [qicert_invocation(grid, 1) for grid in QICERT_GRID]
        rng.shuffle(out)
        return out
    if workload == "qicert-jobs2":
        return [qicert_invocation(grid, 2) for grid in QICERT_JOBS2]
    raise ValueError(f"unknown workload {workload!r}")


def input_properties(invs: list[Invocation], reference: dict) -> dict:
    """Input properties that later claims cite, from the recorded reference."""
    entries = [reference[inv.kind][inv.key] for inv in invs]
    calls = sum(e["simple_length_calls"] for e in entries)
    repeats = sum(e["simple_length_repeats"] for e in entries)
    return {
        "invocations": len(invs),
        "word_ranks": [inv.rank for inv in invs if inv.letters],
        "word_lengths": [len(inv.letters) for inv in invs if inv.letters],
        "cancelpairs.families": sum(e.get("families", 0) for e in entries),
        "whitehead.simple_length_calls": calls,
        "whitehead.simple_length_repeat_share": repeats / calls if calls else 0.0,
    }
