"""Corpus builders and independent oracles shared by the test suite.

The oracles here deliberately avoid the package's internal algorithms:
connectivity is computed by fixpoint set expansion instead of low-link
search, and the cut-vertex verdict tries every single vertex removal.
:func:`plain_greedy_cuts` chains the greedy stop without the piece table
that the package's scan looks stops up in.  :func:`cli_outcome` digests
one command-line run for the byte guards.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import random
import tempfile
from pathlib import Path
from typing import Iterator, Sequence
from unittest import mock

from spotdisk.cli import main
from spotdisk.whitehead import WhiteheadGraph, _simple_stop, simple_length
from spotdisk.words import ReducedWord, concat, inverse, subword


def all_reduced_words(rank: int, max_len: int) -> Iterator[ReducedWord]:
    """Every reduced word of length at most max_len, shortest first."""
    yield ReducedWord(rank, ())
    alphabet = list(range(1, rank + 1)) + list(range(-1, -rank - 1, -1))
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(max_len):
        grown = []
        for tail in frontier:
            for a in alphabet:
                if tail and tail[-1] == -a:
                    continue
                item = tail + (a,)
                grown.append(item)
                yield ReducedWord(rank, item)
        frontier = grown


def random_reduced_word(rng: random.Random, rank: int, length: int) -> ReducedWord:
    """Uniform random reduced word of exactly the given length."""
    alphabet = list(range(1, rank + 1)) + list(range(-1, -rank - 1, -1))
    letters: list[int] = []
    while len(letters) < length:
        a = rng.choice(alphabet)
        if letters and letters[-1] == -a:
            continue
        letters.append(a)
    return ReducedWord(rank, tuple(letters))


def plain_greedy_cuts(rank: int, letters: tuple[int, ...]) -> list[int]:
    """Greedy cut positions ``[0, stop_1, ..]``: one greedy stop from each
    cut, with no piece table, until no simple piece starts at the last."""
    cuts = [0]
    while (stop := _simple_stop(rank, letters, cuts[-1])) is not None:
        cuts.append(stop)
    return cuts


def bounded_decomposition_value(
    w: ReducedWord, max_ell: int, max_piece: int, max_conj: int
) -> int:
    """Least value of a conjugate-piece decomposition of ``w`` within the
    bounds of ``cr_bruteforce``, or the simple length of ``w`` if less.

    Every split into at most ``max_ell`` nonempty segments is listed, and
    each segment ``u^-1 v u`` tries every peel depth ``len(u) <= max_conj``
    with ``len(v) <= max_piece``; each ``v`` is measured by
    ``simple_length`` on its own.  A split of ell segments is worth
    ell - 1 plus its cheapest pieces.
    """
    n = len(w)

    def piece_cost(i: int, j: int) -> int | None:
        costs = [
            simple_length(subword(w, i + k, j - k)).value
            for k in range(min(max_conj, (j - i) // 2) + 1)
            if j - i - 2 * k <= max_piece and subword(w, i, i + k) == inverse(subword(w, j - k, j))
        ]
        return min(costs, default=None)

    best = simple_length(w).value
    for ell in range(1, min(max_ell, n) + 1):
        for cuts in itertools.combinations(range(1, n), ell - 1):
            ends = (0, *cuts, n)
            costs = [piece_cost(i, j) for i, j in zip(ends, ends[1:])]
            if None not in costs:
                best = min(best, ell - 1 + sum(costs))
    return best


def _reachable(start: str | int, verts: set, adjacency: dict) -> set:
    """Fixpoint set expansion, no explicit stack discipline."""
    seen = {start}
    while True:
        grown = set(seen)
        for u in seen:
            grown.update(v for v in adjacency.get(u, ()) if v in verts)
        if grown == seen:
            return seen
        seen = grown


def brute_has_cut_vertex(graph: WhiteheadGraph) -> bool:
    """Exhaustive-removal cut-vertex verdict on all 2g vertices,
    independent of the package path."""
    adjacency: dict[int, set[int]] = {}
    for (u, v), _ in graph.edges:
        if u != v:
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)
    verts = set(graph.vertices)
    if graph.edge_count < 2:
        return True
    first = min(verts)
    if _reachable(first, verts, adjacency) != verts:
        return True
    for v in verts:
        rest = verts - {v}
        if not rest:
            continue
        if _reachable(min(rest), rest, adjacency) != rest:
            return True
    return False


def conjugate_product(
    decomposition: tuple[tuple[ReducedWord, ReducedWord], ...], rank: int
) -> ReducedWord:
    """Reduced product of the conjugates ``u^-1 v u`` of a decomposition,
    the word a decomposition witness must multiply back to."""
    out = ReducedWord.identity(rank)
    for v, u in decomposition:
        out = concat(out, concat(concat(inverse(u), v), u))
    return out


def tree_has_cycle(vertices: Sequence[int], edges: Sequence[tuple[int, int]]) -> bool:
    """Parent-tracked depth-first cycle detection over an undirected graph."""
    adjacency: dict[int, list[int]] = {v: [] for v in vertices}
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen: set[int] = set()
    for root in vertices:
        if root in seen:
            continue
        stack: list[tuple[int, int | None]] = [(root, None)]
        seen.add(root)
        while stack:
            node, parent = stack.pop()
            skipped_parent = False
            for other in adjacency[node]:
                if other == parent and not skipped_parent:
                    skipped_parent = True
                    continue
                if other in seen:
                    return True
                seen.add(other)
                stack.append((other, node))
    return False


def cli_outcome(argv: Sequence[str]) -> dict:
    """Exit code and sha256 of stdout, stderr and each file written, for one
    in-process ``spotdisk`` run in an empty directory.

    Output paths in ``argv`` are relative, so they land in that directory.
    COLUMNS is pinned so that argparse wraps its usage lines the same way
    on every terminal.
    """
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, COLUMNS="80"):
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(list(argv))
                except SystemExit as exc:  # argparse rejected the argv
                    code = exc.code
            files = {p.name: _sha256(p.read_bytes()) for p in sorted(Path(tmp).iterdir())}
        finally:
            os.chdir(cwd)
    return {
        "exit": code,
        "stdout": _sha256(out.getvalue().encode()),
        "stderr": _sha256(err.getvalue().encode()),
        "files": files,
    }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
