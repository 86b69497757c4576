"""Whitehead graphs and the simple piece-count length of reduced words.

The Whitehead graph of a word has one vertex for every basis letter and
every inverse letter, and one edge ``{a, b^-1}`` for each consecutive
letter pair ``a b`` of the word, counted with multiplicity.  A word of
length n therefore produces n - 1 edges.

A piece is called *simple* here when its Whitehead graph is connected
and free of cut vertices on all 2g vertices; the simple length of a
word is the largest number of consecutive pieces it can be split into
so that every piece is simple, and 0 when no such split exists.

On a fixed vertex set, adding edges never breaks two-connectivity, so a
piece that contains a simple piece is simple.  The maximum split is
therefore greedy: cut at the end of the shortest simple prefix, repeat,
and let the last piece absorb the remainder.

The scan gates the cut-vertex search on degrees: it runs only once every
one of the 2g vertices has at least two distinct neighbours.  The gate
is exact because 2g >= 4.  An isolated vertex already counts as a cut,
and a vertex with exactly one neighbour makes that neighbour a cut
vertex, since removing it strands the vertex away from the other
2g - 2 >= 2.  So the gate skips only searches that would fail.

The greedy scan (``_greedy_cuts``) looks each stop up in a table of the
minimal simple pieces (simple pieces with no simple proper prefix)
found so far, keyed by their first 2g + 1 letters.  The table is exact
for any word, for three reasons:

- the stop from a cut p depends only on the letters from p on: it is p
  plus the length of the one minimal piece that starts there;
- a minimal piece is not a proper prefix of another, since the longer
  one would then have a simple proper prefix, so at most one known
  piece matches at p, and when the word ends inside a known piece no
  piece starts at p;
- every simple piece has at least 2g + 1 letters (``_simple_stop``), so
  the bucket of the next 2g + 1 letters holds every known piece that can
  match, and fewer letters hold none.

Each :func:`simple_length` call starts an empty table; a qi-cert grid
shares one.  :func:`simple_length_bruteforce` is the independent oracle.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from ._record import Record
from .errors import CapExceeded, RankError
from .words import ReducedWord, subword

__all__ = [
    "WhiteheadGraph",
    "SimpleLengthWitness",
    "whitehead_graph",
    "has_cut_vertex",
    "simple_length",
    "simple_length_bruteforce",
    "subword_simple_lengths",
    "vertex_label",
    "to_dot",
]

ORACLE_CAP = 14  # longest word simple_length_bruteforce accepts


def _vkey(v: int) -> tuple[int, int]:
    """Display order: x1..xg, then X1..Xg."""
    return (0, v) if v > 0 else (1, -v)


def vertex_label(v: int) -> str:
    return f"x{v}" if v > 0 else f"X{-v}"


class WhiteheadGraph(Record):
    """Multigraph on the 2g letter symbols.

    ``edges`` maps canonically ordered unordered vertex pairs to their
    multiplicities; self-loops are representable but never arise from a
    reduced word and never affect connectivity.
    """

    __slots__ = ("rank", "edges")
    rank: int
    edges: tuple[tuple[tuple[int, int], int], ...]

    def _check(self) -> None:
        if self.rank < 2:
            raise RankError(f"rank must be at least 2, got {self.rank}")
        seen: set[tuple[int, int]] = set()
        for (u, v), mult in self.edges:
            for x in (u, v):
                if x == 0 or abs(x) > self.rank:
                    raise RankError(f"vertex {x} outside rank {self.rank}")
            if _vkey(u) > _vkey(v):
                raise ValueError(f"edge {(u, v)} is not canonically ordered")
            if mult < 1:
                raise ValueError(f"edge {(u, v)} has multiplicity {mult}")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge entry {(u, v)}")
            seen.add((u, v))

    @classmethod
    def from_pairs(cls, rank: int, pairs: Iterable[tuple[int, int]]) -> "WhiteheadGraph":
        counts: Counter[tuple[int, int]] = Counter()
        for u, v in pairs:
            if _vkey(u) > _vkey(v):
                u, v = v, u
            counts[(u, v)] += 1
        edges = tuple(sorted(counts.items(), key=lambda e: (_vkey(e[0][0]), _vkey(e[0][1]))))
        return cls(rank, edges)

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(range(1, self.rank + 1)) + tuple(range(-1, -self.rank - 1, -1))

    @property
    def edge_count(self) -> int:
        return sum(mult for _, mult in self.edges)

    def adjacency(self) -> dict[int, set[int]]:
        """Simple-graph adjacency over all 2g vertices, self-loops dropped."""
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for (u, v), _ in self.edges:
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        return adj


class SimpleLengthWitness(Record):
    """Simple length together with a maximizing split (empty when 0)."""

    __slots__ = ("value", "pieces")
    value: int
    pieces: tuple[ReducedWord, ...]


def whitehead_graph(w: ReducedWord) -> WhiteheadGraph:
    """Whitehead graph of a reduced word: edge {a, b^-1} per pair ``a b``.

    >>> g = whitehead_graph(ReducedWord(2, (1, 2)))
    >>> g.edges
    (((1, -2), 1),)
    """
    return WhiteheadGraph.from_pairs(
        w.rank, ((a, -b) for a, b in zip(w.letters, w.letters[1:]))
    )


def _cut_vertex_in(verts: tuple[int, ...], adj: dict[int, set[int]]) -> bool:
    """Cut-vertex verdict for the multigraph on ``verts``, all 2g >= 4
    vertices of its rank.

    True when the graph on ``verts`` is disconnected (isolated vertices
    included, so every graph of fewer than two edges), or when removing
    some single vertex disconnects the rest.  Articulation testing uses
    low-links on the underlying simple graph; parallel edges never change
    vertex connectivity.  The depth-first search keeps an explicit stack,
    so its depth is not bounded by the recursion limit.
    """
    root = verts[0]
    disc = {root: 0}
    low = {root: 0}
    root_children = 0
    stack = [(root, None, iter(adj[root]))]
    while stack:
        u, parent, neighbours = stack[-1]
        for v in neighbours:
            if v not in disc:
                disc[v] = low[v] = len(disc)
                stack.append((v, u, iter(adj[v])))
                break
            if v != parent and disc[v] < low[u]:
                low[u] = disc[v]
        else:
            stack.pop()
            if parent is None:
                continue
            if low[u] < low[parent]:
                low[parent] = low[u]
            if parent == root:
                root_children += 1
            elif low[u] >= disc[parent]:
                return True
    return len(disc) != len(verts) or root_children > 1


def has_cut_vertex(graph: WhiteheadGraph) -> bool:
    """Whether the graph fails two-connectivity on all 2g vertices.

    A word that never uses some basis letter leaves isolated vertices,
    so its graph has a cut vertex.

    >>> has_cut_vertex(whitehead_graph(ReducedWord(2, (1,))))
    True
    """
    return _cut_vertex_in(graph.vertices, graph.adjacency())


def _simple_stop(rank: int, letters: tuple[int, ...], start: int) -> int | None:
    """Smallest j such that ``letters[start:j]`` is simple, or None.

    Adds one edge per letter; the cut-vertex check runs only when a new
    distinct edge lands and every vertex already has two distinct
    neighbours, since a repeated edge leaves the verdict as it was and a
    vertex of degree below two always makes a cut (module docstring).
    Those 2g vertices need at least 2g edges, so fewer than 2g + 1
    letters from ``start`` hold no simple piece.
    """
    if len(letters) - start <= 2 * rank:
        return None
    verts = tuple(range(1, rank + 1)) + tuple(range(-1, -rank - 1, -1))
    adj: dict[int, set[int]] = {v: set() for v in verts}
    # vertices with at least two distinct neighbours
    full = 0
    for j in range(start + 2, len(letters) + 1):
        u, v = letters[j - 2], -letters[j - 1]
        adj_u = adj[u]
        if v in adj_u:
            continue
        adj_v = adj[v]
        adj_u.add(v)
        adj_v.add(u)
        full += (len(adj_u) == 2) + (len(adj_v) == 2)
        if full == 2 * rank and not _cut_vertex_in(verts, adj):
            return j
    return None


def _greedy_cuts(pieces: dict, rank: int, letters: tuple[int, ...]) -> list[int]:
    """Greedy cut positions ``[0, stop_1, stop_2, ..]`` of a reduced word of
    rank ``rank``; the letters after the last cut hold no simple piece.

    Each stop is looked up in ``pieces``, which this call extends: it maps
    the first 2g + 1 letters of each minimal simple piece found so far to
    the tuple of those pieces (module docstring).  The caller owns the
    table and starts it empty.
    """
    width = 2 * rank + 1
    n = len(letters)
    cuts = [0]
    while n - (start := cuts[-1]) >= width:
        head = letters[start : start + width]
        for piece in pieces.get(head, ()):
            tail = letters[start : start + len(piece)]
            if tail == piece:
                stop = start + len(piece)
                break
            if tail == piece[: len(tail)]:
                return cuts
        else:
            stop = _simple_stop(rank, letters, start)
            if stop is None:
                return cuts
            pieces[head] = pieces.get(head, ()) + (letters[start:stop],)
        cuts.append(stop)
    return cuts


def simple_length(w: ReducedWord) -> SimpleLengthWitness:
    """Simple length of ``w`` with a maximizing split.

    Cuts greedily at the end of each shortest simple piece; the last
    piece absorbs the remainder.  Value 0 means no split of any size
    works; the witness pieces concatenate letterwise to ``w`` (a split
    never re-reduces across piece boundaries).
    """
    cuts = _greedy_cuts({}, w.rank, w.letters)
    if len(cuts) == 1:
        return SimpleLengthWitness(0, ())
    cuts[-1] = len(w)
    return SimpleLengthWitness(
        len(cuts) - 1, tuple(subword(w, i, j) for i, j in zip(cuts, cuts[1:]))
    )


def simple_length_bruteforce(w: ReducedWord) -> int:
    """Independent check of :func:`simple_length` by explicit enumeration.

    Keeps, for each split end j, the most simple pieces that split
    ``w[:j]`` exactly, and extends every reached end by every piece after
    it, so it judges at most n(n+1)/2 pieces.  Pieces are judged through
    the public graph constructor rather than the greedy scan.  Words
    longer than ``ORACLE_CAP`` letters raise :class:`CapExceeded`; the
    dynamic program could take more, but the cap fixes which words the
    oracle accepts, and with them the exit codes of ``--oracle``.
    """
    n = len(w)
    if n > ORACLE_CAP:
        raise CapExceeded(f"word length {n} exceeds brute-force cap {ORACLE_CAP}")
    most = {0: 0}
    for i in range(n):
        if i in most:
            for j in range(i + 1, n + 1):
                if not has_cut_vertex(whitehead_graph(subword(w, i, j))):
                    most[j] = max(most.get(j, 0), most[i] + 1)
    return most.get(n, 0)


def subword_simple_lengths(w: ReducedWord) -> dict[tuple[int, int], int]:
    """Simple length of every nonempty contiguous subword, keyed (start, stop).

    One greedy stop per start; the subword [i, j) then has
    1 + count(stop(i), j) pieces when stop(i) <= j and none otherwise,
    so the table costs O(n^2), the size of its output.
    """
    n = len(w)
    out: dict[tuple[int, int], int] = {}
    for i in range(n - 1, -1, -1):
        s = _simple_stop(w.rank, w.letters, i)
        for j in range(i + 1, n + 1):
            out[(i, j)] = 1 + out.get((s, j), 0) if s is not None and s <= j else 0
    return out


def to_dot(graph: WhiteheadGraph) -> str:
    """DOT rendering: one line per edge multiplicity, deterministic order."""
    lines = ["graph whitehead {"]
    for v in graph.vertices:
        lines.append(f'  "{vertex_label(v)}";')
    for (u, v), mult in graph.edges:
        lines.extend(f'  "{vertex_label(u)}" -- "{vertex_label(v)}";' for _ in range(mult))
    lines.append("}")
    return "\n".join(lines) + "\n"
