"""Cancelling pairs, nested families, and conjugate-reduced length bounds.

A cancelling pair in a reduced word is a pair of disjoint subword
occurrences of the form ``u``, ``u^-1``, held as the index ranges
``((i1, j1), (i2, j2))`` with ``j1 <= i2``.  A family of such pairs is
nested when for any two pairs, one member of the second pair lies
between the two members of the first exactly when the other member
does.  Erasing a family and measuring what is left gives a computable
lower bound for the conjugate-reduced length, which a bounded
decomposition search approximates from above.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from ._record import Record
from .errors import CapExceeded
# perfbench/traced_cli.py wraps cancelpairs.simple_length by name
from .whitehead import simple_length, subword_simple_lengths  # noqa: F401
from .words import ReducedWord, subword

__all__ = [
    "ConjugateReducedWitness",
    "enumerate_nested_families",
    "cr_lower_bound",
    "cr_bruteforce",
]

DEFAULT_FAMILY_CAP = 20
DEFAULT_CR_CAP = 32


class ConjugateReducedWitness(Record):
    """Conjugate-piece decomposition and its cost.

    ``decomposition`` lists pairs ``(v, u)``; the product of the
    conjugates ``u^-1 v u`` freely reduces to the host word, and
    ``value`` equals (number of factors - 1) plus the sum of the simple
    lengths of the ``v`` pieces.
    """

    __slots__ = ("value", "decomposition")
    value: int
    decomposition: tuple[tuple[ReducedWord, ReducedWord], ...]


_Pair = tuple[tuple[int, int], tuple[int, int]]


def _disjoint(r: tuple[int, int], s: tuple[int, int]) -> bool:
    return r[1] <= s[0] or s[1] <= r[0]


def _between(r: tuple[int, int], host: _Pair) -> bool:
    return host[0][1] <= r[0] and r[1] <= host[1][0]


def _compatible(p: _Pair, q: _Pair) -> bool:
    for r in q:
        for s in p:
            if not _disjoint(r, s):
                return False
    return _between(q[0], p) == _between(q[1], p) and _between(p[0], q) == _between(p[1], q)


def _candidate_pairs(w: ReducedWord) -> list[_Pair]:
    """Every cancelling pair of ``w``, sorted."""
    letters = w.letters
    n = len(letters)
    out = []
    for length in range(1, n // 2 + 1):
        for i1 in range(n - 2 * length + 1):
            for i2 in range(i1 + length, n - length + 1):
                if all(letters[i1 + t] == -letters[i2 + length - 1 - t] for t in range(length)):
                    out.append(((i1, i1 + length), (i2, i2 + length)))
    out.sort()
    return out


def enumerate_nested_families(w: ReducedWord) -> Iterator[tuple[_Pair, ...]]:
    """All nested cancelling families of ``w``, each a tuple of pairs
    ``((i1, j1), (i2, j2))``, the empty family first; words longer than
    ``DEFAULT_FAMILY_CAP`` letters are refused.

    Families are emitted in depth-first order over the candidate pairs
    sorted by their ranges, which is ascending tuple order, so the
    enumeration is deterministic and free of duplicates.
    """
    n = len(w)
    if n > DEFAULT_FAMILY_CAP:
        raise CapExceeded(f"word length {n} exceeds family enumeration cap {DEFAULT_FAMILY_CAP}")
    cands = _candidate_pairs(w)

    def walk(start: int, chosen: list[_Pair]) -> Iterator[tuple[_Pair, ...]]:
        yield tuple(chosen)
        for idx in range(start, len(cands)):
            cand = cands[idx]
            if all(_compatible(cand, p) for p in chosen):
                chosen.append(cand)
                yield from walk(idx + 1, chosen)
                chosen.pop()

    yield from walk(0, [])


def _keep_min(costs: dict[int, int], k: int, s: int) -> None:
    if s < costs.get(k, s + 1):
        costs[k] = s


def _least_leftover_costs(w: ReducedWord) -> dict[int, int]:
    """Map each pair count k of a nested family of ``w`` to the least
    summed simple length S of the leftover segments.

    Nested families are non-crossing arc diagrams, so an interval
    dynamic program finds these minima without listing families.  For
    every region [a, b) whose ends are cut (word ends or erased ranges),
    ``h[a, b]`` maps k to the least S inside the region: with no pair
    the region is one segment; otherwise the top-level pair ending last,
    ([i1, j1), [i2, j2)), splits it into [a, i1), the nested region
    [j1, i2) and a pair-free tail [j2, b).  ``tail[a, e]`` holds the
    first two parts for pairs ending at e.  Regions are filled by
    increasing length, so there is no recursion.  With P candidate pairs
    and k at most n/2 the cost is O(n P k^2 + n^3 k).
    """
    n = len(w)
    table = subword_simple_lengths(w)
    ending: dict[int, list[_Pair]] = {}
    for pair in _candidate_pairs(w):
        ending.setdefault(pair[1][1], []).append(pair)

    h: dict[tuple[int, int], dict[int, int]] = {}
    tail: dict[tuple[int, int], dict[int, int]] = {}
    for length in range(n + 1):
        for a in range(n - length + 1):
            b = a + length
            last: dict[int, int] = {}
            for pair in ending.get(b, ()):
                (i1, j1), (i2, _) = pair
                if i1 < a:
                    continue
                inner = h[j1, i2]
                for k1, s1 in h[a, i1].items():
                    for k2, s2 in inner.items():
                        _keep_min(last, k1 + k2 + 1, s1 + s2)
            tail[a, b] = last
            costs = {0: table.get((a, b), 0)}
            for e in range(a + 1, b + 1):
                gap = table.get((e, b), 0)
                for k, s in tail[a, e].items():
                    _keep_min(costs, k, s + gap)
            h[a, b] = costs
    return h[0, n]


def cr_lower_bound(w: ReducedWord) -> Fraction:
    """Erased-family lower bound for the conjugate-reduced length.

    Minimizes max(k/2 - 1, (k + S)/5 - 3) over every nested family,
    floored at zero, where k is the number of pairs and S the summed
    simple length of the leftover segments.  For fixed k the score grows
    with S, so only the least S per k matters; an interval dynamic
    program over non-crossing pairs finds those in polynomial time
    (``_least_leftover_costs``), where listing the families
    (``enumerate_nested_families``, kept as the oracle) is exponential.

    The empty family leaves the whole word, of simple length S0, and
    scores max(-1, S0/5 - 3), which is at most 0 when S0 <= 15.  A simple
    piece has at least 2g + 1 letters, so S0 <= n // (2g + 1), and when
    that is at most 15 the bound is 0 without the dynamic program.
    """
    n = len(w)
    if n > DEFAULT_CR_CAP:
        raise CapExceeded(f"word length {n} exceeds lower bound cap {DEFAULT_CR_CAP}")
    if n // (2 * w.rank + 1) <= 15:
        return Fraction(0)
    best = min(
        max(Fraction(k, 2) - 1, Fraction(k + s, 5) - 3)
        for k, s in _least_leftover_costs(w).items()
    )
    return max(best, Fraction(0))


def cr_bruteforce(
    w: ReducedWord,
    max_ell: int = 3,
    max_piece: int = 6,
    max_conj: int = 3,
) -> ConjugateReducedWitness:
    """Bounded search for a cheap conjugate-piece decomposition.

    Searches splits of ``w`` into at most ``max_ell`` letterwise
    segments, where each segment ``s`` is written as ``u^-1 v u`` by
    peeling matched inverse ends of depth at most ``max_conj`` with
    ``len(v) <= max_piece``.  The result is an upper approximation of
    the true minimum: enlarging any bound can only lower it, and the
    trivial one-factor decomposition (v = w, u empty) is always
    admitted, so the value never exceeds the simple length of ``w``.

    One dynamic program over (split end j, segment count ell) keeps, per
    state, the cheapest split of ``w[:j]`` with its own segments, so no
    back-pointer walk rebuilds them.  Ties go to the smallest peel
    depth, the first segment start and the fewest segments, and the
    one-factor fallback beats every split of equal value.
    """
    n = len(w)
    if n > DEFAULT_CR_CAP:
        raise CapExceeded(f"word length {n} exceeds decomposition search cap {DEFAULT_CR_CAP}")
    if max_ell < 1:
        raise ValueError(f"max_ell must be at least 1, got {max_ell}")
    if max_piece < 0 or max_conj < 0:
        raise ValueError("search bounds must be nonnegative")
    # every segment is nonempty, so no split has more than n of them
    max_ell = min(max_ell, n)
    letters = w.letters
    table = subword_simple_lengths(w)
    # best[ell][j]: (least summed piece cost, segments (i, k, j)) of the
    # splits of w[:j] into ell segments, or None when there is none
    best = [[None] * (n + 1) for _ in range(max_ell + 1)]
    best[0][0] = (0, ())
    for j in range(1, n + 1):
        for i in range(j):
            length = j - i
            depth, limit = 0, min(max_conj, (length - 1) // 2)
            while depth < limit and letters[i + depth] == -letters[j - 1 - depth]:
                depth += 1
            admissible = [
                (table[i + k, j - k], k) for k in range(depth + 1) if length - 2 * k <= max_piece
            ]
            if not admissible:
                continue
            cost, k = min(admissible)
            for ell in range(1, max_ell + 1):
                prior, state = best[ell - 1][i], best[ell][j]
                if prior is not None and (state is None or prior[0] + cost < state[0]):
                    best[ell][j] = (prior[0] + cost, prior[1] + ((i, k, j),))

    # the one-factor fallback keeps the value at or below the simple length
    # even when every bounded split is infeasible, and covers the empty word
    epsilon = ReducedWord.identity(w.rank)
    value, decomposition = table.get((0, n), 0), ((w, epsilon),)
    for ell in range(1, max_ell + 1):
        state = best[ell][n]
        if state is not None and state[0] + ell - 1 < value:
            value = state[0] + ell - 1
            decomposition = tuple(
                (subword(w, i + k, j - k), subword(w, j - k, j)) for i, k, j in state[1]
            )
    return ConjugateReducedWitness(value, decomposition)
