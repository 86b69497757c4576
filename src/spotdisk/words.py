"""Freely reduced words in a free group of fixed rank.

Letters are nonzero signed integers: ``+i`` is the i-th basis generator
(written ``x_i``), ``-i`` is its inverse (written ``X_i``).  Words are
immutable, always stored freely reduced, and carry their ambient rank;
binary operations refuse mismatched ranks.  The empty word is the
identity.  Everything here is pure and safe for concurrent use.

Public construction, ``ReducedWord(rank, letters)``, validates the rank,
every letter and free reduction.  Derived words are not validated again:
the outputs of :func:`concat`, :func:`inverse`, :func:`subword`,
:func:`power` and :func:`reduce` (after its own letter check) are
reduced and in range by construction, so they go through the private
``_trusted`` constructor, which only stores the fields.

Two reduced words cancel only where they meet, so :func:`concat` finds
the longest tail of ``u`` that ``v`` starts by inverting and joins the
two remaining slices; only the cancelling letters are compared one by
one.  :func:`power` writes ``w = p c p^-1``
with ``c`` cyclically reduced (its first and last letters are not
inverse), so ``w^n = p c^n p^-1`` is one tuple repeat, reduced as
written, instead of n - 1 products.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

from ._record import Record, _set
from .errors import ParseError, RankError

__all__ = [
    "ReducedWord",
    "reduce",
    "concat",
    "inverse",
    "power",
    "subword",
    "parse",
    "format_word",
]


class ReducedWord(Record):
    """A freely reduced word over the rank-``rank`` basis.

    Construction rejects unreduced letter sequences; use :func:`reduce`
    to build a word from an arbitrary sequence.
    """

    __slots__ = ("rank", "letters")
    rank: int
    letters: tuple[int, ...]

    def __init__(self, rank: int, letters: Iterable[int] = ()) -> None:
        if rank < 2:
            raise RankError(f"rank must be at least 2, got {rank}")
        letters = tuple(letters)
        for a in letters:
            if a == 0 or abs(a) > rank:
                raise RankError(f"letter {a} outside rank {rank}")
        for a, b in zip(letters, letters[1:]):
            if a == -b:
                raise ValueError(f"letter sequence {letters} is not freely reduced")
        _set(self, "rank", rank)
        _set(self, "letters", letters)

    @classmethod
    def identity(cls, rank: int) -> "ReducedWord":
        return cls(rank, ())

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __str__(self) -> str:
        return format_word(self)


def _trusted(rank: int, letters: tuple[int, ...]) -> ReducedWord:
    """A word whose letters are reduced and within ``rank`` by
    construction, stored without validation."""
    w = object.__new__(ReducedWord)
    _set(w, "rank", rank)
    _set(w, "letters", letters)
    return w


def reduce(letters: Iterable[int], rank: int) -> ReducedWord:
    """Freely reduce a raw letter sequence.

    >>> str(reduce([1, -1], 2))
    ''
    >>> str(reduce([1, 2, -2, 1], 2))
    'x1 x1'
    """
    stack: list[int] = []
    for a in letters:
        if a == 0 or abs(a) > rank:
            raise RankError(f"letter {a} outside rank {rank}")
        if stack and stack[-1] == -a:
            stack.pop()
        else:
            stack.append(a)
    if rank < 2:
        raise RankError(f"rank must be at least 2, got {rank}")
    return _trusted(rank, tuple(stack))


def concat(u: ReducedWord, v: ReducedWord) -> ReducedWord:
    """Reduced product ``u v``, read left to right, as a slice join."""
    if u.rank != v.rank:
        raise RankError(f"rank mismatch: {u.rank} vs {v.rank}")
    a, b = u.letters, v.letters
    c, m = 0, min(len(a), len(b))
    while c < m and a[-1 - c] == -b[c]:
        c += 1
    return _trusted(u.rank, a[: len(a) - c] + b[c:])


def inverse(w: ReducedWord) -> ReducedWord:
    """Reversed sequence with flipped signs; reduced by construction."""
    return _trusted(w.rank, tuple(-a for a in reversed(w.letters)))


def power(w: ReducedWord, n: int) -> ReducedWord:
    """``w`` to the n-th power, for any integer n: ``p c^|n| p^-1`` for
    ``w^sign(n) = p c p^-1`` with ``c`` cyclically reduced."""
    letters = (w if n >= 0 else inverse(w)).letters
    if not n or not letters:
        return _trusted(w.rank, ())
    k, last = 0, len(letters) - 1
    while k < last - k and letters[k] == -letters[last - k]:
        k += 1
    core = letters[k : last + 1 - k]
    return _trusted(w.rank, letters[:k] + core * abs(n) + letters[last + 1 - k :])


def subword(w: ReducedWord, start: int, stop: int) -> ReducedWord:
    """Contiguous subword ``w[start:stop]`` (reduced, being a slice of a
    reduced word)."""
    if not 0 <= start <= stop <= len(w):
        raise IndexError(f"subword range [{start}, {stop}) outside word of length {len(w)}")
    return _trusted(w.rank, w.letters[start:stop])


_TOKEN = re.compile(r"[xX][0-9]+\Z")
_COMPACT = re.compile(r"[A-Za-z]+\Z")


def parse(text: str, rank: int) -> ReducedWord:
    """Parse word text and freely reduce it.

    Two grammars are accepted: whitespace-separated tokens (``x3`` for a
    generator, ``X3`` for its inverse) and compact letter runs
    (``a..z`` for generators 1..26, ``A..Z`` for inverses).  Mixing the
    two forms is rejected.

    >>> parse("x1 X1", 2).is_identity
    True
    >>> str(parse("abA", 2))
    'x1 x2 X1'
    """
    chunks = text.split()
    if not chunks:
        return ReducedWord.identity(rank)
    raw: list[int] = []
    if all(_TOKEN.fullmatch(c) for c in chunks):
        for c in chunks:
            index = int(c[1:])
            if index == 0 or index > rank:
                raise RankError(f"letter index in {c!r} outside 1..{rank}")
            raw.append(index if c[0] == "x" else -index)
    elif all(_COMPACT.fullmatch(c) for c in chunks):
        for c in chunks:
            for ch in c:
                index = ord(ch.lower()) - ord("a") + 1
                if index > rank:
                    raise RankError(f"letter {ch!r} outside rank {rank}")
                raw.append(index if ch.islower() else -index)
    else:
        raise ParseError(f"cannot parse word text {text!r}")
    return reduce(raw, rank)


def format_word(w: ReducedWord) -> str:
    """Token-form rendering; round-trips through :func:`parse`.

    The identity renders as the empty string.
    """
    return " ".join(f"x{a}" if a > 0 else f"X{-a}" for a in w.letters)

