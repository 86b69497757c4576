"""Point-pushing calculus on algebraic arc and disk labels.

Everything is modeled at the group level: an arc connecting the two
marked points is a group element, a disk enclosing both points is a
right coset of the cyclic subgroup generated by a distinguished letter,
and a two-sided push expression tags a push word with the side it acts
on.  The boundary reflection acts as the identity on words, so the two
sides carry the same word data and differ only in their tag.

Distance facts are produced exclusively as :class:`BoundTrace` values,
ordered lists of named inference steps with numeric increments.  Only
one-sided bounds are ever derived; no exact graph distance is exposed.
"""

from __future__ import annotations

from enum import Enum

from ._record import Record
from .errors import RankError
from .words import ReducedWord, concat, format_word, inverse

__all__ = [
    "ArcLabel",
    "DiskLabel",
    "Side",
    "PushLabel",
    "TraceStep",
    "BoundTrace",
    "RULES",
    "push_arc",
    "q_class",
    "disk_normalize",
    "sphere_equiv_bound",
]

RULES = ("pointcommute", "crucial2", "distanceestimate", "isometric-relabel", "triangle")


class ArcLabel(Record):
    """Arc between the two marked points, as an element of the ambient group."""

    __slots__ = ("word",)
    word: ReducedWord


class DiskLabel(Record):
    """Disk enclosing both marked points: a right coset of the cyclic
    subgroup generated by letter ``c_index``, held by its canonical
    representative (no leading power of that letter)."""

    __slots__ = ("coset_rep", "c_index")
    coset_rep: ReducedWord
    c_index: int

    def _check(self) -> None:
        if not 1 <= self.c_index <= self.coset_rep.rank:
            raise RankError(
                f"coset letter index {self.c_index} outside rank {self.coset_rep.rank}"
            )
        if self.coset_rep.letters and abs(self.coset_rep.letters[0]) == self.c_index:
            raise ValueError("coset representative carries a leading coset letter")


class Side(Enum):
    """Which marked point a push expression acts on."""

    SIDE1 = 1
    SIDE2 = 2


class PushLabel(Record):
    """Two-sided push expression: ``[a, u]_2`` on side 2, ``[a^-1, u]_1``
    on side 1.  The base symbol is determined by the side."""

    __slots__ = ("side", "word")
    side: Side
    word: ReducedWord

    @property
    def base(self) -> str:
        return "a" if self.side is Side.SIDE2 else "a^-1"

    def __str__(self) -> str:
        return f"[{self.base},{format_word(self.word)}]_{self.side.value}"


class TraceStep(Record):
    __slots__ = ("rule", "note", "increment")
    rule: str
    note: str
    increment: int

    def _check(self) -> None:
        if self.rule not in RULES:
            raise ValueError(f"unknown bound rule {self.rule!r}")
        if self.increment < 0:
            raise ValueError(f"negative increment {self.increment}")


class BoundTrace(Record):
    """Audit log of inequality steps; ``total`` is the derived bound."""

    __slots__ = ("steps", "total")
    steps: tuple[TraceStep, ...]
    total: int

    def _check(self) -> None:
        if self.total != sum(step.increment for step in self.steps):
            raise ValueError("trace total differs from the sum of its increments")


def push_arc(arc: ArcLabel, loop: ReducedWord) -> ArcLabel:
    """Push the movable endpoint along ``loop``: right concatenation.

    This is a free and transitive right action, so
    ``push_arc(push_arc(a, u), v) == push_arc(a, u v)``.
    """
    return ArcLabel(concat(arc.word, loop))


def q_class(alpha: ArcLabel, beta: ArcLabel) -> ReducedWord:
    """Class of the loop traversing ``alpha`` backwards, then ``beta``.

    Pushing along it carries ``alpha`` to ``beta``.
    """
    return concat(inverse(alpha.word), beta.word)


def disk_normalize(w: ReducedWord, c_index: int | None = None) -> DiskLabel:
    """Canonical disk label for the coset of ``w``: strip the maximal
    leading power of the coset letter (default: the top basis letter).
    An index outside ``1..rank`` strips nothing, and :class:`DiskLabel`
    rejects it.

    >>> str(disk_normalize(ReducedWord(2, (2, 2, 1)), 2).coset_rep)
    'x1'
    """
    c = w.rank if c_index is None else c_index
    i = 0
    while i < len(w.letters) and abs(w.letters[i]) == c:
        i += 1
    return DiskLabel(ReducedWord(w.rank, w.letters[i:]), c)


def sphere_equiv_bound(label1: PushLabel, label2: PushLabel) -> BoundTrace | None:
    """Bound for a two-sided pair of push expressions, when a rule applies.

    Equal labels cost nothing.  A pair pushing mutually inverse words on
    opposite sides is bounded by 2.  Anything else has no rule.
    """
    if label1 == label2:
        return BoundTrace((), 0)
    if label1.side is not label2.side and label1.word == inverse(label2.word):
        step = TraceStep(
            "pointcommute",
            f"opposite-side swap between {label1} and {label2}",
            2,
        )
        return BoundTrace((step,), 2)
    return None
