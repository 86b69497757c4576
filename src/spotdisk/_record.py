"""Immutable value records with slotted fields.

Every value type of the package derives from :class:`Record`.  The base
is plain Python with no class-generating machinery, so importing the
package loads neither ``inspect`` nor ``ast``, ``dis`` or ``tokenize``;
those imports would otherwise dominate the start-up of every
command-line call.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any

_set = object.__setattr__


class Record:
    """Base for immutable values whose fields are named by ``__slots__``.

    Construction takes the fields positionally and then calls
    :meth:`_check`.  Instances compare equal only to instances of
    the same type with equal fields, hash like the tuple of their fields,
    and refuse assignment and deletion.

    >>> class Point(Record):
    ...     __slots__ = ("x", "y")
    >>> p = Point(1, 2)
    >>> p
    Point(x=1, y=2)
    >>> p == Point(1, 2), hash(p) == hash((1, 2))
    (True, True)
    >>> p.x = 3
    Traceback (most recent call last):
      ...
    AttributeError: cannot assign to field 'x'
    """

    __slots__ = ()

    def __init__(self, *args: Any) -> None:
        names = self.__slots__
        if len(args) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, got {len(args)}")
        for name, value in zip(names, args):
            _set(self, name, value)
        self._check()

    def _check(self) -> None:
        """Validate the fields after construction; raise to reject them."""

    def _fields(self) -> tuple[Any, ...]:
        names = self.__slots__
        values = attrgetter(*names)(self)
        return values if len(names) > 1 else (values,)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self) -> tuple[type, tuple[Any, ...]]:
        return type(self), self._fields()
