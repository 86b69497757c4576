"""Finite balls in the disk graph of a solid torus with two marked points.

That graph is a tree: the non-separating disks span a tree of countable
valency, and every separating disk hangs off exactly one non-separating
disk as a leaf.  Balls are generated abstractly with a uniform valency
truncation.  Their vertices are breadth-first indices; path-from-root
labels exist only in the DOT text.
"""

from __future__ import annotations

from typing import Iterator

from ._record import Record
from .errors import CapExceeded

__all__ = ["TorusDiskBall", "ball_size", "build_ball", "dot_lines", "dot_size", "is_tree"]

ROOT = "d"
# Largest ball built: `torus-ball` at this size peaks below 200 MB.
MAX_BALL_VERTICES = 1_000_000
# Largest DOT text written: every ball of the vertex cap up to radius 12 at
# valency 3 (82 MB) fits, and paths from about radius 5,800 on do not.
MAX_DOT_BYTES = 100_000_000

# The DOT writer's lines; dot_size counts its bytes from them.
_HEAD = "graph torusball {\n"
_CIRCLE = '  "{}" [shape=circle];\n'
_BOX = '  "{}" [shape=box];\n'
_EDGE = '  "{}" -- "{}";\n'
_TAIL = "}\n"


class TorusDiskBall(Record):
    """Truncated ball: a uniform tree of non-separating disks with
    separating leaves attached to every tree vertex.

    Tree vertices come first in breadth-first order, then the leaves of
    each tree vertex in turn.  With T tree vertices, valency v and L
    leaves, tree vertex c >= 1 is child (c - 1) mod v of tree vertex
    (c - 1) // v, and vertex T + c is leaf c mod L of tree vertex c // L.
    """

    __slots__ = ("radius", "valency_cap", "leaf_count", "nonseparating", "separating", "edges")
    radius: int
    valency_cap: int
    leaf_count: int
    nonseparating: range
    separating: range
    edges: tuple[tuple[int, int], ...]

    @property
    def vertices(self) -> range:
        return range(len(self.nonseparating) + len(self.separating))


def ball_size(radius: int, tree_valency: int, leaf_count: int) -> int:
    """Vertex count of :func:`build_ball`'s ball, found by arithmetic
    after the argument checks; above MAX_BALL_VERTICES it raises
    CapExceeded instead.

    >>> ball_size(2, 3, 2)
    39
    """
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    if tree_valency < 1:
        raise ValueError(f"tree valency must be at least 1, got {tree_valency}")
    if leaf_count < 0:
        raise ValueError(f"leaf count must be nonnegative, got {leaf_count}")
    # Level i holds valency^i tree vertices, each with its leaves.  Every
    # level adds vertices, so the count stops within the cap's worth of levels.
    size = level = 1 + leaf_count
    for _ in range(radius):
        if size > MAX_BALL_VERTICES:
            break
        level *= tree_valency
        size += level
    if size > MAX_BALL_VERTICES:
        raise CapExceeded(f"ball has more than {MAX_BALL_VERTICES} vertices")
    return size


def _digits_below(n: int) -> int:
    """Decimal digits in 0, 1, ..., n - 1 together: each number has one,
    and one more for each power of ten it reaches."""
    total, power = n, 10
    while power < n:
        total += n - power
        power *= 10
    return total


def dot_size(radius: int, tree_valency: int, leaf_count: int) -> int:
    """Byte count of :func:`dot_lines` on :func:`build_ball`'s ball, found
    by arithmetic after :func:`ball_size`; above MAX_DOT_BYTES it raises
    CapExceeded instead.

    >>> dot_size(1, 1, 1) == len("".join(dot_lines(build_ball(1, 1, 1))))
    True
    """
    ball_size(radius, tree_valency, leaf_count)
    circle, box = len(_CIRCLE.format("")), len(_BOX.format(""))
    edge = len(_EDGE.format("", ""))
    child_digits, leaf_digits = _digits_below(tree_valency), _digits_below(leaf_count)
    size = len(_HEAD) + len(_TAIL)
    # Level by level: `count` tree vertices whose labels total `labels`
    # bytes.  A child's label is its parent's plus ".i", a leaf's plus ".sj",
    # and an edge line holds both labels.  No term is negative, so the sum
    # may stop once it is past the cap.
    count, labels = 1, len(ROOT)
    for depth in range(radius + 1):
        leaves = leaf_count * labels + count * (2 * leaf_count + leaf_digits)
        size += circle * count + labels
        size += box * count * leaf_count + leaves
        size += edge * count * leaf_count + leaf_count * labels + leaves
        if depth == radius or size > MAX_DOT_BYTES:
            break
        children = tree_valency * labels + count * (tree_valency + child_digits)
        size += edge * count * tree_valency + tree_valency * labels + children
        count, labels = count * tree_valency, children
    if size > MAX_DOT_BYTES:
        raise CapExceeded(f"DOT file has more than {MAX_DOT_BYTES} bytes")
    return size


def build_ball(radius: int, tree_valency: int, leaf_count: int) -> TorusDiskBall:
    """Breadth-first ball of the given radius, numbered as
    :class:`TorusDiskBall` says.

    Every non-separating vertex gets ``tree_valency`` tree children (a
    truncation of countably many) and ``leaf_count`` separating leaves.
    The arguments and the vertex cap are checked by :func:`ball_size`
    before anything is built.

    >>> ball = build_ball(1, 3, 0)
    >>> len(ball.vertices), ball.edges
    (4, ((0, 1), (0, 2), (0, 3)))
    """
    tree = ball_size(radius, tree_valency, leaf_count) // (1 + leaf_count)
    edges = [((c - 1) // tree_valency, c) for c in range(1, tree)]
    edges += [(c // leaf_count, tree + c) for c in range(tree * leaf_count)]
    return TorusDiskBall(
        radius,
        tree_valency,
        leaf_count,
        range(tree),
        range(tree, tree * (1 + leaf_count)),
        tuple(edges),
    )


def is_tree(ball: TorusDiskBall) -> bool:
    """Exactly |V| - 1 edges, each between vertices 0 .. |V| - 1, and no
    cycle (hence connected), checked by union-find over the edges."""
    n = len(ball.vertices)
    if not n or len(ball.edges) != n - 1:
        return False
    parent = list(range(n))

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]  # path halving
        return v

    for u, v in ball.edges:
        if not (0 <= u < n and 0 <= v < n):
            return False
        ru, rv = root(u), root(v)
        if ru == rv:
            return False
        parent[rv] = ru
    return True


def dot_lines(ball: TorusDiskBall) -> Iterator[str]:
    """DOT rendering with path-from-root labels, line by line: the root is
    ``d``, tree child i of a vertex appends ``.i`` and its leaf j appends
    ``.sj``.  Separating leaves are drawn as boxes.  The labels are made
    first; each line is made when it is asked for."""
    valency, leaf_count = ball.valency_cap, ball.leaf_count
    tree = len(ball.nonseparating)
    labels = [ROOT]
    for c in range(1, tree):
        labels.append(f"{labels[(c - 1) // valency]}.{(c - 1) % valency}")
    for c in range(tree * leaf_count):
        labels.append(f"{labels[c // leaf_count]}.s{c % leaf_count}")
    yield _HEAD
    for v in ball.nonseparating:
        yield _CIRCLE.format(labels[v])
    for v in ball.separating:
        yield _BOX.format(labels[v])
    for u, v in ball.edges:
        yield _EDGE.format(labels[u], labels[v])
    yield _TAIL
