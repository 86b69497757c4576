"""Finite balls in the disk graph of a solid torus with two marked points.

That graph is a tree: the non-separating disks span a tree of countable
valency, and every separating disk hangs off exactly one non-separating
disk as a leaf.  Balls are generated abstractly with a uniform valency
truncation and path-from-root labels.
"""

from __future__ import annotations

from ._record import Record
from .errors import CapExceeded

__all__ = ["TorusDiskBall", "ball_size", "build_ball", "is_tree", "to_dot"]

ROOT = "d"
# Largest ball built: `torus-ball` at this size peaks near 220 MB.
MAX_BALL_VERTICES = 1_000_000


class TorusDiskBall(Record):
    """Truncated ball: a uniform tree of non-separating disks with
    separating leaves attached to every tree vertex."""

    __slots__ = ("radius", "valency_cap", "leaf_count", "nonseparating", "separating", "edges")
    radius: int
    valency_cap: int
    leaf_count: int
    nonseparating: tuple[str, ...]
    separating: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    @property
    def vertices(self) -> tuple[str, ...]:
        return self.nonseparating + self.separating


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


def build_ball(radius: int, tree_valency: int, leaf_count: int) -> TorusDiskBall:
    """Breadth-first ball of the given radius.

    Every non-separating vertex gets ``tree_valency`` tree children (a
    truncation of countably many) and ``leaf_count`` separating leaves.
    The arguments and the vertex cap are checked by :func:`ball_size`
    before anything is built.

    >>> ball = build_ball(1, 3, 0)
    >>> len(ball.vertices), len(ball.edges)
    (4, 3)
    """
    ball_size(radius, tree_valency, leaf_count)
    nonsep = [ROOT]
    edges: list[tuple[str, str]] = []
    frontier = [ROOT]
    for _ in range(radius):
        grown: list[str] = []
        for parent in frontier:
            for i in range(tree_valency):
                child = f"{parent}.{i}"
                nonsep.append(child)
                edges.append((parent, child))
                grown.append(child)
        frontier = grown
    separating: list[str] = []
    for parent in nonsep:
        for j in range(leaf_count):
            leaf = f"{parent}.s{j}"
            separating.append(leaf)
            edges.append((parent, leaf))
    return TorusDiskBall(
        radius,
        tree_valency,
        leaf_count,
        tuple(nonsep),
        tuple(separating),
        tuple(edges),
    )


def is_tree(ball: TorusDiskBall) -> bool:
    """Exactly |V| - 1 edges and no cycle (hence connected), checked by
    union-find over the edges."""
    verts = ball.vertices
    if not verts or len(ball.edges) != len(verts) - 1:
        return False
    parent = {v: v for v in verts}

    def root(v: str) -> str:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]  # path halving
        return v

    for u, v in ball.edges:
        ru, rv = root(u), root(v)
        if ru == rv:
            return False
        parent[rv] = ru
    return True


def to_dot(ball: TorusDiskBall) -> str:
    """DOT rendering; separating leaves are drawn as boxes."""
    lines = ["graph torusball {"]
    for v in ball.nonseparating:
        lines.append(f'  "{v}" [shape=circle];')
    for v in ball.separating:
        lines.append(f'  "{v}" [shape=box];')
    for u, v in ball.edges:
        lines.append(f'  "{u}" -- "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
