import pytest
from helpers import tree_has_cycle

from spotdisk.errors import CapExceeded
from spotdisk.torustree import build_ball, dot_lines, dot_size, is_tree


def test_radius_zero_is_a_single_vertex():
    ball = build_ball(0, 1, 0)
    assert len(ball.vertices) == 1
    assert ball.edges == ()
    assert is_tree(ball)


def test_radius_one_star():
    ball = build_ball(1, 3, 0)
    assert len(ball.vertices) == 4
    assert len(ball.edges) == 3
    assert is_tree(ball)


def test_tree_counts_and_cycle_freeness():
    ball = build_ball(2, 3, 2)
    assert len(ball.nonseparating) == 1 + 3 + 9
    assert len(ball.separating) == 13 * 2
    assert len(ball.edges) == len(ball.vertices) - 1
    assert not tree_has_cycle(ball.vertices, ball.edges)
    assert is_tree(ball)


def test_separating_leaves_have_degree_one():
    ball = build_ball(2, 2, 3)
    degree = {v: 0 for v in ball.vertices}
    for u, v in ball.edges:
        degree[u] += 1
        degree[v] += 1
    for leaf in ball.separating:
        assert degree[leaf] == 1


def test_validation():
    with pytest.raises(ValueError):
        build_ball(-1, 1, 0)
    with pytest.raises(ValueError):
        build_ball(0, 0, 0)
    with pytest.raises(ValueError):
        build_ball(0, 1, -2)


def test_vertex_cap_counts_tree_vertices_and_leaves(monkeypatch):
    import spotdisk.torustree as torustree

    # build_ball(2, 3, 2) has 13 tree vertices and 26 leaves
    monkeypatch.setattr(torustree, "MAX_BALL_VERTICES", 39)
    assert len(build_ball(2, 3, 2).vertices) == 39
    for args in ((3, 3, 2), (2, 3, 3), (2, 4, 2), (10**9, 1, 0), (0, 1, 10**9)):
        with pytest.raises(CapExceeded):
            build_ball(*args)
    monkeypatch.setattr(torustree, "MAX_BALL_VERTICES", 38)
    with pytest.raises(CapExceeded):
        build_ball(2, 3, 2)


def test_dot_size_counts_the_dot_bytes(monkeypatch):
    import spotdisk.torustree as torustree

    # criterion 8's ranges, plus two-digit child and leaf indices
    balls = [(r, v, l) for r in range(5) for v in range(1, 5) for l in range(4)]
    balls += [(1, 11, 0), (2, 11, 1), (1, 2, 11), (2, 11, 11)]
    for args in balls:
        assert dot_size(*args) == len("".join(dot_lines(build_ball(*args))).encode()), args
    size = len("".join(dot_lines(build_ball(2, 11, 11))).encode())
    monkeypatch.setattr(torustree, "MAX_DOT_BYTES", size)
    assert dot_size(2, 11, 11) == size
    monkeypatch.setattr(torustree, "MAX_DOT_BYTES", size - 1)
    with pytest.raises(CapExceeded):
        dot_size(2, 11, 11)
    # the vertex cap and the argument checks come first
    with pytest.raises(ValueError):
        dot_size(0, 0, 0)
    with pytest.raises(CapExceeded, match="vertices"):
        dot_size(10**9, 1, 0)


def test_dot_marks_separating_leaves():
    ball = build_ball(1, 1, 1)
    text = "".join(dot_lines(ball))
    assert '"d" [shape=circle];' in text
    assert '"d.s0" [shape=box];' in text
    assert '"d" -- "d.0";' in text
    assert text.startswith("graph torusball {")


def test_is_tree_detects_broken_graphs():
    def with_edges(ball, edges):
        return type(ball)(
            ball.radius,
            ball.valency_cap,
            ball.leaf_count,
            ball.nonseparating,
            ball.separating,
            edges,
        )

    ball = build_ball(1, 2, 0)
    assert not is_tree(with_edges(ball, ball.edges + ((1, 2),)))
    # |V| - 1 edges, but 3 is stranded and 0, 1, 2 close a cycle
    ball = build_ball(1, 3, 0)
    broken = with_edges(ball, ((0, 1), (0, 2), (1, 2)))
    assert len(broken.edges) == len(broken.vertices) - 1
    assert not is_tree(broken)
    # |V| - 1 edges, one naming a vertex outside 0 .. |V| - 1; -1 must not
    # wrap round to the last vertex
    for stray in (4, -1):
        assert not is_tree(with_edges(ball, ((0, 1), (0, 2), (0, stray))))
        assert not is_tree(with_edges(ball, ((0, 1), (0, 2), (stray, 3))))
