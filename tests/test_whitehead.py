import random

import pytest
from helpers import all_reduced_words, brute_has_cut_vertex, random_reduced_word

from spotdisk import qicert, whitehead
from spotdisk.errors import CapExceeded, RankError
from spotdisk.whitehead import (
    WhiteheadGraph,
    has_cut_vertex,
    simple_length,
    simple_length_bruteforce,
    subword_simple_lengths,
    to_dot,
    whitehead_graph,
)
from spotdisk.words import ReducedWord, inverse, parse, power, subword


def test_single_pair_word_gives_one_edge():
    graph = whitehead_graph(parse("x1 x2", 2))
    assert graph.edges == (((1, -2), 1),)


def test_identity_word_gives_empty_graph():
    graph = whitehead_graph(ReducedWord.identity(2))
    assert graph.edge_count == 0
    assert len(graph.vertices) == 4


def test_edge_count_is_length_minus_one_exhaustive():
    for w in all_reduced_words(2, 4):
        assert whitehead_graph(w).edge_count == max(len(w) - 1, 0)


def test_power_word_accumulates_multiplicity():
    graph = whitehead_graph(parse("x1 x1 x1", 2))
    assert graph.edges == (((1, -1), 2),)


def test_single_letter_has_cut_vertex():
    assert has_cut_vertex(whitehead_graph(parse("x1", 2)))


def test_four_cycle_word_has_no_cut_vertex():
    graph = whitehead_graph(parse("x1 x2 X1 X2 x1", 2))
    assert brute_has_cut_vertex(graph) is False
    assert has_cut_vertex(graph) is False


def test_path_graph_word_has_cut_vertex():
    graph = whitehead_graph(parse("x1 x1 x2 x2", 2))
    assert brute_has_cut_vertex(graph) is True
    assert has_cut_vertex(graph) is True


def test_cut_vertex_agrees_with_removal_oracle_exhaustively():
    for w in all_reduced_words(2, 6):
        graph = whitehead_graph(w)
        assert has_cut_vertex(graph) == brute_has_cut_vertex(graph), str(w)


def test_cut_vertex_agrees_with_removal_oracle_random_rank3():
    rng = random.Random(201)
    for _ in range(300):
        w = random_reduced_word(rng, 3, rng.randint(0, 14))
        graph = whitehead_graph(w)
        assert has_cut_vertex(graph) == brute_has_cut_vertex(graph), str(w)


def test_simple_length_identity_and_single_letter_are_zero():
    assert simple_length(ReducedWord.identity(2)).value == 0
    assert simple_length(parse("x1", 2)).value == 0
    assert simple_length(parse("x1", 2)).pieces == ()


def test_simple_length_of_cut_free_word_is_positive():
    assert simple_length(parse("x1 x2 X1 X2 x1", 2)).value >= 1


def test_witness_pieces_concatenate_and_pass_the_predicate():
    rng = random.Random(202)
    for _ in range(200):
        w = random_reduced_word(rng, 2, rng.randint(0, 12))
        witness = simple_length(w)
        if witness.value == 0:
            assert witness.pieces == ()
            continue
        assert len(witness.pieces) == witness.value
        glued = tuple(a for piece in witness.pieces for a in piece.letters)
        assert glued == w.letters
        for piece in witness.pieces:
            assert not has_cut_vertex(whitehead_graph(piece))
        # every cut sits at the end of the shortest simple piece
        for piece in witness.pieces[:-1]:
            for end in range(1, len(piece)):
                assert brute_has_cut_vertex(whitehead_graph(subword(piece, 0, end)))


def test_simple_length_matches_bruteforce_exhaustively():
    for w in all_reduced_words(2, 7):
        assert simple_length(w).value == simple_length_bruteforce(w), str(w)


def test_simple_length_matches_bruteforce_random_rank3():
    rng = random.Random(203)
    for _ in range(200):
        w = random_reduced_word(rng, 3, rng.randint(0, 13))
        assert simple_length(w).value == simple_length_bruteforce(w), str(w)


def test_bruteforce_cap():
    with pytest.raises(CapExceeded):
        simple_length_bruteforce(ReducedWord(2, tuple([1, 2] * 8)))


def test_inverse_symmetry_and_length_bound_random():
    rng = random.Random(204)
    for _ in range(200):
        w = random_reduced_word(rng, 3, rng.randint(0, 12))
        value = simple_length(w).value
        assert value == simple_length(inverse(w)).value
        assert value <= len(w)


def test_subword_table_matches_direct_computation():
    rng = random.Random(205)
    for _ in range(50):
        w = random_reduced_word(rng, 2, rng.randint(0, 10))
        table = subword_simple_lengths(w)
        assert len(table) == len(w) * (len(w) + 1) // 2
        for (i, j), value in table.items():
            assert value == simple_length_bruteforce(subword(w, i, j))


def _shortest_simple_prefix(w, start):
    """Removal-oracle version of the greedy stop: the smallest j with
    w[start:j] free of cut vertices, or None."""
    for j in range(start + 1, len(w) + 1):
        if not brute_has_cut_vertex(whitehead_graph(subword(w, start, j))):
            return j
    return None


def _gated_cut_vertex_search(monkeypatch):
    """Make every cut-vertex search check the degree gate; return its call log."""
    search = whitehead._cut_vertex_in
    calls = []

    def gated(verts, adj):
        assert all(len(adj[v]) >= 2 for v in verts)
        calls.append(sum(map(len, adj.values())) // 2)
        return search(verts, adj)

    monkeypatch.setattr(whitehead, "_cut_vertex_in", gated)
    return calls


def test_simple_stop_matches_the_prefix_oracle_behind_the_degree_gate(monkeypatch):
    calls = _gated_cut_vertex_search(monkeypatch)
    rng = random.Random(206)
    for rank in range(2, 9):
        outcomes = set()
        for _ in range(30):
            w = random_reduced_word(rng, rank, rng.randint(0, 6 * rank))
            for start in {0, rng.randint(0, len(w))}:
                stop = whitehead._simple_stop(rank, w.letters, start)
                assert stop == _shortest_simple_prefix(w, start), (str(w), start)
                outcomes.add(stop is None)
        assert outcomes == {True, False}, rank
    assert calls


def test_degree_gate_cuts_the_searches_on_the_benchmark_grids(monkeypatch):
    calls = _gated_cut_vertex_search(monkeypatch)
    for args in ((4, 2, 4), (4, 3, 2)):
        assert qicert.certify_grid(*args)
    # the ungated scan searched 3,434 times on these two grids
    assert len(calls) <= 1617


def test_length_gate_allocates_nothing_short_of_2g_plus_1_letters(monkeypatch, capsys):
    from spotdisk.cli import main

    # On the simple-length path only the scan's adjacency makes sets.
    made = []

    def counting_set(*args):
        made.append(args)
        return set(*args)

    monkeypatch.setattr(whitehead, "set", counting_set, raising=False)
    # 34 greedy scans at rank 10,000, none with 20,001 letters left
    assert main(["cr-bounds", " ".join(["x1 x2"] * 16), "--rank", "10000"]) == 0
    assert capsys.readouterr().out == "0 0 0\n"
    assert made == []
    for rank in (2, 3, 5):
        letters = (1, 2) * (rank + 3)
        for start in (0, 3):
            # exactly 2g letters left
            assert whitehead._simple_stop(rank, letters[: start + 2 * rank], start) is None
            assert made == []
    assert whitehead._simple_stop(2, (1, 2, 1, 2, 1), 0) is None
    assert len(made) == 4


def test_simple_pieces_of_exactly_2g_plus_1_letters_keep_their_stop():
    for rank in range(2, 7):
        # x1 x1 x2 x2 ... xg xg x1: a 2g-cycle through every vertex
        piece = tuple(a for a in range(1, rank + 1) for _ in (0, 1)) + (1,)
        assert len(piece) == 2 * rank + 1
        assert whitehead._simple_stop(rank, piece, 0) == len(piece)
        letters = (-2, 1) + piece
        assert whitehead._simple_stop(rank, letters, 2) == len(letters)
        assert not has_cut_vertex(whitehead_graph(ReducedWord(rank, piece)))


def _counting_stops(monkeypatch) -> list:
    stops = []
    simple_stop = whitehead._simple_stop

    def counting_stop(*args):
        stops.append(args)
        return simple_stop(*args)

    monkeypatch.setattr(whitehead, "_simple_stop", counting_stop)
    return stops


def test_periodic_words_look_their_stops_up(monkeypatch):
    # every cut of b_t^40 after the first starts the same minimal piece,
    # so the plain chain of stops, 41 here, shrinks to a few lookups
    stops = _counting_stops(monkeypatch)
    for g in (4, 6, 10):
        for t in (1, 3, 5):
            stops.clear()
            assert simple_length(power(qicert.make_bt(g, t), 40)).value == 40
            assert len(stops) <= 3, (g, t)


def test_each_simple_length_call_starts_an_empty_table(monkeypatch):
    stops = _counting_stops(monkeypatch)
    greedy_cuts = whitehead._greedy_cuts
    entry_sizes = []

    def recording(pieces, rank, letters):
        entry_sizes.append(len(pieces))
        return greedy_cuts(pieces, rank, letters)

    monkeypatch.setattr(whitehead, "_greedy_cuts", recording)
    w = random_reduced_word(random.Random(31), 3, 200)
    counts = []
    for _ in range(2):
        stops.clear()
        assert simple_length(w).value >= 3
        counts.append(len(stops))
    assert counts[0] == counts[1]
    word = (1, 2, -1, -2, 1)
    for ranks in ((2, 3), (3, 2)):
        values = {rank: simple_length(ReducedWord(rank, word)).value for rank in ranks}
        assert values == {2: 1, 3: 0}
    assert entry_sizes == [0] * 6


def test_push_word_powers_have_simple_length_their_exponent(monkeypatch):
    # after one period of b_t the scan is at a fixed point: one more
    # period adds exactly one greedy cut and returns to it, so every piece
    # after the first is looked up, and one more stop finds no piece
    stops = _counting_stops(monkeypatch)
    for g in range(4, 11):
        for t in range(1, 6):
            b = qicert.make_bt(g, t)
            for d in range(1, 9):
                stops.clear()
                assert simple_length(power(b, d)).value == d, (g, t, d)
                assert len(stops) <= 2, (g, t, d)


def test_from_pairs_canonicalizes_and_validates():
    graph = WhiteheadGraph.from_pairs(2, [(-2, 1), (1, -2)])
    assert graph.edges == (((1, -2), 2),)
    # RankError subclasses ValueError, so each case checks the exact type
    for rank, edges, error in (
        (2, (((1, -2), 0),), ValueError),  # multiplicity below 1
        (2, (((-2, 1), 1),), ValueError),  # not canonically ordered
        (1, (), RankError),
        (2, (((0, 1), 1),), RankError),
        (2, (((1, 3), 1),), RankError),
        (2, (((1, -2), 1), ((1, -2), 1)), ValueError),  # duplicate entry
    ):
        with pytest.raises(ValueError) as caught:
            WhiteheadGraph(rank, edges)
        assert type(caught.value) is error


def test_self_loops_are_representable_and_ignored_for_connectivity():
    graph = WhiteheadGraph.from_pairs(2, [(1, 1), (2, 2)])
    assert graph.edge_count == 2
    assert has_cut_vertex(graph) is True


def test_dot_output_is_deterministic():
    graph = whitehead_graph(parse("x1 x1 x2", 2))
    assert to_dot(graph) == (
        "graph whitehead {\n"
        '  "x1";\n'
        '  "x2";\n'
        '  "X1";\n'
        '  "X2";\n'
        '  "x1" -- "X1";\n'
        '  "x1" -- "X2";\n'
        "}\n"
    )
