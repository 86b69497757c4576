"""Acceptance suite: each test checks one shipping criterion at its
stated tolerance (all exact) and prints one pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from helpers import all_reduced_words, random_reduced_word, tree_has_cycle

from spotdisk.cancelpairs import cr_bruteforce, cr_lower_bound
from spotdisk.cli import main
from spotdisk.pushcalc import (
    ArcLabel,
    PushLabel,
    Side,
    disk_normalize,
    push_arc,
    q_class,
    sphere_equiv_bound,
)
from spotdisk.qicert import certify_grid, lambda_word, make_bt, summarize, upper_bound
from spotdisk.torustree import build_ball, is_tree
from spotdisk.whitehead import (
    simple_length,
    simple_length_bruteforce,
    subword_simple_lengths,
    whitehead_graph,
)
from spotdisk.words import ReducedWord, concat, inverse, power

SEED = 20260810


@pytest.fixture(scope="module")
def g2_corpus():
    """Every reduced word of length at most 8 over rank 2 (13121 words)."""
    return list(all_reduced_words(2, 8))


@pytest.fixture(scope="module")
def random_corpus():
    """10,000 random reduced words of length at most 14 over ranks 3 and 4."""
    rng = random.Random(SEED)
    words = []
    for rank in (3, 4):
        for _ in range(5000):
            words.append(random_reduced_word(rng, rank, rng.randint(0, 14)))
    return words


def test_criterion_1_whitehead_edge_count():
    words = list(all_reduced_words(2, 6))
    for w in words:
        assert whitehead_graph(w).edge_count == max(len(w) - 1, 0), str(w)
    print(f"criterion 1: PASS - edge count equals length-1 on {len(words)} words")


def test_criterion_2_simple_length_oracle(g2_corpus, random_corpus):
    for w in g2_corpus:
        assert simple_length(w).value == simple_length_bruteforce(w), str(w)
    for w in random_corpus:
        assert simple_length(w).value == simple_length_bruteforce(w), str(w)
    print(
        "criterion 2: PASS - simple length matches enumeration on "
        f"{len(g2_corpus)} exhaustive and {len(random_corpus)} random words"
    )


def test_criterion_3_subword_monotonicity_subadditivity_inverse(g2_corpus, random_corpus):
    # the exhaustive corpus is closed under taking subwords, so checking
    # both maximal subwords of every word covers all nested subwords
    values = {w.letters: simple_length(w).value for w in g2_corpus}
    for w in g2_corpus:
        if len(w) == 0:
            continue
        value = values[w.letters]
        assert value >= values[w.letters[1:]], str(w)
        assert value >= values[w.letters[:-1]], str(w)
    for w in g2_corpus:
        assert values[w.letters] == values[tuple(-a for a in reversed(w.letters))]

    for w in random_corpus:
        n = len(w)
        table = subword_simple_lengths(w)
        if n:
            assert table[(0, n)] == simple_length(w).value
        for (i, j), value in table.items():
            if j - i < 2:
                continue
            assert value >= table[(i + 1, j)], (str(w), i, j)
            assert value >= table[(i, j - 1)], (str(w), i, j)
        assert simple_length(w).value == simple_length(inverse(w)).value, str(w)

    rng = random.Random(SEED + 3)
    pairs = [(rng.choice(g2_corpus), rng.choice(g2_corpus)) for _ in range(2000)]
    by_rank = {3: [], 4: []}
    for w in random_corpus:
        by_rank[w.rank].append(w)
    for rank in (3, 4):
        pool = by_rank[rank]
        pairs.extend((rng.choice(pool), rng.choice(pool)) for _ in range(500))
    for u, v in pairs:
        w = concat(u, v)
        assert (
            simple_length(w).value
            <= simple_length(u).value + simple_length(v).value + 1
        ), (str(u), str(v))
    print(
        "criterion 3: PASS - monotonicity, subadditivity (+1) and inverse "
        f"symmetry on both corpora ({len(pairs)} concat pairs)"
    )


def test_criterion_4_cr_sandwich():
    rng = random.Random(SEED + 4)
    words = [random_reduced_word(rng, 2, rng.randint(0, 12)) for _ in range(500)]
    stable = 0
    for w in words:
        lower = cr_lower_bound(w)
        base = cr_bruteforce(w)
        doubled = cr_bruteforce(w, max_ell=6, max_piece=12, max_conj=6)
        top = simple_length(w).value
        assert lower <= base.value <= top, str(w)
        assert lower <= doubled.value <= top, str(w)
        assert doubled.value <= base.value, str(w)
        if doubled.value == base.value:
            stable += 1
    print(
        "criterion 4: PASS - lower <= search <= simple length on "
        f"{len(words)} words ({stable} stable under doubled caps)"
    )


def test_criterion_5_bt_power_lower_bound():
    for t in (1, 2):
        for s in (1, 2, 3):
            value = simple_length(power(make_bt(4, t), s)).value
            assert value >= s, (t, s, value)
    print("criterion 5: PASS - simple length of b_t^s is at least s for g=4")


def test_criterion_6_qi_certificate_sandwich():
    baselines = {}
    for n in (1, 2):
        rows = certify_grid(4, n, 2)
        points = sorted(product(range(3), repeat=n))
        assert len(rows) == len(points) * (len(points) + 1) // 2
        for row in rows:
            independent_upper = sum(6 * abs(a - b) + 8 for a, b in zip(row.k, row.l))
            assert row.upper == independent_upper
            assert row.lower == Fraction(simple_length(row.relative_word).value, 2)
            assert row.lower <= row.upper, (row.k, row.l)
        images = {lambda_word(4, n, p).letters for p in points}
        assert len(images) == len(points)
        summary = summarize(rows)
        assert summary.min_ratio is not None and summary.min_ratio > 0
        baselines[n] = (summary.min_ratio, summary.max_ratio)
    # regression baselines from the first recorded run
    assert baselines[1] == (Fraction(1, 2), Fraction(1, 2))
    assert baselines[2] == (Fraction(1, 2), Fraction(5, 2))
    print(
        "criterion 6: PASS - grid sandwich, injectivity, ratio baselines "
        f"{{1: {baselines[1]}, 2: {baselines[2]}}}"
    )


def test_criterion_7_push_action_laws():
    rng = random.Random(SEED + 7)
    for _ in range(10000):
        arc = ArcLabel(random_reduced_word(rng, 3, rng.randint(0, 8)))
        g1 = random_reduced_word(rng, 3, rng.randint(0, 8))
        g2 = random_reduced_word(rng, 3, rng.randint(0, 8))
        assert push_arc(push_arc(arc, g1), g2) == push_arc(arc, concat(g1, g2))
        if g1 != g2:
            assert push_arc(arc, g1) != push_arc(arc, g2)
    for _ in range(2000):
        alpha = ArcLabel(random_reduced_word(rng, 3, rng.randint(0, 8)))
        beta = ArcLabel(random_reduced_word(rng, 3, rng.randint(0, 8)))
        assert push_arc(alpha, q_class(alpha, beta)) == beta
    c = ReducedWord(3, (3,))
    for _ in range(2000):
        w = random_reduced_word(rng, 3, rng.randint(0, 10))
        label = disk_normalize(w)
        assert disk_normalize(label.coset_rep) == label
        shifted = concat(power(c, rng.randint(-3, 3)), w)
        assert disk_normalize(shifted) == label
    print("criterion 7: PASS - free right action, recovery and coset invariance")


def test_criterion_8_torus_tree():
    checked = 0
    for radius in range(5):
        for valency in range(1, 5):
            for leaves in range(4):
                ball = build_ball(radius, valency, leaves)
                assert is_tree(ball)
                assert len(ball.edges) == len(ball.vertices) - 1
                assert not tree_has_cycle(ball.vertices, ball.edges)
                degree = {v: 0 for v in ball.vertices}
                for u, v in ball.edges:
                    degree[u] += 1
                    degree[v] += 1
                assert all(degree[leaf] == 1 for leaf in ball.separating)
                checked += 1
    print(f"criterion 8: PASS - tree axioms and leaf degrees on {checked} balls")


def test_criterion_9_bound_trace_audit():
    rng = random.Random(SEED + 9)
    for _ in range(1000):
        n = rng.randint(1, 4)
        k = tuple(rng.randint(-6, 6) for _ in range(n))
        ell = tuple(rng.randint(-6, 6) for _ in range(n))
        trace = upper_bound(k, ell)
        assert trace.total == sum(6 * abs(a - b) + 8 for a, b in zip(k, ell))
        assert trace.total == sum(step.increment for step in trace.steps)
    for _ in range(300):
        u = random_reduced_word(rng, 4, rng.randint(0, 8))
        hit = sphere_equiv_bound(
            PushLabel(Side.SIDE2, u), PushLabel(Side.SIDE1, inverse(u))
        )
        assert hit is not None and hit.total == 2
        same = PushLabel(Side.SIDE2, u)
        assert sphere_equiv_bound(same, same).total == 0
        if u != inverse(u):
            miss = sphere_equiv_bound(
                PushLabel(Side.SIDE2, u), PushLabel(Side.SIDE1, u)
            )
            assert miss is None
        assert (
            sphere_equiv_bound(PushLabel(Side.SIDE2, u), PushLabel(Side.SIDE2, inverse(u)))
            is None
            or u.is_identity
        )
    print("criterion 9: PASS - traces sum to the closed formula; swap rule is exact")


def test_criterion_10_cli_determinism(capsys):
    outputs = []
    for jobs in ("1", "8"):
        code = main(
            ["qi-cert", "--rank", "4", "--n", "2", "--grid-max", "2", "--jobs", jobs]
        )
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].encode("utf-8") == outputs[1].encode("utf-8")
    print("criterion 10: PASS - byte-identical qi-cert output at 1 and 8 jobs")
