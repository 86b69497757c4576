import itertools
import random
from fractions import Fraction

import pytest
from helpers import all_reduced_words, conjugate_product, random_reduced_word

from spotdisk.cancelpairs import (
    _candidate_pairs,
    _least_leftover_costs,
    cr_bruteforce,
    cr_lower_bound,
    enumerate_nested_families,
)
from spotdisk.errors import CapExceeded
from spotdisk.whitehead import simple_length, subword_simple_lengths
from spotdisk.words import ReducedWord, concat, inverse, parse


def naive_pairs(w):
    """Independent candidate scan: a loop over every pair of ranges."""
    letters = w.letters
    n = len(letters)
    pairs = []
    for i1 in range(n):
        for j1 in range(i1 + 1, n + 1):
            for i2 in range(j1, n):
                j2 = i2 + (j1 - i1)
                if j2 > n:
                    continue
                if list(letters[i1:j1]) == [-a for a in reversed(letters[i2:j2])]:
                    pairs.append(((i1, j1), (i2, j2)))
    return pairs


def naive_families(w):
    """Independent enumeration: the naive candidate scan, then subset
    filtering with index-set logic."""
    cands = naive_pairs(w)

    def indices(r):
        return set(range(r[0], r[1]))

    def ok(combo):
        used = set()
        for first, second in combo:
            spots = indices(first) | indices(second)
            if used & spots:
                return False
            used |= spots
        for p in combo:
            gap = set(range(p[0][1], p[1][0]))
            for q in combo:
                if p is q:
                    continue
                inside = sum(1 for r in q if indices(r) <= gap)
                if inside == 1:
                    return False
        return True

    found = []
    for r in range(len(cands) + 1):
        for combo in itertools.combinations(cands, r):
            if ok(combo):
                found.append(frozenset(combo))
    return found


def test_word_without_both_signs_only_has_the_empty_family():
    w = parse("x1 x2 x1", 2)
    families = list(enumerate_nested_families(w))
    assert families == [()]


def test_families_match_naive_enumeration_on_fixed_words():
    for text in ("x1 x2 X1 X2 x1", "x2 x1 x2 X1 X2", "x1 X2 x2 X1"):
        w = parse(text, 2)
        ours = {frozenset(f) for f in enumerate_nested_families(w)}
        naive = set(naive_families(w))
        assert ours == naive, text


def match_naive_enumeration(seed, count, max_len):
    """Compare candidates and families on random rank-2 words, and check
    the documented order: candidates sorted by range, families depth-first
    over them (ascending tuple order, the empty family first).  Return the
    lengths seen."""
    rng = random.Random(seed)
    lengths = set()
    for _ in range(count):
        w = random_reduced_word(rng, 2, rng.randint(0, max_len))
        lengths.add(len(w))
        assert _candidate_pairs(w) == sorted(naive_pairs(w)), str(w)
        families = list(enumerate_nested_families(w))
        assert families[0] == ()
        assert families == sorted(families), str(w)
        ours = [frozenset(f) for f in families]
        assert len(ours) == len(set(ours))
        assert set(ours) == set(naive_families(w))
    return lengths


def test_families_match_naive_enumeration_on_random_words():
    match_naive_enumeration(301, 40, 6)


def test_families_match_naive_enumeration_up_to_eight_letters():
    assert {7, 8} <= match_naive_enumeration(302, 30, 8)


def test_four_cycle_word_families_by_hand():
    w = parse("x1 x2 X1 X2 x1", 2)
    families = {frozenset(f) for f in enumerate_nested_families(w)}
    assert families == {
        frozenset(),
        frozenset({((0, 1), (2, 3))}),
        frozenset({((1, 2), (3, 4))}),
        frozenset({((2, 3), (4, 5))}),
    }


def test_enumeration_cap():
    w = ReducedWord(2, tuple([1, 2] * 11))
    with pytest.raises(CapExceeded):
        list(enumerate_nested_families(w))


def test_enumeration_accepts_words_at_the_cap():
    # 20 letters, all positive: no cancelling pair, so only the empty family
    w = ReducedWord(2, tuple([1, 2] * 10))
    assert list(enumerate_nested_families(w)) == [()]


def test_least_leftover_costs_hand_values():
    w = parse("x2 x1 x2 X1 X2", 2)
    # one pair: erasing x1/X1 leaves x2 | x2 | X2, all of simple length 0;
    # two nested pairs leave only the middle x2
    assert _least_leftover_costs(w) == {0: simple_length(w).value, 1: 0, 2: 0}


def test_cr_lower_bound_identity_is_zero():
    assert cr_lower_bound(ReducedWord.identity(2)) == 0


def test_cr_lower_bound_is_a_nonnegative_fraction():
    rng = random.Random(304)
    for _ in range(40):
        w = random_reduced_word(rng, 2, rng.randint(0, 9))
        value = cr_lower_bound(w)
        assert isinstance(value, Fraction)
        assert value >= 0


def enumerated_leftover_costs(w):
    """Least leftover-segment cost per pair count, by listing every
    nested family."""
    table = subword_simple_lengths(w)
    costs = {}
    for family in enumerate_nested_families(w):
        erased = {t for p in family for r in p for t in range(*r)}
        cost, start = 0, None
        for t in range(len(w) + 1):
            if t < len(w) and t not in erased:
                start = t if start is None else start
            elif start is not None:
                cost += table[(start, t)]
                start = None
        k = len(family)
        costs[k] = min(cost, costs.get(k, cost))
    return costs


def test_cr_lower_bound_matches_family_enumeration():
    # Below about 80 letters the bound itself is 0 (the empty family
    # scores at most n/25 - 3), so the per-k costs carry the comparison.
    words = list(all_reduced_words(2, 8))
    rng = random.Random(308)
    words += [
        random_reduced_word(rng, rng.randint(2, 4), rng.randint(12, 18)) for _ in range(100)
    ]
    for w in words:
        costs = enumerated_leftover_costs(w)
        assert _least_leftover_costs(w) == costs, str(w)
        best = min(max(Fraction(k, 2) - 1, Fraction(k + s, 5) - 3) for k, s in costs.items())
        assert cr_lower_bound(w) == max(best, Fraction(0)), str(w)


def test_cr_lower_bound_past_the_early_exit_matches_the_dp(monkeypatch):
    import spotdisk.cancelpairs as cancelpairs
    import spotdisk.whitehead as whitehead

    monkeypatch.setattr(cancelpairs, "DEFAULT_CR_CAP", 80)
    # simple length 16 each: the commutator power has cancelling pairs,
    # the positive word has none and so scores 16/5 - 3 = 1/5
    words = [ReducedWord(2, (1, 2, -1, -2) * 20), ReducedWord(2, (1, 1, 2, 2) * 20)]
    for w in words:
        assert simple_length(w).value == 16
        best = min(
            max(Fraction(k, 2) - 1, Fraction(k + s, 5) - 3)
            for k, s in _least_leftover_costs(w).items()
        )
        assert cr_lower_bound(w) == max(best, Fraction(0)), str(w)
    assert cr_lower_bound(words[1]) == Fraction(1, 5)
    # 76 // 5 = 15 bounds S0 by the word length alone, so neither a scan
    # nor the dynamic program runs
    monkeypatch.setattr(whitehead, "_greedy_cuts", None)
    monkeypatch.setattr(cancelpairs, "_least_leftover_costs", None)
    assert cr_lower_bound(ReducedWord(2, (1, 1, 2, 2) * 19)) == 0


def test_simple_pieces_have_at_least_2g_plus_1_letters():
    # Each of the 2g Whitehead vertices of a simple piece needs two distinct
    # neighbours, so its n - 1 edges number at least 2g.  Hence
    # S0 <= n // (2g + 1) <= 6 at the 32-letter cap, the length gate in
    # cr_lower_bound returns 0 before any scan, and cr-bounds prints a
    # lower bound of 0 for every word it accepts.
    rng = random.Random(20260810)  # criterion 2's corpora
    words = list(all_reduced_words(2, 8))
    words += [
        random_reduced_word(rng, rank, rng.randint(0, 14)) for rank in (3, 4) for _ in range(5000)
    ]
    for w in words:
        assert simple_length(w).value * (2 * w.rank + 1) <= len(w), str(w)


def test_cr_bruteforce_identity():
    witness = cr_bruteforce(ReducedWord.identity(2))
    assert witness.value == 0
    assert conjugate_product(witness.decomposition, 2).is_identity


def test_cr_bruteforce_witness_invariants_random():
    rng = random.Random(305)
    for _ in range(60):
        w = random_reduced_word(rng, 2, rng.randint(0, 11))
        witness = cr_bruteforce(w)
        assert conjugate_product(witness.decomposition, w.rank) == w
        ell = len(witness.decomposition)
        assert witness.value == (ell - 1) + sum(
            simple_length(v).value for v, _ in witness.decomposition
        )
        assert witness.value <= simple_length(w).value


def test_cr_bruteforce_finds_conjugate_structure():
    u = parse("x2", 2)
    core = parse("x1 x2 X1 X2 x1", 2)
    w = concat(concat(inverse(u), core), u)
    witness = cr_bruteforce(w)
    assert witness.value <= simple_length(core).value


def test_sandwich_on_random_words():
    rng = random.Random(306)
    for _ in range(60):
        w = random_reduced_word(rng, 2, rng.randint(0, 10))
        lower = cr_lower_bound(w)
        mid = cr_bruteforce(w).value
        upper = simple_length(w).value
        assert lower <= mid <= upper, str(w)


def test_doubling_search_caps_never_raises_the_value():
    rng = random.Random(307)
    for _ in range(40):
        w = random_reduced_word(rng, 2, rng.randint(0, 10))
        base = cr_bruteforce(w).value
        doubled = cr_bruteforce(w, max_ell=6, max_piece=12, max_conj=6).value
        assert doubled <= base


def test_cr_bruteforce_caps_and_bounds():
    with pytest.raises(CapExceeded):
        cr_bruteforce(ReducedWord(2, tuple([1, 2] * 17)))
    with pytest.raises(ValueError):
        cr_bruteforce(parse("x1", 2), max_ell=0)
    with pytest.raises(ValueError):
        cr_bruteforce(parse("x1", 2), max_piece=-1)
    with pytest.raises(ValueError):
        cr_bruteforce(parse("x1", 2), max_conj=-1)


def _long_words():
    rng = random.Random(308)
    words = [random_reduced_word(rng, rank, 32) for rank in (2, 2, 2, 3, 4)]
    return words + [ReducedWord(2, (1,) * 16 + (2,) + (-1,) * 15)]


def test_cr_bruteforce_max_ell_beyond_the_length_changes_nothing():
    segments = 0
    for w in _long_words():
        n = len(w)
        witness = cr_bruteforce(w, max_ell=n)
        for max_ell in (n + 1, 3000):
            assert cr_bruteforce(w, max_ell=max_ell) == witness, (str(w), max_ell)
        segments = max(segments, len(witness.decomposition))
    assert segments > 3  # splits past the default max_ell of 3 occur


def test_cr_bruteforce_fallback_comes_from_the_subword_table(monkeypatch):
    import spotdisk.cancelpairs as cancelpairs

    monkeypatch.setattr(cancelpairs, "simple_length", None)
    for w in _long_words():
        simple = subword_simple_lengths(w)[(0, len(w))]
        assert cr_bruteforce(w).value <= simple
        # no piece of length 0 exists, so only the one-factor fallback is left
        fallback = cr_bruteforce(w, max_piece=0)
        assert fallback.value == simple
        assert fallback.decomposition == ((w, ReducedWord.identity(w.rank)),)
