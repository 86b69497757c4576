import random

import pytest
from helpers import all_reduced_words, random_reduced_word

from spotdisk.errors import ParseError, RankError
from spotdisk.words import (
    ReducedWord,
    concat,
    format_word,
    inverse,
    parse,
    power,
    reduce,
    subword,
)


def test_reduce_cancels_to_identity():
    assert reduce([1, -1], 2).is_identity


def test_reduce_single_cancellation():
    assert reduce([1, 2, -2, 1], 2) == ReducedWord(2, (1, 1))


def test_reduce_is_idempotent_on_random_words():
    rng = random.Random(101)
    for _ in range(300):
        w = random_reduced_word(rng, 3, rng.randint(0, 12))
        again = reduce(w.letters, w.rank)
        assert again == w
        assert reduce(again.letters, again.rank) == again


def test_reduce_rejects_out_of_range_letters():
    with pytest.raises(RankError):
        reduce([1, 3], 2)
    with pytest.raises(RankError):
        reduce([0], 2)


def test_constructor_rejects_unreduced_sequences():
    with pytest.raises(ValueError):
        ReducedWord(2, (1, -1))


def test_constructor_rejects_small_rank():
    with pytest.raises(RankError):
        ReducedWord(1, (1,))


def test_concat_examples():
    assert concat(parse("x1", 2), parse("X1", 2)).is_identity
    assert concat(parse("x1 x2", 2), parse("X2 x1", 2)) == parse("x1 x1", 2)


def test_concat_rank_mismatch():
    with pytest.raises(RankError):
        concat(ReducedWord(2, (1,)), ReducedWord(3, (1,)))


def test_concat_with_inverse_is_identity():
    rng = random.Random(102)
    for _ in range(300):
        w = random_reduced_word(rng, 2, rng.randint(0, 10))
        assert concat(w, inverse(w)).is_identity
        assert concat(inverse(w), w).is_identity


def test_inverse_examples():
    assert inverse(ReducedWord.identity(2)).is_identity
    assert inverse(parse("x1 x2", 2)) == parse("X2 X1", 2)


def test_inverse_is_an_involution():
    rng = random.Random(103)
    for _ in range(300):
        w = random_reduced_word(rng, 4, rng.randint(0, 12))
        assert inverse(inverse(w)) == w


def test_identity_is_two_sided_exhaustively():
    e = ReducedWord.identity(2)
    for w in all_reduced_words(2, 4):
        assert concat(w, e) == w
        assert concat(e, w) == w


def test_inverse_law_exhaustively():
    for w in all_reduced_words(2, 4):
        assert concat(w, inverse(w)).is_identity


def test_associativity_exhaustive_short_and_random_beyond():
    short = list(all_reduced_words(2, 2))
    for u in short:
        for v in short:
            for w in short:
                assert concat(concat(u, v), w) == concat(u, concat(v, w))
    rng = random.Random(104)
    for _ in range(500):
        u, v, w = (random_reduced_word(rng, 2, rng.randint(0, 8)) for _ in range(3))
        assert concat(concat(u, v), w) == concat(u, concat(v, w))


def test_concat_output_carries_no_cancelling_pair():
    rng = random.Random(105)
    for _ in range(500):
        u = random_reduced_word(rng, 3, rng.randint(0, 9))
        v = random_reduced_word(rng, 3, rng.randint(0, 9))
        out = concat(u, v)
        assert all(a != -b for a, b in zip(out.letters, out.letters[1:]))


def test_power_matches_repeated_concat():
    w = parse("x1 x2", 2)
    assert power(w, 0).is_identity
    assert power(w, 3) == concat(w, concat(w, w))
    assert power(w, -2) == inverse(power(w, 2))


def test_power_matches_repeated_concat_on_seeded_words():
    rng = random.Random(111)
    for rank in range(2, 7):
        words = [parse("x1 x2 X1", rank), parse("x1 X2 x1 x2 X1", rank)]
        words += [random_reduced_word(rng, rank, rng.randint(0, 10)) for _ in range(12)]
        words += [_not_cyclically_reduced(rng, rank) for _ in range(12)]
        for w in words:
            for d in range(-5, 6):
                want = ReducedWord.identity(rank)
                for _ in range(abs(d)):
                    want = concat(want, w if d > 0 else inverse(w))
                assert power(w, d) == want, (rank, w.letters, d)


def test_every_subword_is_a_valid_reduced_word():
    rng = random.Random(106)
    for _ in range(100):
        w = random_reduced_word(rng, 3, rng.randint(0, 10))
        for start in range(len(w)):
            for stop in range(start + 1, len(w) + 1):
                piece = subword(w, start, stop)
                assert piece == ReducedWord(w.rank, w.letters[start:stop])


def test_subword_range_checks():
    with pytest.raises(IndexError):
        subword(parse("x1", 2), 0, 2)


def test_parse_token_form():
    assert parse("x1 X1", 2).is_identity
    assert parse("x2 X1", 2) == ReducedWord(2, (2, -1))


def test_parse_compact_form():
    assert format_word(parse("abA", 2)) == "x1 x2 X1"
    assert parse("aA", 2).is_identity


def test_parse_empty_text_is_identity():
    assert parse("", 5).is_identity
    assert parse("   ", 5).is_identity


def test_parse_rejects_bad_input():
    with pytest.raises(ParseError):
        parse("x1 b", 2)
    with pytest.raises(ParseError):
        parse("x-1", 2)
    with pytest.raises(RankError):
        parse("x0", 2)
    with pytest.raises(RankError):
        parse("x3", 2)
    with pytest.raises(RankError):
        parse("c", 2)


def test_parse_format_round_trip_random():
    rng = random.Random(107)
    for _ in range(300):
        w = random_reduced_word(rng, 5, rng.randint(0, 12))
        assert parse(format_word(w), 5) == w
        compact = "".join("abcde"[a - 1] if a > 0 else "ABCDE"[-a - 1] for a in w.letters)
        assert parse(compact, 5) == w


def _not_cyclically_reduced(rng, rank):
    """A conjugate p u p^-1 whose first and last letters are inverse."""
    while True:
        p = random_reduced_word(rng, rank, rng.randint(1, 3))
        u = random_reduced_word(rng, rank, rng.randint(1, 6))
        w = concat(concat(p, u), inverse(p))
        if len(w) > 1 and w.letters[0] == -w.letters[-1]:
            return w


def test_derived_words_equal_their_validated_rebuild():
    rng = random.Random(110)
    cancelled = 0
    for rank in range(2, 7):
        alphabet = list(range(1, rank + 1)) + list(range(-1, -rank - 1, -1))
        for _ in range(40):
            u = random_reduced_word(rng, rank, rng.randint(0, 12))
            v = random_reduced_word(rng, rank, rng.randint(0, 12))
            c = _not_cyclically_reduced(rng, rank)
            raw = [rng.choice(alphabet) for _ in range(rng.randint(0, 16))]
            outs = [
                concat(u, v),
                concat(u, inverse(u)),
                concat(concat(u, v), inverse(v)),
                inverse(u),
                reduce(raw, rank),
                reduce(u.letters + inverse(u).letters, rank),
            ]
            outs += [power(w, k) for w in (u, c) for k in range(-3, 4)]
            outs += [subword(u, i, j) for i in range(len(u) + 1) for j in range(i, len(u) + 1)]
            cancelled += len(power(c, 2)) < 2 * len(c)
            for out in outs:
                assert type(out) is ReducedWord
                assert out == ReducedWord(rank, out.letters), (rank, out.letters)
    assert cancelled == 5 * 40  # every power of c cancels across the seam


def test_public_constructor_still_validates():
    for rank in range(2, 7):
        with pytest.raises(ValueError):
            ReducedWord(rank, (1, 2, -2))
        with pytest.raises(RankError):
            ReducedWord(rank, (1, rank + 1))
        with pytest.raises(RankError):
            ReducedWord(rank, (0,))
    with pytest.raises(RankError):
        ReducedWord(1, ())
    with pytest.raises(RankError):
        reduce([], 1)
