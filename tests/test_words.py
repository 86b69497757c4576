import random

import pytest
from helpers import all_reduced_words, random_reduced_word

from spotdisk.errors import ParseError, RankError
from spotdisk.words import (
    ReducedWord,
    concat,
    format_compact,
    format_word,
    inverse,
    parse,
    power,
    reduce,
    subword,
    subwords,
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


def test_subword_counts():
    w = parse("x1 x2 x1", 2)
    entries = list(subwords(w))
    assert len(entries) == 3 * 4 // 2
    assert len(list(subwords(ReducedWord.identity(2)))) == 0


def test_subwords_contains_expected_pieces():
    w = parse("x1 x2", 2)
    found = {format_word(piece) for _, _, piece in subwords(w)}
    assert found == {"x1", "x2", "x1 x2"}


def test_every_subword_is_a_valid_reduced_word():
    rng = random.Random(106)
    for _ in range(100):
        w = random_reduced_word(rng, 3, rng.randint(0, 10))
        for start, stop, piece in subwords(w):
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
        assert parse(format_compact(w), 5) == w


def test_format_compact_refuses_large_indices():
    with pytest.raises(ValueError):
        format_compact(ReducedWord(27, (27,)))


def test_operator_sugar_matches_functions():
    u = parse("x1 x2", 2)
    v = parse("X2 x1", 2)
    assert u * v == concat(u, v)
    assert ~u == inverse(u)
    assert u**2 == concat(u, u)
    assert str(u) == "x1 x2"
