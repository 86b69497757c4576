import random
from fractions import Fraction

import pytest

from spotdisk.errors import CapExceeded
from spotdisk.qicert import (
    PUSH_STEP_BUDGET_HIGH_RANK,
    certify_grid,
    lambda_word,
    make_bt,
    relative_word,
    summarize,
    to_csv,
    upper_bound,
)
from spotdisk.whitehead import simple_length
from spotdisk.words import ReducedWord, concat, format_word, inverse, power


def test_make_bt_matches_the_stated_word():
    assert format_word(make_bt(4, 1)) == "x1 x1 x2 x2 x3 x3 x4 x4 x1 x1 x2 x2 x1 x1"


def test_make_bt_lengths_and_positivity():
    for g in (4, 5, 6):
        for t in (1, 2, 3):
            w = make_bt(g, t)
            assert len(w) == (g + 3) * (t + 1)
            assert all(a > 0 for a in w.letters)


def test_make_bt_validation():
    with pytest.raises(ValueError):
        make_bt(3, 1)
    with pytest.raises(ValueError):
        make_bt(4, 0)


def test_lambda_word_zero_vector_is_identity():
    assert lambda_word(4, 2, (0, 0)).is_identity


def test_lambda_word_single_coordinate_is_the_push_word():
    assert lambda_word(4, 1, (1,)) == make_bt(4, 1)
    assert lambda_word(4, 1, (-2,)) == power(make_bt(4, 1), -2)


def test_lambda_word_cancels_with_its_inverse():
    w = lambda_word(4, 2, (2, -1))
    assert concat(w, inverse(w)).is_identity


def test_lambda_word_validation():
    with pytest.raises(ValueError):
        lambda_word(4, 2, (1,))
    with pytest.raises(ValueError):
        lambda_word(4, 0, ())
    with pytest.raises(ValueError):
        lambda_word(4, 1, (1,), t_assignment=(0,))


def test_relative_word_on_the_diagonal_is_identity():
    assert relative_word(4, 2, (1, 2), (1, 2)).is_identity


def test_relative_word_single_coordinate_power():
    assert relative_word(4, 1, (2,), (5,)) == power(make_bt(4, 1), 3)


def test_relative_word_inverse_symmetry_random():
    rng = random.Random(501)
    for _ in range(30):
        n = rng.randint(1, 3)
        k = tuple(rng.randint(-2, 2) for _ in range(n))
        ell = tuple(rng.randint(-2, 2) for _ in range(n))
        assert relative_word(4, n, k, ell) == inverse(relative_word(4, n, ell, k))


def test_upper_bound_matches_the_formula():
    assert upper_bound((2,), (5,)).total == 26
    assert upper_bound((1, 1), (1, 1)).total == 16


def test_upper_bound_trace_audit_random():
    rng = random.Random(502)
    for _ in range(200):
        n = rng.randint(1, 4)
        k = tuple(rng.randint(-6, 6) for _ in range(n))
        ell = tuple(rng.randint(-6, 6) for _ in range(n))
        trace = upper_bound(k, ell)
        formula = sum(6 * abs(a - b) + 8 for a, b in zip(k, ell))
        assert trace.total == formula
        assert trace.total == sum(s.increment for s in trace.steps)
        assert upper_bound(ell, k).total == trace.total
        moves = [s.increment for s in trace.steps if s.rule == "distanceestimate"]
        assert (k == ell) == all(m == 0 for m in moves)


def test_upper_bound_tight_budget_variant():
    trace = upper_bound((0,), (3,), budget=PUSH_STEP_BUDGET_HIGH_RANK)
    assert trace.total == 4 * 3 + 8


def test_upper_bound_length_mismatch():
    with pytest.raises(ValueError):
        upper_bound((1,), (1, 2))


def test_grid_diagonal_rows():
    rows = certify_grid(4, 2, 1)
    diagonal = [r for r in rows if r.k == r.l]
    assert diagonal
    for row in diagonal:
        assert row.displacement == 0
        assert row.lower == 0
        assert row.upper == 16
        assert row.ratio is None
        assert row.relative_word.is_identity


def test_grid_row_count_and_order():
    rows = certify_grid(4, 1, 2)
    assert [(r.k, r.l) for r in rows] == [
        ((0,), (0,)),
        ((0,), (1,)),
        ((0,), (2,)),
        ((1,), (1,)),
        ((1,), (2,)),
        ((2,), (2,)),
    ]


def test_grid_axis_rows_have_strong_lower_bounds():
    rows = certify_grid(4, 1, 3)
    for row in rows:
        if row.k == (0,):
            s = row.l[0]
            assert row.lower >= Fraction(s, 2)


def test_grid_regression_baseline_n2():
    rows = certify_grid(4, 2, 2)
    summary = summarize(rows)
    assert summary.rows == 45
    assert summary.min_ratio == Fraction(1, 2)
    assert summary.max_ratio == Fraction(5, 2)


def test_grid_lower_bound_is_half_the_simple_length():
    for row in certify_grid(4, 1, 2):
        assert row.lower == Fraction(simple_length(row.relative_word).value, 2)


def test_grid_length_cap():
    with pytest.raises(CapExceeded):
        certify_grid(4, 3, 3, length_cap=100)


def test_grid_custom_assignment_changes_words():
    rows_default = certify_grid(4, 1, 1)
    rows_custom = certify_grid(4, 1, 1, t_assignment=(3,))
    assert rows_custom[1].relative_word == make_bt(4, 3)
    assert rows_default[1].relative_word == make_bt(4, 1)


def test_csv_rendering():
    rows = certify_grid(4, 1, 1)
    text = to_csv(rows, 4)
    lines = text.splitlines()
    assert lines[0] == "n,g,k,l,displacement,lower,upper,ratio"
    assert lines[1] == "1,4,0,0,0,0,8,"
    assert lines[2] == "1,4,0,1,1,1/2,14,1/2"
    assert len(lines) == 1 + len(rows)


def test_summarize_without_offdiagonal_rows():
    rows = certify_grid(4, 1, 0)
    summary = summarize(rows)
    assert summary.rows == 1
    assert summary.min_ratio is None


def test_row_validation_catches_inconsistent_fields():
    from spotdisk.qicert import CertificateRow

    rel = ReducedWord.identity(4)
    with pytest.raises(ValueError):
        CertificateRow((0,), (1,), 2, rel, Fraction(0), 14, None)
    with pytest.raises(ValueError):
        CertificateRow((0,), (1,), 1, rel, Fraction(1), 14, None)


def test_lambda_word_injective_on_small_grid():
    seen = {}
    for k1 in range(3):
        for k2 in range(3):
            w = lambda_word(4, 2, (k1, k2))
            assert w.letters not in seen, (k1, k2)
            seen[w.letters] = (k1, k2)


def test_grid_word_example_expected_text():
    assert format_word(relative_word(4, 1, (0,), (1,))) == format_word(make_bt(4, 1))
    rel = relative_word(4, 1, (1,), (0,))
    assert rel == inverse(make_bt(4, 1))
