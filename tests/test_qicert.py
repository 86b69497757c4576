import random
from fractions import Fraction
from itertools import product

import pytest
from helpers import plain_greedy_cuts, random_reduced_word

import spotdisk
from spotdisk import cancelpairs, torustree, whitehead
from spotdisk.cancelpairs import cr_lower_bound, enumerate_nested_families
from spotdisk.errors import CapExceeded
from spotdisk.pushcalc import ArcLabel, disk_normalize
from spotdisk.cli import main
from spotdisk.qicert import (
    CertificateRow,
    _fraction_text,
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


def test_grid_rows_of_one_key_share_one_certificate():
    # Every field but (k, l) is built once per key (k', l') of the qicert
    # module docstring, so the rows of one key hold the same objects.
    n = 3
    rows = certify_grid(4, n, 2)
    by_key = {}
    for row in rows:
        k, ell = row.k, row.l
        i = next((i for i, (a, b) in enumerate(zip(k, ell)) if a != b), n)
        key = ((0,) * n, (0,) * n) if i == n else (
            (0,) * (i + 1) + k[i + 1 :],
            (0,) * i + (ell[i] - k[i],) + ell[i + 1 :],
        )
        by_key.setdefault(key, []).append(row)
    assert len(by_key) == 183
    for first, *rest in by_key.values():
        for row in rest:
            assert row.ratio is first.ratio
            assert row.relative_word is first.relative_word
    ratios = {id(row.ratio) for row in rows if row.ratio is not None}
    assert len(ratios) == sum(1 for key in by_key if key[0] != key[1]) == 182


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


def _per_pair_csv(g, n, grid_max):
    """Rows and CSV built pair by pair from the definitions."""
    points = sorted(product(range(grid_max + 1), repeat=n))
    rows = []
    for idx, k in enumerate(points):
        for ell in points[idx:]:
            rel = relative_word(g, n, k, ell)
            lower = Fraction(simple_length(rel).value, 2)
            displacement = sum(abs(a - b) for a, b in zip(k, ell))
            rows.append(
                CertificateRow(
                    k,
                    ell,
                    displacement,
                    rel,
                    lower,
                    upper_bound(k, ell).total,
                    lower / displacement if displacement else None,
                )
            )
    return rows, to_csv(rows, g)


def test_grid_rows_match_the_per_pair_definitions():
    cases = 0
    for g in range(4, 12):
        for n in (1, 2, 3):
            for grid_max in range(3 if n == 3 else 4):
                rows = certify_grid(g, n, grid_max)
                want, want_csv = _per_pair_csv(g, n, grid_max)
                assert len(rows) == len(want)
                for row, ref in zip(rows, want):
                    assert (row.k, row.l) == (ref.k, ref.l)
                    assert row.relative_word == ref.relative_word
                    assert row.lower == ref.lower
                    assert row.upper == ref.upper
                    assert row == ref
                assert to_csv(rows, g) == want_csv
                cases += 1
    assert cases == 8 * 11


# the grids of test_grid_rows_match_the_per_pair_definitions, then larger
# grids, more coordinates, a larger rank, and one long relative word
STREAMED_GRIDS = [
    (g, n, grid_max)
    for g in range(4, 12)
    for n in (1, 2, 3)
    for grid_max in range(3 if n == 3 else 4)
] + [(4, 1, 30), (4, 4, 2), (4, 5, 1), (7, 3, 2), (1000, 2, 2)]


def test_cli_stream_equals_the_csv_and_summary_of_the_rows(tmp_path, capsys):
    # qi-cert renders its CSV from per-key values without building rows;
    # both of its sinks must hold the rows' CSV byte for byte
    path = tmp_path / "grid.csv"
    for g, n, grid_max in STREAMED_GRIDS:
        argv = ["qi-cert", "--rank", str(g), "--n", str(n), "--grid-max", str(grid_max)]
        assert main([*argv, "--csv", str(path)]) == 0
        captured = capsys.readouterr()
        rows = certify_grid(g, n, grid_max)
        summary = summarize(rows)
        want = to_csv(rows, g)
        low = "-" if summary.min_ratio is None else summary.min_ratio
        high = "-" if summary.max_ratio is None else summary.max_ratio
        summary_lines = f"rows: {summary.rows}\nmin ratio: {low}\nmax ratio: {high}\n"
        assert captured.out == want + summary_lines
        assert captured.err == ""
        assert path.read_text(encoding="utf-8") == want


def test_fraction_text_equals_str_of_fraction():
    for p in range(301):
        for q in range(1, 301):
            assert _fraction_text(p, q) == str(Fraction(p, q)), (p, q)


def test_grid_scans_each_relative_word_once(monkeypatch):
    import spotdisk.qicert as qicert
    import spotdisk.whitehead as whitehead

    scanned = []
    counts = {"stops": 0, "searches": 0}
    greedy_cuts = qicert._greedy_cuts
    simple_stop = whitehead._simple_stop
    cut_vertex_in = whitehead._cut_vertex_in

    def counting(pieces, rank, letters):
        scanned.append((rank, letters))
        return greedy_cuts(pieces, rank, letters)

    def counting_stop(*args):
        counts["stops"] += 1
        return simple_stop(*args)

    def counting_search(*args):
        counts["searches"] += 1
        return cut_vertex_in(*args)

    monkeypatch.setattr(qicert, "_greedy_cuts", counting)
    monkeypatch.setattr(whitehead, "_simple_stop", counting_stop)
    monkeypatch.setattr(whitehead, "_cut_vertex_in", counting_search)
    # 1 + sum_i m (m+1)^(2(n-i)) keys (k', l') for grid_max m; one scan
    # per pair would make 325 and 378.  The piece table runs the greedy
    # stop once per distinct minimal piece plus once per word whose
    # letters after the last cut start no known piece.  Tails of fewer
    # than 2g + 1 letters never reach the greedy stop.
    for args, calls, stops in (((4, 2, 4), 105, 10), ((4, 3, 2), 183, 23)):
        scanned.clear()
        counts["stops"] = 0
        certify_grid(*args)
        assert len(scanned) == calls
        assert len(set(scanned)) == calls
        assert counts["stops"] == stops
    assert counts["searches"] <= 32


def test_zero_exponents_build_no_push_word(monkeypatch):
    import spotdisk.qicert as qicert

    built = []

    def counting(g, t):
        built.append((g, t))
        return make_bt(g, t)

    monkeypatch.setattr(qicert, "make_bt", counting)
    (row,) = certify_grid(4, 50, 0)
    assert built == []
    assert row.relative_word.is_identity
    assert row.upper == upper_bound(row.k, row.l).total == 8 * 50
    assert lambda_word(4, 3, (0, 2, 0)) == power(make_bt(4, 2), 2)
    assert built == [(4, 2)]
    with pytest.raises(ValueError):
        certify_grid(3, 1, 0)
    with pytest.raises(ValueError):  # the rank is checked before the cap
        certify_grid(3, 1, 100)
    with pytest.raises(ValueError):
        lambda_word(3, 1, (0,))


def test_grid_work_caps_count_rows_and_letters(monkeypatch):
    import spotdisk.qicert as qicert

    # (n, m) = (2, 2): 9 points, 45 rows of 2 coordinates, 1 + 80/4 = 21
    # keys, and (2 * 9 + 21) * 140 = 5460 letters at the worst length 140
    monkeypatch.setattr(qicert, "MAX_ROW_COORDINATES", 90)
    monkeypatch.setattr(qicert, "MAX_GRID_LETTERS", 5460)
    assert len(certify_grid(4, 2, 2)) == 45
    for name, value in (("MAX_ROW_COORDINATES", 89), ("MAX_GRID_LETTERS", 5459)):
        with monkeypatch.context() as patch:
            patch.setattr(qicert, name, value)
            with pytest.raises(CapExceeded):
                certify_grid(4, 2, 2)
    # the row count stops early: 2^(2 * 10^9) points are never multiplied out
    for args in ((4, 10**9, 1), (4, 10**9, 0), (4, 91, 0)):
        with pytest.raises(CapExceeded):
            certify_grid(*args)
    assert len(certify_grid(4, 90, 0)) == 1
    with pytest.raises(ValueError):  # a negative n is an argument error
        certify_grid(4, -1, 1)


def test_piece_table_values_equal_the_plain_chain_on_every_key(monkeypatch):
    import spotdisk.qicert as qicert
    import spotdisk.whitehead as whitehead

    seen = []
    stops = []
    greedy_cuts = qicert._greedy_cuts
    simple_stop = whitehead._simple_stop

    def recording(pieces, rank, letters):
        cuts = greedy_cuts(pieces, rank, letters)
        seen.append((rank, letters, cuts))
        return cuts

    def counting_stop(*args):
        stops.append(args)
        return simple_stop(*args)

    monkeypatch.setattr(qicert, "_greedy_cuts", recording)
    monkeypatch.setattr(whitehead, "_simple_stop", counting_stop)
    keys = 0
    first_stops = {}
    for g in range(4, 13):
        for n, grid_max in ((2, 8), (3, 3)):
            seen.clear()
            stops.clear()
            certify_grid(g, n, grid_max)
            first_stops[g, n] = len(stops)
            for rank, letters, cuts in seen:
                assert cuts == plain_greedy_cuts(rank, letters)
            keys += len(seen)
    assert keys == 3 * 3 * (1 + 8 * 9**2 + 8 + 1 + 3 * 4**4 + 3 * 4**2 + 3)
    # Each call starts from an empty table: after every grid above, a
    # rank-4 and a rank-6 grid again run the greedy stop as often as the
    # first time.
    for g in (4, 6):
        stops.clear()
        certify_grid(g, 2, 8)
        assert len(stops) == first_stops[g, 2]


def test_piece_table_cuts_match_the_plain_chain_on_every_prefix():
    from spotdisk.whitehead import _greedy_cuts

    # One table per rank, fed every prefix of each word shortest first, so
    # scans both look up known pieces and add new ones.
    # x1 x1 x2 x2 .. xg xg x1 is a simple piece of exactly 2g + 1 letters,
    # scanned from 0 and after a 2-letter prefix.
    rng = random.Random(512)
    for rank in range(2, 7):
        pieces = {}
        piece = tuple(a for a in range(1, rank + 1) for _ in (0, 1)) + (1,)
        words = [random_reduced_word(rng, rank, rng.randint(20, 80)) for _ in range(6)]
        words += [ReducedWord(rank, piece), ReducedWord(rank, (-2, 1) + piece)]
        for w in words:
            for j in range(len(w) + 1):
                prefix = w.letters[:j]
                assert _greedy_cuts(pieces, rank, prefix) == plain_greedy_cuts(rank, prefix)


def test_piece_table_ends_inside_a_known_piece_without_a_scan(monkeypatch):
    import spotdisk.whitehead as whitehead

    # After the whole word, each prefix cut short of the last cut ends
    # inside a known piece, which no greedy stop can complete.
    stops = []
    simple_stop = whitehead._simple_stop

    def counting_stop(*args):
        stops.append(args)
        return simple_stop(*args)

    rng = random.Random(513)
    for rank in range(2, 7):
        w = random_reduced_word(rng, rank, 120)
        whole = plain_greedy_cuts(rank, w.letters)
        assert len(whole) >= 4
        want = [plain_greedy_cuts(rank, w.letters[:j]) for j in range(whole[-1])]
        pieces = {}
        whitehead._greedy_cuts(pieces, rank, w.letters)
        with monkeypatch.context() as patch:
            patch.setattr(whitehead, "_simple_stop", counting_stop)
            got = [whitehead._greedy_cuts(pieces, rank, w.letters[:j]) for j in range(whole[-1])]
        assert got == want
        assert stops == []


def test_retired_keywords_are_not_accepted():
    # push word b_i for coordinate i, the budget 6, the family cap and the
    # lower bound cap are constants, not keyword arguments
    with pytest.raises(TypeError):
        certify_grid(4, 1, 1, budget=6)
    with pytest.raises(TypeError):
        certify_grid(4, 1, 1, t_assignment=(1,))
    with pytest.raises(TypeError):
        upper_bound((0,), (1,), budget=6)
    with pytest.raises(TypeError):
        list(enumerate_nested_families(ReducedWord(2, (1, 2)), max_pairs=1))
    with pytest.raises(TypeError):
        cr_lower_bound(ReducedWord(2, (1, 2)), length_cap=80)
    with pytest.raises(TypeError):  # the coset letter is the top letter
        disk_normalize(ReducedWord(2, (2, 2, 1)), 2)
    # records take their fields positionally, and words are not iterables
    with pytest.raises(TypeError):
        ArcLabel(word=ReducedWord(2, (1,)))
    with pytest.raises(TypeError):
        iter(ReducedWord(2, (1,)))
    # each name has one home, its module, and test-only wrappers are gone;
    # a family is a plain tuple of pairs, and the edge-count guard is gone
    assert not hasattr(torustree, "to_dot")
    assert not hasattr(spotdisk, "simple_length")
    assert not hasattr(cancelpairs, "CancellingFamily")
    assert not hasattr(whitehead, "MIN_EDGES_FOR_CUT_FREE")
