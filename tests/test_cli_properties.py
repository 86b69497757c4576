"""Property tests for every command over generated words, ranks and
sizes."""

import contextlib
import io
import os
import tempfile
from fractions import Fraction
from unittest import mock

import pytest

from spotdisk import torustree
from spotdisk.cli import MAX_RANK, main
from spotdisk.qicert import MAX_GRID_LETTERS, MAX_ROW_COORDINATES
from spotdisk.torustree import MAX_BALL_VERTICES, build_ball, dot_lines
from spotdisk.whitehead import ORACLE_CAP
from spotdisk.words import ReducedWord, concat, format_word

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# Rank 1 is below the least rank (exit 2), and MAX_RANK + 1 is over the
# rank cap, which exits 3 before anything of size 2·rank is built.
CLI_RANKS = st.sampled_from([1, 2, 3, 4, MAX_RANK + 1])


@st.composite
def reduced_words(draw, max_length=34, rank=None):
    if rank is None:
        rank = draw(st.integers(2, 4))
    length = draw(st.integers(0, max_length))
    alphabet = [*range(1, rank + 1), *range(-rank, 0)]
    letters = []
    for _ in range(length):
        allowed = [a for a in alphabet if not letters or a != -letters[-1]]
        letters.append(draw(st.sampled_from(allowed)))
    return ReducedWord(rank, tuple(letters))


@st.composite
def ranked_words(draw, max_length=34):
    """A CLI rank and a word over at most the first four letters it admits
    (two at rank 1, which exits 2 before the word is read)."""
    rank = draw(CLI_RANKS)
    return rank, draw(reduced_words(max_length, min(max(rank, 2), 4)))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def expected_code(rank, capped=False):
    """2 for a rank below 2, else 3 when a cap applies, else 0."""
    if rank < 2:
        return 2
    return 3 if capped else 0


def check_run(argv, code):
    """Run ``argv`` twice: the exit code is ``code``, a failure writes no
    stdout and one ``error:`` line, and both runs print the same bytes."""
    got = run(argv)
    assert got[0] == code, got[2]
    if code:
        assert got[1] == ""
        assert got[2].startswith("error:") and got[2].count("\n") == 1
    else:
        assert got[2] == ""
    assert run(argv) == got
    return got[1]


@hypothesis.settings(max_examples=50, deadline=None, derandomize=True)
@hypothesis.given(reduced_words())
def test_cr_bounds_exits_by_cap_sandwiches_and_repeats(w):
    argv = ["cr-bounds", format_word(w), "--rank", str(w.rank)]
    code, out, err = run(argv)
    assert code == (0 if len(w) <= 32 else 3), err
    if code == 0:
        lower, mid, upper = out.split()
        assert Fraction(lower) <= int(mid) <= int(upper)
    else:
        assert out == ""
        assert err.startswith("error:")
    assert run(argv) == (code, out, err)


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
@hypothesis.given(ranked_words(max_length=ORACLE_CAP + 2), st.booleans())
def test_simple_length_exits_by_cap_and_repeats(ranked, oracle):
    rank, w = ranked
    argv = ["simple-length", format_word(w), "--rank", str(rank)] + ["--oracle"] * oracle
    code = expected_code(rank, capped=rank > MAX_RANK or oracle and len(w) > ORACLE_CAP)
    out = check_run(argv, code)
    if code == 0:
        assert out.startswith("simple length: ")
        assert ("oracle: agree" in out) == oracle


@hypothesis.settings(max_examples=50, deadline=None, derandomize=True)
@hypothesis.given(ranked_words())
def test_wg_exits_by_cap_and_repeats(ranked):
    rank, w = ranked
    argv = ["wg", format_word(w), "--rank", str(rank)]
    out = check_run(argv, expected_code(rank, capped=rank > MAX_RANK))
    assert out == "" or out.startswith(f"word: {format_word(w)}\n")


@hypothesis.settings(max_examples=50, deadline=None, derandomize=True)
@hypothesis.given(st.data())
def test_push_is_uncapped_by_rank_and_repeats(data):
    rank, arc = data.draw(ranked_words())
    loop = data.draw(reduced_words(rank=arc.rank))
    argv = ["push", "--rank", str(rank), "--arc", format_word(arc), "--loop", format_word(loop)]
    out = check_run(argv, expected_code(rank))
    if rank >= 2:
        pushed = concat(ReducedWord(rank, arc.letters), ReducedWord(rank, loop.letters))
        assert out == f"arc: {format_word(pushed)}\n"


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
@hypothesis.given(
    st.sampled_from([3, 4, 5, MAX_RANK + 1]),
    st.one_of(st.integers(-2, 3), st.just(MAX_ROW_COORDINATES + 1)),
    st.integers(0, 3) | st.just(488),
)
def test_qi_cert_exits_by_cap_and_repeats(rank, n, grid_max):
    argv = ["qi-cert", "--rank", str(rank), "--n", str(n), "--grid-max", str(grid_max)]
    # Rank 3 is below the least rank, and the rank cap comes before the grid
    # checks, n >= 1 first among them.  The row coordinates and the letters
    # of the grid words at the worst-case relative word length decide the
    # caps; at n = 1, grid_max 488 is past the letter cap.
    if rank < 4 or rank <= MAX_RANK and n < 1:
        check_run(argv, 2)
        return
    points = (grid_max + 1) ** n if n <= 3 else 1
    keys = 1 + (points * points - 1) // (grid_max + 2)
    worst = 2 * grid_max * sum((rank + 3) * (t + 1) for t in range(1, n + 1))
    capped = (
        rank > MAX_RANK
        or points * (points + 1) // 2 * n > MAX_ROW_COORDINATES
        or (2 * points + keys) * worst > MAX_GRID_LETTERS
    )
    out = check_run(argv, 3 if capped else 0)
    if out:
        assert out.startswith("n,g,k,l,displacement,lower,upper,ratio\n")
        assert f"\nrows: {points * (points + 1) // 2}\n" in out


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
@hypothesis.given(
    st.one_of(
        st.tuples(st.sampled_from([-1, 0, 1, 2, 4, 20]), st.integers(0, 3)),
        # deep paths, whose path-from-root labels would total ~radius**2 bytes
        st.tuples(
            st.integers(0, MAX_BALL_VERTICES - 1) | st.just(MAX_BALL_VERTICES - 1), st.just(1)
        ),
    ),
    st.one_of(st.integers(-1, 3), st.just(MAX_BALL_VERTICES)),
)
def test_torus_ball_exits_by_cap_and_repeats(shape, leaves):
    radius, valency = shape
    argv = ["torus-ball", "--radius", str(radius), "--valency", str(valency)]
    argv += ["--leaves", str(leaves)]
    if radius < 0 or valency < 1 or leaves < 0:
        out = check_run(argv, 2)
    else:
        size = sum(valency**i for i in range(radius + 1)) * (1 + leaves)
        out = check_run(argv, 3 if size > MAX_BALL_VERTICES else 0)
        if out:
            assert out == f"vertices: {size}\nedges: {size - 1}\ntree: yes\n"


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
@hypothesis.given(
    st.integers(0, 4), st.integers(1, 4), st.integers(0, 3), st.sampled_from([0, 1])
)
def test_torus_ball_dot_exits_by_cap_and_repeats(radius, valency, leaves, past):
    text = "".join(dot_lines(build_ball(radius, valency, leaves)))
    # the DOT cap at the ball's DOT size, or one byte below it
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        torustree, "MAX_DOT_BYTES", len(text.encode()) - past
    ):
        path = os.path.join(tmp, "ball.dot")
        argv = ["torus-ball", "--radius", str(radius), "--valency", str(valency)]
        argv += ["--leaves", str(leaves), "--dot", path]
        check_run(argv, 3 if past else 0)
        if past:
            assert not os.path.exists(path)
        else:
            with open(path, encoding="utf-8") as dot:
                assert dot.read() == text
