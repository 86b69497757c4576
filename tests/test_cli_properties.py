"""Property tests for the ``cr-bounds`` command over generated words."""

import contextlib
import io
from fractions import Fraction

import pytest

from spotdisk.cli import main
from spotdisk.words import ReducedWord, format_word

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


@st.composite
def reduced_words(draw):
    rank = draw(st.integers(2, 4))
    length = draw(st.integers(0, 34))
    alphabet = [*range(1, rank + 1), *range(-rank, 0)]
    letters = []
    for _ in range(length):
        allowed = [a for a in alphabet if not letters or a != -letters[-1]]
        letters.append(draw(st.sampled_from(allowed)))
    return ReducedWord(rank, tuple(letters))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


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
