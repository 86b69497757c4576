"""Lattice embedding certificates for the sphere graph at desk scale.

For each coordinate i the fixed push word ``b_i`` (a product of letter
powers that keeps every single push at bounded cost) moves the base
disk; the lattice point (k_1, .., k_n) maps to the disk pushed along
``b_1^{k_1} .. b_n^{k_n}``.  For a pair of lattice points the certificate
records a lower distance bound (half the simple length of the relative
word) and an upper bound (a per-coordinate transport estimate), plus
their ratio against the lattice displacement.  The multiplicative
constant hiding in the lower bound is reported empirically, never
assumed.

Write lambda(k) for the push word of k.  A grid lists its pairs with
k <= l in lexicographic order; let i be the first coordinate where they
differ.  The common prefix b_1^{k_1} .. b_{i-1}^{k_{i-1}} cancels and
b_i^{-k_i} b_i^{l_i} = b_i^{l_i - k_i}, so

    lambda(k)^-1 lambda(l) = lambda(k')^-1 lambda(l'),
    k' = (0, .., 0, 0, k_{i+1}, .., k_n),
    l' = (0, .., 0, l_i - k_i, l_{i+1}, .., l_n),

and k' = l' = 0 on the diagonal.  Since 1 <= l_i - k_i <= grid_max,
k' and l' are grid points again.  Equal group elements have equal
reduced words, so :func:`certify_grid` builds each relative word, and
scans its simple length, once per key (k', l') instead of once per
pair: about m (m+1)^(2n-2) scans for grid_max m, against about
(m+1)^(2n)/2 pairs.  :func:`relative_word` stays the per-pair definition.
The rest of a row is per key too: k - l and k' - l' agree from coordinate
i on and vanish before it, so |k - l|_1 = |k' - l'|_1.
Each grid point gets its push word once, and each point k' its inverse,
so a relative word is one slice join of two stored words.

One generator enumerates the rows, by key and without a per-pair search:
for each k, the l with first difference i are consecutive points, and
their keys depend only on i and (k_{i+1}, .., k_n).  :func:`certify_grid`
makes rows of it; :func:`stream_csv`, which the command line runs,
renders its CSV text run by run and holds only per-point and per-key
text, never a row, a ``Fraction`` or the whole text.

The scans are the greedy scan of :func:`simple_length`, sharing one
table of the minimal simple pieces found so far, keyed by their first
2g + 1 letters (the ``whitehead`` module docstring gives why its values
are exact).  Few distinct pieces occur in a grid, so the greedy stop
runs once per distinct piece, plus at most once per word, when its
letters after the last cut start no known piece; every other stop is a
lookup.  The table belongs to one grid.

The upper bound of a row is the total of the :func:`upper_bound` trace,
sum_i (6|k_i - l_i| + 8) = 6 displacement + 8n, with 6 the per-power
move budget ``PUSH_STEP_BUDGET``.  A grid writes it in that closed
form, once per key, without building the 3n trace steps;
:func:`upper_bound` stays the trace that audits it.
"""

from __future__ import annotations

from itertools import chain, product
from math import gcd
from typing import Iterable, Sequence

from ._record import Record
from .errors import CapExceeded
# simple_length is not called here, but perfbench/traced_cli.py wraps
# qicert.simple_length (and counts qicert.concat) by name.
from .whitehead import _greedy_cuts, simple_length  # noqa: F401
from .words import ReducedWord, _trusted, concat, inverse, power

__all__ = [
    "PUSH_STEP_BUDGET",
    "CertificateRow",
    "GridSummary",
    "make_bt",
    "lambda_word",
    "relative_word",
    "upper_bound",
    "check_grid",
    "certify_grid",
    "stream_csv",
    "summarize",
    "to_csv",
]

_CSV_HEADER = "n,g,k,l,displacement,lower,upper,ratio"

# Cost of moving the base disk by one full push word; this budget holds
# from rank 4 on.
PUSH_STEP_BUDGET = 6

MIN_RANK = 4
# Largest grid built: rows times coordinates, and letters in the push words,
# their inverses and the relative words at the worst-case length.
MAX_ROW_COORDINATES = 250_000
MAX_GRID_LETTERS = 20_000_000


def make_bt(g: int, t: int) -> ReducedWord:
    """The t-th push word at rank g: consecutive (t+1)-st powers of the
    generators 1..g followed by powers of 1, 2, 1 again.

    Length is (g+3)(t+1); all letters are positive, so the word is
    reduced as written.
    """
    _check_rank(g)
    if t < 1:
        raise ValueError(f"push word index must be at least 1, got {t}")
    runs = list(range(1, g + 1)) + [1, 2, 1]
    letters = tuple(i for i in runs for _ in range(t + 1))
    return ReducedWord(g, letters)


def _check_rank(g: int) -> None:
    if g < MIN_RANK:
        raise ValueError(f"push words need rank at least {MIN_RANK}, got {g}")


def lambda_word(g: int, n: int, k: Sequence[int]) -> ReducedWord:
    """Reduced push word of the lattice point k: the product of the
    coordinate push words b_i raised to the coordinates k_i."""
    _check_rank(g)
    if n < 1:
        raise ValueError(f"need at least one coordinate, got {n}")
    k = tuple(k)
    if len(k) != n:
        raise ValueError(f"lattice point has {len(k)} coordinates, expected {n}")
    out = ReducedWord.identity(g)
    for t, ki in enumerate(k, 1):
        if ki:
            out = concat(out, power(make_bt(g, t), ki))
    return out


def relative_word(g: int, n: int, k: Sequence[int], ell: Sequence[int]) -> ReducedWord:
    """Relative class of the pair (k, ell): inverse push word of k times
    the push word of ell, freely reduced.  Vanishes iff k == ell."""
    return concat(inverse(lambda_word(g, n, k)), lambda_word(g, n, ell))


def upper_bound(k: Sequence[int], ell: Sequence[int]) -> BoundTrace:
    """Upper distance bound between the disks of two lattice points.

    One transport step per coordinate, processed from the last
    coordinate inward: moving coordinate i costs the budget 6
    (``PUSH_STEP_BUDGET``) per power plus a flat 8 for carrying the move
    through the untouched prefix: two opposite-side swaps of cost 4
    around a free relabel of the fixed side by the prefix.  The trace
    total is sum_i (6|k_i - ell_i| + 8).
    """
    from .pushcalc import BoundTrace, TraceStep  # an audit, off the grid's path

    k, ell = tuple(k), tuple(ell)
    if len(k) != len(ell):
        raise ValueError(f"lattice points differ in length: {len(k)} vs {len(ell)}")
    steps: list[TraceStep] = []
    for i in range(len(k), 0, -1):
        delta = abs(k[i - 1] - ell[i - 1])
        steps.append(
            TraceStep(
                "distanceestimate",
                f"move coordinate {i} by {delta} powers of its push word",
                PUSH_STEP_BUDGET * delta,
            )
        )
        steps.append(
            TraceStep("crucial2", f"carry the coordinate-{i} move through the prefix", 8)
        )
        steps.append(TraceStep("isometric-relabel", f"rebase after coordinate {i}", 0))
    return BoundTrace(tuple(steps), sum(s.increment for s in steps))


class CertificateRow(Record):
    """One grid pair's bounds, displacement and ratio: a result record, not validated."""

    __slots__ = ("k", "l", "displacement", "relative_word", "lower", "upper", "ratio")
    k: tuple[int, ...]
    l: tuple[int, ...]
    displacement: int
    relative_word: ReducedWord
    lower: Fraction
    upper: int
    ratio: Fraction | None


class GridSummary(Record):
    __slots__ = ("rows", "min_ratio", "max_ratio")
    rows: int
    min_ratio: Fraction | None
    max_ratio: Fraction | None


def check_grid(g: int, n: int, grid_max: int) -> None:
    """Check the arguments and caps of :func:`certify_grid` from counts
    alone, before anything is allocated.

    For grid_max m there are P = (m+1)^n points, P(P+1)/2 rows and
    1 + sum_i m (m+1)^(2(n-i)) = 1 + (P^2 - 1)/(m + 2) keys.  The 2P
    push words and inverses and the keys' relative words are each at
    most the worst-case relative word length
    2m sum_{t=1..n} (g+3)(t+1) = m (g+3) n (n+3) long.
    """
    _check_rank(g)
    if grid_max < 0:
        raise ValueError(f"grid_max must be nonnegative, got {grid_max}")
    if n < 1:
        raise ValueError(f"need at least one coordinate, got {n}")
    # Past the cap in points the rows are too; m = 0 leaves one point.
    points = 1
    for _ in range(n if grid_max else 0):
        if points > MAX_ROW_COORDINATES:
            break
        points *= grid_max + 1
    if points * (points + 1) // 2 * n > MAX_ROW_COORDINATES:
        raise CapExceeded(f"grid has more than {MAX_ROW_COORDINATES} row coordinates")
    worst = grid_max * (g + 3) * n * (n + 3)
    keys = 1 + (points * points - 1) // (grid_max + 2)
    if (2 * points + keys) * worst > MAX_GRID_LETTERS:
        raise CapExceeded(f"grid words may reach more than {MAX_GRID_LETTERS} letters")


def _lattice_points(n: int, grid_max: int) -> list[tuple[int, ...]]:
    """The points of {0..grid_max}^n in lexicographic order: the point of
    index a has the base-(grid_max + 1) digits of a as coordinates."""
    return list(product(range(grid_max + 1), repeat=n))


def _grid_runs(g: int, n: int, grid_max: int, certificate):
    """The rows of :func:`certify_grid` in order, as runs ``(a, b, values)``:
    the rows (points[a], points[b + j]) with per-key value ``values[j]``,
    for the points of :func:`_lattice_points`.

    ``certificate(displacement, relative_word, s, upper)`` makes the value
    of a key (k', l') once, from its simple length s.  For each k the runs
    are the diagonal, then for i from n down to 1 the points l whose first
    difference is l_i > k_i, in lexicographic order; those are the
    consecutive points from (k_1, .., k_{i-1}, k_i + 1, 0, .., 0) on.  The
    keys of a run depend on i and (k_{i+1}, .., k_n) only, so each block
    of keys is built once and later runs take a prefix of it.  Checks
    nothing: callers run :func:`check_grid` first.
    """
    width = grid_max + 1
    points = _lattice_points(n, grid_max)
    # b_t has positive letters only, so b_t^e is a tuple repeat and a push
    # word is the join of its coordinates' powers; a zero coordinate and a
    # one-point grid build no push word.
    powers = [
        [()] + [make_bt(g, t).letters * e for e in range(1, width)] for t in range(1, n + 1)
    ]
    lattice = [_trusted(g, tuple(chain.from_iterable(p))) for p in product(*powers)]
    # k' = (0, ..) + k[i+1:] starts with a zero: it is among the first 1/(m+1) points
    inverses = [inverse(w) for w in lattice[: len(lattice) // width]]
    pieces: dict = {}

    def value(kp: int, lp: int):
        # the key (points[kp], points[lp])
        displacement = sum(abs(x - y) for x, y in zip(points[kp], points[lp]))
        rel = concat(inverses[kp], lattice[lp])
        s = len(_greedy_cuts(pieces, g, rel.letters)) - 1
        return certificate(displacement, rel, s, PUSH_STEP_BUDGET * displacement + 8 * n)

    diagonal = [value(0, 0)]
    blocks: dict[tuple[int, int], list] = {}
    for a, k in enumerate(points):
        yield a, a, diagonal
        size = 1  # (m+1)^(n-1-i): the free tails l[i+1:]
        for i in range(n - 1, -1, -1):
            rows = (grid_max - k[i]) * size
            if rows:
                tail = a % size  # the index of k[i+1:], and of k' = (0, .., 0) + k[i+1:]
                # met first with k[:i+1] = 0, so with every row; the j-th
                # l' = (0, .., 0, l[i] - k[i]) + l[i+1:] has index size + j
                block = blocks.get((i, tail))
                if block is None:
                    block = blocks[i, tail] = [value(tail, b) for b in range(size, size + rows)]
                yield a, a - tail + size, block[:rows]
            size *= width


def certify_grid(g: int, n: int, grid_max: int) -> list[CertificateRow]:
    """Certificate rows for every unordered pair of points in
    {0..grid_max}^n, in lexicographic (k, l) order.

    Push words are built once per point, their inverses once per point
    k', and every other row value once per key (k', l') of the module
    docstring, the lower bounds through this call's piece table; the rows
    of one key share those objects.  :func:`check_grid` runs first.
    """
    check_grid(g, n, grid_max)
    from fractions import Fraction

    def certificate(displacement, rel, s, upper):
        lower = Fraction(s, 2)
        return displacement, rel, lower, upper, lower / displacement if displacement else None

    points = _lattice_points(n, grid_max)
    return [
        CertificateRow(points[a], points[b], *values)
        for a, start, run in _grid_runs(g, n, grid_max, certificate)
        for b, values in enumerate(run, start)
    ]


def stream_csv(g: int, n: int, grid_max: int, write) -> tuple[int, str | None, str | None]:
    """Pass ``to_csv(certify_grid(g, n, grid_max), g)`` to ``write`` run
    by run, building no row, and return the fields of
    ``summarize(certify_grid(g, n, grid_max))`` as (rows, min ratio,
    max ratio), each ratio as its ``p/q`` text or None.

    Each point's text and each key's text after ``l`` are rendered once;
    the ratios s / (2 displacement) are compared by cross-multiplying.
    :func:`check_grid` runs first.
    """
    check_grid(g, n, grid_max)
    low = high = None  # (p, q) of the least and greatest ratio so far

    def certificate(displacement, rel, s, upper):
        nonlocal low, high
        if not displacement:
            return f",0,{_fraction_text(s, 2)},{upper},\n"
        p, q = s, 2 * displacement
        if low is None or p * low[1] < low[0] * q:
            low = p, q
        if high is None or p * high[1] > high[0] * q:
            high = p, q
        return f",{displacement},{_fraction_text(s, 2)},{upper},{_fraction_text(p, q)}\n"

    texts = [_vec(p) for p in _lattice_points(n, grid_max)]
    heads = [f"{n},{g},{text}," for text in texts]
    rows = 0
    write(_CSV_HEADER + "\n")
    for a, start, run in _grid_runs(g, n, grid_max, certificate):
        head = heads[a]
        ls = texts[start : start + len(run)]
        write("".join([head + text + tail for text, tail in zip(ls, run)]))
        rows += len(run)
    return (
        rows,
        None if low is None else _fraction_text(*low),
        None if high is None else _fraction_text(*high),
    )


def _fraction_text(p: int, q: int) -> str:
    """``str(Fraction(p, q))`` for p >= 0 and q > 0, without ``fractions``."""
    d = gcd(p, q)
    return str(p // d) if q == d else f"{p // d}/{q // d}"


def summarize(rows: Iterable[CertificateRow]) -> GridSummary:
    """Row count and the ratio range over rows with positive displacement."""
    rows = list(rows)
    ratios = [r.ratio for r in rows if r.ratio is not None]
    if not ratios:
        return GridSummary(len(rows), None, None)
    return GridSummary(len(rows), min(ratios), max(ratios))


def to_csv(rows: Iterable[CertificateRow], g: int) -> str:
    """CSV rendering; vectors are ';'-joined, rationals print as p/q."""
    lines = [_CSV_HEADER]
    for r in rows:
        ratio = "" if r.ratio is None else str(r.ratio)
        lines.append(
            f"{len(r.k)},{g},{_vec(r.k)},{_vec(r.l)},{r.displacement},"
            f"{r.lower},{r.upper},{ratio}"
        )
    return "\n".join(lines) + "\n"


def _vec(v: tuple[int, ...]) -> str:
    return ";".join(str(a) for a in v)
