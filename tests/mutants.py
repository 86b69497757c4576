"""Mutation check: tier-1 must fail on every mutant listed in MUTANTS.

Run from the repository root (it takes a few minutes):

    python tests/mutants.py

Each entry names a file, a text that must occur in it exactly once, the
text that replaces it, and why the change is a fault.  For each entry the
script copies src/, tests/, perfbench/ and pyproject.toml into a fresh
temporary directory, makes the one replacement, and runs tier-1 there
with ``-x -p no:cacheprovider``.  The unmutated copy runs first and must
pass, so that a suite which already fails cannot pass for a killing one.
Each mutant's verdict and time are printed.  The exit status is 1 when an
old text is missing or repeated, when the unmutated suite fails, or when
any mutant survives.

Four mutants are left off because they are equivalent: no input tells
them apart from the program, so no test can kill them.

- ``cr_bruteforce``'s ``max_ell = min(max_ell, n)`` with ``n + 1``: an
  n-letter word has at most n nonempty segments.
- the peel depth bound ``(length - 1) // 2`` with ``length // 2``: a
  segment peeled to nothing would be u u^-1, which a reduced word never
  contains.
- ``_greedy_cuts``' table head ``letters[start : start + width]`` cut to
  2g letters: the buckets are only coarser, and each still holds every
  known piece that can match.
- ``simple_length_bruteforce``'s ``return most.get(n, 0)`` with
  ``return max(most.values())``: absorbing the rest of the word into the
  last piece extends any split of a prefix, since a piece that contains
  a simple piece is simple.

The list follows DeMillo, Lipton and Sayward, "Hints on test data
selection" (Computer, 1978): each mutant is one small change that a
correct suite must notice.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
TIER1 = ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors")

CANCELPAIRS = "src/spotdisk/cancelpairs.py"
CLI = "src/spotdisk/cli.py"
QICERT = "src/spotdisk/qicert.py"
RECORD = "src/spotdisk/_record.py"
TORUSTREE = "src/spotdisk/torustree.py"
WHITEHEAD = "src/spotdisk/whitehead.py"
WORDS = "src/spotdisk/words.py"

# (file, old text, new text, why)
MUTANTS = [
    (
        CANCELPAIRS,
        "if n // (2 * w.rank + 1) <= 15:",
        "if n // (2 * w.rank + 1) <= 16:",
        "the lower bound's early exit holds only while n // (2g + 1) bounds S0 by 15",
    ),
    (
        CANCELPAIRS,
        "if n // (2 * w.rank + 1) <= 15:",
        "if n // (2 * w.rank) <= 15:",
        "a simple piece has at least 2g + 1 letters, so n // (2g + 1) bounds S0 and spares the dynamic program",
    ),
    (
        CANCELPAIRS,
        "Fraction(k + s, 5) - 3)",
        "Fraction(k + s, 5) - 2)",
        "the family score is (k + S)/5 - 3",
    ),
    (
        QICERT,
        "if points * (points + 1) // 2 * n > MAX_ROW_COORDINATES:",
        "if points * (points + 1) // 2 * n >= MAX_ROW_COORDINATES:",
        "a grid of exactly MAX_ROW_COORDINATES row coordinates is accepted",
    ),
    (
        QICERT,
        "if (2 * points + keys) * worst > MAX_GRID_LETTERS:",
        "if (2 * points + keys) * worst >= MAX_GRID_LETTERS:",
        "a grid of exactly MAX_GRID_LETTERS word letters is accepted",
    ),
    (
        WHITEHEAD,
        "if n > ORACLE_CAP:",
        "if n >= ORACLE_CAP:",
        "the enumeration oracle accepts words of exactly ORACLE_CAP letters",
    ),
    (
        CANCELPAIRS,
        "if n > DEFAULT_CR_CAP:\n        raise CapExceeded(f\"word length {n} exceeds lower bound",
        "if n >= DEFAULT_CR_CAP:\n        raise CapExceeded(f\"word length {n} exceeds lower bound",
        "cr_lower_bound accepts words of exactly DEFAULT_CR_CAP letters",
    ),
    (
        CANCELPAIRS,
        "if n > DEFAULT_CR_CAP:\n        raise CapExceeded(f\"word length {n} exceeds decomposition",
        "if n >= DEFAULT_CR_CAP:\n        raise CapExceeded(f\"word length {n} exceeds decomposition",
        "cr_bruteforce accepts words of exactly DEFAULT_CR_CAP letters",
    ),
    (
        TORUSTREE,
        "    if size > MAX_BALL_VERTICES:\n        raise",
        "    if size >= MAX_BALL_VERTICES:\n        raise",
        "a ball of exactly MAX_BALL_VERTICES vertices is accepted",
    ),
    (
        TORUSTREE,
        "    if size > MAX_DOT_BYTES:\n        raise",
        "    if size >= MAX_DOT_BYTES:\n        raise",
        "a DOT file of exactly MAX_DOT_BYTES bytes is accepted",
    ),
    (
        WHITEHEAD,
        "if full == 2 * rank and",
        "if full >= 2 * rank - 1 and",
        "the degree gate searches only once all 2g vertices have two neighbours",
    ),
    (
        WORDS,
        "            if a == -b:\n                raise ValueError",
        "            if False:\n                raise ValueError",
        "ReducedWord refuses a letter sequence that is not freely reduced",
    ),
    (
        CLI,
        "if rank > MAX_RANK:",
        "if rank >= MAX_RANK:",
        "rank MAX_RANK itself is accepted",
    ),
    (
        CANCELPAIRS,
        "if n > DEFAULT_FAMILY_CAP:",
        "if n >= DEFAULT_FAMILY_CAP:",
        "the family enumeration accepts words of exactly DEFAULT_FAMILY_CAP letters",
    ),
    (
        WHITEHEAD,
        "while n - (start := cuts[-1]) >= width:",
        "while n - (start := cuts[-1]) > width:",
        "a simple piece of exactly 2g + 1 letters ends the word and is counted",
    ),
    (
        WHITEHEAD,
        "if tail == piece[: len(tail)]:\n                return cuts",
        "if tail == piece[: len(tail)]:\n                pass",
        "a word that ends inside a known piece needs no greedy stop",
    ),
    (
        QICERT,
        "    pieces: dict = {}\n",
        "    pieces = _grid_runs.__dict__.setdefault(\"pieces\", {})\n",
        "each grid starts from an empty piece table",
    ),
    (
        WHITEHEAD,
        "if len(letters) - start <= 2 * rank:",
        "if len(letters) - start < 2 * rank:",
        "a simple piece needs 2g + 1 letters, so 2g letters get no scan",
    ),
    (
        QICERT,
        "displacement = sum(abs(x - y) for x, y in zip(points[kp], points[lp]))",
        "displacement = sum(points[lp])",
        "a key's displacement is |k' - l'|_1, which k' enters too",
    ),
    (
        QICERT,
        "block = blocks.get((i, tail))\n"
        "                if block is None:\n"
        "                    block = blocks[i, tail] =",
        "block = blocks.get(i)\n"
        "                if block is None:\n"
        "                    block = blocks[i] =",
        "rows share a certificate only when both k' and l' agree",
    ),
    (
        WHITEHEAD,
        "            if (u, v) in seen:\n                raise ValueError",
        "            if False:\n                raise ValueError",
        "WhiteheadGraph refuses a repeated edge entry",
    ),
    (
        CLI,
        "out.close()\n    except OSError as exc:",
        "out.close()\n    except ZeroDivisionError as exc:",
        "a failed close of an output file exits 2, not as a stdout failure",
    ),
    (
        CLI,
        "with suppress(OSError):  # drop the unwritten rest",
        "if True:  # drop the unwritten rest",
        "a failing output file never hides a closed stdout, which exits 141",
    ),
    (
        WHITEHEAD,
        "most[j] = max(most.get(j, 0), most[i] + 1)",
        "most[j] = max(most.get(j, 0), most[i])",
        "each piece of the enumeration oracle's split counts one",
    ),
    (
        WHITEHEAD,
        "for j in range(i + 1, n + 1):\n                if not has_cut_vertex",
        "for j in range(i + 1, n):\n                if not has_cut_vertex",
        "the enumeration oracle's last piece may end the word",
    ),
    (
        RECORD,
        "        if len(args) != len(names):\n            raise TypeError",
        "        if False:\n            raise TypeError",
        "a record refuses too few or too many fields",
    ),
    (
        WHITEHEAD,
        "cuts = _greedy_cuts({}, w.rank, w.letters)",
        "cuts = _greedy_cuts(simple_length.__dict__.setdefault(\"pieces\", {}), w.rank, w.letters)",
        "each simple_length call starts from an empty piece table",
    ),
    (
        CLI,
        "    except OSError as exc:\n        # Output files fail",
        "    except BrokenPipeError as exc:\n        # Output files fail",
        "a failed write to stdout exits 2, not 1 as internal",
    ),
    (
        QICERT,
        "d = gcd(p, q)",
        "d = 1",
        "qi-cert prints each rational in lowest terms, as str(Fraction) does",
    ),
    (
        QICERT,
        "yield a, a - tail + size, block[:rows]",
        "yield a, a - tail, block[:rows]",
        "the rows first differing at coordinate i start at l_i = k_i + 1",
    ),
    (
        QICERT,
        "        yield a, a, diagonal\n",
        "        pass\n",
        "every point k pairs with itself in a diagonal row",
    ),
    (
        QICERT,
        "if low is None or p * low[1] < low[0] * q:",
        "if low is None or p * low[1] > low[0] * q:",
        "qi-cert prints the least ratio as its min ratio",
    ),
    (
        QICERT,
        "tail = a % size",
        "tail = a % (size * width)",
        "k' = (0, .., 0, k_{i+1}, .., k_n) drops coordinate i",
    ),
    (
        CANCELPAIRS,
        "    out.sort()\n    return out",
        "    return out",
        "families come depth-first over candidate pairs sorted by their ranges",
    ),
    (
        CANCELPAIRS,
        "ending.setdefault(pair[1][1], [])",
        "ending.setdefault(pair[1][0], [])",
        "the dynamic program files each pair under the end of its second range",
    ),
    (
        CANCELPAIRS,
        "for s in p:",
        "for s in q:",
        "two pairs of a family use disjoint ranges",
    ),
]


def _copy(dest: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, dest / name)


def _run_tier1(tree: Path) -> tuple[bool, float]:
    """Whether tier-1 passes in ``tree``, and its wall time."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    found = subprocess.run(
        [sys.executable, "-c", "import spotdisk; print(spotdisk.__file__)"],
        cwd=tree, env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(found).is_relative_to(tree):
        raise RuntimeError(f"spotdisk imports from {found}, not from the mutated copy")
    start = time.perf_counter()
    result = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, capture_output=True)
    return result.returncode == 0, time.perf_counter() - start


def _unmatched() -> list[str]:
    """Entries whose old text does not occur exactly once in this checkout."""
    errors = []
    for path, old, _, _ in MUTANTS:
        count = (ROOT / path).read_text(encoding="utf-8").count(old)
        if count != 1:
            errors.append(f"{path}: old text occurs {count} times: {old!r}")
    return errors


def main() -> int:
    errors = _unmatched()
    for error in errors:
        print(f"error: {error}")
    if errors:
        return 1
    survived = 0
    with tempfile.TemporaryDirectory(prefix="spotdisk-mutants-") as tmp:
        tree = Path(tmp) / "unmutated"
        _copy(tree)
        passed, seconds = _run_tier1(tree)
        print(f"unmutated: {'pass' if passed else 'FAIL'} in {seconds:.1f} s", flush=True)
        if not passed:
            return 1
        shutil.rmtree(tree)
        for number, (path, old, new, why) in enumerate(MUTANTS, 1):
            tree = Path(tmp) / f"mutant-{number}"
            _copy(tree)
            target = tree / path
            target.write_text(target.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
            passed, seconds = _run_tier1(tree)
            verdict = "SURVIVED" if passed else "killed"
            print(f"mutant {number}: {verdict} in {seconds:.1f} s: {path}: {why}", flush=True)
            survived += passed
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
