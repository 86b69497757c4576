"""Write tests/golden/cli.json: for each argv of the CLI byte guard, the
exit code and the sha256 of stdout, stderr and each file the run writes.

Run from the repository root:

    PYTHONPATH=src python tests/golden/record_cli.py

Run it at the commit whose bytes are the reference; it records that
commit in the file, and says so when ``src/`` differs from it.  A change that alters these bytes on purpose
regenerates the file and says which argvs changed and why.
"""

from __future__ import annotations

import json
import shlex
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from helpers import cli_outcome  # noqa: E402

GOLDEN = Path(__file__).with_name("cli.json")
COMMAND = "PYTHONPATH=src python tests/golden/record_cli.py"

WORD = "x1 x2 X1 X2 x1"
LONG = " ".join(["x1 x2"] * 17)  # 34 letters: past the 32-letter caps
TOO_LONG_FOR_ORACLE = "x1 x2 x3 x1 x2 x3 x1 x2 x3 x1 x2 x3 x1 x2 x3"
RANK_CAP = "10001"
AT_RANK_CAP = "10000"  # the largest rank accepted


def _qi(rank, n, grid_max, *extra):
    return ("qi-cert", "--rank", str(rank), "--n", str(n), "--grid-max", str(grid_max), *extra)


def _ball(radius, valency, leaves, *extra):
    return ("torus-ball", "--radius", str(radius), "--valency", str(valency),
            "--leaves", str(leaves), *extra)


ARGVS = [
    # wg: success, DOT file, exit 2, exit 3
    ("wg", "x1", "--rank", "2"),
    ("wg", WORD, "--rank", "2"),
    ("wg", "abcABC", "--rank", "3", "--dot", "out.dot"),
    ("wg", "x1 x2 x3 x4 X1 X2", "--rank", "4", "--dot", "out.dot"),
    ("wg", "x1 ??", "--rank", "2"),
    ("wg", "x1", "--rank", "1"),
    ("wg", "x3", "--rank", "2"),
    ("wg", "x1", "--rank", "2", "--dot", "."),
    ("wg", "x1", "--rank", "2", "--dot", ""),
    ("wg", "x1", "--rank", "1", "--dot", "out.dot"),
    ("wg", "x1", "--rank", RANK_CAP),
    ("wg", "x1", "--rank", RANK_CAP, "--dot", "out.dot"),
    ("wg", "x1"),
    # simple-length: success, --witness, --oracle, exit 2, exit 3
    ("simple-length", "", "--rank", "2"),
    ("simple-length", WORD, "--rank", "2"),
    ("simple-length", WORD, "--rank", "2", "--witness"),
    ("simple-length", WORD, "--rank", "2", "--oracle"),
    ("simple-length", "abcABCabcA", "--rank", "3", "--witness", "--oracle"),
    ("simple-length", "x1 x2 x3 x4 X1 X2 X3 X4 x1 x3", "--rank", "4", "--witness"),
    ("simple-length", "aB c", "--rank", "3"),
    ("simple-length", "x1 b", "--rank", "2"),
    ("simple-length", "x1", "--rank", "1"),
    ("simple-length", TOO_LONG_FOR_ORACLE, "--rank", "3", "--oracle"),
    ("simple-length", TOO_LONG_FOR_ORACLE, "--rank", "3", "--witness"),
    ("simple-length", "x1", "--rank", AT_RANK_CAP),
    ("simple-length", "x1", "--rank", RANK_CAP),
    ("simple-length", "x1", "--rank", "2", "--oracle-cap", "5"),
    # cr-bounds: success, exit 2, exit 3, removed options
    ("cr-bounds", WORD, "--rank", "2"),
    ("cr-bounds", "x1 x2 x1 x2 X1 X2 X1 X2", "--rank", "2"),
    ("cr-bounds", "abcabcABCABC", "--rank", "3"),
    ("cr-bounds", "", "--rank", "2"),
    ("cr-bounds", "x1", "--rank", "1"),
    ("cr-bounds", LONG, "--rank", "2"),
    ("cr-bounds", LONG, "--rank", "1"),
    ("cr-bounds", "x1", "--rank", AT_RANK_CAP),
    ("cr-bounds", "x1", "--rank", RANK_CAP),
    ("cr-bounds", WORD, "--rank", "2", "--max-ell", "3"),
    # qi-cert: grids up to n 3 and grid-max 2, CSV files, exit 2, exit 3
    *(_qi(4, n, m) for n in (1, 2, 3) for m in (0, 1, 2)),
    _qi(5, 2, 2),
    _qi(6, 1, 2),
    _qi(4, 3, 1, "--csv", "out.csv"),
    _qi(5, 1, 2, "--csv", "out.csv", "--jobs", "2"),
    _qi(4, 2, 2, "--jobs", "8"),
    _qi(4, 1, 2, "--length-cap", "100000"),
    _qi(4, 2, 2, "--length-cap", "139"),
    _qi(4, 2, 2, "--length-cap", "140"),
    _qi(4, 2, 2, "--length-cap", "0"),
    _qi(4, 1, 1, "--length-cap", "1", "--csv", "out.csv"),
    _qi(4, 1, 22),
    _qi(148, 1, 1),
    _qi(3, 1, 1),
    _qi(4, 0, 2),
    _qi(4, -3, 2, "--csv", "out.csv"),
    _qi(4, 1, -1),
    _qi(4, 1, 1, "--jobs", "0"),
    _qi(4, 1, 1, "--csv", "."),
    _qi(4, 1, 1, "--csv", ""),
    _qi(4, 1, 1, "--budget", "4"),
    _qi(RANK_CAP, 1, 1),
    _qi(4, 30000000, 0, "--csv", "out.csv"),
    _qi(4, 2000, 1),
    _qi(4, 1, 488),
    _qi(4, 2, 2, "--length-cap", "50"),
    ("qi-cert", "--rank", "4", "--n", "1"),
    # push: success, exit 2
    ("push", "--rank", "2", "--arc", "", "--loop", "x1"),
    ("push", "--rank", "2", "--arc", "x1 x2", "--loop", "X2 X1"),
    ("push", "--rank", "3", "--arc", "abc", "--loop", "CA"),
    ("push", "--rank", "1", "--arc", "x1", "--loop", "x1"),
    ("push", "--rank", "2", "--arc", "x1 ??", "--loop", "x1"),
    # torus-ball: success, DOT files, exit 2, exit 3
    _ball(0, 1, 0),
    _ball(2, 3, 1),
    _ball(1, 2, 0, "--dot", "out.dot"),
    _ball(2, 11, 11, "--dot", "out.dot"),
    _ball(-1, 1, 0),
    _ball(1, 0, 0),
    _ball(1, 1, -1, "--dot", "out.dot"),
    _ball(1, 1, 0, "--dot", "."),
    _ball(1, 1, 0, "--dot", ""),
    _ball(30, 2, 0, "--dot", "out.dot"),
    _ball(999999, 1, 0, "--dot", "out.dot"),
    # no subcommand
    (),
]
# torus-ball DOT files over criterion 8's ranges, plus balls whose labels
# carry two-digit indices
BALLS = [
    (radius, valency, leaves)
    for radius in range(5)
    for valency in range(1, 5)
    for leaves in range(4)
] + [(1, 11, 0), (2, 11, 1), (1, 2, 11), (2, 11, 11)]
ARGVS += [a for a in (_ball(*ball, "--dot", "out.dot") for ball in BALLS) if a not in ARGVS]


if __name__ == "__main__":
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
    ).stdout.strip()
    if subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "src"]).returncode:
        commit += " with uncommitted changes to src/"
    record = {
        "command": COMMAND,
        "commit": commit,
        "runs": {shlex.join(argv): cli_outcome(argv) for argv in ARGVS},
    }
    assert len(record["runs"]) == len(ARGVS), "duplicate argv"
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
