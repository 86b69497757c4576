"""Write tests/golden/torus_ball.json: the sha256 of ``torus-ball`` stdout
and of its ``--dot`` file for each ball the byte guard replays.

Run from the repository root:

    PYTHONPATH=src python tests/golden/record_torus_ball.py

Run it at the commit whose bytes are the reference; it records that
commit in the file.  A change that alters these bytes on purpose
regenerates the file and says which balls changed and why.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from helpers import cli_outcome  # noqa: E402

GOLDEN = Path(__file__).with_name("torus_ball.json")
COMMAND = "PYTHONPATH=src python tests/golden/record_torus_ball.py"

# Criterion 8's ranges, plus balls whose labels carry two-digit indices.
BALLS = [
    (radius, valency, leaves)
    for radius in range(5)
    for valency in range(1, 5)
    for leaves in range(4)
] + [(1, 11, 0), (2, 11, 1), (1, 2, 11), (2, 11, 11)]


def digests(radius: int, valency: int, leaves: int) -> dict[str, str]:
    """sha256 of stdout and of the DOT file of one in-process run."""
    argv = ["torus-ball", "--radius", str(radius), "--valency", str(valency)]
    argv += ["--leaves", str(leaves), "--dot", "ball.dot"]
    outcome = cli_outcome(argv)
    if outcome["exit"] != 0:
        raise SystemExit(f"{' '.join(argv)} exited {outcome['exit']}")
    return {"stdout": outcome["stdout"], "dot": outcome["files"]["ball.dot"]}


def ball_key(radius: int, valency: int, leaves: int) -> str:
    return f"{radius} {valency} {leaves}"


if __name__ == "__main__":
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
    ).stdout.strip()
    record = {
        "command": COMMAND,
        "commit": commit,
        "balls": {ball_key(*ball): digests(*ball) for ball in BALLS},
    }
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
