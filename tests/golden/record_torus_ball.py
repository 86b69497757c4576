"""Write tests/golden/torus_ball.json: the sha256 of ``torus-ball`` stdout
and of its ``--dot`` file for each ball the byte guard replays.

Run from the repository root:

    PYTHONPATH=src python tests/golden/record_torus_ball.py

Run it at the commit whose bytes are the reference; it records that
commit in the file.  A change that alters these bytes on purpose
regenerates the file and says which balls changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import tempfile
from pathlib import Path

from spotdisk.cli import main

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
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ball.dot"
        out = io.StringIO()
        argv = ["torus-ball", "--radius", str(radius), "--valency", str(valency)]
        argv += ["--leaves", str(leaves), "--dot", str(path)]
        with contextlib.redirect_stdout(out):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        return {
            "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "dot": hashlib.sha256(path.read_bytes()).hexdigest(),
        }


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
