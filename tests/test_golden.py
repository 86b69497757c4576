"""Byte guards: CLI output that must stay identical across commits.

The qi-cert grids are the benchmark's, checked against the digests and
row counts in perfbench/reference.json.  The exit code, stdout, stderr
and output files of argvs over every subcommand live in
tests/golden/cli.json, which names the command and commit that wrote it.
"""

import contextlib
import hashlib
import io
import json
import shlex
from pathlib import Path

from golden.record_cli import ARGVS, BALLS
from helpers import cli_outcome

from spotdisk.cli import main

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "perfbench" / "reference.json"
CLI = Path(__file__).with_name("golden") / "cli.json"


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_qi_cert_grids_match_the_benchmark_reference():
    grids = json.loads(REFERENCE.read_text(encoding="utf-8"))["qi-cert"]
    assert len(grids) == 2
    for key, entry in grids.items():
        code, out = run(["qi-cert", *key.split()])
        assert code == 0, key
        assert sha256(out.encode()) == entry["sha256"], key
        assert f"\nrows: {entry['rows']}\n" in out, key


# torus-ball DOT files over criterion 8's ranges, plus two-digit child and
# leaf indices (the recorder's BALLS); recorded in cli.json with the other argvs
BALL_KEYS = {
    f"torus-ball --radius {r} --valency {v} --leaves {l} --dot out.dot" for r, v, l in BALLS
}


def test_torus_ball_stdout_and_dot_match_the_recorded_digests():
    recorded = json.loads(CLI.read_text(encoding="utf-8"))["runs"]
    assert len(BALL_KEYS) == 84
    for key in sorted(BALL_KEYS):
        assert recorded[key]["exit"] == 0, key
        assert cli_outcome(shlex.split(key)) == recorded[key], key


def test_cli_runs_match_the_recorded_outcomes():
    recorded = json.loads(CLI.read_text(encoding="utf-8"))["runs"]
    # the recorder's argv list and the recorded file name the same runs
    assert set(recorded) == {shlex.join(argv) for argv in ARGVS}
    assert {r["exit"] for r in recorded.values()} == {0, 2, 3}
    for key, outcome in recorded.items():
        if key not in BALL_KEYS:
            assert cli_outcome(shlex.split(key)) == outcome, key
