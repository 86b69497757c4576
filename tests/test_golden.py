"""Byte guards: CLI output that must stay identical across commits.

The qi-cert grids are the benchmark's, checked against the digests and
row counts in perfbench/reference.json.  The torus-ball digests live in
tests/golden/torus_ball.json, and the exit code, stdout, stderr and
output files of argvs over every subcommand in tests/golden/cli.json;
each file names the command and commit that wrote it.
"""

import contextlib
import hashlib
import io
import json
import shlex
from pathlib import Path

from helpers import cli_outcome

from spotdisk.cli import main

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "perfbench" / "reference.json"
TORUS_BALL = Path(__file__).with_name("golden") / "torus_ball.json"
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


def test_torus_ball_stdout_and_dot_match_the_recorded_digests(tmp_path):
    recorded = json.loads(TORUS_BALL.read_text(encoding="utf-8"))["balls"]
    # criterion 8's ranges, plus two-digit child and leaf indices
    expected = {f"{r} {v} {l}" for r in range(5) for v in range(1, 5) for l in range(4)}
    expected |= {"1 11 0", "2 11 1", "1 2 11", "2 11 11"}
    assert set(recorded) == expected
    path = tmp_path / "ball.dot"
    for key, digests in recorded.items():
        radius, valency, leaves = key.split()
        argv = ["torus-ball", "--radius", radius, "--valency", valency, "--leaves", leaves]
        code, out = run([*argv, "--dot", str(path)])
        assert code == 0, key
        assert sha256(out.encode()) == digests["stdout"], key
        assert sha256(path.read_bytes()) == digests["dot"], key


def test_cli_runs_match_the_recorded_outcomes():
    recorded = json.loads(CLI.read_text(encoding="utf-8"))["runs"]
    assert {r["exit"] for r in recorded.values()} == {0, 2, 3}
    for key, outcome in recorded.items():
        assert cli_outcome(shlex.split(key)) == outcome, key
