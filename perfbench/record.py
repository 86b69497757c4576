"""Record reference.json: the outputs of every pool input at one commit.

Usage (from the root of a checkout of the commit to record):

    python3 perfbench/record.py

Runs every invocation any seed can draw once, under traced_cli.py, and
stores what run.py checks against: the simple-length value, the cr-bounds
line, or the sha256 of stdout.  It also stores the input properties later
claims cite (simple_length calls and repeats, nested families, rows) and,
for cr-bounds, the traced time of cli.main, which workloads.py uses to
stratify the cr-cap pool.
Each recorded output must pass the independent checks in checks.py.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import checks
import workloads
from run import REFERENCE, Runner, span_times


def entry(inv: workloads.Invocation, stdout: bytes, counts: dict, spans: list) -> dict:
    out = {
        "simple_length_calls": counts.get("whitehead.simple_length_calls", 0),
        "simple_length_repeats": counts.get("whitehead.simple_length_repeats", 0),
    }
    if inv.kind == "simple-length":
        out["value"] = int(stdout.decode().splitlines()[0].split(": ")[1])
    elif inv.kind == "cr-bounds":
        out["line"] = stdout.decode().rstrip("\n")
        out["families"] = counts["cancelpairs.families"]
        out["cost_s"] = span_times(spans)[0]["cli.main"]
    else:
        out["sha256"] = hashlib.sha256(stdout).hexdigest()
    if inv.kind == "qi-cert":
        out["rows"] = counts["qicert.rows"]
    return out


def main() -> int:
    invs = [workloads.SETUP]
    invs += [
        workloads.long_word_invocation(rank, length, i)
        for rank in workloads.LONG_RANKS
        for length in workloads.LONG_LENGTHS
        for i in range(workloads.LONG_POOL)
    ]
    invs += [workloads.cr_invocation(i) for i in range(workloads.CR_POOL)]
    invs += [workloads.qicert_invocation(grid, 1) for grid in workloads.QICERT_GRID]
    reference: dict = {}
    root = Path.cwd()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        runner = Runner(root, Path(tmp), float("inf"))
        for inv in invs:
            o = runner.invoke(inv.argv, traced=True)
            if o.code != 0 or o.spans is None:
                print(f"error: {' '.join(inv.argv)[:80]} exited {o.code}", file=sys.stderr)
                return 1
            e = entry(inv, o.stdout, o.spans["counts"], o.spans["spans"])
            reason = checks.check(inv, o.code, o.stdout, e)
            if reason is not None:
                print(f"error: {reason}", file=sys.stderr)
                return 1
            reference.setdefault(inv.kind, {})[inv.key] = e
        # qicert-jobs2 shares the --jobs 1 reference: outputs must be identical.
        for inv in workloads.invocations("qicert-jobs2", 0, reference):
            o = runner.invoke(inv.argv, traced=False)
            reason = checks.check(inv, o.code, o.stdout, reference[inv.kind][inv.key])
            if reason is not None:
                print(f"error: {reason}", file=sys.stderr)
                return 1
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE.name}: {sum(len(v) for v in reference.values())} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
