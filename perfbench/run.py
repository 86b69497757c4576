"""Benchmark of the spotdisk command line, built from the checkout's src/.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

The benchmark is a closed loop with one client: it starts one child
``python -m spotdisk.cli ...`` at a time, passes it only the generated
inputs, and waits for it before starting the next.  A pass runs the
workload's fixed list of invocations once; passes repeat until the next
one would end after ``--seconds``.  Every output is checked against
``reference.json`` (recorded at the seed commit by ``record.py``) and by
the independent checks in ``checks.py``; a nonzero exit, a timeout or a
wrong output counts as a failed invocation.

With ``--trace 0`` the run reports the end-to-end metrics, medians over
untraced passes.  With ``--trace 1`` it alternates untraced passes with
passes whose children run under ``traced_cli.py`` and reports the
per-layer metrics, medians over the traced passes, plus the tracer's own
overhead.  The last line of stdout is the result as one JSON object; the
line before it holds run metadata, per-pass figures and input properties.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import workloads

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
TRACED_CLI = HERE / "traced_cli.py"

DEFAULT_SEED = 1
SETUP_SAMPLES = 11
TIMEOUT_S = 60.0
# Invocations not started by this point of a run are skipped and counted as
# failed, so a run ends within 180 s even when every child hangs.
RUN_DEADLINE_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer time metric -> (span name, inclusive "total" or "self" time)
LAYER_TIMES = {
    "cli.import_s": ("cli.import", "total"),
    "cli.main_s": ("cli.main", "total"),
    "cli.self_s": ("cli.main", "self"),
    "words.parse_s": ("words.parse", "total"),
    "whitehead.simple_length_s": ("whitehead.simple_length", "total"),
    "whitehead.subword_simple_lengths_s": ("whitehead.subword_simple_lengths", "total"),
    "cancelpairs.enumerate_s": ("cancelpairs.enumerate", "total"),
    "cancelpairs.cr_lower_bound_self_s": ("cancelpairs.cr_lower_bound", "self"),
    "cancelpairs.cr_bruteforce_s": ("cancelpairs.cr_bruteforce", "total"),
    "qicert.certify_grid_s": ("qicert.certify_grid", "total"),
    "qicert.self_s": ("qicert.certify_grid", "self"),
    "qicert.relative_word_s": ("qicert.relative_word", "total"),
    "qicert.upper_bound_s": ("qicert.upper_bound", "total"),
    "qicert.to_csv_s": ("qicert.to_csv", "total"),
}
LAYER_COUNTS = (
    "words.concat_calls",
    "whitehead.simple_length_calls",
    "whitehead.simple_length_letters",
    "cancelpairs.families",
    "qicert.rows",
)
LAYER_UNITS = {
    **{m: "s" for m in LAYER_TIMES},
    **{m: "count" for m in LAYER_COUNTS},
    "whitehead.simple_length_repeat_share": "frac",
    "trace.overhead_frac": "frac",
}


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes
    spans: dict | None = None


@dataclass
class Pass:
    traced: bool
    outcomes: list[Outcome]
    load_before: tuple[float, ...]
    load_after: tuple[float, ...]
    failures: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)

    @property
    def cpu_s(self) -> float:
        return sum(o.cpu_s for o in self.outcomes)

    @property
    def peak_rss_mb(self) -> float:
        return max(o.rss_mb for o in self.outcomes)


class Runner:
    """Starts one CLI child at a time and reaps it with its rusage."""

    def __init__(self, root: Path, work: Path, deadline: float) -> None:
        self.root, self.work, self.deadline = root, work, deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        # Children may write bytecode caches, as an installed package has them.
        for name in ("SPOTDISK_JOBS", "PYTHONDONTWRITEBYTECODE"):
            self.env.pop(name, None)
        self._count = 0

    def invoke(self, argv: tuple[str, ...], traced: bool) -> Outcome:
        remaining = self.deadline - perf_counter()
        if remaining <= 0:
            return Outcome(0.0, 0.0, 0.0, -1, b"", b"skipped: run deadline passed")
        self._count += 1
        spans_path = self.work / f"spans-{self._count}.json"
        if traced:
            cmd = [sys.executable, str(TRACED_CLI), str(spans_path), *argv]
        else:
            cmd = [sys.executable, "-m", "spotdisk.cli", *argv]
        expired: list[bool] = []

        def expire() -> None:
            expired.append(True)
            proc.kill()

        with open(self.work / "stdout", "w+b") as out, open(self.work / "stderr", "w+b") as err:
            start = perf_counter()
            proc = subprocess.Popen(
                cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=self.env, cwd=self.root
            )
            timer = threading.Timer(min(TIMEOUT_S, remaining), expire)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - start
            proc.returncode = code = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        if expired:
            code, stderr = -1, stderr + b"\ntimeout"
        spans = None
        if traced and spans_path.is_file():
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
            spans_path.unlink()
        return Outcome(
            wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, code, stdout, stderr, spans
        )


def run_pass(runner: Runner, invs, reference: dict, traced: bool) -> Pass:
    load_before = os.getloadavg()
    outcomes = [runner.invoke(inv.argv, traced) for inv in invs]
    result = Pass(traced, outcomes, load_before, os.getloadavg())
    for inv, o in zip(invs, outcomes):
        reason = checks.check(inv, o.code, o.stdout, reference[inv.kind][inv.key])
        if reason is None and traced and o.spans is None:
            reason = f"{inv.kind}: traced child wrote no spans"
        if reason is not None:
            stderr = o.stderr.decode(errors="replace").strip().splitlines()
            result.failures.append(reason + (f" [{stderr[-1]}]" if stderr else ""))
    return result


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def span_times(spans: list) -> tuple[Counter, Counter]:
    """Inclusive and self time per span name for one child.

    Self time is the span's busy time minus what its children cover:
    children on the span's own thread run one after another, so their busy
    times add up; children on pool threads may overlap, so their intervals
    are merged first.
    """
    thread_of = {s[0]: s[3] for s in spans}
    same: Counter = Counter()
    cross: defaultdict = defaultdict(list)
    for sid, parent, _, thread, start, end, busy in spans:
        if parent in thread_of:
            if thread_of[parent] == thread:
                same[parent] += busy
            else:
                cross[parent].append((start, end))
    total: Counter = Counter()
    self_: Counter = Counter()
    for sid, _, name, _, _, _, busy in spans:
        total[name] += busy
        self_[name] += busy - same[sid] - _covered(cross[sid])
    return total, self_


def layer_metrics(p: Pass) -> dict[str, float]:
    """Per-layer figures of one traced pass, summed over its children."""
    total: Counter = Counter()
    self_: Counter = Counter()
    counts: Counter = Counter()
    for o in p.outcomes:
        if o.spans is None:
            continue
        t, s = span_times(o.spans["spans"])
        total.update(t)
        self_.update(s)
        counts.update(o.spans["counts"])
    out: dict[str, float] = {}
    for metric, (name, kind) in LAYER_TIMES.items():
        out[metric] = float((total if kind == "total" else self_)[name])
    for metric in LAYER_COUNTS:
        out[metric] = counts[metric]
    calls = counts["whitehead.simple_length_calls"]
    repeats = counts["whitehead.simple_length_repeats"]
    out["whitehead.simple_length_repeat_share"] = repeats / calls if calls else 0.0
    return out



def git_sha(root: Path) -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _terminate(signum, frame) -> None:
    # Unwind, so the child in flight is killed and reaped and the work
    # directory removed.
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "spotdisk" / "cli.py").is_file():
        print(f"error: no src/spotdisk/cli.py under {root}; run from a checkout", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    invs = workloads.invocations(args.workload, args.seed, reference)
    run_start = perf_counter()

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        runner = Runner(root, Path(tmp), run_start + RUN_DEADLINE_S)
        # The first child writes the bytecode caches, as an installed package
        # would have them; it is checked but not timed.
        setup = [run_pass(runner, [workloads.SETUP], reference, False)]
        if not args.trace:
            setup += [run_pass(runner, [workloads.SETUP], reference, False) for _ in range(SETUP_SAMPLES)]
        passes: list[Pass] = []
        measure_start = perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(runner, invs, reference, traced))
            elapsed = perf_counter() - measure_start
            enough = len(passes) >= (2 if args.trace else 1)
            if enough and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
            if perf_counter() > runner.deadline:
                break

    untraced = [p for p in passes if not p.traced]
    traced_passes = [p for p in passes if p.traced]
    failures = [f for p in setup + passes for f in p.failures]
    attempted = sum(len(p.outcomes) for p in setup + passes)
    med = statistics.median
    if args.trace:
        layers = [layer_metrics(p) for p in traced_passes]
        values = {m: med(x[m] for x in layers) for m in LAYER_UNITS if m != "trace.overhead_frac"}
        values["trace.overhead_frac"] = (
            med(p.wall_s for p in traced_passes) / med(p.wall_s for p in untraced) - 1
        )
        units = LAYER_UNITS
        samples = {m: len(traced_passes) for m in values}
    else:
        values = {
            "setup_s": med(p.wall_s for p in setup[1:]),
            "wall_s": med(p.wall_s for p in untraced),
            "cpu_s": med(p.cpu_s for p in untraced),
            "peak_rss_mb": med(p.peak_rss_mb for p in untraced),
        }
        units = END_TO_END
        samples = {m: len(untraced) for m in values}
        samples["setup_s"] = SETUP_SAMPLES

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(root),
        "inputs": workloads.input_properties(invs, reference),
        "setup_samples_s": [p.wall_s for p in setup[1:]],
        "passes": [
            {
                "traced": p.traced,
                "wall_s": p.wall_s,
                "cpu_s": p.cpu_s,
                "peak_rss_mb": p.peak_rss_mb,
                "loadavg_before": p.load_before,
                "loadavg_after": p.load_after,
            }
            for p in passes
        ],
        "invocation_median_wall_s": [
            med(p.outcomes[i].wall_s for p in untraced) for i in range(len(invs))
        ],
        "failures": failures[:20],
    }
    for name, value in values.items():
        print(f"{name:40s} {value:12.6g} {units[name]:6s} median of {samples[name]}")
    for reason in failures[:20]:
        print(f"FAILED {reason}")
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
