"""Run the spotdisk command line with per-layer spans recorded.

Usage: python3 perfbench/traced_cli.py SPANS_JSON CLI_ARGS...

Wraps each layer's entry points as bound in their callers (the package
itself is not changed), runs ``spotdisk.cli.main`` on CLI_ARGS and, at
exit, writes the spans and counters kept in memory to SPANS_JSON.  A span
is ``[id, parent, name, thread, start, end, busy]``; ``busy`` equals
``end - start`` except for generator spans, where it sums the time spent
inside ``next()``.  A span's parent is the innermost open span of its own
thread, or of the main thread when a pool worker starts with none open.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter[str] = Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._seen_words: set[tuple[int, tuple[int, ...]]] = set()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else 0

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        span, parent = next(self._ids), self._parent(stack)
        stack.append(span)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(
                (span, parent, name, threading.get_ident(), start, end, end - start)
            )

    def wrap(self, module, attr: str, name: str, note=None) -> None:
        """Replace ``module.attr`` by a spanning wrapper; ``note(args, result)``
        updates counters after each call."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if note is not None:
                with self._lock:
                    note(args, result)
            return result

        setattr(module, attr, wrapper)

    def count_calls(self, module, attr: str, key: str) -> None:
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[key] += 1
            return fn(*args, **kwargs)

        setattr(module, attr, wrapper)

    def wrap_generator(self, module, attr: str, name: str, key: str) -> None:
        """Time each ``next()`` of the generator ``module.attr`` returns and
        count the items it yields under ``key``."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._iterate(fn(*args, **kwargs), name, key)

        setattr(module, attr, wrapper)

    def _iterate(self, gen, name: str, key: str):
        span, parent = next(self._ids), self._parent(self._stack())
        start = end = perf_counter()
        busy, items = 0.0, 0
        try:
            while True:
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    end = perf_counter()
                    busy += end - t0
                    return
                end = perf_counter()
                busy += end - t0
                items += 1
                yield item
        finally:
            self.spans.append((span, parent, name, threading.get_ident(), start, end, busy))
            with self._lock:
                self.counts[key] += items

    def note_simple_length(self, args, result) -> None:
        w = args[0]
        key = (w.rank, w.letters)
        self.counts["whitehead.simple_length_calls"] += 1
        self.counts["whitehead.simple_length_letters"] += len(w.letters)
        if key in self._seen_words:
            self.counts["whitehead.simple_length_repeats"] += 1
        self._seen_words.add(key)

    def note_rows(self, args, result) -> None:
        self.counts["qicert.rows"] += len(result)


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points where their callers look them up."""
    from spotdisk import cancelpairs, cli, qicert, whitehead, words

    # cli reaches whitehead, cancelpairs and qicert through module attributes.
    for module in (whitehead, qicert, cancelpairs):
        tracer.wrap(module, "simple_length", "whitehead.simple_length", tracer.note_simple_length)
    tracer.wrap(cli, "parse", "words.parse")
    tracer.wrap(cancelpairs, "subword_simple_lengths", "whitehead.subword_simple_lengths")
    tracer.wrap(cancelpairs, "cr_lower_bound", "cancelpairs.cr_lower_bound")
    tracer.wrap(cancelpairs, "cr_bruteforce", "cancelpairs.cr_bruteforce")
    tracer.wrap_generator(
        cancelpairs, "enumerate_nested_families", "cancelpairs.enumerate", "cancelpairs.families"
    )
    tracer.wrap(qicert, "certify_grid", "qicert.certify_grid", tracer.note_rows)
    tracer.wrap(qicert, "relative_word", "qicert.relative_word")
    tracer.wrap(qicert, "upper_bound", "qicert.upper_bound")
    tracer.wrap(qicert, "to_csv", "qicert.to_csv")
    # words.concat also counts the calls power() makes inside words.
    tracer.count_calls(qicert, "concat", "words.concat_calls")
    tracer.count_calls(words, "concat", "words.concat_calls")


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    code: int | str | None = 1
    try:
        cli = tracer.call("cli.import", __import__, "spotdisk.cli", fromlist=["main"])
        install(tracer)
        code = tracer.call("cli.main", cli.main, argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as f:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
