"""Output checks, independent of the package's own algorithms.

Each check returns None when the output is right and a one-line reason
otherwise.  The simple-length witness is verified here from scratch: the
pieces must spell the input letterwise, their number must equal the
reported value, and each piece must be free of cut vertices on all 2g
vertices, judged by trying every single-vertex removal with a plain
breadth-first search (no low-link search as in the package).
"""

from __future__ import annotations

import hashlib
from fractions import Fraction


def parse_tokens(text: str) -> tuple[int, ...]:
    """Letters of a token-form word (``x3`` generator, ``X3`` inverse)."""
    return tuple(int(t[1:]) if t[0] == "x" else -int(t[1:]) for t in text.split())


def _connected(verts: set[int], adj: dict[int, set[int]]) -> bool:
    start = min(verts)
    seen, frontier = {start}, [start]
    while frontier:
        u = frontier.pop()
        for v in adj[u]:
            if v in verts and v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen == verts


def has_cut_vertex(rank: int, letters: tuple[int, ...]) -> bool:
    """Whitehead-graph verdict on all 2g vertices: edge {a, b^-1} per pair
    ``a b``; fewer than two edges, a disconnected graph, or a vertex whose
    removal disconnects the rest all count as a cut vertex."""
    if len(letters) < 3:
        return True
    verts = set(range(1, rank + 1)) | set(range(-rank, 0))
    adj: dict[int, set[int]] = {v: set() for v in verts}
    for a, b in zip(letters, letters[1:]):
        adj[a].add(-b)
        adj[-b].add(a)
    if not _connected(verts, adj):
        return True
    return any(not _connected(verts - {v}, adj) for v in verts)


def check_simple_length(rank: int, letters: tuple[int, ...], stdout: str, expected: int) -> str | None:
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith("simple length: "):
        return "simple-length: no value line"
    value = int(lines[0][len("simple length: ") :])
    if value != expected:
        return f"simple-length: value {value}, recorded {expected}"
    pieces = []
    for line in lines[1:]:
        if not line.startswith("piece: "):
            return f"simple-length: unexpected line {line!r}"
        pieces.append(parse_tokens(line[len("piece: ") :]))
    if len(pieces) != value:
        return f"simple-length: {len(pieces)} witness pieces for value {value}"
    if pieces and tuple(a for p in pieces for a in p) != letters:
        return "simple-length: witness pieces do not spell the input"
    for p in pieces:
        if has_cut_vertex(rank, p):
            return f"simple-length: witness piece of length {len(p)} has a cut vertex"
    return None


def check_cr_bounds(stdout: str, expected: str) -> str | None:
    line = stdout.rstrip("\n")
    if line != expected:
        return f"cr-bounds: {line!r}, recorded {expected!r}"
    lower, search, simple = (Fraction(x) for x in line.split())
    if not lower <= search <= simple:
        return f"cr-bounds: sandwich violated in {line!r}"
    return None


def check_digest(kind: str, stdout: bytes, expected: str) -> str | None:
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != expected:
        return f"{kind}: stdout sha256 {digest[:12]}, recorded {expected[:12]}"
    return None


def check(inv, code: int, stdout: bytes, entry: dict) -> str | None:
    """Verdict on one invocation's exit code and stdout against its
    recorded reference ``entry``."""
    if code != 0:
        return f"{inv.kind}: exit code {code}"
    text = stdout.decode(errors="replace")
    try:
        if inv.kind == "simple-length":
            return check_simple_length(inv.rank, inv.letters, text, entry["value"])
        if inv.kind == "cr-bounds":
            return check_cr_bounds(text, entry["line"])
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        return f"{inv.kind}: malformed output ({exc})"
    return check_digest(inv.kind, stdout, entry["sha256"])
