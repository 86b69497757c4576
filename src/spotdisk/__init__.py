"""Word invariants, point-pushing calculus and embedding certificates
for spotted disk and sphere graphs."""

__version__ = "0.1.0"
