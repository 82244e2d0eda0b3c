"""In-memory spans recorded around calls into the package, and their self time.

Spans are recorded from outside the program: `Tracer.wrap` returns a
stand-in for a public function, and `patched` swaps stand-ins into the
package's namespaces for the length of a `with` block. Nothing under `src/`
knows it is being traced.
"""

from __future__ import annotations

import contextlib
import functools
from time import perf_counter
from typing import Callable, Iterator, NamedTuple, Sequence


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root


class Tracer:
    """Records one span per wrapped call; single-threaded by design."""

    def __init__(self):
        self._open: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """`fn` recording a span called `name`.

        `after(args, result)` runs once the span is closed, so what it costs
        lands in the caller's self time, not in `name`'s.
        """
        spans, stack = self._open, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                record[1] = start
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def spans(self) -> list[Span]:
        return [Span(*record) for record in self._open]


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent's interval and overlapping children
    are counted once, so self time is never negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append(span.end - span.start - covered)
    return result


@contextlib.contextmanager
def patched(replacements: Sequence[tuple[object, str, Callable]]) -> Iterator[None]:
    """Set each `owner.attr` to its replacement, and restore all on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, replacement in replacements:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
