"""Statistics, spans and the import-time parser shared by the harness and
the operation wrapper.

Everything here is standard library only: the operation wrapper imports this
module before it imports omdkit, so anything heavy would be charged to
``setup_s``.
"""

from __future__ import annotations

import re
import statistics
import time
from collections import Counter
from dataclasses import dataclass


def now_ns() -> int:
    """CLOCK_MONOTONIC in ns. It is system-wide on Linux, so a timestamp taken
    in the harness and one taken in a child process are comparable."""
    return time.monotonic_ns()


# -- statistics ------------------------------------------------------------------

def summarize(values) -> dict:
    """Median, first and third quartile and sample count of ``values``.

    The quartiles are those of ``statistics.quantiles(values, n=4)`` (the
    'exclusive' method); with a single value all three equal it.
    """
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("no samples to summarize")
    if len(vals) == 1:
        q1 = q3 = vals[0]
    else:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    return {"median": statistics.median(vals), "p25": q1, "p75": q3, "n": len(vals)}


def percentile(values, q: float) -> float:
    """The q-th percentile (0 <= q <= 100) by linear interpolation; 0.0 when empty."""
    vals = sorted(float(v) for v in values)
    if not vals:
        return 0.0
    pos = (len(vals) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


# -- spans -----------------------------------------------------------------------

@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None  # index into the span list, None for a root
    op_id: str

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping children
    are counted once, so for a tree of spans the self times sum to the
    durations of the roots.
    """
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cur_start = cur_end = None
        for a, b in sorted(
            (max(spans[c].start_ns, s.start_ns), min(spans[c].end_ns, s.end_ns))
            for c in children.get(i, [])
        ):
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(s.duration_ns - covered)
    return out


class SpanRecorder:
    """Records spans around wrapped callables and counts calls, in memory.

    Single-threaded: the traced operation runs its Monte Carlo runs in
    process, so a stack gives each span its parent.
    """

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.open: Counter = Counter()
        self._stack: list[int] = []

    def span(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so that every call records a span called ``name``."""
        spans, stack, open_names = self.spans, self._stack, self.open

        def wrapped(*args, **kwargs):
            idx = len(spans)
            spans.append(Span(name, now_ns(), 0, stack[-1] if stack else None, self.op_id))
            stack.append(idx)
            open_names[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx].end_ns = now_ns()
                stack.pop()
                open_names[name] -= 1
            if on_result is not None:
                on_result(result)
            return result

        return wrapped

    def counter(self, name: str, fn, inside: str | None = None, inside_name: str | None = None):
        """Wrap ``fn`` so that every call adds one to ``counts[name]``, and one
        to ``counts[inside_name]`` while a span called ``inside`` is open."""
        counts, open_names = self.counts, self.open

        def wrapped(*args, **kwargs):
            counts[name] += 1
            if inside is not None and open_names[inside]:
                counts[inside_name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def to_json(self) -> dict:
        return {
            "op_id": self.op_id,
            "spans": [[s.name, s.start_ns, s.end_ns, s.parent] for s in self.spans],
            "counts": dict(self.counts),
        }


def spans_from_json(rows, op_id: str, parent_offset: int = 0, root: int | None = None) -> list[Span]:
    """Spans written by ``SpanRecorder.to_json``; roots are re-parented to ``root``
    and parent indices shifted by ``parent_offset``."""
    out = []
    for name, start, end, parent in rows:
        out.append(Span(name, int(start), int(end),
                        root if parent is None else int(parent) + parent_offset, op_id))
    return out


# -- python -X importtime ----------------------------------------------------------

_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s*(\S.*?)\s*$")


@dataclass(frozen=True)
class ImportEntry:
    module: str
    self_us: int
    cumulative_us: int


def parse_importtime(text: str) -> list[ImportEntry]:
    """Entries of ``python -X importtime`` output (stderr), in output order.

    Lines that are not import-time records, including the header, are skipped.
    """
    out = []
    for line in text.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            out.append(ImportEntry(m.group(3), int(m.group(1)), int(m.group(2))))
    return out


def cumulative_import_s(entries: list[ImportEntry], module: str) -> float:
    """Cumulative import time of ``module`` in seconds; 0.0 if it was not imported."""
    for e in entries:
        if e.module == module:
            return e.cumulative_us / 1e6
    return 0.0
