"""In-memory span store, self-time arithmetic and latency statistics.

A span records a name, a start and end time, the span that was open on the
same thread when it began (its parent) and the operation it belongs to.
Spans stay in memory, in flat typed arrays, until the run ends; the layer
totals are computed from them afterwards.
"""

from __future__ import annotations

import threading
import time
from array import array
from collections import defaultdict

#: Candidate percentiles for the tail latency, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)


class SpanStore:
    """Spans of one traced run, plus counters recorded at the same boundaries."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.thread = array("q")
        self.counters: dict[str, float] = defaultdict(float)
        self.marks: dict[str, float] = {}
        #: Operation id stamped on every span opened while it is set.
        self.current_op = -1
        self._local = threading.local()
        # Appends to the parallel arrays must not interleave across threads.
        self._lock = threading.Lock()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def open(self, name_id: int) -> int:
        """Open a span on the calling thread and return its index."""
        stack = self._stack()
        with self._lock:
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.thread.append(threading.get_ident())
            self.end.append(0.0)
            self.start.append(self.clock())
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack().pop()

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its children cover."""
        return self_times(self.start, self.end, self.parent)


def self_times(starts, ends, parents) -> list[float]:
    """Self time of every span: its interval minus the union of its
    children's intervals, each child clipped to the parent.

    Children may overlap each other or outlast their parent; the union
    counts shared time once and time outside the parent not at all.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = [ends[i] - starts[i] for i in range(len(starts))]
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        covered = 0.0
        cur_start = cur_end = None
        for s, e in sorted((max(starts[k], lo), min(ends[k], hi)) for k in kids):
            if e <= s:
                continue
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            elif e > cur_end:
                cur_end = e
        if cur_end is not None:
            covered += cur_end - cur_start
        out[p] -= covered
    return out


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def tail_percentile(values, ceiling: float = 100.0) -> tuple[float, float]:
    """The highest percentile of :data:`TAIL_LADDER`, at most ``ceiling``,
    with at least ten samples beyond it, as ``(percentile, value)``.

    The value is the nearest-rank sample: rank ``ceil(p/100 * N)``, so
    ``N - rank`` samples lie beyond it.  Raises when fewer than 20
    samples leave even the median without ten beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = max(1, -(-round(p * 10) * n // 1000))  # exact ceil(p/100 * n)
        if p <= ceiling and n - rank >= 10:
            return p, ordered[rank - 1]
    raise ValueError(f"{n} samples leave no percentile with ten beyond it")
