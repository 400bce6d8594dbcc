"""In-memory span recording and the statistics the benchmark reports.

Nothing here imports the program under test: the recorder is fed by the
layer wrappers in ``layers.py`` and by the benchmark's own phase spans,
and the helpers below turn its spans into self times, entry counts and
percentiles.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

# A metric or workload name: letters, digits, '_', '.', '-'; it starts
# with a letter or digit and is at most 64 characters long.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ValueError."""
    if not isinstance(name, str) or METRIC_NAME.fullmatch(name) is None:
        raise ValueError(f"invalid metric name {name!r}")
    return name


@dataclass
class SpanRecorder:
    """Spans kept in parallel lists, written out only when a run ends.

    Each span has a name, a layer, a start, an end and the index of the
    span that was open when it started (``-1`` for a root).  The
    recorder belongs to one workload and one repetition, so those two
    fields are stored once rather than per span.
    """

    workload: str
    repetition: int = 0
    names: List[str] = field(default_factory=list)
    layers: List[str] = field(default_factory=list)
    starts: List[float] = field(default_factory=list)
    ends: List[float] = field(default_factory=list)
    parents: List[int] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    _stack: List[int] = field(default_factory=lambda: [-1])

    def open(self, name: str, layer: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        self.parents.append(self._stack[-1])
        self.ends.append(math.nan)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        if self._stack[-1] != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")
        self._stack.pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def __len__(self) -> int:
        return len(self.names)

    def rows(self) -> Iterable[Tuple]:
        """(index, name, layer, start, end, parent, workload, repetition)."""
        for i in range(len(self.names)):
            yield (
                i, self.names[i], self.layers[i], self.starts[i],
                self.ends[i], self.parents[i], self.workload, self.repetition,
            )


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> List[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append((starts[i], ends[i]))
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        kids = children.get(i)
        out.append((e - s) - (_covered(kids, s, e) if kids else 0.0))
    return out


def layer_totals(rec: SpanRecorder, selfs: Sequence[float]) -> Dict[str, Dict[str, float]]:
    """Per layer: summed self time, spans, entries and entry time.

    An *entry* is a span whose parent belongs to another layer (or is a
    root), so a layer function calling another function of the same
    layer counts once; ``entry_s`` sums the entries' whole durations.
    ``selfs`` is :func:`self_times` of the recorder.
    """
    out: Dict[str, Dict[str, float]] = {}
    for i, layer in enumerate(rec.layers):
        row = out.get(layer)
        if row is None:
            row = out[layer] = {"self_s": 0.0, "spans": 0, "entries": 0, "entry_s": 0.0}
        row["self_s"] += selfs[i]
        row["spans"] += 1
        p = rec.parents[i]
        if p < 0 or rec.layers[p] != layer:
            row["entries"] += 1
            row["entry_s"] += rec.ends[i] - rec.starts[i]
    return out


def root_wall(rec: SpanRecorder) -> float:
    """Summed duration of the root spans."""
    return sum(
        rec.ends[i] - rec.starts[i] for i, p in enumerate(rec.parents) if p < 0
    )


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def percentiles(values: Sequence[float], qs: Sequence[float] = (50, 99)) -> Dict[str, float]:
    """Percentiles with the sample count and, per percentile, how many
    samples lie above it (a tail percentile needs ten or more)."""
    out: Dict[str, float] = {"count": len(values)}
    for q in qs:
        p = percentile(values, q)
        key = f"p{q:g}"
        out[key] = p
        out[f"{key}_beyond"] = sum(1 for v in values if v > p)
    return out


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)
