"""Arithmetic of the benchmark: percentiles, ratios and self time.

Kept free of any import from the program under test so it can be checked on
its own (``python3 -m pytest perfbench``).
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


# ---------------------------------------------------------------- percentiles
def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` sorted samples lie strictly above the ``pct`` rank.

    The nearest-rank ``pct`` percentile is the sample at 1-based rank
    ``ceil(pct / 100 * count)``; every sample after that rank lies beyond it.
    """
    if count <= 0:
        return 0
    return count - max(1, math.ceil(pct / 100.0 * count))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in (0, 100]) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"pct must lie in (0, 100], got {pct}")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


@dataclass(frozen=True)
class Percentile:
    """A percentile together with the sample it was taken from."""

    pct: float
    value: float
    count: int
    beyond: int

    @property
    def supported(self) -> bool:
        """Whether at least :data:`MIN_BEYOND` samples lie beyond the value."""
        return self.beyond >= MIN_BEYOND

    def describe(self, unit: str) -> str:
        note = "" if self.supported else f", UNSUPPORTED: fewer than {MIN_BEYOND} beyond"
        return f"p{self.pct:g} {self.value:.6g} {unit} (n={self.count}, {self.beyond} beyond{note})"


def percentile_of(values: Sequence[float], pct: float) -> Percentile:
    """``pct`` percentile of ``values`` with its sample count and tail size."""
    return Percentile(
        pct=pct,
        value=percentile(values, pct),
        count=len(values),
        beyond=samples_beyond(len(values), pct),
    )


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def geometric_mean(values: Sequence[float]) -> float:
    if not values or any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


# --------------------------------------------------------------------- ratios
@dataclass(frozen=True)
class Ratio:
    """A ratio that always travels with its numerator and base."""

    numerator: float
    base: float

    @property
    def value(self) -> float:
        return self.numerator / self.base if self.base else 0.0

    def describe(self) -> str:
        return f"{self.value:.6g} (= {self.numerator:g} / {self.base:g})"


# ------------------------------------------------------------------ self time
Interval = Tuple[float, float]


def covered_length(intervals: Iterable[Interval], clip: Optional[Interval] = None) -> float:
    """Length of the union of ``intervals``, optionally clipped to ``clip``.

    Overlapping intervals count once: two children that ran at the same time
    on different threads or processes cover their union, not their sum.
    """
    pieces = []
    for start, end in intervals:
        if clip is not None:
            start, end = max(start, clip[0]), min(end, clip[1])
        if end > start:
            pieces.append((start, end))
    pieces.sort()
    total = 0.0
    run_start = run_end = None
    for start, end in pieces:
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_time(parent: Interval, children: Iterable[Interval]) -> float:
    """Duration of ``parent`` minus the part of it its children cover.

    Children are clipped to the parent interval first, so a child stamped by
    another process whose clock reads slightly outside the parent cannot make
    self time negative.
    """
    return max(0.0, (parent[1] - parent[0]) - covered_length(children, clip=parent))


# ---------------------------------------------------------------------- spans
@dataclass
class Span:
    span_id: str
    parent_id: Optional[str]
    name: str
    start: float
    duration: float
    attrs: Dict[str, object]

    @property
    def interval(self) -> Interval:
        return (self.start, self.start + self.duration)


class SpanTree:
    """Spans read back from a JSONL trace sink, indexed by parent."""

    def __init__(self, spans: Sequence[Span], malformed: int = 0) -> None:
        self.spans = list(spans)
        self.malformed = malformed
        self.by_id = {span.span_id: span for span in self.spans}
        self.children: Dict[str, List[Span]] = {}
        for span in self.spans:
            if span.parent_id is not None:
                self.children.setdefault(span.parent_id, []).append(span)

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "SpanTree":
        spans, malformed = [], 0
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
                spans.append(
                    Span(
                        span_id=str(event["span_id"]),
                        parent_id=event.get("parent_id"),
                        name=str(event["name"]),
                        start=float(event["ts"]),
                        duration=float(event["dur_s"]),
                        attrs=dict(event.get("attrs") or {}),
                    )
                )
            except (ValueError, KeyError, TypeError):
                malformed += 1
        return cls(spans, malformed)

    @classmethod
    def from_file(cls, path: str) -> "SpanTree":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_lines(handle)

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def orphans(self) -> List[Span]:
        """Spans naming a parent that never reached the sink."""
        return [
            span
            for span in self.spans
            if span.parent_id is not None and span.parent_id not in self.by_id
        ]

    def descendants(self, span: Span, name: str) -> List[Span]:
        """Spans called ``name`` below ``span``, not descending into matches."""
        found: List[Span] = []
        stack = list(self.children.get(span.span_id, ()))
        while stack:
            child = stack.pop()
            if child.name == name:
                found.append(child)
            else:
                stack.extend(self.children.get(child.span_id, ()))
        return found

    def ancestor(self, span: Span, match: Callable[[Span], bool]) -> Optional[Span]:
        """Closest enclosing span for which ``match`` holds."""
        parent_id = span.parent_id
        while parent_id is not None:
            parent = self.by_id.get(parent_id)
            if parent is None:
                return None
            if match(parent):
                return parent
            parent_id = parent.parent_id
        return None

    def self_time(self, span: Span, child_name: Optional[str] = None) -> float:
        """``span``'s duration minus what its children (or named descendants) cover."""
        if child_name is None:
            children = self.children.get(span.span_id, ())
        else:
            children = self.descendants(span, child_name)
        return self_time(span.interval, (child.interval for child in children))

    def top_level(self, name: str) -> List[Span]:
        """Spans called ``name`` with no enclosing span of the same name."""
        return [
            span
            for span in self.named(name)
            if self.ancestor(span, lambda parent: parent.name == name) is None
        ]
