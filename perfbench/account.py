"""The benchmark's own arithmetic: exclusive time, percentiles, failures.

Everything here is a pure function over plain numbers so the tests in
this directory can pin it without spawning a CLI process.

Exclusive ("self") time
-----------------------
A span is ``(span_id, parent_id, name, start_ns, end_ns)``.  Spans from
forked pool workers name the main-process span that was open at fork time
(``execute_pooled``) as their parent, so one run's spans form one tree
across processes.

Within one process a span's self time is its duration minus the union
of its children.  Across processes two innermost spans can run at the
same instant (two workers on two CPUs); each then gets an equal share
of that instant.  With that processor-sharing rule every nanosecond of
the traced wall belongs to exactly one place — a span's self time or
the ``unattributed`` row — so ``sum(self) + unattributed == wall``
holds exactly, and in a single process the rule reduces to "duration
minus the union of the children".
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[int, int, str, int, int]

#: A percentile is reported only when at least this many samples lie
#: beyond it.
TAIL_SAMPLES = 10


def exclusive_times(
    spans: Iterable[Span], wall_start: int, wall_end: int
) -> Tuple[Dict[int, float], float]:
    """Per-span exclusive time and the unattributed rest, in ns.

    Returns ``(self_by_span_id, unattributed)``.  Spans are clipped to
    ``[wall_start, wall_end]``.  At each instant the innermost active
    spans — active spans with no active child in any process — share
    the instant equally; an instant with no active span is
    unattributed.
    """
    parent_of: Dict[int, int] = {}
    events: List[Tuple[int, int, int]] = []
    for span_id, parent_id, _name, start, end in spans:
        start = max(start, wall_start)
        end = min(end, wall_end)
        parent_of[span_id] = parent_id
        if end > start:
            events.append((start, 1, span_id))
            events.append((end, 0, span_id))
    events.sort()
    self_ns: Dict[int, float] = {span_id: 0.0 for span_id in parent_of}
    active_children: Counter = Counter()
    active = set()
    innermost = set()
    unattributed = 0.0
    previous = wall_start
    for time, is_start, span_id in events:
        gap = time - previous
        if gap > 0:
            if innermost:
                share = gap / len(innermost)
                for inner in innermost:
                    self_ns[inner] += share
            else:
                unattributed += gap
            previous = time
        parent = parent_of[span_id]
        if is_start:
            active.add(span_id)
            if not active_children[span_id]:
                innermost.add(span_id)
            active_children[parent] += 1
            innermost.discard(parent)
        else:
            active.discard(span_id)
            innermost.discard(span_id)
            active_children[parent] -= 1
            if not active_children[parent] and parent in active:
                innermost.add(parent)
    unattributed += max(0, wall_end - previous)
    return self_ns, unattributed


def self_by_name(
    spans: Sequence[Span], self_ns: Dict[int, float]
) -> Dict[str, float]:
    """Exclusive time summed per span name (ns)."""
    totals: Dict[str, float] = {}
    for span_id, _parent, name, _start, _end in spans:
        totals[name] = totals.get(name, 0.0) + self_ns.get(span_id, 0.0)
    return totals


def tail_percentile(n: int, beyond: int = TAIL_SAMPLES) -> Optional[int]:
    """The highest whole percentile above the median with ``beyond``
    samples past it, or ``None`` when ``n`` samples leave only the
    median reportable.

    With nearest-rank percentiles, ``n - ceil(q * n / 100)`` samples lie
    beyond the ``q``-th, so the answer is ``floor(100 * (n - beyond) /
    n)`` when that is above 50.
    """
    if n <= beyond:
        return None
    q = (100 * (n - beyond)) // n
    return q if q > 50 else None


def percentile(values: Sequence[float], q: int) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) / 100))
    return ordered[rank - 1]


def timing_summary(values: Sequence[float]) -> Dict[str, float]:
    """Median plus the tail percentile the sample count supports.

    ``tail_pct`` is 50 (and ``tail`` the median) when too few samples
    exist for any higher percentile; ``n`` is the sample count.
    """
    if not values:
        return {"n": 0, "p50": 0.0, "tail": 0.0, "tail_pct": 50}
    median = statistics.median(values)
    q = tail_percentile(len(values))
    return {
        "n": len(values),
        "p50": median,
        "tail": percentile(values, q) if q is not None else median,
        "tail_pct": q if q is not None else 50,
    }


def count_failures(outcomes: Iterable[Tuple[int, bool]]) -> Tuple[int, int]:
    """``(attempted, failed)`` over ``(operations, passed_checks)`` per run.

    One operation is a fleet run, a shard or a cell.  A CLI run that
    failed an output check counts every one of its operations as
    failed; a run that passed has none failed, because its checks
    require every user, shard and cell to be complete.
    """
    attempted = failed = 0
    for operations, passed in outcomes:
        attempted += operations
        failed += 0 if passed else operations
    return attempted, failed


def digest_outliers(digests: Sequence[Optional[str]]) -> List[bool]:
    """Which runs disagree with the set's majority artifact digest.

    Runs of one seed must produce identical bytes.  The most common
    digest (the earliest on a tie) is taken as the reference; a run
    with another digest, or none, is flagged.
    """
    present = [digest for digest in digests if digest is not None]
    if not present:
        return [True] * len(digests)
    counts = Counter(present)
    best = max(counts.values())
    reference = next(d for d in present if counts[d] == best)
    return [digest != reference for digest in digests]
