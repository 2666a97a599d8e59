"""Turn one traced CLI run's span files into the per-layer metrics.

Layers are named after ``src/repro`` modules.  ``*_ms_per_user_s`` is
exclusive time per simulated user-second; ``*_ms`` is per run; plain
nouns are exact counts.  The account closes against the traced wall:
the exclusive times of every span (the reported layers plus the pool
tasks' own code and the tracer's wrappers and flushes) and
``unattributed_ms`` add up to it.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple

from perfbench import account
from perfbench.tracer import FIELDS

#: (metric, unit) in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("cli.import_ms", "ms"),
    ("cli.teardown_ms", "ms"),
    ("obs.ledger_ms", "ms"),
    ("fleet.spec.ms", "ms"),
    ("fleet.spec.users_scanned", "count"),
    ("fleet.spec.scan_useful_frac", "frac"),
    ("fleet.runner.build_ms", "ms"),
    ("fleet.runner.write_ms", "ms"),
    ("fleet.runner.bytes_written", "bytes"),
    ("fleet.metrics.ms", "ms"),
    ("fleet.store.write_ms", "ms"),
    ("fleet.store.bytes_written", "bytes"),
    ("campaign.store.write_ms", "ms"),
    ("campaign.store.files", "count"),
    ("campaign.runner.task_ms.p50", "ms"),
    ("campaign.runner.task_ms.tail", "ms"),
    ("campaign.runner.task_ms.tail_pct", "pct"),
    ("campaign.runner.tasks", "count"),
    ("campaign.runner.tasks_failed", "count"),
    ("campaign.runner.task_self_ms", "ms"),
    ("campaign.runner.pool_overhead_ms", "ms"),
    ("campaign.runner.worker_busy_frac", "frac"),
    ("sim.engine.self_ms_per_user_s", "ms/user-s"),
    ("sim.engine.events", "count"),
    ("sim.engine.us_per_event", "us"),
    ("net.deployment.self_ms_per_user_s", "ms/user-s"),
    ("net.deployment.bursts_measured", "count"),
    ("net.deployment.bursts_declined", "count"),
    ("net.deployment.bursts_skipped_busy", "count"),
    ("net.cell_index.pruned_frac", "frac"),
    ("net.link_engine.self_ms_per_user_s", "ms/user-s"),
    ("net.link_engine.rows", "count"),
    ("net.link_engine.dwells", "count"),
    ("phy.channel.self_ms_per_user_s", "ms/user-s"),
    ("phy.channel.link_init_ms", "ms"),
    ("phy.channel.links", "count"),
    ("phy.gains.self_ms_per_user_s", "ms/user-s"),
    ("mobility.self_ms_per_user_s", "ms/user-s"),
    ("mobility.poses", "count"),
    ("core.self_ms_per_user_s", "ms/user-s"),
    ("core.callbacks", "count"),
    ("core.handovers", "count"),
    ("core.handovers_failed", "count"),
    ("core.soft_ho_frac", "frac"),
    ("trace.flush_ms", "ms"),
    ("trace.wrap_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("trace.overhead_frac", "frac"),
)

#: Span name -> metric carrying its exclusive time per run, in ms.
_MS = {
    "cli.import": "cli.import_ms",
    "cli.teardown": "cli.teardown_ms",
    "obs.ledger": "obs.ledger_ms",
    "fleet.spec": "fleet.spec.ms",
    "fleet.runner.build": "fleet.runner.build_ms",
    "fleet.runner.write": "fleet.runner.write_ms",
    "fleet.metrics": "fleet.metrics.ms",
    "fleet.store.write": "fleet.store.write_ms",
    "campaign.store.write": "campaign.store.write_ms",
    "campaign.runner.task": "campaign.runner.task_self_ms",
    "campaign.runner.pool": "campaign.runner.pool_overhead_ms",
    "phy.channel.link_init": "phy.channel.link_init_ms",
}

#: Span name -> metric carrying its exclusive time per simulated user-second.
_PER_USER_S = {
    "sim.engine": "sim.engine.self_ms_per_user_s",
    "net.deployment": "net.deployment.self_ms_per_user_s",
    "net.link_engine": "net.link_engine.self_ms_per_user_s",
    "phy.channel": "phy.channel.self_ms_per_user_s",
    "phy.gains": "phy.gains.self_ms_per_user_s",
    "mobility": "mobility.self_ms_per_user_s",
    "core": "core.self_ms_per_user_s",
}

#: Counters copied through unchanged.
_COUNTS = (
    "fleet.spec.users_scanned",
    "fleet.runner.bytes_written",
    "fleet.store.bytes_written",
    "campaign.store.files",
    "campaign.runner.tasks_failed",
    "sim.engine.events",
    "net.deployment.bursts_measured",
    "net.deployment.bursts_declined",
    "net.deployment.bursts_skipped_busy",
    "net.link_engine.rows",
    "net.link_engine.dwells",
    "phy.channel.links",
    "mobility.poses",
)

IMPORT_ID = -1
TEARDOWN_ID = -2
#: Set in the id of a record's ``trace.wrap`` span (record ids are
#: ``pid << 32 | seq`` with ``seq`` far below ``2**31``).
WRAP_BIT = 1 << 31


def load(trace_dir: Path) -> Tuple[List[account.Span], Counter, Dict[int, dict]]:
    """Read every span file a traced run left: spans, counters, metas."""
    spans: List[account.Span] = []
    counters: Counter = Counter()
    metas: Dict[int, dict] = {}
    for path in sorted(trace_dir.glob("trace-*.bin")):
        data = path.read_bytes()
        size = int.from_bytes(data[-8:], "little")
        header = json.loads(data[-8 - size:-8])
        records = array("q")
        records.frombytes(data[: -8 - size])
        spans.extend(expand_records(records, header["names"]))
        flush_id, parent, start, end = header["flush"]
        spans.append((flush_id, parent, "trace.flush", start, end))
        counters.update(header["counters"])
        if header["meta"]:
            metas[header["pid"]] = header["meta"]
    return spans, counters, metas


def expand_records(records: Sequence[int], names: List[str]) -> Iterator[account.Span]:
    """Spans of flat tracer records, each wrapper gap its own span.

    A record ``(id, parent, name, entered, start, end, left)`` becomes
    a ``trace.wrap`` span over ``[entered, left]`` under ``parent`` and
    the layer's span over ``[start, end]`` under it, so the wrapper's
    book-keeping is charged to ``trace.wrap``, not to the caller.
    """
    for span_id, parent, name, entered, start, end, left in zip(
        *(records[field::FIELDS] for field in range(FIELDS))
    ):
        if entered < start or end < left:
            wrap_id = span_id | WRAP_BIT
            yield (wrap_id, parent, "trace.wrap", entered, left)
            parent = wrap_id
        yield (span_id, parent, names[name], start, end)


def with_process_edges(
    spans: List[account.Span], spawned: int, entered: int, done: int, exited: int
) -> List[account.Span]:
    """Add the CLI process's import and teardown intervals as spans.

    ``cli.import`` runs from spawn to the entry of ``repro.cli.main``
    (the tracer's own installation nests inside it); ``cli.teardown``
    from the final span flush to process exit.
    """
    edged = [
        (span_id, IMPORT_ID if name == "trace.install" else parent, name, start, end)
        for span_id, parent, name, start, end in spans
    ]
    edged.append((IMPORT_ID, 0, "cli.import", spawned, entered))
    edged.append((TEARDOWN_ID, 0, "cli.teardown", done, exited))
    return edged


def metrics(
    spans: List[account.Span],
    counters: Counter,
    wall: Tuple[int, int],
    user_seconds: float,
    handovers: Dict[str, int],
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics and the account rows (ms per span name).

    ``trace.overhead_frac`` needs the untraced wall and is left to the
    caller.
    """
    self_ns, unattributed = account.exclusive_times(spans, *wall)
    by_name = account.self_by_name(spans, self_ns)
    span_counts = Counter(name for _, _, name, _, _ in spans)
    tasks = [
        (end - start) / 1e6
        for _, _, name, start, end in spans
        if name == "campaign.runner.task"
    ]
    out: Dict[str, float] = {}
    for name, metric in _MS.items():
        out[metric] = by_name.get(name, 0.0) / 1e6
    for name, metric in _PER_USER_S.items():
        out[metric] = by_name.get(name, 0.0) / 1e6 / user_seconds
    for name in _COUNTS:
        out[name] = counters.get(name, 0)
    out["trace.flush_ms"] = (
        by_name.get("trace.flush", 0.0) + by_name.get("trace.install", 0.0)
    ) / 1e6
    out["trace.wrap_ms"] = by_name.get("trace.wrap", 0.0) / 1e6
    scanned = counters.get("fleet.spec.users_scanned", 0)
    out["fleet.spec.scan_useful_frac"] = (
        counters.get("fleet.spec.users_kept", 0) / scanned if scanned else 0.0
    )
    summary = account.timing_summary(tasks)
    out["campaign.runner.task_ms.p50"] = summary["p50"]
    out["campaign.runner.task_ms.tail"] = summary["tail"]
    out["campaign.runner.task_ms.tail_pct"] = summary["tail_pct"]
    out["campaign.runner.tasks"] = summary["n"]
    lanes = counters.get("campaign.runner.pool_lane_ns", 0)
    out["campaign.runner.worker_busy_frac"] = (
        sum(tasks) * 1e6 / lanes if lanes else 0.0
    )
    events = counters.get("sim.engine.events", 0)
    out["sim.engine.us_per_event"] = (
        by_name.get("sim.engine", 0.0) / 1e3 / events if events else 0.0
    )
    measured = counters.get("net.deployment.bursts_measured", 0)
    out["net.cell_index.pruned_frac"] = (
        1.0 - counters.get("net.link_engine.rows", 0) / measured
        if measured else 0.0
    )
    out["core.callbacks"] = span_counts.get("core", 0)
    out.update(handover_metrics(handovers))
    out["unattributed_ms"] = unattributed / 1e6
    rows = {name: total / 1e6 for name, total in by_name.items()}
    rows["(unattributed)"] = unattributed / 1e6
    return out, rows


def handover_metrics(handovers: Dict[str, int]) -> Dict[str, float]:
    """Handover totals read from an artifact, and the soft share."""
    soft = handovers.get("soft", 0)
    hard = handovers.get("hard", 0)
    failed = handovers.get("failed", 0)
    attempts = soft + hard + failed
    return {
        "core.handovers": soft + hard,
        "core.handovers_failed": failed,
        "core.soft_ho_frac": soft / attempts if attempts else 0.0,
    }
