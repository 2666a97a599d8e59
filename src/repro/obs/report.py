"""Telemetry summaries on disk: load, merge, rank and diff.

The artifact side of :mod:`repro.obs.telemetry`: a fleet run writes one
``*.telemetry.json`` sidecar beside its artifact, campaigns and sharded
fleets one beside each cell or shard artifact, and the ``repro obs top``
/ ``repro obs diff`` commands consume either — a single summary file or
a run directory whose sidecars are merged on the fly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.obs.log import get_logger
from repro.obs.telemetry import Telemetry
from repro.util.files import atomic_write_text

_log = get_logger("obs")

PathLike = Union[str, Path]


class ObsError(RuntimeError):
    """Raised for missing or malformed telemetry artifacts."""


def merge_summaries(summaries: Iterable[dict]) -> dict:
    """Fold many telemetry summaries into one (span/counter/hist sums)."""
    merged = Telemetry(enabled=True)
    for summary in summaries:
        merged.merge_summary(summary)
    return merged.summary()


def _load_summary_file(path: Path) -> dict:
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ObsError(f"no telemetry artifact at {path}") from None
    except json.JSONDecodeError as error:
        raise ObsError(f"{path}: malformed telemetry JSON: {error}") from error
    if not isinstance(record, dict) or "spans" not in record:
        raise ObsError(
            f"{path}: not a telemetry summary (no 'spans' section)"
        )
    return record


def load_telemetry(path: PathLike) -> dict:
    """One telemetry summary from a file or a run directory.

    A directory may be a run output root — every ``*.telemetry.json``
    sidecar beside the artifacts (a fleet run's) and beside the stored
    items under ``cells/`` or ``shards/`` (a campaign's or a sharded
    fleet's) is merged — or a directory of plain summaries (its
    ``*.json`` files are merged).  A file must be a summary written by
    :func:`write_telemetry` (or a campaign cell / fleet shard sidecar).
    """
    # Imported here: the campaign package imports this module.
    from repro.campaign.store import KINDS

    target = Path(path)
    if target.is_dir():
        files = sorted(target.glob("*.telemetry.json"))
        for item_dir, _ in KINDS.values():
            files += sorted((target / item_dir).glob("*.telemetry.json"))
        if not files:
            # Fallback: a directory of plain summaries (manifests and
            # merged fleet artifacts are not summaries, keep the
            # friendly error for no-telemetry runs).
            files = sorted(
                f
                for f in target.glob("*.json")
                if f.name not in ("manifest.json", "fleet.json")
            )
        if not files:
            raise ObsError(
                f"{target}: no telemetry summaries found "
                f"(was the run made with --telemetry?)"
            )
        # A corrupt or unreadable sidecar (torn write, stray file) costs
        # one counted warning, not the whole merge — but if *nothing*
        # loads the caller still gets a loud error.
        summaries: List[dict] = []
        skipped = 0
        first_error: Optional[ObsError] = None
        for f in files:
            try:
                summaries.append(_load_summary_file(f))
            except ObsError as error:
                skipped += 1
                if first_error is None:
                    first_error = error
        if skipped:
            _log.warning(
                "%s: skipped %d unreadable telemetry summar%s (first: %s)",
                target,
                skipped,
                "y" if skipped == 1 else "ies",
                first_error,
            )
        if not summaries:
            raise ObsError(
                f"{target}: all {skipped} telemetry summaries unreadable "
                f"(first: {first_error})"
            )
        return merge_summaries(summaries)
    return _load_summary_file(target)


def write_telemetry(summary: dict, path: PathLike) -> Path:
    """Write one summary as canonical JSON (sorted keys, trailing newline)."""
    text = json.dumps(summary, sort_keys=True, separators=(",", ": "), indent=1)
    return atomic_write_text(path, text + "\n")


def sidecar_path(artifact_path: PathLike) -> Path:
    """Telemetry sidecar filename for a run artifact.

    ``fleet.json`` -> ``fleet.telemetry.json``; non-JSON names get the
    suffix appended.  Keeping telemetry out of the artifact itself is
    what preserves the byte-identity guarantee — wall-clock data can
    never leak into deterministic outputs.
    """
    target = Path(artifact_path)
    if target.suffix == ".json":
        return target.with_name(target.stem + ".telemetry.json")
    return target.with_name(target.name + ".telemetry.json")


# ------------------------------------------------------------------ ranking
def top_rows(
    summary: dict, limit: Optional[int] = 15
) -> Tuple[List[str], List[list]]:
    """``(headers, rows)`` of the hottest spans, by total time descending."""
    spans = summary.get("spans", {})
    total_all = sum(float(r["total_s"]) for r in spans.values()) or 1.0
    ordered = sorted(
        spans.items(), key=lambda item: (-float(item[1]["total_s"]), item[0])
    )
    if limit is not None:
        ordered = ordered[:limit]
    rows = []
    for name, record in ordered:
        total_s = float(record["total_s"])
        count = int(record["count"])
        rows.append(
            [
                name,
                count,
                1000.0 * total_s,
                1e6 * total_s / count if count else 0.0,
                100.0 * total_s / total_all,
            ]
        )
    return ["span", "count", "total (ms)", "mean (us)", "share %"], rows


def filter_summary(
    summary: dict, span_prefix: str, counter_prefix: str
) -> dict:
    """A copy of ``summary`` keeping only matching spans and counters.

    Backs ``repro obs top --events``: with the engine's per-label
    instrumentation (``sim.event.*`` spans, ``sim.events.*`` counters)
    this isolates where simulated-event time actually goes.  Share
    percentages downstream are then relative to the filtered set.
    """
    filtered = dict(summary)
    filtered["spans"] = {
        name: record
        for name, record in summary.get("spans", {}).items()
        if name.startswith(span_prefix)
    }
    filtered["counters"] = {
        name: value
        for name, value in summary.get("counters", {}).items()
        if name.startswith(counter_prefix)
    }
    return filtered


def counter_rows(
    summary: dict, limit: Optional[int] = None
) -> Tuple[List[str], List[list]]:
    """``(headers, rows)`` of counters, by value descending."""
    counters = summary.get("counters", {})
    ordered = sorted(counters.items(), key=lambda item: (-item[1], item[0]))
    if limit is not None:
        ordered = ordered[:limit]
    return ["counter", "value"], [[name, value] for name, value in ordered]


def diff_rows(
    a: dict, b: dict, limit: Optional[int] = None
) -> Tuple[List[str], List[list]]:
    """Span-by-span comparison of two summaries.

    Rows are ordered by the larger of the two totals; the ratio column
    is ``b / a`` ("-" when the span exists on one side only).
    """
    spans_a: Dict[str, dict] = a.get("spans", {})
    spans_b: Dict[str, dict] = b.get("spans", {})
    names = sorted(
        set(spans_a) | set(spans_b),
        key=lambda name: -max(
            float(spans_a.get(name, {}).get("total_s", 0.0)),
            float(spans_b.get(name, {}).get("total_s", 0.0)),
        ),
    )
    if limit is not None:
        names = names[:limit]
    rows = []
    for name in names:
        total_a = float(spans_a[name]["total_s"]) if name in spans_a else None
        total_b = float(spans_b[name]["total_s"]) if name in spans_b else None
        ratio = (
            f"{total_b / total_a:.2f}x"
            if total_a and total_b is not None
            else "-"
        )
        rows.append(
            [
                name,
                1000.0 * total_a if total_a is not None else "-",
                1000.0 * total_b if total_b is not None else "-",
                ratio,
            ]
        )
    return ["span", "A total (ms)", "B total (ms)", "B/A"], rows
