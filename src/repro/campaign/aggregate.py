"""Aggregate campaign artifacts into the structures the figures consume.

The one-shot experiment entry points (``run_fig2a`` and friends) predate
the campaign subsystem, and everything downstream — ``repro.analysis``
tables, the markdown report, the benchmarks — consumes their return
shapes.  The aggregators here rebuild exactly those shapes from
``(cell, payload)`` pairs, whether the pairs come from an in-memory
:class:`~repro.campaign.runner.CampaignResult` or were loaded back from
a campaign directory written last week.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Tuple, Union

from repro.campaign.runner import decode_payload
from repro.campaign.spec import CampaignCell, CampaignSpec
from repro.campaign.store import ArtifactStore

PathLike = Union[str, Path]
ResultPairs = Iterable[Tuple[CampaignCell, dict]]


def load_campaign(out_dir: PathLike) -> Tuple[CampaignSpec, List[Tuple[CampaignCell, dict]]]:
    """``(spec, completed pairs)`` from a campaign artifact directory.

    Pairs come in manifest (grid) order; cells without an artifact are
    left out.
    """
    store = ArtifactStore(out_dir)
    manifest = store.manifest()
    pairs = []
    for entry in manifest["cells"]:
        if store.has(entry["cell_id"]):
            record = store.load(entry["cell_id"])
            pairs.append((CampaignCell.from_dict(record["cell"]), record["payload"]))
    return CampaignSpec.from_dict(manifest["spec"]), pairs


def decoded_trials(pairs: ResultPairs) -> List[Tuple[CampaignCell, object]]:
    """Decode every payload into its trial dataclass, keeping the cell."""
    return [
        (cell, decode_payload(cell.experiment, payload))
        for cell, payload in pairs
    ]


# ------------------------------------------------------------------- search
def aggregate_search(pairs: ResultPairs) -> Dict[str, Dict[str, dict]]:
    """Fig. 2a shape per scenario: ``{scenario: {codebook: {...}}}``.

    The inner dict matches :func:`repro.experiments.fig2a.run_fig2a`:
    ``success_rate``, ``latency`` summary over successful trials'
    dwell counts, and the full ``trials`` list.
    """
    from repro.analysis.stats import success_rate, summarize

    grouped: Dict[str, Dict[str, list]] = {}
    for cell, trial in decoded_trials(pairs):
        grouped.setdefault(cell.scenario, {}).setdefault(
            cell.protocol, []
        ).append(trial)
    results: Dict[str, Dict[str, dict]] = {}
    for scenario, by_codebook in grouped.items():
        results[scenario] = {}
        for codebook, trials in by_codebook.items():
            successes = [t for t in trials if t.success]
            results[scenario][codebook] = {
                "success_rate": success_rate(len(successes), len(trials)),
                "latency": summarize([float(t.dwells) for t in successes]),
                "trials": trials,
            }
    return results


# ----------------------------------------------------------------- tracking
def aggregate_tracking(pairs: ResultPairs) -> Dict[str, dict]:
    """Fig. 2c shape: ``{scenario: {...}}`` with completion-time stats."""
    from repro.net.handover import HandoverOutcome

    grouped: Dict[str, list] = {}
    for cell, trial in decoded_trials(pairs):
        grouped.setdefault(cell.scenario, []).append(trial)
    results: Dict[str, dict] = {}
    for scenario, trials in grouped.items():
        completed = [t for t in trials if t.completed]
        soft = [t for t in completed if t.outcome is HandoverOutcome.SOFT]
        results[scenario] = {
            "completion_times_s": [t.completion_time_s for t in completed],
            "completion_rate": len(completed) / len(trials),
            "soft_rate": (len(soft) / len(completed)) if completed else 0.0,
            "trials": trials,
        }
    return results


def aggregate_sweep(pairs: ResultPairs) -> Dict[str, list]:
    """Ablation shape: ``{override_label: [TrackingTrialResult, ...]}``."""
    grouped: Dict[str, list] = {}
    for cell, trial in decoded_trials(pairs):
        grouped.setdefault(cell.override_label, []).append(trial)
    return grouped


# --------------------------------------------------------------- comparison
def aggregate_by_protocol(pairs: ResultPairs) -> Dict[str, list]:
    """``{protocol arm: [trial, ...]}`` in grid order, any experiment kind."""
    grouped: Dict[str, list] = {}
    for cell, trial in decoded_trials(pairs):
        grouped.setdefault(cell.protocol, []).append(trial)
    return grouped


def aggregate_comparison(pairs: ResultPairs) -> Dict[str, list]:
    """Baseline-comparison shape: ``{protocol: [trial, ...]}``."""
    return aggregate_by_protocol(pairs)


# ----------------------------------------------------------------- workload
def aggregate_workload(pairs: ResultPairs) -> Dict[str, Dict[str, list]]:
    """Workload shape: ``{scenario: {policy: [trace, ...]}}`` (seed order)."""
    grouped: Dict[str, Dict[str, list]] = {}
    for cell, trace in decoded_trials(pairs):
        grouped.setdefault(cell.scenario, {}).setdefault(
            cell.protocol, []
        ).append(trace)
    return grouped


# ------------------------------------------------------------------ summary
def summarize_campaign(
    spec: CampaignSpec, pairs: ResultPairs
) -> Tuple[List[str], List[list]]:
    """``(headers, rows)`` for a per-arm summary table of any kind.

    One row per (scenario, protocol, override) arm with the headline
    number(s) for the experiment kind; feed straight into
    :func:`repro.analysis.tables.format_table`.
    """
    from repro.analysis.stats import summarize
    from repro.net.handover import HandoverOutcome

    arms: Dict[Tuple[str, str, str], list] = {}
    for cell, trial in decoded_trials(pairs):
        key = (cell.scenario, cell.protocol, cell.override_label)
        arms.setdefault(key, []).append(trial)

    headers = ["scenario", "protocol", "override", "cells"]
    rows: List[list] = []
    if spec.experiment == "search":
        headers += ["success %", "mean dwells"]
        for (scenario, protocol, label), trials in arms.items():
            successes = [t for t in trials if t.success]
            latency = summarize([float(t.dwells) for t in successes])
            rows.append(
                [
                    scenario,
                    protocol,
                    label,
                    len(trials),
                    100.0 * len(successes) / len(trials),
                    latency["mean"] if latency["count"] else "-",
                ]
            )
    elif spec.experiment == "tracking":
        headers += ["completion", "soft", "p50 (s)"]
        for (scenario, protocol, label), trials in arms.items():
            completed = [t for t in trials if t.completed]
            soft = [t for t in completed if t.outcome is HandoverOutcome.SOFT]
            times = summarize([t.completion_time_s for t in completed])
            rows.append(
                [
                    scenario,
                    protocol,
                    label,
                    len(trials),
                    len(completed) / len(trials),
                    (len(soft) / len(completed)) if completed else 0.0,
                    times["p50"] if times["count"] else "-",
                ]
            )
    elif spec.experiment == "comparison":
        headers += ["completed", "soft", "hard", "mean interruption (s)"]
        for (scenario, protocol, label), trials in arms.items():
            completed = [t for t in trials if t.handovers_completed > 0]
            interruptions = [
                t.first_interruption_s
                for t in completed
                if t.first_interruption_s is not None
            ]
            rows.append(
                [
                    scenario,
                    protocol,
                    label,
                    len(trials),
                    len(completed),
                    sum(t.soft_handovers for t in trials),
                    sum(t.hard_handovers for t in trials),
                    sum(interruptions) / len(interruptions)
                    if interruptions
                    else "-",
                ]
            )
    elif spec.experiment == "fleet":
        headers += [
            "users",
            "handovers",
            "p50 search (s)",
            "p90 outage frac",
        ]
        for (scenario, protocol, label), trials in arms.items():
            totals = [t.aggregates["totals"] for t in trials]
            searches = [
                x for t in trials for u in t.users for x in u.search_latencies_s
            ]
            outages = [u.outage_fraction for t in trials for u in t.users]
            search_summary = summarize(searches)
            outage_summary = summarize(outages)
            rows.append(
                [
                    scenario,
                    protocol,
                    label,
                    len(trials),
                    sum(t["users"] for t in totals),
                    sum(t["handovers_completed"] for t in totals),
                    search_summary.get("p50", "-"),
                    outage_summary.get("p90", "-"),
                ]
            )
    elif spec.experiment == "workload":
        headers += ["mean duty cycle", "points"]
        from repro.experiments.workloads import detection_duty_cycle

        for (scenario, protocol, label), traces in arms.items():
            duties = [detection_duty_cycle(trace) for trace in traces]
            rows.append(
                [
                    scenario,
                    protocol,
                    label,
                    len(traces),
                    sum(duties) / len(duties),
                    sum(len(trace) for trace in traces),
                ]
            )
    return headers, rows
