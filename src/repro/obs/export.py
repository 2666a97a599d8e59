"""Chrome trace-event export: spans + simulation traces -> Perfetto.

Converts a run's :class:`~repro.obs.telemetry.Telemetry` span intervals
(wall-clock) and its :class:`~repro.sim.trace.TraceRecorder` events
(simulated time) into the Chrome trace-event JSON format, loadable in
Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.

The two time bases cannot share an axis, so the export uses two trace
"processes":

* pid 1 — **wall clock**: one complete ("X") event per recorded span
  interval; nesting renders as flame-graph stacking.
* pid 2 — **simulated time**: one instant ("i") event per trace-recorder
  event, one thread row per emitting node.

The telemetry hub must have been created with ``record_events=True`` for
span intervals to exist; aggregate-only hubs export counters metadata
but an empty span track.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs.telemetry import Telemetry
from repro.util.files import atomic_write_text

#: Trace-process ids for the two time bases.
SPAN_PID = 1
SIM_PID = 2


def _json_safe(value):
    """Primitive passthrough; everything else renders as its ``str``."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def chrome_trace_events(
    telemetry: Optional[Telemetry] = None,
    trace=None,
) -> List[dict]:
    """The ``traceEvents`` list for one run.

    ``trace`` is a :class:`~repro.sim.trace.TraceRecorder` (or anything
    with an ``events`` list of objects exposing ``time``, ``category``,
    ``node`` and ``data``).
    """
    events: List[dict] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": SPAN_PID,
            "tid": 0,
            "args": {"name": "telemetry spans (wall clock)"},
        },
        {
            "ph": "M",
            "name": "process_name",
            "pid": SIM_PID,
            "tid": 0,
            "args": {"name": "simulation trace (simulated time)"},
        },
    ]
    if telemetry is not None:
        for name, start_s, duration_s in telemetry.span_events():
            events.append(
                {
                    "ph": "X",
                    "name": name,
                    "cat": "span",
                    "ts": start_s * 1e6,
                    "dur": duration_s * 1e6,
                    "pid": SPAN_PID,
                    "tid": 1,
                }
            )
    if trace is not None:
        tids: Dict[str, int] = {}
        for event in trace.events:
            tid = tids.get(event.node)
            if tid is None:
                tid = tids[event.node] = len(tids) + 1
                events.append(
                    {
                        "ph": "M",
                        "name": "thread_name",
                        "pid": SIM_PID,
                        "tid": tid,
                        "args": {"name": event.node},
                    }
                )
            events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "name": event.category,
                    "cat": "trace",
                    "ts": event.time * 1e6,
                    "pid": SIM_PID,
                    "tid": tid,
                    "args": {
                        key: _json_safe(value)
                        for key, value in event.data.items()
                    },
                }
            )
    return events


def chrome_trace(
    telemetry: Optional[Telemetry] = None,
    trace=None,
) -> dict:
    """Full Chrome trace document (object form, ``displayTimeUnit`` ms)."""
    document = {
        "traceEvents": chrome_trace_events(telemetry, trace),
        "displayTimeUnit": "ms",
    }
    if telemetry is not None:
        # Aggregates ride along as document metadata: Perfetto ignores
        # unknown top-level keys, tooling can read them without
        # replaying the event list.
        document["otherData"] = {"telemetry": telemetry.summary()}
    return document


def write_chrome_trace(
    path: Union[str, Path],
    telemetry: Optional[Telemetry] = None,
    trace=None,
) -> Path:
    """Write the Chrome trace JSON for one run (atomic)."""
    text = json.dumps(chrome_trace(telemetry, trace), sort_keys=True)
    return atomic_write_text(path, text + "\n")
