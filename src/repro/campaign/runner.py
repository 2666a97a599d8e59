"""Campaign execution: serial or multiprocessing, always deterministic.

Each cell is an independent simulation: it builds its own deployment
from the seed recorded *in the cell*, so a cell's result is a pure
function of the cell content — never of which worker ran it, in what
order, or alongside what else.  That is the whole determinism story:
``--workers 8`` and ``--workers 1`` produce byte-identical artifacts.

Only the driver process writes artifacts; workers ship payloads back
over the pool pipe.  Failed cells are collected (not written), the rest
of the campaign completes, and a :class:`CampaignError` summarising the
failures is raised at the end — a subsequent resume retries exactly the
failed/missing cells.  That resume / dispatch / record / fail loop is
:func:`run_stored_tasks`, shared with sharded fleets
(:func:`repro.fleet.runner.run_fleet_sharded`), on top of the one
worker pool :func:`execute_pooled` and the one
:class:`~repro.campaign.store.ArtifactStore`.

Experiment kinds are registered in :data:`repro.registry.EXPERIMENTS`
(the built-ins by the ``repro.experiments`` modules themselves, plugins
via :func:`repro.registry.register_experiment`); the registry is
queried lazily so ``repro.experiments`` modules can in turn import this
package for their thin one-shot wrappers.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, Optional, Sequence, Set, Tuple, Union

from repro.campaign.progress import NullProgress, ProgressReporter
from repro.campaign.spec import CampaignCell, CampaignSpec
from repro.campaign.store import ArtifactStore
from repro.obs import telemetry as _telemetry
from repro.obs.telemetry import wall_clock
from repro.obs.log import get_logger
from repro.obs.report import merge_summaries

PathLike = Union[str, Path]

_log = get_logger("campaign")


class CampaignError(RuntimeError):
    """Raised for campaign misuse or failed cells.

    ``failures`` maps cell ID -> full traceback text for cells that
    raised during execution (empty for usage errors).
    """

    def __init__(self, message: str, failures: Optional[Dict[str, str]] = None) -> None:
        super().__init__(message)
        self.failures = dict(failures or {})


# --------------------------------------------------------------- experiments
def execute_cell(cell: CampaignCell) -> dict:
    """Run one cell to completion; returns its JSON-safe payload.

    The experiment kind is resolved through
    :data:`repro.registry.EXPERIMENTS`, so registered plugin kinds
    execute exactly like the built-ins.
    """
    from repro.registry import EXPERIMENTS

    return EXPERIMENTS.get(cell.experiment).run(cell)


def decode_payload(experiment: str, payload: dict):
    """Rebuild the trial dataclass an artifact payload serialised."""
    from repro.registry import EXPERIMENTS

    return EXPERIMENTS.get(experiment).decode(payload)


def _execute_cell_task(
    task: Tuple[dict, bool],
) -> Tuple[str, Optional[dict], Optional[str], float, Optional[dict]]:
    """Pool task: ``(cell_id, artifact|None, error|None, elapsed_s, telemetry)``.

    The artifact is the cell's stored record, ``{"cell": ..., "payload":
    ...}``.  ``error`` is the full traceback text: the exception object
    itself cannot cross the pool pipe reliably, but the caller still
    needs to see *where* a trial crashed, not just the exception type.

    The telemetry flag rides in the task tuple (not a process global)
    because spawn-context workers do not inherit the driver's ambient
    hub; each task activates a fresh per-cell hub so the summary that
    crosses the pipe covers exactly one cell.
    """
    record, telemetry_enabled = task
    cell = CampaignCell.from_dict(record)
    started = wall_clock()
    hub = _telemetry.Telemetry() if telemetry_enabled else _telemetry.DISABLED
    try:
        with _telemetry.use(hub):
            payload = execute_cell(cell)
        summary = hub.summary() if telemetry_enabled else None
        artifact = {"cell": record, "payload": payload}
        return record["cell_id"], artifact, None, wall_clock() - started, summary
    except Exception:  # collected, reported, retried on resume
        message = traceback.format_exc()
        return record["cell_id"], None, message, wall_clock() - started, None


# -------------------------------------------------------------------- driver
@dataclass
class CampaignResult:
    """Outcome of one :func:`run_campaign` invocation."""

    spec: CampaignSpec
    payloads: Dict[str, dict] = field(default_factory=dict)
    executed: int = 0
    skipped: int = 0
    failures: Dict[str, str] = field(default_factory=dict)
    out_dir: Optional[Path] = None
    #: Per-cell wall-clock telemetry summaries (``--telemetry`` runs
    #: only).  Kept out of ``payloads`` so artifacts stay deterministic.
    telemetry: Dict[str, dict] = field(default_factory=dict)

    @property
    def total_cells(self) -> int:
        return self.spec.n_cells

    def merged_telemetry(self) -> Optional[dict]:
        """All per-cell summaries folded into one, or ``None`` if none."""
        if not self.telemetry:
            return None
        return merge_summaries(
            self.telemetry[cell_id] for cell_id in sorted(self.telemetry)
        )

    def results_in_order(self) -> Iterator[Tuple[CampaignCell, dict]]:
        """Completed ``(cell, payload)`` pairs in grid order."""
        for cell in self.spec.iter_cells():
            payload = self.payloads.get(cell.cell_id)
            if payload is not None:
                yield cell, payload

    def trials_in_order(self) -> Iterator[Tuple[CampaignCell, object]]:
        """Like :meth:`results_in_order`, with payloads decoded."""
        for cell, payload in self.results_in_order():
            yield cell, decode_payload(cell.experiment, payload)


def _default_context() -> multiprocessing.context.BaseContext:
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


# ------------------------------------------------------------- worker pool
#: Worker-side progress sink (a queue back to the driver), installed by
#: the pool initializer.  Task functions read it via :func:`progress_sink`
#: — ``None`` means nobody is listening and events should be skipped.
_PROGRESS_SINK = None


def _pool_initializer(sink) -> None:
    global _PROGRESS_SINK
    _PROGRESS_SINK = sink


def progress_sink():
    """The worker's progress sink (``.put(event)``), or ``None``."""
    return _PROGRESS_SINK


class _CallbackSink:
    """Serial-path sink: delivers events straight to the driver handler."""

    def __init__(self, handler: Callable) -> None:
        self._handler = handler

    def put(self, event) -> None:
        self._handler(event)


def execute_pooled(
    task_fn: Callable,
    tasks: Sequence,
    workers: int,
    record_outcome: Callable,
    mp_context: Optional[str] = None,
    progress_handler: Optional[Callable] = None,
    tick: Optional[Callable[[], None]] = None,
) -> None:
    """Run picklable tasks on the campaign worker pool.

    The one pool used by campaigns *and* fleet shards: ``task_fn`` must
    be a module-level function returning an outcome tuple, which the
    driver-side ``record_outcome`` receives splatted — completion order
    is scheduling-dependent, so outcomes must be order-independent
    (both callers key them by content hash).  ``workers <= 1`` (or a
    single task) runs serially in-process — the reference path for the
    byte-identity guarantee.

    ``progress_handler`` receives worker-originated progress events on
    the driver, best-effort and unordered across workers.  Workers post
    them via :func:`progress_sink`; on the serial path the sink calls
    the handler directly.  Progress can never influence results — it
    only exists between a task starting and its outcome being recorded.

    ``tick`` is a driver-side periodic callback (the fleet monitor's
    stall detector polls from it): invoked once per drain-loop
    iteration on the pool path, and between tasks on the serial path.
    Like progress, it can observe but never influence results.
    """
    global _PROGRESS_SINK
    if workers <= 1 or len(tasks) == 1:
        previous = _PROGRESS_SINK
        _PROGRESS_SINK = (
            _CallbackSink(progress_handler) if progress_handler else None
        )
        try:
            for task in tasks:
                record_outcome(*task_fn(task))
                if tick is not None:
                    tick()
        finally:
            _PROGRESS_SINK = previous
        return

    ctx = (
        multiprocessing.get_context(mp_context)
        if mp_context
        else _default_context()
    )
    pool_size = min(workers, len(tasks))
    if progress_handler is None and tick is None:
        with ctx.Pool(processes=pool_size) as pool:
            for outcome in pool.imap_unordered(task_fn, tasks, chunksize=1):
                record_outcome(*outcome)
        return

    sink = ctx.Queue() if progress_handler is not None else None

    def drain() -> None:
        if sink is None:
            return
        while True:
            try:
                event = sink.get_nowait()
            except queue_module.Empty:
                return
            progress_handler(event)

    initializer = _pool_initializer if sink is not None else None
    initargs = (sink,) if sink is not None else ()
    with ctx.Pool(
        processes=pool_size, initializer=initializer, initargs=initargs
    ) as pool:
        pending = [pool.apply_async(task_fn, (task,)) for task in tasks]
        while pending:
            drain()
            if tick is not None:
                tick()
            still_running = []
            for handle in pending:
                if handle.ready():
                    record_outcome(*handle.get())
                else:
                    still_running.append(handle)
            pending = still_running
            if pending:
                time.sleep(0.05)
        drain()


# ------------------------------------------------------------ stored tasks
@dataclass
class StoredRun:
    """Outcome of :func:`run_stored_tasks`, keyed by item ID."""

    #: Artifact records of every completed item, loaded or executed.
    artifacts: Dict[str, dict] = field(default_factory=dict)
    #: Telemetry summaries (executed items, plus stored sidecars of
    #: skipped ones when telemetry is on).
    telemetry: Dict[str, dict] = field(default_factory=dict)
    #: Full traceback text per failed item.
    failures: Dict[str, str] = field(default_factory=dict)
    executed: int = 0
    skipped: int = 0

    def raise_failures(
        self, error: type, what: str, label: Callable[[str], str]
    ) -> None:
        """Raise ``error`` summarising every failure, if there was one.

        Headline: the terminal exception line of up to three items.
        Full tracebacks follow in the message and ride along on the
        exception's ``failures`` attribute.
        """
        if not self.failures:
            return
        preview = "; ".join(
            f"{label(item_id)}: {message.strip().splitlines()[-1]}"
            for item_id, message in list(self.failures.items())[:3]
        )
        tracebacks = "\n".join(
            f"--- {label(item_id)} ---\n{message}"
            for item_id, message in self.failures.items()
        )
        raise error(
            f"{len(self.failures)}/{self.executed} {what} failed "
            f"({preview})\n{tracebacks}",
            self.failures,
        )


def run_stored_tasks(
    store: Optional[ArtifactStore],
    tasks: Dict[str, object],
    task_fn: Callable,
    workers: int,
    resume: bool,
    telemetry: bool,
    on_start: Callable[[Set[str]], None],
    on_outcome: Callable[[str, bool, float, Optional[dict]], None],
    **pool_options,
) -> StoredRun:
    """Resume, dispatch and record one batch of stored tasks.

    The one driver loop behind campaign cells and fleet shards.
    ``tasks`` maps each item ID to its picklable pool task, in dispatch
    order.  With a ``store`` and ``resume``, items whose artifact is
    already on disk are loaded (with their telemetry sidecar when
    ``telemetry`` is on) instead of re-run; ``on_start`` then receives
    that done set.  The rest run through :func:`execute_pooled`:
    ``task_fn`` returns ``(item_id, artifact|None, error|None,
    elapsed_s, telemetry|None[, stats])``; each success is written to
    the store, and ``on_outcome(item_id, ok, elapsed_s, stats)`` runs
    after every outcome.  Failures are collected, never raised here —
    see :meth:`StoredRun.raise_failures`.
    """
    stored = StoredRun()
    done: Set[str] = set()
    if store is not None and resume:
        done = store.completed_ids() & set(tasks)
    for item_id in tasks:
        if item_id not in done:
            continue
        stored.artifacts[item_id] = store.load(item_id)
        if telemetry:
            # A skipped item keeps the telemetry its original run left
            # behind (if any) so the merged view still covers it.
            summary = store.load_telemetry(item_id)
            if summary is not None:
                stored.telemetry[item_id] = summary
    stored.skipped = len(done)
    on_start(done)

    def record_outcome(
        item_id: str,
        artifact: Optional[dict],
        error: Optional[str],
        elapsed: float,
        summary: Optional[dict],
        stats: Optional[dict] = None,
    ) -> None:
        if error is not None:
            stored.failures[item_id] = error
        else:
            stored.artifacts[item_id] = artifact
            if store is not None:
                store.write(item_id, artifact)
            if summary is not None:
                stored.telemetry[item_id] = summary
                if store is not None:
                    store.write_telemetry(item_id, summary)
        stored.executed += 1
        on_outcome(item_id, error is None, elapsed, stats)

    pending = [task for item_id, task in tasks.items() if item_id not in done]
    if pending:
        execute_pooled(task_fn, pending, workers, record_outcome, **pool_options)
    return stored


def load_campaign_spec(out_dir: PathLike) -> CampaignSpec:
    """The campaign spec recorded in ``out_dir``'s manifest."""
    return CampaignSpec.from_dict(ArtifactStore(out_dir).manifest()["spec"])


def run_campaign(
    spec: CampaignSpec,
    out_dir: Optional[PathLike] = None,
    workers: int = 1,
    resume: bool = True,
    progress: Optional[ProgressReporter] = None,
    mp_context: Optional[str] = None,
    telemetry: bool = False,
) -> CampaignResult:
    """Execute a campaign, optionally persisting and resuming artifacts.

    Parameters
    ----------
    spec:
        The campaign grid to run.
    out_dir:
        Artifact directory.  ``None`` keeps results in memory only (the
        one-shot experiment wrappers use this mode).
    workers:
        Worker processes.  ``<= 1`` runs serially in-process, which is
        also the reference for the bit-identical-artifacts guarantee.
    resume:
        Skip cells whose artifact already exists in ``out_dir``.
    progress:
        Reporter for start/cell/finish hooks; default silent.
    mp_context:
        Multiprocessing start method override (``fork`` / ``spawn`` /
        ``forkserver``); default prefers ``fork`` where available.
    telemetry:
        Collect per-cell wall-clock telemetry.  Summaries land on
        :attr:`CampaignResult.telemetry` and (with ``out_dir``) as
        ``cells/<cell_id>.telemetry.json`` sidecars; cell artifacts are
        byte-identical either way.
    """
    if workers < 1:
        raise CampaignError(f"workers must be >= 1, got {workers!r}")
    reporter = progress if progress is not None else NullProgress()
    cells = spec.expand()
    by_id = {cell.cell_id: cell for cell in cells}

    store: Optional[ArtifactStore] = None
    result = CampaignResult(spec=spec)
    if out_dir is not None:
        store = ArtifactStore(out_dir)
        store.initialize(
            {
                "name": spec.name,
                "spec": spec.to_dict(),
                "spec_hash": spec.spec_hash,
                "cells": [
                    {
                        "cell_id": cell.cell_id,
                        "scenario": cell.scenario,
                        "protocol": cell.protocol,
                        "override_label": cell.override_label,
                        "seed": cell.seed,
                    }
                    for cell in cells
                ],
            },
            identity=("spec_hash",),
        )
        result.out_dir = store.root
    started = wall_clock()

    def on_start(done: Set[str]) -> None:
        reporter.on_start(len(cells), len(done))
        _log.info(
            "campaign %r: %d cells (%d already done), workers=%d, "
            "telemetry=%s",
            spec.name, len(cells), len(done), workers, telemetry,
        )

    def on_outcome(cell_id: str, ok: bool, elapsed: float, _stats) -> None:
        reporter.on_cell_done(by_id[cell_id], ok, elapsed)

    stored = run_stored_tasks(
        store,
        {cell.cell_id: (cell.to_dict(), telemetry) for cell in cells},
        _execute_cell_task,
        workers,
        resume=resume,
        telemetry=telemetry,
        on_start=on_start,
        on_outcome=on_outcome,
        mp_context=mp_context,
    )
    result.payloads = {
        cell_id: record["payload"] for cell_id, record in stored.artifacts.items()
    }
    result.telemetry = stored.telemetry
    result.failures = stored.failures
    result.executed = stored.executed
    result.skipped = stored.skipped
    reporter.on_finish(
        result.executed, len(result.failures), wall_clock() - started
    )
    stored.raise_failures(
        CampaignError, "campaign cells", lambda cell_id: f"cell {cell_id}"
    )
    return result


def resume_campaign(
    out_dir: PathLike,
    workers: int = 1,
    progress: Optional[ProgressReporter] = None,
    mp_context: Optional[str] = None,
    telemetry: bool = False,
) -> CampaignResult:
    """Resume the campaign recorded in ``out_dir``'s manifest."""
    return run_campaign(
        load_campaign_spec(out_dir),
        out_dir=out_dir,
        workers=workers,
        resume=True,
        progress=progress,
        mp_context=mp_context,
        telemetry=telemetry,
    )
