"""Span recorder installed into a traced CLI process (never the timed ones).

:func:`install` wraps the public entry point of each layer — the table
in :data:`TARGETS` — as its module is first imported.  A wrapper records
one span: ``(span_id, parent_id, name, entered, start, end, left)``
where the parent is the enclosing wrapped call, ``[start, end]`` is the
wrapped call itself and ``[entered, left]`` the whole wrapper.  The two
gaps are the wrapper's own book-keeping (including counter hooks); the
account charges them to ``trace.wrap`` instead of the caller, so a
layer called 10^5 times does not inflate its caller's self time.  Span
ids are ``pid << 32 | seq``, so ids stay unique across forked pool
workers; a worker's first spans name the main-process span open when
the pool forked (``execute_pooled``) as their parent.

Spans and counters stay in memory, in a flat ``array('q')``, and are
written out when the process is done: by the CLI process at exit
(:func:`finish`), and by each pool worker after every task, because
pool workers are terminated rather than allowed to exit.  A file is
``[spans as int64 x7][header JSON][header length, 8 bytes]``; the header
carries the name table, the counters and the flush's own span.
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array
from typing import Callable, Dict, List, Optional

from perfbench import hook

clock = time.monotonic_ns

#: Span fields per record in the flat buffer.
FIELDS = 7

#: Flush the CLI process's buffer once it holds this many spans.
FLUSH_SPANS = 1 << 19

_PROCESS_SHIFT = 32


class _Recorder:
    """Per-process span buffer, open-span stack and counters."""

    def __init__(self, out_dir: str, names: List[str]) -> None:
        self.out_dir = out_dir
        self.names = names
        self.stack: List[int] = [0]
        #: Set by a hook; the wrapper flushes once its own span is recorded.
        self.flush_due = False
        self._reset_process()

    def _reset_process(self) -> None:
        self.pid = os.getpid()
        self.base = self.pid << _PROCESS_SHIFT
        self.seq = 0
        self.flushes = 0
        self.buf = array("q")
        self.counters: Dict[str, int] = {}
        self.deployments: Dict[int, tuple] = {}

    def after_fork(self) -> None:
        # Keep the stack: the worker's spans nest under the main-process
        # span that forked it.  Everything recorded so far is the parent's.
        self._reset_process()

    def add(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def flush(self, meta: Optional[dict] = None) -> int:
        """Write this process's closed spans and counters; returns the
        flush's end time."""
        started = clock()
        self.flush_due = False
        self.seq += 1
        flush_id = self.base + self.seq
        for key, counts in self.deployments.items():
            for name, value in zip(_MOBILE_COUNTERS, counts):
                self.add(name, value)
        self.deployments.clear()
        self.flushes += 1
        path = os.path.join(
            self.out_dir, f"trace-{self.pid}-{self.flushes:05d}.bin"
        )
        with open(path, "wb") as handle:
            self.buf.tofile(handle)
            written = clock()
            header = {
                "pid": self.pid,
                "names": self.names,
                "counters": self.counters,
                "flush": [flush_id, self.stack[-1], started, written],
                "meta": meta or {},
            }
            data = json.dumps(header, sort_keys=True).encode()
            handle.write(data)
            handle.write(len(data).to_bytes(8, "little"))
        self.buf = array("q")
        self.counters = {}
        return clock()


_REC: Optional[_Recorder] = None


def _span_wrapper(fn: Callable, name_index: int, pre, post) -> Callable:
    rec = _REC

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        entered = clock()
        stack = rec.stack
        rec.seq += 1
        span_id = rec.base + rec.seq
        parent = stack[-1]
        stack.append(span_id)
        token = pre(args, kwargs) if pre is not None else None
        start = clock()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            end = clock()
            stack.pop()
            rec.buf.extend((span_id, parent, name_index, entered, start, end, end))
            raise
        end = clock()
        stack.pop()
        if post is not None:
            post(args, kwargs, result, token, start, end)
        rec.buf.extend((span_id, parent, name_index, entered, start, end, clock()))
        if rec.flush_due:
            rec.flush()
        return result

    wrapper.__perfbench_wrapped__ = True
    return wrapper


def _count_wrapper(fn: Callable, post) -> Callable:
    """A span-less wrapper: only runs ``post`` after the call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        post(args, kwargs, result, None, 0, 0)
        return result

    wrapper.__perfbench_wrapped__ = True
    return wrapper


# ------------------------------------------------------------------ hooks
def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _add(name: str, amount_fn: Callable) -> Callable:
    def post(args, kwargs, result, token, start, end):
        _REC.add(name, amount_fn(args, kwargs, result))

    return post


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _synthesize_post(args, kwargs, result, token, start, end):
    # Only a whole-population synthesis scans; a shard passes the
    # indices its membership scan already chose.
    if _arg(args, kwargs, 1, "indices") is None:
        _REC.add("fleet.spec.users_scanned", len(result))
        _REC.add("fleet.spec.users_kept", len(result))


def _user_indices_post(args, kwargs, result, token, start, end):
    _REC.add("fleet.spec.users_scanned", args[0].spec.n_users)
    _REC.add("fleet.spec.users_kept", len(result))


def _task_post(args, kwargs, result, token, start, end):
    _REC.add("campaign.runner.tasks_failed", int(result[2] is not None))
    _REC.flush_due = True


def _pool_post(args, kwargs, result, token, start, end):
    tasks = _arg(args, kwargs, 1, "tasks")
    workers = _arg(args, kwargs, 2, "workers")
    lanes = 1 if workers <= 1 or len(tasks) == 1 else min(workers, len(tasks))
    _REC.add("campaign.runner.pool_lane_ns", lanes * (end - start))


def _run_until_pre(args, kwargs):
    return args[0].events_fired


def _run_until_post(args, kwargs, result, token, start, end):
    _REC.add("sim.engine.events", args[0].events_fired - token)


_MOBILE_COUNTERS = (
    "net.deployment.bursts_measured",
    "net.deployment.bursts_declined",
    "net.deployment.bursts_skipped_busy",
)


def _deployment_stop_post(args, kwargs, result, token, start, end):
    # Mobile counters are cumulative; keep the latest totals per
    # deployment and fold them in at flush time.
    deployment = args[0]
    key = getattr(deployment, "_perfbench_key", None)
    if key is None:
        _REC.seq += 1
        key = _REC.seq
        deployment._perfbench_key = key
    _REC.deployments[key] = tuple(
        sum(getattr(mobile, field) for mobile in deployment.mobiles)
        for field in ("bursts_measured", "bursts_declined",
                      "bursts_skipped_busy")
    )


def _tick_post(args, kwargs, result, token, start, end):
    if len(_REC.buf) > FLUSH_SPANS * FIELDS:
        _REC.flush_due = True


_CORE_CALLS = ("choose_rx_beam", "on_measurement", "_watchdog_tick")

#: module -> [(attribute path, span name or None, pre, post)].  Patching
#: the defining module right after it executes means every later
#: ``from ... import`` binds the wrapper.  ``sample_poses`` is also
#: patched where ``net.deployment`` looks it up, and
#: ``Deployment._deliver_tick`` on the class, before any deployment
#: binds it into a ``BurstScheduler``.
TARGETS = {
    "repro.obs.ledger": [("RunLedger.append", "obs.ledger", None, None)],
    "repro.fleet.spec": [
        ("synthesize_users", "fleet.spec", None, _synthesize_post),
        ("FleetShard.user_indices", "fleet.spec", None, _user_indices_post),
        ("FleetShard.synthesize", "fleet.spec", None, None),
        ("partition_fleet", "fleet.spec", None, None),
    ],
    "repro.fleet.metrics": [
        ("user_result", "fleet.metrics", None, None),
        ("FleetAccumulator.add_user", "fleet.metrics", None, None),
        ("FleetAccumulator.merge", "fleet.metrics", None, None),
        ("FleetAccumulator.to_dict", "fleet.metrics", None, None),
        ("FleetAccumulator.from_dict", "fleet.metrics", None, None),
    ],
    "repro.fleet.store": [
        ("FleetShardStore.initialize", "fleet.store.write", None,
         _add("fleet.store.bytes_written",
              lambda a, k, r: _file_bytes(a[0].manifest_path))),
        ("FleetShardStore.write_shard", "fleet.store.write", None,
         _add("fleet.store.bytes_written", lambda a, k, r: _file_bytes(r))),
        ("FleetShardStore.write_shard_telemetry", "fleet.store.write", None,
         _add("fleet.store.bytes_written", lambda a, k, r: _file_bytes(r))),
    ],
    "repro.fleet.runner": [
        ("build_fleet", "fleet.runner.build", None, None),
        ("write_fleet_artifact", "fleet.runner.write", None,
         _add("fleet.runner.bytes_written", lambda a, k, r: _file_bytes(r))),
        ("_execute_shard_task", "campaign.runner.task", None, _task_post),
    ],
    "repro.campaign.store": [
        ("ArtifactStore.initialize", "campaign.store.write", None,
         _add("campaign.store.files", lambda a, k, r: 1)),
        ("ArtifactStore.write_cell", "campaign.store.write", None,
         _add("campaign.store.files", lambda a, k, r: 1)),
    ],
    "repro.campaign.runner": [
        ("execute_pooled", "campaign.runner.pool", None, _pool_post),
        ("_execute_cell_task", "campaign.runner.task", None, _task_post),
    ],
    "repro.sim.engine": [
        ("Simulator.run_until", "sim.engine", _run_until_pre, _run_until_post),
    ],
    "repro.mobility.base": [
        ("sample_poses", "mobility", None,
         _add("mobility.poses", lambda a, k, r: len(r))),
    ],
    "repro.net.mobile": [
        ("Mobile.pose_at", "mobility", None,
         _add("mobility.poses", lambda a, k, r: 1)),
    ],
    "repro.net.deployment": [
        ("sample_poses", "mobility", None,
         _add("mobility.poses", lambda a, k, r: len(r))),
        ("Deployment._deliver_tick", "net.deployment", None, _tick_post),
        ("Deployment.stop", None, None, _deployment_stop_post),
    ],
    "repro.net.link_engine": [
        ("LinkEngine.measure_burst_multi", "net.link_engine", None,
         _add("net.link_engine.rows",
              lambda a, k, r: sum(len(group) for group in r))),
        ("LinkEngine.measure_burst", "net.link_engine", None,
         _add("net.link_engine.rows", lambda a, k, r: 1)),
    ],
    "repro.phy.channel": [
        ("Channel.burst_rss_rows_dbm", "phy.channel", None,
         _add("net.link_engine.dwells",
              lambda a, k, r: int(sum(_arg(a, k, 8, "n_dwells"))))),
        ("Channel.burst_rss_dbm", "phy.channel", None,
         _add("net.link_engine.dwells", lambda a, k, r: len(r))),
        ("LinkState.__init__", "phy.channel.link_init", None,
         _add("phy.channel.links", lambda a, k, r: 1)),
    ],
    "repro.net.base_station": [
        ("BaseStation.tx_gains_grid_dbi", "phy.gains", None, None),
        ("BaseStation.tx_gains_dbi", "phy.gains", None, None),
    ],
    "repro.core.silent_tracker": [
        (f"SilentTracker.{call}", "core", None, None) for call in _CORE_CALLS
    ],
    "repro.core.baselines": [
        (f"{cls}.{call}", "core", None, None)
        for cls in ("ReactiveHandover", "OracleTracker")
        for call in _CORE_CALLS
    ],
    "repro.net.random_access": [
        (f"RandomAccessProcedure._send_msg{step}", "core", None, None)
        for step in range(1, 5)
    ],
}

#: Span names besides the wrapped ones, recorded by the launcher and
#: the recorder itself.
PSEUDO_SPANS = ("cli.import", "cli.teardown", "trace.install", "trace.flush")


def span_names() -> List[str]:
    """The name table; a span's name field indexes into it."""
    names = list(PSEUDO_SPANS)
    for entries in TARGETS.values():
        for _path, span, _pre, _post in entries:
            if span is not None and span not in names:
                names.append(span)
    return names


def _patcher(entries, names: List[str]) -> Callable:
    def patch(module) -> None:
        for path, span, pre, post in entries:
            owner_path, _, attr = path.rpartition(".")
            owner = module
            if owner_path:
                owner = getattr(module, owner_path, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None or getattr(fn, "__perfbench_wrapped__", False):
                continue
            if span is None:
                wrapped = _count_wrapper(fn, post)
            else:
                wrapped = _span_wrapper(fn, names.index(span), pre, post)
            setattr(owner, attr, wrapped)

    return patch


def install(out_dir: str) -> None:
    """Start recording this process (and the workers it forks)."""
    global _REC
    names = span_names()
    _REC = _Recorder(out_dir, names)
    os.register_at_fork(after_in_child=_REC.after_fork)
    hook.install({
        module: _patcher(entries, names) for module, entries in TARGETS.items()
    })


def record(name: str, start: int, end: int, parent: int = 0) -> int:
    """Record a span measured outside a wrapper; returns its id."""
    _REC.seq += 1
    span_id = _REC.base + _REC.seq
    _REC.buf.extend(
        (span_id, parent, _REC.names.index(name), start, start, end, end)
    )
    return span_id


def finish(meta: dict) -> int:
    """Write the CLI process's spans at exit; returns the flush end time."""
    return _REC.flush(meta)
