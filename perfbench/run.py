"""Benchmark the ``repro`` CLI end to end, and layer by layer when traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet-street --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Each run of the workload's CLI command is a fresh process.  Untraced
runs (``--trace 0``) carry only a one-shot probe that timestamps the
first ``Simulator.run_until`` entry; their medians give the end-to-end
metrics.  With ``--trace 1`` the first half of the time goes to
untraced runs (the base for ``trace.overhead_frac``) and the rest to
runs traced by :mod:`perfbench.tracer`, whose medians give the
per-layer metrics.  Runs repeat while the next one is expected to
end within ``--seconds``.

Every run is checked: exit status 0, artifacts that parse and are
complete, one ledger entry in the run's own ledger file, and an
artifact digest equal to every other run of the seed.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` (operations: fleet runs, shards or cells) and ``metrics``.
``--out FILE`` also writes the full result set with its host record;
``perfbench/compare.py`` compares two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import account, host, layers, reference  # noqa: E402
from perfbench.workloads import WORKLOADS, CheckFailed, Workload  # noqa: E402

LAUNCH = Path(__file__).resolve().parent / "launch.py"

#: (metric, unit) reported by untraced runs.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("user_sim_s_per_s", "user-s/s"),
    ("peak_rss_mb", "MB"),
)

#: A CLI run killed after this long counts as failed.
RUN_TIMEOUT_S = 45.0
#: No phase of a workload's measurement runs longer than this.
BUDGET_S = 120.0


@dataclass
class Run:
    """One CLI process and what its checks found."""

    mode: str
    status: int
    wall_s: float
    setup_s: Optional[float]
    peak_rss_mb: float
    operations: int
    passed: bool = True
    reason: str = ""
    digest: Optional[str] = None
    handovers: Dict[str, int] = field(default_factory=dict)
    #: Wall of the host-speed reference sample taken just before the run.
    reference_s: Optional[float] = None
    layers: Optional[Dict[str, float]] = None
    account: Optional[Dict[str, float]] = None

    def fail(self, reason: str) -> None:
        if self.passed:
            self.passed, self.reason = False, reason


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _reap_group(pid: int, timeout_s: float = 10.0) -> None:
    """Make sure nothing of the run's process group is left running."""
    _kill_group(pid)
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pid, 0)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.01)


def _child_env() -> Dict[str, str]:
    # The workloads are defined on the program's default paths: drop
    # REPRO_* switches and a PYTHONPATH that could shadow ./src.
    return {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONPATH"
    }


def _reset_peak_rss() -> None:
    """Lower this process's resident-set high-water mark to its current size.

    Linux folds the spawning process's high-water mark into the
    ``ru_maxrss`` of a child it starts with ``vfork`` + ``exec``.  After
    this benchmark process has read a traced run's spans (about 200 MB at
    peak), a CLI run would report that peak instead of its own.  This
    process's current size (under 20 MB before any traced run) stays a
    floor.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def run_cli(workload: Workload, seed: int, run_dir: Path, mode: str) -> Run:
    """Spawn one CLI run in ``run_dir`` and check its outputs."""
    run_dir.mkdir(parents=True)
    probe_dir = run_dir / "probe"
    probe_dir.mkdir()
    out = run_dir / ("fleet.json" if workload.kind == "fleet" else "out")
    ledger = run_dir / "ledger.jsonl"
    argv = [
        sys.executable, str(LAUNCH), mode, str(probe_dir), "--",
        *workload.cli_args(seed, out, ledger),
    ]
    with open(run_dir / "stdout.txt", "wb") as stdout, open(
        run_dir / "stderr.txt", "wb"
    ) as stderr:
        _reset_peak_rss()
        spawned_wall = time.time_ns()
        spawned = time.monotonic_ns()
        proc = subprocess.Popen(
            argv, cwd=run_dir, stdout=stdout, stderr=stderr,
            env=_child_env(), start_new_session=True,
        )
        timer = threading.Timer(RUN_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, wait_status, usage = os.wait4(proc.pid, 0)
            exited = time.monotonic_ns()
            proc.returncode = os.waitstatus_to_exitcode(wait_status)
        finally:
            timer.cancel()
            _reap_group(proc.pid)
    probes = [int(p.read_text()) for p in probe_dir.glob("probe-*")]
    run = Run(
        mode=mode,
        status=proc.returncode,
        wall_s=(exited - spawned) / 1e9,
        setup_s=(min(probes) - spawned) / 1e9 if probes else None,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        operations=workload.operations(),
    )
    if run.status != 0:
        tail = (run_dir / "stderr.txt").read_text(errors="replace")
        run.fail(f"exit status {run.status}: {tail.strip()[-300:]}")
        return run
    try:
        outcome = workload.check(out, spawned_wall)
        run.digest, run.handovers = outcome.digest, outcome.handovers
        entries = ledger.read_text().splitlines() if ledger.exists() else []
        if len(entries) != 1 or json.loads(entries[0]).get("status") != "ok":
            raise CheckFailed(f"{ledger}: expected one ok ledger entry")
    except CheckFailed as error:
        run.fail(str(error))
        return run
    if mode == "probe" and run.setup_s is None:
        run.fail("no process entered Simulator.run_until")
    if mode == "trace":
        _read_trace(run, workload, probe_dir, proc.pid, spawned, exited)
    return run


def _read_trace(
    run: Run, workload: Workload, trace_dir: Path, pid: int,
    spawned: int, exited: int,
) -> None:
    spans, counters, metas = layers.load(trace_dir)
    meta = metas.get(pid)
    exit_file = trace_dir / "exit.txt"
    if meta is None or not exit_file.exists():
        run.fail("traced run left no span file of the CLI process")
        return
    spans = layers.with_process_edges(
        spans, spawned, meta["main_entered"], int(exit_file.read_text()), exited
    )
    run.layers, run.account = layers.metrics(
        spans, counters, (spawned, exited), workload.user_seconds(),
        run.handovers,
    )


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(runs: List[Run], workload: Workload) -> Dict[str, float]:
    """Medians over the untraced runs that passed their checks, with
    times scaled to the reference host speed (:mod:`perfbench.reference`)."""
    good = [r for r in runs if r.mode == "probe" and r.passed] or [
        r for r in runs if r.mode == "probe" and r.setup_s is not None
    ]
    speed = reference.scale(
        [r.reference_s for r in good if r.reference_s is not None],
        workload.processes(),
    )
    user_s = workload.user_seconds()
    return {
        "wall_s": speed * _median([r.wall_s for r in good]),
        "setup_s": speed * _median([r.setup_s for r in good]),
        "user_sim_s_per_s": _median(
            [user_s / (speed * (r.wall_s - r.setup_s)) for r in good]
        ),
        "peak_rss_mb": _median([r.peak_rss_mb for r in good]),
    }


def per_layer(runs: List[Run]) -> Dict[str, float]:
    """Medians of each layer metric over the traced runs, plus overhead."""
    traced = [r for r in runs if r.layers is not None and r.passed]
    untraced = [r.wall_s for r in runs if r.mode == "probe" and r.passed]
    out = {
        name: _median([r.layers[name] for r in traced])
        for name, _unit in layers.PER_LAYER
        if name != "trace.overhead_frac"
    }
    traced_wall = _median([r.wall_s for r in traced])
    out["trace.overhead_frac"] = (
        traced_wall / _median(untraced) - 1.0 if untraced and traced else 0.0
    )
    return out


def measure(
    workload: Workload, seed: int, seconds: float, trace: bool, work: Path
) -> List[Run]:
    """Repeat the workload's CLI run while the next one is expected to
    end within ``seconds`` (each phase runs at least once)."""
    runs: List[Run] = []
    begin = time.monotonic()
    phases = [("probe", 0.5 if trace else 1.0)]
    if trace:
        phases.append(("trace", 1.0))
    for mode, share in phases:
        limit = min(seconds * share, BUDGET_S)
        took: List[float] = []
        while not took or (
            time.monotonic() - begin + statistics.median(took) <= limit
        ):
            started = time.monotonic()
            reference_s = None
            if not trace:
                reference_s = reference.time_once(
                    workload.processes(), _child_env()
                )
            run = run_cli(workload, seed, work / f"{len(runs):03d}-{mode}", mode)
            run.reference_s = reference_s
            took.append(time.monotonic() - started)
            runs.append(run)
            print(
                f"  {workload.name} {mode:5s} wall {run.wall_s:8.3f} s  "
                f"setup {run.setup_s if run.setup_s is not None else float('nan'):7.3f} s  "
                f"rss {run.peak_rss_mb:7.1f} MB  "
                f"reference {reference_s or float('nan'):6.3f} s  "
                f"{'ok' if run.passed else 'FAILED: ' + run.reason}",
                flush=True,
            )
    for run, outlier in zip(runs, account.digest_outliers([r.digest for r in runs])):
        if outlier:
            run.fail("artifact digest differs from the other runs of this seed")
    return runs


def _print_account(run: Run) -> None:
    rows = sorted(run.account.items(), key=lambda item: -item[1])
    total = sum(run.account.values())
    print(f"  account of one traced run (wall {run.wall_s * 1e3:.1f} ms):")
    for name, ms in rows:
        print(f"    {name:28s} {ms:10.1f} ms  {100 * ms / (run.wall_s * 1e3):5.1f} %")
    print(f"    {'sum':28s} {total:10.1f} ms")


def bench_workload(
    workload: Workload, seed: int, seconds: float, trace: bool, work: Path
) -> dict:
    runs = measure(workload, seed, seconds, trace, work)
    attempted, failed = account.count_failures(
        (r.operations, r.passed) for r in runs
    )
    if trace:
        metrics = per_layer(runs)
        units = dict(layers.PER_LAYER)
        traced = [r for r in runs if r.account is not None and r.passed]
        if traced:
            _print_account(traced[0])
    else:
        metrics = end_to_end(runs, workload)
        units = dict(END_TO_END)
        probes = [r for r in runs if r.mode == "probe" and r.passed]
        samples = [r.reference_s for r in probes]
        print(
            f"  {workload.name}: unscaled medians wall "
            f"{_median([r.wall_s for r in probes]):.4f} s, setup "
            f"{_median([r.setup_s for r in probes]):.4f} s; reference "
            f"{_median(samples):.4f} s, scale "
            f"{reference.scale(samples, workload.processes()):.4f}"
        )
    soft = layers.handover_metrics(runs[0].handovers)
    print(
        f"  {workload.name}: fail_frac {failed / attempted:.4f} "
        f"({failed}/{attempted} operations), soft_ho_frac "
        f"{soft['core.soft_ho_frac']:.4f} ({soft['core.handovers']} handovers, "
        f"{soft['core.handovers_failed']} failed)"
    )
    for name, value in metrics.items():
        print(f"  {workload.name}: {name} = {value:.6g} {units[name]}")
    return {
        "workload": workload.name,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
        "runs": [asdict(r) for r in runs],
    }


def _warm_up() -> None:
    """Byte-compile the program once so no timed run pays for it."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "repro")],
        check=False, stdout=subprocess.DEVNULL, env=_child_env(),
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="also write the full result set (host record, "
                             "every run) to this JSON file")
    args = parser.parse_args(argv)
    # A terminated benchmark still stops its CLI run (run_cli's finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    record = host.record()
    print(
        f"host: cpu_count {record['cpu_count']}, affinity {record['affinity']}, "
        f"python {record['python']}, numpy {record['numpy']}, "
        f"{record['platform']}, load {record['loadavg_before']}",
        flush=True,
    )
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = ROOT / ".perfbench" / f"run-{os.getpid()}-{time.time_ns()}"
    results = []
    try:
        _warm_up()
        for name in names:
            results.append(bench_workload(
                WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                work / name,
            ))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    host.close(record)
    print(f"host: load after {record['loadavg_after']}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"host": record, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "results": results},
            indent=1, sort_keys=True,
        ) + "\n")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}/{name}": metric
            for r in results for name, metric in r["metrics"].items()
        }
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
