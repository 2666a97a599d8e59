"""The four benchmark workloads: CLI arguments, work size, output checks.

Each workload is one ``repro`` CLI command.  The benchmark's ``--seed``
becomes the program's ``--seed`` (fleets) or ``--base-seed``
(campaigns); nothing else about the inputs changes with it.  Every run
writes into a directory that did not exist before it started, with its
own ``--ledger`` file beside it, because ``campaign run`` and sharded
``fleet run`` resume by default and would silently skip work found in a
reused directory.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Worker processes of the pooled workloads (the host has two CPUs).
WORKERS = 2

#: Registered scenario durations (``repro list scenarios``); a campaign
#: cell simulates one user for its scenario's duration.
SCENARIO_DURATION_S = {"walk": 10.0, "rotation": 8.0, "vehicular": 4.0}


class CheckFailed(Exception):
    """A run's output failed one of the benchmark's checks."""


@dataclass
class Outcome:
    """What the output checks found in one run's artifacts."""

    digest: str
    #: Soft, hard and failed handover attempts read from the artifact.
    handovers: Dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "fleet", "sharded" or "campaign"
    users: int = 0
    duration_s: float = 0.0
    shards: int = 0
    scenarios: Tuple[str, ...] = ()
    arms: Tuple[str, ...] = ()
    seeds: int = 0
    extra: Tuple[str, ...] = ()

    # ------------------------------------------------------------ inputs
    def cli_args(self, seed: int, out: Path, ledger: Path) -> List[str]:
        common = ["--ledger", str(ledger), "--quiet"]
        if self.kind == "campaign":
            return [
                "campaign", "run", "--experiment", "tracking",
                "--scenarios", ",".join(self.scenarios),
                "--protocols", ",".join(self.arms),
                "--seeds", str(self.seeds), "--base-seed", str(seed),
                "--workers", str(WORKERS), "--out", str(out), *common,
            ]
        args = [
            "fleet", "run", "--mix", "mobility-blend",
            "--users", str(self.users), "--duration", repr(self.duration_s),
            "--seed", str(seed), "--out", str(out), *self.extra, *common,
        ]
        if self.kind == "sharded":
            args += ["--shards", str(self.shards), "--workers", str(WORKERS)]
        return args

    def user_seconds(self) -> float:
        """Simulated user-seconds of one run."""
        if self.kind == "campaign":
            per_arm = sum(SCENARIO_DURATION_S[s] for s in self.scenarios)
            return per_arm * len(self.arms) * self.seeds
        return self.users * self.duration_s

    def processes(self) -> int:
        """Processes simulating at once: the pool's workers, or the CLI."""
        return 1 if self.kind == "fleet" else WORKERS

    def operations(self) -> int:
        """Operations per run: a fleet run, each shard, or each cell."""
        if self.kind == "campaign":
            return len(self.scenarios) * len(self.arms) * self.seeds
        if self.kind == "sharded":
            return self.shards
        return 1

    # ------------------------------------------------------------ checks
    def check(self, out: Path, spawned_wall_ns: int) -> Outcome:
        """Verify one finished run's artifacts; raises :class:`CheckFailed`."""
        if self.kind == "campaign":
            return self._check_campaign(out, spawned_wall_ns)
        path = out / "fleet.json" if self.kind == "sharded" else out
        fleet = _load(path)
        totals = _get(fleet, "aggregates", "totals")
        if _get(fleet, "fleet", "n_users") != self.users or totals.get(
            "users"
        ) != self.users:
            raise CheckFailed(f"{path}: expected {self.users} users")
        if self.kind == "sharded":
            shard_files = [
                p for p in (out / "shards").glob("*.json")
                if not p.name.endswith(".telemetry.json")
            ]
            _fresh(shard_files + [path], spawned_wall_ns)
            if len(shard_files) != self.shards:
                raise CheckFailed(
                    f"{out}: {len(shard_files)} shard artifacts, "
                    f"expected {self.shards}"
                )
            if fleet.get("users") is not None:
                raise CheckFailed(f"{path}: expected streaming aggregation")
        else:
            _fresh([path], spawned_wall_ns)
            if len(fleet.get("users") or ()) != self.users:
                raise CheckFailed(f"{path}: per-user results incomplete")
        return Outcome(
            digest=hashlib.sha256(path.read_bytes()).hexdigest(),
            handovers={
                "soft": int(totals["soft_handovers"]),
                "hard": int(totals["hard_handovers"]),
                "failed": int(totals["handovers_failed"]),
            },
        )

    def _check_campaign(self, out: Path, spawned_wall_ns: int) -> Outcome:
        manifest = _load(out / "manifest.json")
        expected = self.operations()
        if len(manifest.get("cells", ())) != expected:
            raise CheckFailed(f"{out}: manifest lists the wrong cell count")
        cells = sorted((out / "cells").glob("*.json"))
        cells = [p for p in cells if not p.name.endswith(".telemetry.json")]
        if len(cells) != expected:
            raise CheckFailed(f"{out}: {len(cells)} cells, expected {expected}")
        _fresh(cells, spawned_wall_ns)
        digest = hashlib.sha256()
        counts = {"soft": 0, "hard": 0, "failed": 0}
        for path in cells:
            data = path.read_bytes()
            digest.update(path.name.encode() + b"\0" + data)
            outcome = _get(_parse(path, data), "payload").get("outcome")
            counts[outcome if outcome in ("soft", "hard") else "failed"] += 1
        return Outcome(digest=digest.hexdigest(), handovers=counts)


def _parse(path: Path, data: bytes):
    try:
        return json.loads(data)
    except ValueError as error:
        raise CheckFailed(f"{path}: not JSON ({error})") from None


def _load(path: Path):
    try:
        data = path.read_bytes()
    except OSError as error:
        raise CheckFailed(f"{path}: unreadable ({error})") from None
    return _parse(path, data)


def _get(record, *keys):
    for key in keys:
        if not isinstance(record, dict) or key not in record:
            raise CheckFailed(f"artifact lacks {'.'.join(keys)}")
        record = record[key]
    return record


def _fresh(paths: List[Path], spawned_wall_ns: int) -> None:
    """Every artifact was written by this run (none skipped on resume)."""
    for path in paths:
        if path.stat().st_mtime_ns < spawned_wall_ns:
            raise CheckFailed(f"{path}: predates the run (skipped work)")


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fleet-street",
            why=(
                "steady-state multi-user burst path on the paper's 3-cell "
                "street: link engine, channel, gains, mobility and protocol "
                "do the work; set-up, pool and stores are almost absent"
            ),
            kind="fleet", users=128, duration_s=2.0,
        ),
        Workload(
            name="fleet-corridor",
            why=(
                "dense 32-cell corridor: many stations per coalesced tick, "
                "most offered pairs declined or pruned by net.cell_index, so "
                "arbitration and protocol callbacks dominate and PHY is small"
            ),
            kind="fleet", users=1024, duration_s=0.2,
            extra=("--topology", "corridor", "--cells", "32"),
        ),
        Workload(
            name="fleet-sharded",
            why=(
                "10240 users in 16 shards on 2 workers with streaming "
                "aggregation: per-user set-up, membership scan, pool dispatch "
                "and shard stores dominate; steady-state PHY does little"
            ),
            kind="sharded", users=10240, duration_s=0.02, shards=16,
        ),
        Workload(
            name="campaign-tracking",
            why=(
                "Fig. 2c handover episodes as 72 single-user cells on 2 "
                "workers: per-cell set-up, many small engine events, protocol "
                "and RACH; the only workload through campaign runner and store"
            ),
            kind="campaign", scenarios=("walk", "rotation", "vehicular"),
            arms=("narrow", "wide", "omni"), seeds=8,
        ),
    )
}
