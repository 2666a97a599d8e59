"""Persistent run artifacts: one JSON file per stored item plus a manifest.

One store serves both kinds of stored task — campaign cells and fleet
shards.  Layout under the output directory::

    <root>/manifest.json                     # kind, identity, item index
    <root>/<items>/<item_id>.json            # one item's artifact
    <root>/<items>/<item_id>.telemetry.json  # wall-clock sidecar (optional)

where ``<items>`` is ``cells`` for a campaign and ``shards`` for a
sharded fleet (which also writes the merged ``<root>/fleet.json``).
Item IDs are content hashes (a cell ID, a shard hash), so resume is a
directory scan: an artifact that parses and records its own ID is done,
anything else is re-run.

Design rules:

* **Kind-tagged manifest** — written once; re-initialising with the
  same kind and identity is the resume path, anything else is refused
  so artifacts from unrelated runs never mix.
* **Canonical bytes** — every file is canonical JSON (sorted keys, fixed
  separators, trailing newline), so artifacts are byte-identical no
  matter how many workers produced the results or in what order they
  finished.
* **Atomic writes** — files land via write-to-temp + ``os.replace``; a
  run killed mid-write leaves no half-written artifact, which is what
  makes resume trustworthy.
* **Single writer** — only the driver process writes; workers return
  payloads over the pool pipe.  No cross-process file locking is
  needed.

Telemetry sidecars are wall-clock and inherently not deterministic, so
they never take part in resume decisions: :meth:`ArtifactStore.completed_ids`
skips them by suffix, and ``repro obs top <root>`` finds them with the
same ``*.telemetry.json`` rule that finds a single fleet run's sidecar.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, Optional, Set, Tuple, Union

from repro.campaign.spec import canonical_json
from repro.util.files import atomic_write_text

PathLike = Union[str, Path]

MANIFEST_NAME = "manifest.json"
TELEMETRY_SUFFIX = ".telemetry.json"
STORE_FORMAT = 1

CAMPAIGN_KIND = "campaign"
FLEET_KIND = "fleet-shards"

#: kind -> (item directory, key path to the ID an artifact records).
KINDS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    CAMPAIGN_KIND: ("cells", ("cell", "cell_id")),
    FLEET_KIND: ("shards", ("shard_hash",)),
}


class StoreError(RuntimeError):
    """Raised for artifact-store misuse or on-disk corruption."""


def _read_json(path: Path, what: str):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise StoreError(f"{path}: malformed {what}: {error}") from error


class ArtifactStore:
    """Reads and writes one run's on-disk artifacts, for one ``kind``."""

    def __init__(self, root: PathLike, kind: str = CAMPAIGN_KIND) -> None:
        self._root = Path(root)
        self._kind = kind
        item_dir, self._id_path = KINDS[kind]
        self._item_dir = self._root / item_dir

    @property
    def root(self) -> Path:
        return self._root

    @property
    def manifest_path(self) -> Path:
        return self._root / MANIFEST_NAME

    def artifact_path(self, item_id: str) -> Path:
        return self._item_dir / f"{item_id}.json"

    def telemetry_path(self, item_id: str) -> Path:
        return self._item_dir / f"{item_id}{TELEMETRY_SUFFIX}"

    # ---------------------------------------------------------------- manifest
    def initialize(self, record: dict, identity: Iterable[str]) -> None:
        """Write ``record`` as the manifest of a new run directory.

        Re-initialising with the same kind and the same values under
        every ``identity`` key is the resume path and is a no-op; a
        different run over the same directory is refused before
        anything is written to it.
        """
        existing = self._load_manifest()
        if existing is None:
            record = {"format": STORE_FORMAT, "kind": self._kind, **record}
            atomic_write_text(self.manifest_path, canonical_json(record) + "\n")
            return
        keys = tuple(identity)
        if any(existing.get(key) != record[key] for key in keys):
            found = ", ".join(f"{key}={existing.get(key)!r}" for key in keys)
            raise StoreError(
                f"{self._root} already holds {self._kind} "
                f"{existing.get('name')!r} with a different identity "
                f"({found}); use a fresh output directory"
            )

    def _load_manifest(self) -> Optional[dict]:
        """The raw manifest dict, or ``None`` when absent.

        Raises :class:`StoreError` when the manifest is malformed or
        belongs to another kind of run.
        """
        if not self.manifest_path.exists():
            return None
        record = _read_json(self.manifest_path, "manifest")
        if not isinstance(record, dict) or record.get("format") != STORE_FORMAT:
            raise StoreError(
                f"{self.manifest_path}: unsupported manifest format "
                f"(expected {STORE_FORMAT})"
            )
        # Campaign manifests written before the kind tag carry none.
        kind = record.get("kind", CAMPAIGN_KIND)
        if kind != self._kind:
            raise StoreError(
                f"{self._root} holds a {kind} run, not a {self._kind} run"
            )
        return record

    def manifest(self) -> dict:
        """The manifest dict; raises :class:`StoreError` when absent."""
        record = self._load_manifest()
        if record is None:
            raise StoreError(f"{self._root}: no {self._kind} manifest found")
        return record

    # ------------------------------------------------------------------- items
    def write(self, item_id: str, record: dict) -> Path:
        """Persist one item's artifact (atomic, canonical bytes)."""
        return atomic_write_text(
            self.artifact_path(item_id), canonical_json(record) + "\n"
        )

    def has(self, item_id: str) -> bool:
        return self.artifact_path(item_id).exists()

    def _recorded_id(self, record) -> Optional[str]:
        for key in self._id_path:
            if not isinstance(record, dict):
                return None
            record = record.get(key)
        return record

    def completed_ids(self) -> Set[str]:
        """Item IDs with a readable, self-consistent artifact on disk.

        A file that fails to parse or whose recorded ID mismatches its
        name is treated as missing (it will simply be re-run), so a
        partially corrupted store degrades to extra work, not wrong
        results.
        """
        done: Set[str] = set()
        if not self._item_dir.is_dir():
            return done
        for path in self._item_dir.glob("*.json"):
            if path.name.endswith(TELEMETRY_SUFFIX):
                continue
            try:
                record = json.loads(path.read_text(encoding="utf-8"))
            except (json.JSONDecodeError, OSError):
                continue
            if self._recorded_id(record) == path.stem:
                done.add(path.stem)
        return done

    def load(self, item_id: str) -> dict:
        """One item's artifact record from disk."""
        path = self.artifact_path(item_id)
        if not path.exists():
            raise StoreError(f"no artifact for {item_id} in {self._item_dir}")
        return _read_json(path, "artifact")

    # --------------------------------------------------------------- telemetry
    def write_telemetry(self, item_id: str, summary: dict) -> Path:
        """Persist one item's wall-clock telemetry summary (sidecar).

        Sidecars are advisory: they never participate in resume
        decisions or the byte-identity contract, so a missing or stale
        one is harmless.
        """
        return atomic_write_text(
            self.telemetry_path(item_id), canonical_json(summary) + "\n"
        )

    def load_telemetry(self, item_id: str) -> Optional[dict]:
        """One item's telemetry summary, or ``None`` when absent/corrupt."""
        try:
            record = json.loads(
                self.telemetry_path(item_id).read_text(encoding="utf-8")
            )
        except (json.JSONDecodeError, OSError):
            return None
        return record if isinstance(record, dict) else None
