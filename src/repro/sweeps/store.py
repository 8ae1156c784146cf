"""Persistent, content-addressed sweep results store.

Layout (default root ``benchmarks/results/store/``)::

    store/
      shard-ab.jsonl   # append-only record log, sharded by key prefix
      shard-3f.jsonl
      index.json       # derived key -> location/metadata cache

Every record is one JSON line carrying its own ``key``: the SHA-256 of the
canonical JSON of ``{schema, engine (result family), point without its trial
count}``.  Because the key is a *content* hash of the configuration (plus the
code-relevant schema version and engine family), re-running any spec — from
the sweep executor, the benchmark harness or a notebook — deduplicates
automatically: a point whose record holds enough trials is served from the
store instead of recomputed, and one holding fewer is only topped up.

Durability contract:

* the JSONL shards are the single source of truth.  :meth:`ResultsStore.put`
  appends one line and flushes before returning, so a sweep killed at any
  moment loses at most the point being computed;
* ``index.json`` is a derived cache (rewritten atomically after each append,
  through a per-writer temp file so that concurrent writers never collide)
  kept for humans and external tools; loading *never* trusts it — the shards
  are rescanned, and a torn final line (the kill-mid-write case) is skipped
  and simply recomputed on resume (the next append to that shard first
  terminates the torn line, so the new record parses on the next open);
* shards are append-only.  Re-recording a key appends a new line; lookups
  return the latest record, and the older lines remain as the result
  trajectory (the benchmark harness uses this to keep one machine-readable
  history per experiment).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.core.runner import TrialsResult, TrialSummary
from repro.engine import SweepResult
from repro.exceptions import ConfigurationError
from repro.observability.tracer import current_tracer
from repro.sweeps.spec import SweepPoint, canonical_json

#: Bumped whenever a kernel/engine change alters what stored results mean;
#: part of every content key, so stale caches can never be served.
STORE_SCHEMA_VERSION = 1

#: Environment override for the store root used by the CLI and the harness.
STORE_ROOT_ENV = "REPRO_SWEEP_STORE"


def default_store_root() -> Path:
    """The store root: ``$REPRO_SWEEP_STORE`` or ``benchmarks/results/store``.

    The default is anchored at the repository root (located relative to this
    file) rather than the current working directory, so the CLI, the
    benchmark harness and library callers all share one store no matter
    where they are invoked from; outside a repo checkout (no ``benchmarks/``
    sibling) it falls back to a cwd-relative path.
    """
    override = os.environ.get(STORE_ROOT_ENV)
    if override:
        return Path(override)
    repo_root = Path(__file__).resolve().parents[3]
    if (repo_root / "benchmarks").is_dir():
        return repo_root / "benchmarks" / "results" / "store"
    return Path("benchmarks/results/store")


def point_key(point: SweepPoint, family: str) -> str:
    """Content key of one sweep point's results under one engine family.

    The hash covers every configuration field *except* ``trials``
    (:meth:`SweepPoint.canonical_base`), the result family (the worker
    count never changes results, so it is not part of the key) and the
    store schema version.  Being trials-independent,
    one key holds a point's results at any trial count: a record with at
    least the requested trials is served as its prefix, a shorter one is
    topped up, and the append-only shard lines are the accumulation
    trajectory.  The payload's ``"kind": "adaptive"`` tag predates the
    single key and is kept so that existing stores keep hitting.  Stable
    across dict ordering by construction
    (:func:`repro.sweeps.spec.canonical_json`).
    """
    if family not in ("vectorized", "object"):
        raise ConfigurationError(
            f"point keys are per result family ('vectorized'/'object'), got {family!r}"
        )
    payload = {
        "schema": STORE_SCHEMA_VERSION,
        "engine": family,
        "kind": "adaptive",
        "point": point.canonical_base(),
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def experiment_key(experiment_id: str, mode: str) -> str:
    """Content key of one E1–E10 experiment trajectory (id + sweep mode)."""
    payload = {
        "schema": STORE_SCHEMA_VERSION,
        "kind": "experiment",
        "experiment_id": experiment_id,
        "mode": mode,
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def sweep_record(
    point: SweepPoint,
    result: TrialsResult,
    engine: str,
    targets: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Build the stored record for one point's accumulated result.

    The embedded point carries the *accumulated* trial count, so
    :func:`result_from_record` rebuilds the full :class:`SweepResult`
    unchanged.  ``targets`` (the precision stopping rule the accumulation
    ran under) is recorded only when one was in force.
    """
    fields = list(TrialSummary.__dataclass_fields__)
    record = {
        "kind": "sweep-point",
        "schema": STORE_SCHEMA_VERSION,
        "engine": engine,
        "point": {**point.canonical(), "trials": result.num_trials},
        "summary": result.summary(),
        "trial_fields": fields,
        "trials": [
            [getattr(summary, name) for name in fields] for summary in result.trials
        ],
    }
    if targets is not None:
        record["targets"] = dict(targets)
    return record


def result_from_record(record: Mapping[str, Any]) -> SweepResult:
    """Rebuild a full :class:`SweepResult` from a stored sweep-point record
    (``adaptive-point`` records written by earlier versions share the
    trial-table layout)."""
    if record.get("kind") not in ("sweep-point", "adaptive-point"):
        raise ConfigurationError(
            f"record is not a sweep point (kind={record.get('kind')!r})"
        )
    point = SweepPoint.from_mapping(record["point"])
    names = record["trial_fields"]
    summaries = [
        TrialSummary(**dict(zip(names, values))) for values in record["trials"]
    ]
    return SweepResult(
        experiment=point.experiment(), trials=summaries, engine=record["engine"]
    )


class ResultsStore:
    """Append-only JSONL store with an in-memory latest-record view.

    Open is cheap (one scan of the shard files); all reads are served from
    memory, every :meth:`put` appends to disk before returning.  Safe to
    re-open after a kill at any point — see the module docstring for the
    durability contract.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_store_root()
        self.root.mkdir(parents=True, exist_ok=True)
        self._records: dict[str, dict[str, Any]] = {}
        self._lines = 0
        self._index_dirty = False
        #: Shards whose last line lacks its newline (a torn append): the
        #: next append to one first terminates it, or the glued line would
        #: fail to parse on the next open and lose the new record with it.
        self._unterminated: set[Path] = set()
        self._load()

    # -- loading -------------------------------------------------------
    def _shard_path(self, key: str) -> Path:
        return self.root / f"shard-{key[:2]}.jsonl"

    def _load(self) -> None:
        for shard in sorted(self.root.glob("shard-*.jsonl")):
            with shard.open("r", encoding="utf-8") as handle:
                for raw in handle:
                    if not raw.endswith("\n"):
                        self._unterminated.add(shard)
                    line = raw.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError:
                        # A torn final line from an interrupted append: the
                        # point was never acknowledged, so dropping it just
                        # means it is recomputed on resume.
                        continue
                    key = record.get("key")
                    if isinstance(key, str) and key:
                        self._records[key] = record
                        self._lines += 1

    # -- reads ---------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __len__(self) -> int:
        return len(self._records)

    @property
    def appended_lines(self) -> int:
        """Total record lines on disk (>= len(self): the trajectory depth)."""
        return self._lines

    def keys(self) -> Iterator[str]:
        return iter(self._records)

    def get(self, key: str) -> dict[str, Any] | None:
        """The latest record stored under ``key`` (or None)."""
        current_tracer().count("store.read")
        return self._records.get(key)

    def records(self, kind: str | None = None) -> list[dict[str, Any]]:
        """All latest records, optionally filtered by ``kind``."""
        return [
            record
            for record in self._records.values()
            if kind is None or record.get("kind") == kind
        ]

    # -- writes --------------------------------------------------------
    def put(self, key: str, record: Mapping[str, Any]) -> None:
        """Append one record under ``key`` (flushed before returning)."""
        if not key:
            raise ConfigurationError("a store key must be non-empty")
        current_tracer().count("store.write")
        stamped = {
            "key": key,
            **record,
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }
        line = json.dumps(stamped, sort_keys=True, separators=(",", ":"))
        path = self._shard_path(key)
        if path in self._unterminated:
            line = "\n" + line
        with path.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        self._unterminated.discard(path)
        self._records[key] = stamped
        self._lines += 1
        # The index is a derived cache, so its rewrite can be amortised for
        # large stores (the executor flushes once more when a run ends);
        # small stores stay eagerly fresh for humans tailing the directory.
        self._index_dirty = True
        if len(self._records) <= 512 or self._lines % 64 == 0:
            self.flush_index()

    # -- derived index -------------------------------------------------
    def flush_index(self) -> None:
        """Atomically rewrite the derived ``index.json`` cache (if stale)."""
        if not self._index_dirty:
            return
        index = {
            key: {
                "shard": self._shard_path(key).name,
                "kind": record.get("kind"),
                "recorded_at": record.get("recorded_at"),
            }
            for key, record in sorted(self._records.items())
        }
        payload = json.dumps(
            {"schema": STORE_SCHEMA_VERSION, "records": index}, indent=2
        )
        # A per-writer temp name (process and thread): concurrent writers
        # sharing one store each rename their own complete file into place,
        # and the last rename wins.
        temp = self.root / f"index.json.{os.getpid()}.{threading.get_ident()}.tmp"
        temp.write_text(payload + "\n", encoding="utf-8")
        temp.replace(self.root / "index.json")
        self._index_dirty = False
