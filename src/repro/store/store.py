"""The durable content-addressed verdict store (ROADMAP item 1).

K2's equivalence cache eliminates the vast majority of solver calls within
one run (paper §5, optimization V), but every run starts cold: its proofs
and refutations die with the process.  :class:`VerdictStore` makes those
verdicts durable — a build-cache for equivalence proofs — so verdicts
learned in one run accelerate every future run over the same programs.

Format
------
One append-only JSONL file.  The first line is a header stamping the file
format and the **semantics version** (:data:`SEMANTICS_VERSION`); every
following line is one record carrying its own checksum:

* ``src``  — declares a source program: content digest → full content key;
* ``eq``   — one equivalence verdict: (source digest, canonical candidate
  key) → :class:`~repro.equivalence.EquivalenceResult`;
* ``ck``   — one resumable-search checkpoint generation of a running job,
  or the ``clear`` that ends the job's checkpoint.

Files written by older code may also hold ``cex`` (pooled counterexample)
and ``an`` (analyzer memo) records.  No search reads them back, so they
load as *retired* kinds: checksum-checked, then dropped, and neither
skipped nor corrupt — the next compaction or ``gc`` rewrites them away.

Staleness is handled by *versioning the key*, never by trusting mtimes: a
header whose semantics stamp differs from the running code makes the whole
file read as empty (and the next flush or ``gc`` rewrites it), and records
are only ever looked up under exact content keys, so a program edit can
never alias a stale verdict.

Only **conclusive** verdicts are persisted (proofs of equivalence, or
non-equivalence with a concrete counterexample).  "Unknown" results —
solver-budget exhaustion, unencodable candidates — are recomputed fresh
each run: they are cheap to reproduce when deterministic and may flip under
a different solver history when not, and skipping them is what keeps a
warm-started search bit-identical to a cold one.

Durability and concurrency
--------------------------
Appends happen under an exclusive ``flock`` on a sidecar lock file, as a
single buffered write followed by ``fsync``; compaction and
first-write/stale-rewrite paths write a temporary file and ``os.replace``
it into place (atomic rename).  Readers never need the lock: a torn
trailing line fails its JSON parse or checksum and is skipped, costing one
record, not the file.  Within a synthesis run the write path is
single-writer by construction — worker chains buffer their verdicts in
their caches and the :class:`~repro.synthesis.parallel.ChainController`
merges and flushes them at generation boundaries.

Compaction
----------
Checkpoints are the only records that go dead (retired kinds aside).  A
running job appends one ``ck`` generation per generation boundary, each
superseding the last; when the job (or one of its windows or shards)
finishes or is cancelled, the flush that carries its ``clear`` re-reads
the file under the writer lock and rewrites it without that history,
keeping every other writer's records and each still-running job's newest
generation.  So a shared store (``k2 serve``) stays the size of its
verdicts instead of growing by every finished job's checkpoints.  Where a
rewrite could lose something — the re-read meets a stale header, a corrupt
line or an unknown record kind, or the writer lock degraded to no lock —
the flush only appends and leaves the file to ``k2 store verify`` and
``k2 store gc``.  ``gc`` rewrites unconditionally, from the same
under-lock re-read.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
import warnings
import weakref
from typing import Dict, List, Optional, Tuple

from ..bpf.program import BpfProgram
from ..equivalence.checker import EquivalenceResult
from .serialize import (
    decode_key, decode_result, encode_key, encode_result, record_checksum,
    source_digest,
)

__all__ = ["SEMANTICS_VERSION", "STORE_FORMAT", "VerdictStore",
           "flush_open_stores"]

#: Version stamp of the executable semantics the persisted verdicts were
#: computed under: the interpreter/engines, the SMT encoding and the fused
#: abstract analyzer.  Bump it whenever any of those change observable
#: behaviour — every existing store then reads as empty (a cold cache)
#: instead of replaying verdicts the new semantics might not reproduce.
SEMANTICS_VERSION = "k2-semantics-1"

#: On-disk container format version (header layout, record framing).
STORE_FORMAT = 1

#: Record kinds older code wrote and nothing reads any more (pooled
#: counterexamples, analyzer memos): loaded as nothing, rewritten away.
_RETIRED_KINDS = frozenset({"cex", "an"})


# ``fcntl`` is resolved once at import time — a mid-flush ImportError on a
# non-POSIX platform would otherwise abort the write and drop the pending
# delta.  Without it, writers degrade to an atomic-create lock file (and,
# past a bounded wait, to no locking at all), with a one-time warning so
# the weaker guarantee is visible rather than silent.
try:
    import fcntl as _fcntl
except ImportError:  # pragma: no cover - platform-dependent
    _fcntl = None

#: Seconds a lock-file writer waits for a competing writer before assuming
#: the lock is stale (a crashed holder) and breaking it.
_LOCKFILE_TIMEOUT = 10.0
_warned_fallback = False


def _warn_lock_fallback(reason: str) -> None:
    global _warned_fallback
    if not _warned_fallback:
        _warned_fallback = True
        warnings.warn(
            f"verdict-store writer lock degraded ({reason}); concurrent "
            "writers on this platform may interleave appends",
            RuntimeWarning, stacklevel=3)


@contextlib.contextmanager
def _lockfile_lock(lock_path: str):
    """Portable fallback: exclusive lock via atomic O_CREAT|O_EXCL.

    A holder that crashes leaves the file behind; waiters break locks older
    than :data:`_LOCKFILE_TIMEOUT` (and locks whose age cannot be read)
    rather than deadlocking — the store's per-record checksums already make
    a torn interleaved append cost one record, not the file.  Yields
    whether the lock is held: False once the wait gave up and the writer
    goes ahead unlocked.
    """
    deadline = time.monotonic() + _LOCKFILE_TIMEOUT
    acquired = False
    while True:
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(fd)
            acquired = True
            break
        except FileExistsError:
            try:
                stale = (time.time() - os.path.getmtime(lock_path)
                         > _LOCKFILE_TIMEOUT)
            except OSError:
                stale = True
            if stale:
                with contextlib.suppress(OSError):
                    os.unlink(lock_path)
                continue
            if time.monotonic() > deadline:
                _warn_lock_fallback("timed out waiting for lock file")
                break
            time.sleep(0.01)
        except OSError as exc:  # pragma: no cover - exotic filesystems
            _warn_lock_fallback(f"cannot create lock file: {exc}")
            break
    try:
        yield acquired
    finally:
        if acquired:
            with contextlib.suppress(OSError):
                os.unlink(lock_path)


@contextlib.contextmanager
def _file_lock(path: str):
    """Exclusive advisory lock serializing writers of ``path``.

    ``flock`` where available; elsewhere the lock-file fallback above (with
    a one-time warning).  Every writer path — append, stale rewrite and
    compaction — takes this same lock, so maintenance can never race
    an append's view of the file or another rewrite's atomic rename.
    Yields whether the lock is really held (see :func:`_lockfile_lock`).
    """
    lock_path = path + ".lock"
    if _fcntl is None:  # non-POSIX platform
        _warn_lock_fallback("fcntl unavailable on this platform")
        with _lockfile_lock(lock_path) as held:
            yield held
        return
    with open(lock_path, "a", encoding="utf-8") as handle:
        _fcntl.flock(handle, _fcntl.LOCK_EX)
        try:
            yield True
        finally:
            _fcntl.flock(handle, _fcntl.LOCK_UN)


#: Every live store, so an interrupt handler (the CLI's SIGINT/SIGTERM
#: path, the daemon's graceful shutdown) can flush buffered deltas that
#: would otherwise die with the process.
_OPEN_STORES: "weakref.WeakSet[VerdictStore]" = weakref.WeakSet()


def flush_open_stores() -> int:
    """Best-effort flush of every live store's buffered records.

    Returns the number of records written.  Exceptions are swallowed per
    store: this runs on interrupt paths where one broken store must not
    keep another store's delta from reaching disk.
    """
    written = 0
    for store in list(_OPEN_STORES):
        with contextlib.suppress(Exception):
            written += store.flush()
    return written


class VerdictStore:
    """Durable, content-addressed store of equivalence verdicts and
    resumable-search checkpoints."""

    def __init__(self, path, semantics: str = SEMANTICS_VERSION):
        self.path = str(path)
        self.semantics = semantics
        #: source digest → full encoded-then-decoded content key.
        self._sources: Dict[str, Tuple] = {}
        #: digests whose declarations ever disagreed (never served).
        self._collided: set = set()
        self._verdicts: Dict[str, Dict[Tuple, EquivalenceResult]] = {}
        #: job key → (generation, payload): the latest resumable-search
        #: checkpoint per job (see :meth:`record_checkpoint`).
        self._checkpoints: Dict[str, Tuple[int, dict]] = {}
        self._pending: List[str] = []
        #: ``_pending`` holds a checkpoint clear: the next flush compacts.
        self._pending_clear = False
        self.records_loaded = 0
        self.corrupt_records = 0
        self.skipped_records = 0
        #: Header missing/mismatched: the file reads as empty and the next
        #: flush (or ``gc``) rewrites it under the current stamps.
        self.stale = False
        self.load()
        _OPEN_STORES.add(self)

    # ------------------------------------------------------------------ #
    # Loading
    # ------------------------------------------------------------------ #
    def load(self) -> None:
        """(Re)read the backing file, tolerating corruption and staleness."""
        self._sources.clear()
        self._collided.clear()
        self._verdicts.clear()
        self._checkpoints.clear()
        self.records_loaded = 0
        self.corrupt_records = 0
        self.skipped_records = 0
        self.stale = False
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        if not lines or not self._header_ok(lines[0]):
            self.stale = True
            return
        for line in lines[1:]:
            if not line.strip():
                continue
            self._load_record(line)

    def _header_ok(self, line: str) -> bool:
        try:
            header = json.loads(line)
        except (ValueError, TypeError):
            return False
        return (isinstance(header, dict)
                and header.get("k2store") == STORE_FORMAT
                and header.get("semantics") == self.semantics)

    def _load_record(self, line: str) -> None:
        try:
            record = json.loads(line)
            if not isinstance(record, dict) \
                    or record.get("c") != record_checksum(record):
                raise ValueError("bad checksum")
            kind = record.get("t")
            if kind == "src":
                self._load_source(record)
            elif kind == "eq":
                self._load_verdict(record)
            elif kind == "ck":
                self._load_checkpoint(record)
            elif kind in _RETIRED_KINDS:
                # Not skipped: compaction may rewrite it away.
                return
            else:
                # Forward compatibility: a checksum-valid record of an
                # unknown kind was written by newer code — skip it quietly.
                self.skipped_records += 1
                return
        except (ValueError, TypeError, KeyError):
            self.corrupt_records += 1
            return
        self.records_loaded += 1

    def _load_source(self, record: dict) -> None:
        digest = record["id"]
        if source_digest(record["key"]) != digest:
            raise ValueError("source digest mismatch")
        key = decode_key(record["key"])
        known = self._sources.get(digest)
        if known is not None and known != key:
            # Two distinct programs claim one digest: serve neither.
            self._collided.add(digest)
            self._sources.pop(digest, None)
            self._verdicts.pop(digest, None)
            return
        if digest not in self._collided:
            self._sources[digest] = key

    def _load_verdict(self, record: dict) -> None:
        digest = record["src"]
        if digest in self._collided:
            return
        result = decode_result(record["r"])
        if result.unknown:
            raise ValueError("unknown verdicts are never persisted")
        self._verdicts.setdefault(digest, {})[decode_key(record["key"])] = result

    def _load_checkpoint(self, record: dict) -> None:
        job = str(record["job"])
        if record.get("clear"):
            self._checkpoints.pop(job, None)
            return
        generation = int(record["gen"])
        payload = record["p"]
        if not isinstance(payload, dict):
            raise ValueError("checkpoint payload must be a mapping")
        known = self._checkpoints.get(job)
        # The log is append-only, so later records supersede earlier ones;
        # keep the highest generation as a belt (re-ordered gc output).
        if known is None or generation >= known[0]:
            self._checkpoints[job] = (generation, payload)

    # ------------------------------------------------------------------ #
    # Read API (keyed on exact program content — never on digests alone)
    # ------------------------------------------------------------------ #
    def _digest_for(self, source: BpfProgram) -> str:
        return source_digest(encode_key(source.content_key()))

    def verdicts_for(self, source: BpfProgram
                     ) -> Dict[Tuple, EquivalenceResult]:
        """Every persisted verdict against ``source`` (canonical key → result)."""
        digest = self._digest_for(source)
        if self._sources.get(digest) != source.content_key():
            return {}
        return dict(self._verdicts.get(digest, {}))

    # ------------------------------------------------------------------ #
    # Write API (buffered; nothing reaches disk until flush())
    # ------------------------------------------------------------------ #
    def _queue(self, record: dict) -> None:
        record["c"] = record_checksum(record)
        self._pending.append(json.dumps(record, sort_keys=True,
                                        separators=(",", ":")) + "\n")

    def _declare_source(self, source: BpfProgram) -> Optional[str]:
        digest = self._digest_for(source)
        if digest in self._collided:
            return None
        key = source.content_key()
        known = self._sources.get(digest)
        if known is None:
            self._sources[digest] = key
            self._queue({"t": "src", "id": digest,
                         "key": encode_key(key)})
        elif known != key:
            return None
        return digest

    def record_verdict(self, source: BpfProgram, key: Tuple,
                       result: EquivalenceResult) -> bool:
        """Persist one conclusive verdict; returns True when newly adopted."""
        if result.unknown:
            return False
        digest = self._declare_source(source)
        if digest is None:
            return False
        verdicts = self._verdicts.setdefault(digest, {})
        if key in verdicts:
            return False
        verdicts[key] = result
        self._queue({"t": "eq", "src": digest, "key": encode_key(key),
                     "r": encode_result(result)})
        return True

    # ------------------------------------------------------------------ #
    # Search checkpoints (crash-recoverable chains; repro.service)
    # ------------------------------------------------------------------ #
    def record_checkpoint(self, job: str, generation: int,
                          payload: dict) -> None:
        """Persist the latest resumable-search checkpoint for ``job``.

        ``payload`` must be plain JSON data (the checkpoint codec in
        :mod:`repro.synthesis.checkpoint` produces it).  Unlike verdicts,
        checkpoints *replace*: only the newest generation per job is served.
        The log keeps a running job's superseded generations; the flush
        that carries its :meth:`clear_checkpoint` sheds its whole history
        (as does ``gc``).
        """
        self._checkpoints[str(job)] = (int(generation), payload)
        self._queue({"t": "ck", "job": str(job), "gen": int(generation),
                     "p": payload})

    def clear_checkpoint(self, job: str) -> bool:
        """Drop ``job``'s checkpoint (the job completed or was cancelled)."""
        if str(job) not in self._checkpoints:
            return False
        self._checkpoints.pop(str(job), None)
        self._queue({"t": "ck", "job": str(job), "clear": 1})
        self._pending_clear = True
        return True

    def checkpoint_for(self, job: str) -> Optional[Tuple[int, dict]]:
        """The newest ``(generation, payload)`` checkpoint for ``job``."""
        return self._checkpoints.get(str(job))

    def checkpoint_jobs(self) -> List[str]:
        """Jobs with a live checkpoint (in-flight when last persisted)."""
        return sorted(self._checkpoints)

    # ------------------------------------------------------------------ #
    def flush(self) -> int:
        """Write buffered records to disk; returns the number written.

        Appends under the writer lock when the file is healthy; rewrites
        the whole file atomically when it is missing or stale (wrong or
        corrupt header / old semantics stamp).  When the records carry a
        checkpoint clear (a job, window or shard ended), the append is
        followed by a compaction under the same lock (see
        :meth:`_compact_locked`), so finished jobs leave no checkpoint
        history behind for every later load to parse.
        """
        if not self._pending and not self.stale:
            return 0
        written = len(self._pending)
        with _file_lock(self.path) as locked:
            # A missing or stale file is normally healed by an atomic full
            # rewrite — but only after re-probing the header *under the
            # lock*: a second writer that loaded the same stale file may
            # have already rewritten it, and rewriting again from our
            # (stale-empty) in-memory state would drop its records.  When
            # another writer healed the file first, downgrade to an append
            # of just our pending records.
            if (self.stale or not os.path.exists(self.path)) \
                    and not self._disk_header_ok():
                self._rewrite_locked()
            elif self._pending:
                self._append_locked()
                # Without a real lock another writer may be appending right
                # now, and a rewrite could lose its records: append only.
                if self._pending_clear and locked:
                    self._compact_locked()
        self._pending = []
        self._pending_clear = False
        self.stale = False
        return written

    def _append_locked(self) -> None:
        if not self._pending:
            return
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write("".join(self._pending))
            handle.flush()
            os.fsync(handle.fileno())

    def _reread_locked(self) -> "VerdictStore":
        """The file as it stands now, under the writer lock.

        Includes what other writers appended since this store's own load,
        which is what a rewrite must keep.
        """
        return VerdictStore(self.path, semantics=self.semantics)

    def _compact_locked(self) -> None:
        """Shed dead checkpoint history: rewrite the file from a re-read.

        The rewrite keeps verdicts and the newest checkpoint of each job
        still running, and drops superseded generations, cleared jobs and
        retired record kinds.  When the re-read cannot account for every
        line — a stale header, a corrupt line or a record kind this code
        does not know — the file is left as appended, for ``verify`` to
        report and ``gc`` to drop.
        """
        disk = self._reread_locked()
        if not (disk.stale or disk.corrupt_records or disk.skipped_records):
            disk._rewrite_locked()

    def _disk_header_ok(self) -> bool:
        """Whether the on-disk file currently has a valid header.

        Re-probed under the writer lock before a stale rewrite; distinct
        from ``self.stale``, which reflects the file as of our last
        :meth:`load`.
        """
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                return self._header_ok(handle.readline().rstrip("\n"))
        except OSError:
            return False

    def _snapshot_lines(self) -> List[str]:
        """Header + every in-memory record, in a deterministic order.

        Each source's verdicts keep their load order, so a rewritten file
        loads back to the same state.
        """
        lines = [json.dumps({"k2store": STORE_FORMAT,
                             "semantics": self.semantics},
                            sort_keys=True, separators=(",", ":")) + "\n"]

        def emit(record: dict) -> None:
            record["c"] = record_checksum(record)
            lines.append(json.dumps(record, sort_keys=True,
                                    separators=(",", ":")) + "\n")

        for digest in sorted(self._sources):
            emit({"t": "src", "id": digest,
                  "key": encode_key(self._sources[digest])})
            for key, result in self._verdicts.get(digest, {}).items():
                emit({"t": "eq", "src": digest, "key": encode_key(key),
                      "r": encode_result(result)})
        # Only the newest checkpoint per job survives a rewrite — this is
        # how compaction sheds superseded per-generation checkpoint history.
        for job in sorted(self._checkpoints):
            generation, payload = self._checkpoints[job]
            emit({"t": "ck", "job": job, "gen": generation, "p": payload})
        return lines

    def _rewrite_locked(self) -> int:
        """Atomically replace the file with a clean full snapshot.

        Returns the number of lines written.
        """
        lines = self._snapshot_lines()
        tmp_path = self.path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write("".join(lines))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.path)
        return len(lines)

    # ------------------------------------------------------------------ #
    # Maintenance (the `k2 store` subcommand)
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        num_verdicts = sum(len(v) for v in self._verdicts.values())
        equivalent = sum(1 for verdicts in self._verdicts.values()
                         for result in verdicts.values() if result.equivalent)
        return {
            "path": self.path,
            "format": STORE_FORMAT,
            "semantics": self.semantics,
            "size_bytes": os.path.getsize(self.path)
            if os.path.exists(self.path) else 0,
            "sources": len(self._sources),
            "verdicts": num_verdicts,
            "verdicts_equivalent": equivalent,
            "verdicts_inequivalent": num_verdicts - equivalent,
            "checkpoints": len(self._checkpoints),
            "corrupt_records": self.corrupt_records,
            "stale": self.stale,
            "pending": len(self._pending),
        }

    def gc(self) -> Dict[str, int]:
        """Compact the file: drop corrupt/stale/duplicate records, rewrite.

        Unlike the compaction a checkpoint clear triggers, ``gc`` always
        rewrites.  It first appends this store's pending records and
        re-reads the file under the writer lock, so what other writers
        appended since this store's load survives; a stale or missing
        file is rewritten from this store's own state instead.  Returns
        how many records were kept and how many lines the rewrite shed
        (corrupt lines, superseded duplicates, retired record kinds,
        foreign-version bulk).
        """
        with _file_lock(self.path):
            before = 0
            if os.path.exists(self.path):
                with open(self.path, "r", encoding="utf-8") as handle:
                    before = sum(1 for line in handle if line.strip())
            kept = self
            if self._disk_header_ok():
                self._append_locked()
                kept = self._reread_locked()
            after = kept._rewrite_locked()
        self._pending = []
        self._pending_clear = False
        self.stale = False
        return {"lines_before": before, "lines_after": after,
                "dropped": max(before - after, 0),
                "corrupt_dropped": kept.corrupt_records}

    def verify(self) -> Dict[str, object]:
        """Integrity scan of the backing file (no mutation).

        Re-reads the file from disk and reports checksum failures, header
        problems and record counts; ``ok`` is True only for a fully
        healthy, current-semantics file (a missing file is healthy: empty).
        """
        report = {"path": self.path, "exists": os.path.exists(self.path),
                  "header_ok": True, "records": 0, "corrupt": 0,
                  "skipped": 0, "ok": True}
        if not report["exists"]:
            return report
        probe = VerdictStore(self.path, semantics=self.semantics)
        report["header_ok"] = not probe.stale
        report["records"] = probe.records_loaded
        report["corrupt"] = probe.corrupt_records
        report["skipped"] = probe.skipped_records
        report["ok"] = report["header_ok"] and probe.corrupt_records == 0
        return report
