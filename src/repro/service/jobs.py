"""Job specifications and the journaled queue of the serve daemon.

A :class:`JobSpec` is the JSON-safe description of one synthesis request —
a :class:`~repro.api.K2Config` plus the program to search, what
``k2 submit`` sends and what the daemon turns into a source program and,
through :meth:`~repro.api.K2Config.search_options`, the same
:class:`~repro.synthesis.SearchOptions` an in-process run would use.  A
:class:`Job` wraps a spec with queue state, progress, attempts and
(eventually) the result summary.

Durability: the queue journals every state change as one JSON line in
``jobs.jsonl`` inside the daemon state directory (append-only, latest
record per job wins — the same recovery-by-replay shape as the verdict
store).  On daemon start the journal is replayed and any job that was
``running`` when the previous daemon died is requeued; its search then
resumes from its last checkpoint in the shared verdict store, so a daemon
crash costs at most one generation of work per in-flight job.  A job
whose spec no longer validates (say, one journaled before a knob value
was retired) is kept: a finished one replays as it was, and an unfinished
one replays as ``failed`` with the validation message, never to run.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
from typing import Dict, List, Optional

from ..api import K2Config
from ..bpf import BpfProgram, HookType, assemble
from ..corpus import get_benchmark

__all__ = ["JOB_STATES", "JobSpec", "Job", "JobQueue"]

#: ``queued``/``running`` are live; the rest are terminal.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")


@dataclasses.dataclass
class JobSpec(K2Config):
    """One synthesis request, as plain JSON-safe data: a
    :class:`~repro.api.K2Config` plus the program it searches.

    ``store`` must stay unset: the daemon searches on its own shared
    verdict store (see :meth:`~repro.api.K2Config.search_options`).
    """

    #: Generation length; checkpoints are written at generation boundaries,
    #: so this bounds the work a crash can lose.  The service default is
    #: deliberately finite (unlike the library's ``None``).
    sync_interval: Optional[int] = 250
    #: Corpus benchmark name, or ``None`` with ``program_text`` set.
    benchmark: Optional[str] = None
    #: BPF assembly text (used when ``benchmark`` is None).
    program_text: Optional[str] = None
    hook: str = "xdp"
    #: Internal: the shard descriptor of a farmed-out sub-job
    #: (:func:`repro.service.shards.plan_shards` entry).  Clients never set
    #: this; coordinators do when submitting shard work to a peer.
    shard: Optional[dict] = None

    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        if not self.benchmark and not self.program_text:
            raise ValueError("job spec needs a benchmark or program_text")
        super().validate()
        if self.store is not None:
            raise ValueError("a job spec cannot name a store: the daemon "
                             "searches on its own")
        if self.shards > 1 and self.windowed:
            # Windows compose sequentially (each search base is the
            # previous window's stitch), so they cannot be farmed out in
            # parallel; chains can.
            raise ValueError("windowed jobs are not shardable")
        if self.shard is not None:
            for field in ("index", "of", "lo", "hi", "total"):
                if field not in self.shard:
                    raise ValueError(f"shard descriptor missing {field!r}")

    def build_program(self) -> BpfProgram:
        if self.benchmark:
            return get_benchmark(self.benchmark).program()
        return BpfProgram.create(assemble(self.program_text),
                                 HookType(self.hook), name="submitted")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        spec = _decode_spec(data)
        spec.validate()
        return spec


def _decode_spec(data: dict) -> JobSpec:
    """A spec from its dict, unvalidated.  Unknown keys are dropped:
    fields of newer clients, and fields older specs still carry after
    their knob was retired (``engine``)."""
    known = {field.name for field in dataclasses.fields(JobSpec)}
    return JobSpec(**{key: value for key, value in data.items()
                      if key in known})


@dataclasses.dataclass
class Job:
    """Queue state wrapped around one spec."""

    id: str
    spec: JobSpec
    state: str = "queued"
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Times the daemon (re)started this job: crash retries and
    #: restart-resumes both count, cancellations do not.
    attempts: int = 0
    error: Optional[str] = None
    #: ``{"generation": n, "total": m}`` while running.
    progress: Dict[str, int] = dataclasses.field(default_factory=dict)
    result: Optional[dict] = None
    cancel_requested: bool = False
    #: Workers the scheduler carved out of the daemon pool budget for the
    #: current (or last) run of this job; ``None`` before the first claim.
    workers_granted: Optional[int] = None

    @property
    def terminal(self) -> bool:
        return self.state in ("done", "failed", "cancelled")

    def to_dict(self, with_result: bool = True) -> dict:
        data = {
            "id": self.id,
            "spec": self.spec.to_dict(),
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "error": self.error,
            "progress": dict(self.progress),
            "cancel_requested": self.cancel_requested,
            "workers_granted": self.workers_granted,
        }
        if with_result:
            data["result"] = self.result
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Job":
        return cls(
            id=str(data["id"]),
            spec=_decode_spec(data["spec"]),
            state=str(data["state"]),
            submitted_at=float(data.get("submitted_at") or 0.0),
            started_at=data.get("started_at"),
            finished_at=data.get("finished_at"),
            attempts=int(data.get("attempts") or 0),
            error=data.get("error"),
            progress=dict(data.get("progress") or {}),
            result=data.get("result"),
            cancel_requested=bool(data.get("cancel_requested")),
            workers_granted=data.get("workers_granted"))


class JobQueue:
    """Thread-safe, journaled FIFO of jobs.

    The request-server thread submits and cancels; the scheduler thread
    claims and completes.  Every mutation goes through :meth:`persist`,
    which appends the job's full snapshot to the journal — replaying the
    journal (latest line per id wins) reconstructs the queue exactly.
    """

    def __init__(self, journal_path: str):
        self.journal_path = journal_path
        self._lock = threading.RLock()
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._next_index = 1
        self._load()

    # ------------------------------------------------------------------ #
    def _load(self) -> None:
        if not os.path.exists(self.journal_path):
            return
        with open(self.journal_path, "r", encoding="utf-8") as handle:
            for line in handle:
                if not line.strip():
                    continue
                try:
                    job = Job.from_dict(json.loads(line))
                except (ValueError, TypeError, KeyError, AttributeError):
                    # A torn or garbled line: lose one update, not all.
                    continue
                if job.id not in self._jobs:
                    self._order.append(job.id)
                self._jobs[job.id] = job
        for job in self._jobs.values():
            index = _index_of(job.id)
            if index is not None:
                self._next_index = max(self._next_index, index + 1)
            if not job.terminal:
                try:
                    job.spec.validate()
                except (ValueError, TypeError) as exc:
                    job.state = "failed"
                    job.error = f"invalid job spec: {exc}"
                    job.finished_at = time.time()
                    self.persist(job)
                    continue
            if job.state == "running":
                # The previous daemon died mid-job; requeue it — the search
                # resumes from its last checkpoint in the verdict store.
                job.state = "queued"
                self.persist(job)

    def persist(self, job: Job) -> None:
        with self._lock:
            line = json.dumps(job.to_dict(), sort_keys=True,
                              separators=(",", ":")) + "\n"
            with open(self.journal_path, "a", encoding="utf-8") as handle:
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())

    # ------------------------------------------------------------------ #
    def submit(self, spec: JobSpec) -> Job:
        with self._lock:
            job = Job(id=f"j{self._next_index:04d}", spec=spec,
                      submitted_at=time.time())
            self._next_index += 1
            self._jobs[job.id] = job
            self._order.append(job.id)
            self.persist(job)
            return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(str(job_id))

    def jobs(self) -> List[Job]:
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def next_runnable(self) -> Optional[Job]:
        """Best queued, uncancelled job: highest priority, then FIFO.

        FIFO-with-budgets fairness lives in the scheduler, not here: the
        queue only ranks; the daemon clamps the head job's worker grant to
        whatever remains of the pool budget rather than skipping it, so a
        wide job can never be starved by a stream of narrow ones.
        """
        with self._lock:
            best = None
            for position, job_id in enumerate(self._order):
                job = self._jobs[job_id]
                if job.state != "queued" or job.cancel_requested:
                    continue
                rank = (-int(job.spec.priority), position)
                if best is None or rank < best[0]:
                    best = (rank, job)
            return None if best is None else best[1]

    def request_cancel(self, job_id: str) -> Optional[Job]:
        """Flag a job for cancellation; queued jobs cancel immediately.

        A running job is stopped by the daemon at its next generation
        boundary (the search's generation hook observes the flag).
        Terminal jobs are left untouched.
        """
        with self._lock:
            job = self._jobs.get(str(job_id))
            if job is None or job.terminal:
                return job
            job.cancel_requested = True
            if job.state == "queued":
                job.state = "cancelled"
                job.finished_at = time.time()
            self.persist(job)
            return job


def _index_of(job_id: str) -> Optional[int]:
    """Numeric suffix of a ``jNNNN`` id (None for foreign id formats)."""
    if job_id.startswith("j") and job_id[1:].isdigit():
        return int(job_id[1:])
    return None
