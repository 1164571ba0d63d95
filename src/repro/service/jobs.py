"""Job specifications and the journaled queue of the serve daemon.

A :class:`JobSpec` is the JSON-safe description of one synthesis request —
what ``k2 submit`` sends and what the daemon turns into a
:class:`~repro.synthesis.SearchOptions` + source program.  A :class:`Job`
wraps a spec with queue state, progress, attempts and (eventually) the
result summary.

Durability: the queue journals every state change as one JSON line in
``jobs.jsonl`` inside the daemon state directory (append-only, latest
record per job wins — the same recovery-by-replay shape as the verdict
store).  On daemon start the journal is replayed and any job that was
``running`` when the previous daemon died is requeued; its search then
resumes from its last checkpoint in the shared verdict store, so a daemon
crash costs at most one generation of work per in-flight job.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
from typing import Dict, List, Optional

from ..bpf import BpfProgram, HookType, assemble, get_hook
from ..bpf.maps import MapEnvironment
from ..corpus import get_benchmark
from ..equivalence import EquivalenceOptions
from ..synthesis import GOALS, SearchOptions, validate_request

__all__ = ["JOB_STATES", "JobSpec", "Job", "JobQueue"]

#: ``queued``/``running`` are live; the rest are terminal.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")


@dataclasses.dataclass
class JobSpec:
    """One synthesis request, as plain JSON-safe data."""

    #: Corpus benchmark name, or ``None`` with ``program_text`` set.
    benchmark: Optional[str] = None
    #: BPF assembly text (used when ``benchmark`` is None).
    program_text: Optional[str] = None
    hook: str = "xdp"
    goal: str = "size"
    iterations: int = 2000
    settings: int = 4
    seed: int = 0
    #: Generation length; checkpoints are written at generation boundaries,
    #: so this bounds the work a crash can lose.  The service default is
    #: deliberately finite (unlike the library's ``None``).
    sync_interval: Optional[int] = 250
    num_workers: int = 1
    executor: str = "auto"
    windowed: bool = False
    window_size: int = 24
    window_overlap: int = 8
    #: Per-query solver conflict budget
    #: (``EquivalenceOptions.max_conflicts``): a hung SMT query degrades to
    #: ``unknown`` and the tier escalates, so one pathological candidate
    #: can never stall the fleet.  ``None`` keeps the library default.
    conflict_budget: Optional[int] = None
    #: Scheduling priority: higher runs first; FIFO within a priority.
    priority: int = 0
    #: Split the job's chains into this many contiguous shards, farmed out
    #: to peer daemons (or run locally) and merged deterministically — see
    #: :mod:`repro.service.shards` for the exact semantics (sharding
    #: partitions the cross-chain *sharing domain*, so placement never
    #: changes results).  ``1`` keeps the whole job in one controller.
    shards: int = 1
    #: Cross-chain sharing knobs (mirror ``SearchOptions``).  Disable both
    #: to make a sharded run bit-identical to its unsharded counterpart.
    share_cache: bool = True
    share_counterexamples: bool = True
    #: Internal: the shard descriptor of a farmed-out sub-job
    #: (:func:`repro.service.shards.plan_shards` entry).  Clients never set
    #: this; coordinators do when submitting shard work to a peer.
    shard: Optional[dict] = None

    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        if not self.benchmark and not self.program_text:
            raise ValueError("job spec needs a benchmark or program_text")
        validate_request(self)
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
        return BpfProgram(instructions=assemble(self.program_text),
                          hook=get_hook(HookType(self.hook)),
                          maps=MapEnvironment(), name="submitted")

    def search_options(self, store_path: Optional[str],
                       checkpoint_key: Optional[str],
                       generation_hook=None,
                       progress_listener=None) -> SearchOptions:
        """The fully-wired options for running this spec under the daemon."""
        equivalence = EquivalenceOptions()
        if self.conflict_budget is not None:
            equivalence = dataclasses.replace(
                equivalence, max_conflicts=int(self.conflict_budget))
        return SearchOptions(
            goal=GOALS[self.goal],
            iterations_per_chain=int(self.iterations),
            num_parameter_settings=int(self.settings),
            seed=int(self.seed),
            sync_interval=self.sync_interval,
            num_workers=int(self.num_workers),
            executor=self.executor,
            window_mode=bool(self.windowed),
            window_size=int(self.window_size),
            window_overlap=int(self.window_overlap),
            share_cache=bool(self.share_cache),
            share_counterexamples=bool(self.share_counterexamples),
            equivalence=equivalence,
            store_path=store_path,
            checkpoint_key=checkpoint_key,
            generation_hook=generation_hook,
            progress_listener=progress_listener)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        # Unknown keys are dropped: fields of newer clients, and fields
        # older specs still carry after their knob was retired (``engine``).
        known = {field.name for field in dataclasses.fields(cls)}
        spec = cls(**{key: value for key, value in data.items()
                      if key in known})
        spec.validate()
        return spec


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
            spec=JobSpec.from_dict(data["spec"]),
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
                except (ValueError, TypeError, KeyError):
                    continue  # torn trailing line: lose one update, not all
                if job.id not in self._jobs:
                    self._order.append(job.id)
                self._jobs[job.id] = job
        for job in self._jobs.values():
            index = _index_of(job.id)
            if index is not None:
                self._next_index = max(self._next_index, index + 1)
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
