"""The ``k2 serve`` daemon: concurrent scheduler, request server, shards.

One :class:`K2Daemon` owns a state directory::

    <state>/daemon.sock   the request socket (or daemon.port on TCP hosts)
    <state>/store.k2s     the shared verdict store (warm starts + checkpoints)
    <state>/jobs.jsonl    the job journal (queue state, replayed on start)

Scheduling
----------
The scheduler (the main thread, so POSIX signals reach it) runs up to
``max_concurrent_jobs`` jobs at once, each in its own thread with a
per-job *worker grant* carved from the daemon-wide ``worker_budget``.
Fairness is FIFO-with-budgets over spec priorities: the queue ranks by
``(priority desc, submission order)`` and the head job's grant is clamped
to whatever budget remains — a wide job waits for workers but is never
skipped in favour of a younger narrow one.  All jobs flush into the one
shared ``store.k2s`` through the store's single-writer fcntl discipline
(concurrent controllers are concurrent *writers*, each append under the
file lock).  Grants size the job's worker pool only; they never change
results (the determinism model is worker-count independent).

Sharding
--------
A job with ``spec.shards > 1`` becomes a *coordinator*: its chains are
split into contiguous shard specs (:mod:`repro.service.shards`), farmed
out to ``--peer`` daemons as ordinary sub-jobs over the wire protocol,
and merged deterministically in chain order — bit-identical to the
unsharded run (see the shards module for the exact sharing semantics).  A
peer that dies (or rejects) costs a reassignment: the next peer gets the
shard, and when no peer is left the coordinator runs it locally.  Since
shard results are deterministic, reassignment never changes the merged
result — only wall clock.

Events
------
Every job state change, generation boundary (per-chain best costs,
checkpoint writes) and shard transition is published to an in-memory
:class:`EventBroker`; a ``watch`` request holds its connection open and
the daemon pushes these events as they happen, so followers never poll.
Event sequence numbers are per-job and per-daemon-incarnation; the
terminal event carries the full job record (result included), which is
what :meth:`DaemonClient.wait` consumes.  The broker is in-memory by
design — the *journal* is the durable record — so after a restart a
watcher is served a fresh stream (the client reconnects with backoff and
the new daemon replays state from the journal).

Failure matrix (what each fault costs):

* **worker SIGKILL'd** — the controller rebuilds the process pool and
  replays the generation from its seeded snapshot (bounded retries,
  exponential backoff); results stay bit-identical, the retry count is
  surfaced in the result summary.
* **job raises** — the job is requeued with backoff up to
  ``max_job_attempts``, then marked failed; other jobs are unaffected.
* **shard peer dies** — the coordinator reassigns the shard to the next
  peer, or runs it locally; the merged result is unchanged.
* **coordinator dies** — the journal requeues the job; on restart remote
  shards are resubmitted (deterministic, same payloads) and local shards
  resume from their ``<job>/sN`` checkpoints.
* **hung solver query** — the spec's ``conflict_budget`` bounds every SMT
  query; exhaustion degrades the verdict to ``unknown`` and the pipeline
  escalates or moves on, so the fleet never stalls.
* **daemon SIGTERM/SIGINT** — graceful: every running search stops at its
  next generation boundary (checkpoint already written), jobs return to
  ``queued``, stores are flushed, exit 0.
* **daemon SIGKILL** — the journal still shows jobs ``running``; the next
  daemon requeues them and each search resumes from its last checkpoint,
  losing at most one generation.  Resumed results are bit-identical to an
  uninterrupted run.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import hashlib
import os
import signal
import socket
import threading
import time
import traceback
import uuid
from typing import Dict, List, Optional

from ..store import VerdictStore, flush_open_stores
from ..synthesis import SearchInterrupted, SearchResult, Synthesizer
from . import protocol
from .jobs import Job, JobQueue, JobSpec
from .shards import (merge_shard_payloads, plan_shards, run_shard,
                     shard_spec_dict)

__all__ = ["K2Daemon", "EventBroker", "summarize_search_result"]

STORE_NAME = "store.k2s"
JOURNAL_NAME = "jobs.jsonl"


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=12).hexdigest()


def summarize_search_result(result: SearchResult) -> dict:
    """JSON-safe result summary stored on the job and returned to clients.

    Carries enough per-chain detail that two runs can be compared for
    bit-identity by comparing summaries (minus the wall-clock fields, the
    retry counter and the cache's memo-hit counter, which legitimately
    differ across resumes).
    """
    best_text = result.best_program.to_text()
    return {
        "best_program": best_text,
        "best_digest": _digest(best_text),
        "source_insns": result.source.num_real_instructions,
        "best_insns": result.best_program.num_real_instructions,
        "compression": result.compression,
        "iterations": result.total_iterations(),
        "num_generations": result.num_generations,
        "executor_used": result.executor_used,
        "counterexamples_shared": result.counterexamples_shared,
        "rejected_by_kernel_checker": result.rejected_by_kernel_checker,
        "worker_retries": result.worker_retries,
        "elapsed_seconds": result.elapsed_seconds,
        "cache": {name: value for name, value in result.cache_stats.items()},
        "store": dict(result.store_stats) if result.store_stats else None,
        "chains": [{
            "iterations": chain.statistics.iterations,
            "proposals_accepted": chain.statistics.proposals_accepted,
            "proposals_unsafe": chain.statistics.proposals_unsafe,
            "test_failures": chain.statistics.test_failures,
            "equivalence_checks": chain.statistics.equivalence_checks,
            "equivalence_cache_hits":
                chain.statistics.equivalence_cache_hits,
            "counterexamples_added": chain.statistics.counterexamples_added,
            "verified_candidates": chain.statistics.verified_candidates,
            "best_found_at_iteration":
                chain.statistics.best_found_at_iteration,
            "tests_skipped": chain.statistics.tests_skipped,
            "candidates": [_digest(candidate.program.to_text())
                           for candidate in chain.candidates],
        } for chain in result.chain_results],
    }


class ShardFailed(RuntimeError):
    """A peer ran (or lost) a shard without producing a payload."""


class EventBroker:
    """Per-job, seq-numbered, bounded in-memory event log with waiters.

    ``publish`` appends and wakes every waiter; ``wait_events`` blocks
    until something newer than ``after`` exists (or the timeout lapses).
    Rings are bounded — a slow watcher that falls more than
    ``max_per_job`` events behind simply misses the overwritten ones, and
    the terminal event always carries the full job record so nothing
    load-bearing is ever lost.
    """

    def __init__(self, run_id: str, max_per_job: int = 1024):
        self.run_id = run_id
        self._max_per_job = max_per_job
        self._cond = threading.Condition()
        self._rings: Dict[str, collections.deque] = {}
        self._seqs: Dict[str, int] = {}

    def publish(self, job_id: str, event: str, data: Optional[dict] = None,
                final: bool = False) -> protocol.EventResponse:
        with self._cond:
            return self._publish_locked(job_id, event, data, final)

    def _publish_locked(self, job_id, event, data, final):
        seq = self._seqs.get(job_id, 0) + 1
        self._seqs[job_id] = seq
        entry = protocol.EventResponse(event=event, job=job_id, seq=seq,
                                       final=final, run=self.run_id,
                                       data=dict(data or {}))
        ring = self._rings.setdefault(
            job_id, collections.deque(maxlen=self._max_per_job))
        ring.append(entry)
        self._cond.notify_all()
        return entry

    def ensure_final(self, job_id: str, event: str,
                     data: Optional[dict] = None) -> protocol.EventResponse:
        """Publish a terminal event unless the ring already holds one.

        Idempotent under the broker lock: the job runner's ``_finish`` and
        any watcher that observes a terminal *journal* state (e.g. right
        after a daemon restart, when the ring is empty) can both call
        this without producing duplicate finals.
        """
        with self._cond:
            for entry in self._rings.get(job_id, ()):
                if entry.final:
                    return entry
            return self._publish_locked(job_id, event, data, final=True)

    def events_after(self, job_id: str, after: int
                     ) -> List[protocol.EventResponse]:
        with self._cond:
            return [entry for entry in self._rings.get(job_id, ())
                    if entry.seq > after]

    def wait_events(self, job_id: str, after: int, timeout: float
                    ) -> List[protocol.EventResponse]:
        """Events newer than ``after``, blocking up to ``timeout`` for one."""
        with self._cond:
            events = [entry for entry in self._rings.get(job_id, ())
                      if entry.seq > after]
            if events:
                return events
            self._cond.wait(timeout)
            return [entry for entry in self._rings.get(job_id, ())
                    if entry.seq > after]


class K2Daemon:
    """The long-lived synthesis service behind ``k2 serve``."""

    def __init__(self, state_dir: str, poll_interval: float = 0.2,
                 max_job_attempts: int = 3,
                 job_retry_backoff_seconds: float = 0.2,
                 max_concurrent_jobs: int = 1,
                 worker_budget: Optional[int] = None,
                 peers: Optional[List[str]] = None):
        self.state_dir = str(state_dir)
        os.makedirs(self.state_dir, exist_ok=True)
        self.store_path = os.path.join(self.state_dir, STORE_NAME)
        self.queue = JobQueue(os.path.join(self.state_dir, JOURNAL_NAME))
        self.poll_interval = poll_interval
        self.max_job_attempts = max_job_attempts
        self.job_retry_backoff_seconds = job_retry_backoff_seconds
        self.max_concurrent_jobs = max(1, int(max_concurrent_jobs))
        #: Daemon-wide worker pool budget that concurrent jobs' grants are
        #: carved from.  Defaults to one worker per scheduler slot, so the
        #: single-job default behaves exactly like the pre-scale-out daemon.
        self.worker_budget = max(int(worker_budget), 1) \
            if worker_budget else self.max_concurrent_jobs
        #: Peer daemon state directories shard sub-jobs are farmed out to.
        self.peers = [str(peer) for peer in (peers or [])]
        #: Incarnation id: event sequence numbers are scoped to it.
        self.run_id = uuid.uuid4().hex[:12]
        self.events = EventBroker(self.run_id)
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._server: Optional[socket.socket] = None
        #: job id → running job thread / worker grant (scheduler state).
        self._threads: Dict[str, threading.Thread] = {}
        self._grants: Dict[str, int] = {}
        self._sched_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def request_stop(self) -> None:
        """Begin a graceful shutdown (idempotent, any thread)."""
        self._stop.set()
        self._wake.set()

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    # ------------------------------------------------------------------ #
    def serve_forever(self, install_signal_handlers: bool = True) -> int:
        """Run the request server and the scheduler until stopped."""
        self._server = protocol.bind_server(self.state_dir)
        server_thread = threading.Thread(target=self._accept_loop,
                                         name="k2-serve-requests",
                                         daemon=True)
        server_thread.start()
        if install_signal_handlers:
            signal.signal(signal.SIGTERM, self._on_signal)
            signal.signal(signal.SIGINT, self._on_signal)
        try:
            while not self._stop.is_set():
                self._start_runnable_jobs()
                self._wake.wait(self.poll_interval)
                self._wake.clear()
        finally:
            # Graceful: every running job observes the stop flag at its
            # next generation boundary (checkpoint written) and requeues.
            for thread in self._running_threads():
                thread.join()
            self._close_server()
            # Whatever is buffered anywhere (the job runners' stores are
            # per-run, but belt-and-braces on interrupt paths) hits disk.
            flush_open_stores()
        return 0

    def _running_threads(self) -> List[threading.Thread]:
        with self._sched_lock:
            return list(self._threads.values())

    def _on_signal(self, signum, frame) -> None:  # pragma: no cover - signal
        self.request_stop()

    def _close_server(self) -> None:
        server = self._server
        self._server = None
        if server is not None:
            try:
                server.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    # ------------------------------------------------------------------ #
    # Scheduler
    # ------------------------------------------------------------------ #
    def _start_runnable_jobs(self) -> None:
        """Claim and launch queued jobs while slots and budget allow.

        FIFO-with-budgets: the best-ranked queued job's worker grant is
        ``min(spec.num_workers, remaining budget)`` — clamped, never
        skipped, so narrow late arrivals cannot starve a wide head job.
        Claiming (state flip + persist) happens under the scheduler lock,
        so a job can never be launched twice.
        """
        while not self._stop.is_set():
            with self._sched_lock:
                if len(self._threads) >= self.max_concurrent_jobs:
                    return
                available = self.worker_budget - sum(self._grants.values())
                if available <= 0:
                    return
                job = self.queue.next_runnable()
                if job is None:
                    return
                want = max(1, min(int(job.spec.num_workers),
                                  self.worker_budget))
                granted = min(want, available)
                job.state = "running"
                job.started_at = time.time()
                job.attempts += 1
                job.progress = {}
                job.workers_granted = granted
                self.queue.persist(job)
                self._grants[job.id] = granted
                thread = threading.Thread(
                    target=self._job_thread, args=(job, granted),
                    name=f"k2-job-{job.id}")
                self._threads[job.id] = thread
            self.events.publish(job.id, "state",
                                data={"state": "running",
                                      "attempts": job.attempts,
                                      "workers_granted": granted})
            thread.start()

    def _job_thread(self, job: Job, granted: int) -> None:
        try:
            self._execute_job(job, granted)
        except Exception as exc:  # pragma: no cover - last-resort guard
            with contextlib.suppress(Exception):
                self._finish(job, "failed", error=f"internal: {exc!r}")
        finally:
            with self._sched_lock:
                self._threads.pop(job.id, None)
                self._grants.pop(job.id, None)
            self._wake.set()

    # ------------------------------------------------------------------ #
    # Request server
    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            server = self._server
            if server is None:
                return
            try:
                conn, _ = server.accept()
            except OSError:
                return  # socket closed during shutdown
            worker = threading.Thread(target=self._handle_connection,
                                      args=(conn,), daemon=True)
            worker.start()

    def _handle_connection(self, conn: socket.socket) -> None:
        try:
            with conn:
                conn.settimeout(10.0)
                reader = protocol.LineReader(conn)
                try:
                    message = reader.read_message()
                    if message is None:
                        return
                    request = protocol.decode_request(message)
                except protocol.ProtocolError as exc:
                    # Unversioned, unknown-op and over-long requests get a
                    # structured error, never a dropped connection.
                    protocol.send_message(conn, protocol.ErrorResponse(
                        code=exc.code, message=str(exc)).to_wire())
                    return
                except (ValueError, OSError) as exc:
                    protocol.send_message(conn, protocol.ErrorResponse(
                        code="bad-request",
                        message=f"bad request: {exc}").to_wire())
                    return
                if isinstance(request, protocol.WatchRequest):
                    self._serve_watch(conn, request)
                    return
                response = self._dispatch(request)
                protocol.send_message(conn, response.to_wire())
                # Stop only after the acknowledgement is on the wire —
                # stopping first races the process exit against the send.
                if isinstance(request, protocol.ShutdownRequest):
                    self.request_stop()
        except OSError:  # pragma: no cover - peer vanished mid-response
            pass

    def _dispatch(self, request: protocol.Request) -> protocol.Response:
        try:
            if isinstance(request, protocol.PingRequest):
                with self._sched_lock:
                    running = len(self._threads)
                return protocol.PingResponse(
                    pid=os.getpid(), jobs=len(self.queue.jobs()),
                    stopping=self.stopping, running=running,
                    max_concurrent_jobs=self.max_concurrent_jobs,
                    worker_budget=self.worker_budget)
            if isinstance(request, protocol.SubmitRequest):
                spec = JobSpec.from_dict(request.spec or {})
                job = self.queue.submit(spec)
                self.events.publish(job.id, "state",
                                    data={"state": "queued"})
                self._wake.set()
                return protocol.SubmitResponse(job=job.id)
            if isinstance(request, (protocol.StatusRequest,
                                    protocol.ResultRequest)):
                job = self._require_job(request.job)
                with_result = isinstance(request, protocol.ResultRequest)
                return protocol.JobResponse(
                    job=job.to_dict(with_result=with_result))
            if isinstance(request, protocol.CancelRequest):
                job = self.queue.request_cancel(str(request.job or ""))
                if job is None:
                    return protocol.ErrorResponse(code="unknown-job",
                                                  message="unknown job")
                if job.state == "cancelled":
                    self._clear_job_checkpoints(job.id)
                    self.events.ensure_final(
                        job.id, "state",
                        data={"state": job.state,
                              "job": job.to_dict(with_result=True)})
                return protocol.JobResponse(job=job.to_dict(with_result=False))
            if isinstance(request, protocol.JobsRequest):
                return protocol.JobsResponse(
                    jobs=[job.to_dict(with_result=False)
                          for job in self.queue.jobs()])
            if isinstance(request, protocol.ShutdownRequest):
                # request_stop happens in _handle_connection, post-send.
                return protocol.ShutdownResponse(stopping=True)
            return protocol.ErrorResponse(
                code="unknown-op", message=f"unhandled op {request.op!r}")
        except (KeyError, TypeError, ValueError) as exc:
            return protocol.ErrorResponse(code="bad-request",
                                          message=str(exc))

    def _require_job(self, job_id: str) -> Job:
        job = self.queue.get(str(job_id or ""))
        if job is None:
            raise ValueError("unknown job")
        return job

    def _serve_watch(self, conn: socket.socket,
                     request: protocol.WatchRequest) -> None:
        """Stream a job's events until its terminal event (or peer loss).

        The connection stays open; every pushed line is an
        :class:`~repro.service.protocol.EventResponse`.  A client that
        reconnects with the previous incarnation's ``run`` is served from
        the beginning of this incarnation's ring (its ``after`` belongs to
        a dead sequence space); a terminal job whose ring is empty (daemon
        restarted after it finished) gets a synthesized final event built
        from the journal.  On graceful shutdown the stream simply closes —
        the client's reconnect backoff finds the successor daemon.
        """
        job_id = str(request.job or "")
        if self.queue.get(job_id) is None:
            protocol.send_message(conn, protocol.ErrorResponse(
                code="unknown-job", message="unknown job").to_wire())
            return
        conn.settimeout(30.0)
        after = int(request.after or 0)
        if request.run and request.run != self.run_id:
            after = 0
        while True:
            events = self.events.wait_events(job_id, after, timeout=0.5)
            if not events:
                if self._stop.is_set():
                    return
                job = self.queue.get(job_id)
                if job is not None and job.terminal:
                    events = [self.events.ensure_final(
                        job_id, "state",
                        data={"state": job.state,
                              "job": job.to_dict(with_result=True)})]
                    events = [entry for entry in events
                              if entry.seq > after]
            for entry in events:
                protocol.send_message(conn, entry.to_wire())
                after = entry.seq
                if entry.final:
                    return

    # ------------------------------------------------------------------ #
    # Job execution
    # ------------------------------------------------------------------ #
    def _execute_job(self, job: Job, granted: int) -> None:
        try:
            program = job.spec.build_program()
        except Exception as exc:  # bad spec: never retried
            self._finish(job, "failed", error=f"bad program: {exc}")
            return

        def generation_hook(completed: int, total: int):
            job.progress = {"generation": completed, "total": total}
            self.queue.persist(job)
            # Stopping or cancelled: interrupt at this (checkpointed)
            # boundary; SearchInterrupted lands in the handler below.
            return not (self._stop.is_set() or job.cancel_requested)

        def progress_listener(info: dict) -> None:
            self.events.publish(job.id, "generation", data=info)

        try:
            if job.spec.shard is not None:
                summary = self._run_shard_subjob(job, granted,
                                                 generation_hook,
                                                 progress_listener)
            elif job.spec.shards > 1:
                summary = self._run_sharded(job, program, granted,
                                            generation_hook,
                                            progress_listener)
            else:
                options = job.spec.search_options(
                    self.store_path, job.id, generation_hook,
                    progress_listener)
                if granted != options.num_workers:
                    options = dataclasses.replace(options,
                                                  num_workers=granted)
                result = Synthesizer(options).optimize(program)
                summary = summarize_search_result(result)
        except SearchInterrupted:
            if job.cancel_requested:
                # Checkpoints go first: the terminal event releases waiting
                # clients, who may immediately inspect the shared store.
                self._clear_job_checkpoints(job.id)
                self._finish(job, "cancelled")
            else:
                # Graceful shutdown: back to the queue, checkpoint intact —
                # the next daemon resumes it where it stopped.
                job.state = "queued"
                self.queue.persist(job)
                self.events.publish(job.id, "state",
                                    data={"state": "queued",
                                          "requeued": True})
            return
        except Exception as exc:
            if job.attempts < self.max_job_attempts \
                    and not self._stop.is_set():
                job.state = "queued"
                job.error = f"attempt {job.attempts} failed: {exc!r}"
                self.queue.persist(job)
                self.events.publish(job.id, "state",
                                    data={"state": "queued",
                                          "error": job.error})
                delay = self.job_retry_backoff_seconds \
                    * (2 ** (job.attempts - 1))
                self._stop.wait(delay)
                self._wake.set()
            else:
                self._clear_job_checkpoints(job.id)
                self._finish(job, "failed",
                             error="".join(traceback.format_exception_only(
                                 type(exc), exc)).strip())
            return
        job.result = summary
        self._finish(job, "done")

    # ------------------------------------------------------------------ #
    # Shards
    # ------------------------------------------------------------------ #
    def _run_shard_subjob(self, job: Job, granted: int, generation_hook,
                          progress_listener) -> dict:
        """Run one farmed-out shard (this daemon is the *peer*)."""
        shard = dict(job.spec.shard)

        def shard_listener(info: dict) -> None:
            progress_listener(dict(info, shard=shard))

        started = time.perf_counter()
        payload = run_shard(job.spec, shard, self.store_path, job.id,
                            generation_hook, shard_listener,
                            num_workers=granted)
        return {
            "shard_payload": payload,
            "shard": payload["shard"],
            "elapsed_seconds": time.perf_counter() - started,
            "worker_retries": sum(
                int(chain["stats"].get("worker_retries", 0))
                for chain in payload["chains"]),
        }

    def _run_sharded(self, job: Job, program, granted: int,
                     generation_hook, progress_listener) -> dict:
        """Coordinate a sharded job: farm out, reassign on loss, merge."""
        spec = job.spec
        plans = plan_shards(spec.settings, spec.shards)
        payloads: List[Optional[dict]] = [None] * len(plans)
        statuses = [{"index": plan["index"], "of": plan["of"],
                     "chains": [plan["lo"], plan["hi"]],
                     "ran_on": None, "reassignments": 0}
                    for plan in plans]
        interrupted: List[BaseException] = []
        started = time.perf_counter()

        def shard_event(index: int, state: str, **extra) -> None:
            self.events.publish(job.id, "shard",
                                data=dict({"index": index, "of": len(plans),
                                           "state": state}, **extra))

        def remote_worker(index: int, plan: dict) -> None:
            rotation = self.peers[index % len(self.peers):] \
                + self.peers[:index % len(self.peers)]
            try:
                for peer in rotation:
                    if job.cancel_requested or self._stop.is_set():
                        return
                    shard_event(index, "assigned", peer=peer)
                    try:
                        payloads[index] = self._run_shard_on_peer(
                            peer, job, plan)
                        statuses[index]["ran_on"] = peer
                        shard_event(index, "done", peer=peer)
                        return
                    except SearchInterrupted:
                        raise
                    except Exception as exc:
                        statuses[index]["reassignments"] += 1
                        shard_event(index, "reassigned", peer=peer,
                                    error=str(exc))
            except SearchInterrupted as exc:
                interrupted.append(exc)

        if self.peers:
            threads = [threading.Thread(target=remote_worker,
                                        args=(index, plan),
                                        name=f"k2-shard-{job.id}-{index}")
                       for index, plan in enumerate(plans)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        if interrupted:
            raise SearchInterrupted("sharded job interrupted")

        # Whatever no peer delivered runs here, sequentially, with this
        # job's full worker grant — determinism makes the fallback exact.
        for index, plan in enumerate(plans):
            if payloads[index] is not None:
                continue
            if job.cancel_requested or self._stop.is_set():
                raise SearchInterrupted("sharded job interrupted")
            shard_event(index, "local")

            def local_listener(info: dict, _plan=plan) -> None:
                progress_listener(dict(info, shard=_plan))

            payloads[index] = run_shard(
                spec, plan, self.store_path,
                f"{job.id}/s{plan['index']}", generation_hook,
                local_listener, num_workers=granted)
            statuses[index]["ran_on"] = "local"
            shard_event(index, "done", peer="local")

        result = merge_shard_payloads(
            program, spec, [payload for payload in payloads
                            if payload is not None],
            elapsed_seconds=time.perf_counter() - started)
        summary = summarize_search_result(result)
        summary["shards"] = statuses
        return summary

    def _run_shard_on_peer(self, peer: str, job: Job, plan: dict) -> dict:
        """Submit one shard to a peer daemon and await its payload.

        Raises :class:`ShardFailed` (peer answered but the shard did not
        finish ``done``) or the client's ``DaemonUnavailable`` (peer is
        gone) — both make the coordinator reassign.  Cancellation and
        daemon shutdown surface as :class:`SearchInterrupted`, after a
        best-effort cancel of the peer's sub-job.
        """
        from .client import DaemonClient

        client = DaemonClient(peer)
        sub_spec = JobSpec.from_dict(shard_spec_dict(job.spec.to_dict(),
                                                     plan))
        sub_id = client.submit(sub_spec)
        try:
            while True:
                if job.cancel_requested or self._stop.is_set():
                    raise SearchInterrupted("coordinator stopping")
                try:
                    record = client.wait(sub_id, timeout=2.0)
                    break
                except TimeoutError:
                    # Still running — or the peer is gone and wait() merely
                    # ran out its window retrying.  Probe: a dead peer makes
                    # ping raise DaemonUnavailable, which reassigns.
                    client.ping()
                    continue
        except SearchInterrupted:
            with contextlib.suppress(Exception):
                client.cancel(sub_id)
            raise
        if record.get("state") != "done":
            raise ShardFailed(
                f"shard {plan['index']} on {peer!r} ended "
                f"{record.get('state')!r}: {record.get('error')}")
        payload = (record.get("result") or {}).get("shard_payload")
        if not payload:
            raise ShardFailed(
                f"shard {plan['index']} on {peer!r} returned no payload")
        return payload

    # ------------------------------------------------------------------ #
    def _finish(self, job: Job, state: str,
                error: Optional[str] = None) -> None:
        job.state = state
        job.finished_at = time.time()
        if error is not None:
            job.error = error
        self.queue.persist(job)
        self.events.ensure_final(
            job.id, "state",
            data={"state": job.state, "job": job.to_dict(with_result=True)})

    def _clear_job_checkpoints(self, job_id: str) -> None:
        """Drop a dead job's checkpoints (incl. windowed/shard sub-keys)."""
        try:
            store = VerdictStore(self.store_path)
            cleared = False
            for key in store.checkpoint_jobs():
                if key == job_id or key.startswith(job_id + "/"):
                    cleared = store.clear_checkpoint(key) or cleared
            if cleared:
                store.flush()
        except Exception:  # pragma: no cover - cleanup is best-effort
            pass
