"""Tests for checkpointed resume and the ``k2 serve`` daemon stack.

Layered like the implementation:

* store-level checkpoint records (``ck`` kind: overwrite, clear, gc);
* controller-level resume — a search interrupted at a generation boundary
  and resumed from its checkpoint is bit-identical to an uninterrupted
  run (minus pure-speed memo counters, which legitimately reset);
* queue-level durability — the job journal replays, requeues jobs that
  were running when a daemon died, and enforces cancel semantics;
* daemon-level end-to-end — a real ``k2 serve`` subprocess is submitted
  to, SIGKILLed mid-job, restarted, and must finish the job with a result
  identical to an undisturbed daemon's.
"""

import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.api import K2Config
from repro.bpf import BpfProgram, HookType, assemble, get_hook
from repro.bpf.maps import MapEnvironment
from repro.service import DaemonClient, DaemonUnavailable, JobSpec
from repro.service.jobs import JobQueue
from repro.store import VerdictStore
from repro.synthesis import SearchInterrupted, SearchOptions, Synthesizer
from golden_helpers import search_signature
from test_parallel_search import REDUNDANT


def prog(text, hook=HookType.XDP):
    return BpfProgram(instructions=assemble(text), hook=get_hook(hook),
                      maps=MapEnvironment(), name="prog")


def resume_signature(result):
    """search_signature minus counters that legitimately differ on resume.

    ``key_memo_hits`` counts a pure-speed memo that is deliberately not
    checkpointed; a resumed run re-derives keys it had memoized, so the
    counter is lower without any trajectory difference.  (Retry counters
    are already outside search_signature.)
    """
    signature = search_signature(result)
    signature[-1].pop("key_memo_hits", None)
    return signature


def trajectory_signature(result):
    """What the search *found*, ignoring how much work each stage did.

    Comparisons that cross a warm store preseed use this: a warm start is
    trajectory-identical to a cold one, but cheaper (cache-stage hits
    replace full-pipeline attempts), so stage counters legitimately differ
    — the same contract ``test_store.py`` pins for plain warm starts.
    """
    return (result.best_program.structural_key(),
            [tuple(candidate.program.structural_key()
                   for candidate in chain.candidates)
             for chain in result.chain_results])


def stop_after(boundary):
    """A generation hook that interrupts once ``boundary`` generations ran."""
    def hook(completed, total):
        return completed < boundary
    return hook


# --------------------------------------------------------------------- #
# Store-level checkpoint records
# --------------------------------------------------------------------- #
class TestCheckpointRecords:
    def test_round_trip_overwrite_clear(self, tmp_path):
        path = str(tmp_path / "st.k2s")
        store = VerdictStore(path)
        payload = {"version": 1, "chains": [{"x": [1, 2]}]}
        store.record_checkpoint("job-a", 1, payload)
        store.record_checkpoint("job-b", 3, {"version": 1})
        store.flush()

        reread = VerdictStore(path)
        assert sorted(reread.checkpoint_jobs()) == ["job-a", "job-b"]
        assert reread.checkpoint_for("job-a") == (1, payload)

        # A later boundary replaces the earlier one wholesale.
        store.record_checkpoint("job-a", 2, {"version": 2})
        store.flush()
        assert VerdictStore(path).checkpoint_for("job-a") == (2, {"version": 2})

        # Clearing drops the job (its flush compacts the dead lines away);
        # the live job survives that and a gc.
        assert store.clear_checkpoint("job-a") is True
        store.flush()
        reread = VerdictStore(path)
        assert reread.checkpoint_for("job-a") is None
        assert reread.checkpoint_jobs() == ["job-b"]
        reread.gc()
        assert VerdictStore(path).checkpoint_for("job-b") == (3, {"version": 1})

    def test_clear_unknown_job_is_a_noop(self, tmp_path):
        store = VerdictStore(str(tmp_path / "st.k2s"))
        assert store.clear_checkpoint("nope") is False


# --------------------------------------------------------------------- #
# Controller-level resume
# --------------------------------------------------------------------- #
class TestSearchResume:
    OPTIONS = dict(iterations_per_chain=160, num_parameter_settings=2,
                   seed=7, sync_interval=40)

    def _options(self, store, **extra):
        return SearchOptions(store_path=store, checkpoint_key="job", **extra,
                             **self.OPTIONS)

    def test_interrupt_then_resume_is_bit_identical(self, tmp_path):
        source = prog(REDUNDANT)
        clean = Synthesizer(SearchOptions(**self.OPTIONS)).optimize(source)

        store = str(tmp_path / "st.k2s")
        with pytest.raises(SearchInterrupted):
            Synthesizer(self._options(
                store, generation_hook=stop_after(1))).optimize(source)
        # The interrupt landed *after* the boundary's checkpoint write.
        assert VerdictStore(store).checkpoint_for("job") is not None

        resumed = Synthesizer(self._options(store)).optimize(source)
        assert resume_signature(resumed) == resume_signature(clean)
        # Success clears the checkpoint: the next run starts cold again.
        assert VerdictStore(store).checkpoint_for("job") is None

    def test_resume_from_every_boundary(self, tmp_path):
        """Kill at each boundary in turn; every resume must converge."""
        source = prog(REDUNDANT)
        clean = resume_signature(
            Synthesizer(SearchOptions(**self.OPTIONS)).optimize(source))
        for boundary in (2, 3, 4):  # 160/40 = 4 generations
            store = str(tmp_path / f"st{boundary}.k2s")
            with pytest.raises(SearchInterrupted):
                Synthesizer(self._options(
                    store,
                    generation_hook=stop_after(boundary))).optimize(source)
            resumed = Synthesizer(self._options(store)).optimize(source)
            assert resume_signature(resumed) == clean, \
                f"resume from boundary {boundary} diverged"

    def test_mismatched_options_fall_back_to_cold_start(self, tmp_path):
        """A checkpoint from different options must not be resumed."""
        source = prog(REDUNDANT)
        store = str(tmp_path / "st.k2s")
        with pytest.raises(SearchInterrupted):
            Synthesizer(self._options(
                store, generation_hook=stop_after(1))).optimize(source)

        # Comparator: the identical warm store, minus the checkpoint.  (A
        # plain no-store run is NOT the right baseline — preseeded
        # counterexamples legitimately steer a different-seed search.)
        twin = str(tmp_path / "twin.k2s")
        shutil.copy(store, twin)
        VerdictStore(twin).clear_checkpoint("job")

        other = dict(self.OPTIONS, seed=11)
        baseline = Synthesizer(SearchOptions(
            store_path=twin, **other)).optimize(source)
        crossed = Synthesizer(SearchOptions(
            store_path=store, checkpoint_key="job", **other)).optimize(source)
        # The seed-7 checkpoint fails its signature check, so the crossed
        # run starts cold — exactly like the checkpoint-free twin — and
        # the unusable checkpoint is discarded.
        assert resume_signature(crossed) == resume_signature(baseline)
        assert VerdictStore(store).checkpoint_for("job") is None

    def test_garbage_checkpoint_falls_back_to_cold_start(self, tmp_path):
        source = prog(REDUNDANT)
        store_path = str(tmp_path / "st.k2s")
        store = VerdictStore(store_path)
        store.record_checkpoint("job", 1, {"junk": True})
        store.flush()

        cold = Synthesizer(SearchOptions(**self.OPTIONS)).optimize(source)
        recovered = Synthesizer(self._options(store_path)).optimize(source)
        assert resume_signature(recovered) == resume_signature(cold)
        # The unusable checkpoint was discarded, not left to rot.
        assert VerdictStore(store_path).checkpoint_for("job") is None

    def test_windowed_interrupt_resumes_per_window(self, tmp_path):
        source = prog("""
            mov64 r6, 0
            stxw [r10-4], r6
            stxw [r10-4], r6
            ldxw r0, [r10-4]
            mov64 r7, 0
            stxw [r10-8], r7
            stxw [r10-8], r7
            ldxw r1, [r10-8]
            mov64 r0, 0
            exit
        """)
        options = dict(iterations_per_chain=120, num_parameter_settings=2,
                       seed=5, sync_interval=40, window_mode=True,
                       window_size=6, window_overlap=2)
        clean = trajectory_signature(
            Synthesizer(SearchOptions(**options)).optimize(source))

        store = str(tmp_path / "st.k2s")
        calls = []

        # 120 iterations split over two windows = 2 generations per window;
        # the third boundary overall is window 2's first.
        def stop_inside_second_window(completed, total):
            calls.append(completed)
            return len(calls) < 3

        with pytest.raises(SearchInterrupted):
            Synthesizer(SearchOptions(
                store_path=store, checkpoint_key="job",
                generation_hook=stop_inside_second_window,
                **options)).optimize(source)
        # Windowed runs checkpoint under per-window sub-keys.
        assert any(key.startswith("job/w")
                   for key in VerdictStore(store).checkpoint_jobs())

        # The resumed run replays completed windows warm from the store
        # (trajectory-identical, cheaper) and resumes the in-flight window
        # from its checkpoint.
        resumed = Synthesizer(SearchOptions(
            store_path=store, checkpoint_key="job", **options)).optimize(source)
        assert trajectory_signature(resumed) == clean


# --------------------------------------------------------------------- #
# Queue-level durability
# --------------------------------------------------------------------- #
class TestJobQueue:
    def test_spec_round_trip_and_validation(self):
        spec = JobSpec(benchmark="xdp_pktcntr", iterations=500, seed=9,
                       conflict_budget=10_000)
        assert JobSpec.from_dict(spec.to_dict()) == spec
        # Unknown keys from newer clients are ignored, not fatal.
        assert JobSpec.from_dict(dict(spec.to_dict(), new_field=1)) == spec
        with pytest.raises(ValueError):
            JobSpec.from_dict({})  # neither benchmark nor program_text
        with pytest.raises(ValueError):
            JobSpec.from_dict({"benchmark": "x", "iterations": 0})
        with pytest.raises(ValueError):
            JobSpec.from_dict({"benchmark": "x", "conflict_budget": -1})
        # The rules K2Config enforces: no silent size search for an
        # unknown goal, no job that retries an unknown executor until it
        # fails, no window geometry the planner cannot slice.
        for bad in ({"goal": "fast"}, {"executor": "fibers"},
                    {"executor": "thread"},
                    {"window_size": 8, "window_overlap": 8}):
            with pytest.raises(ValueError):
                JobSpec.from_dict(dict(bad, benchmark="x"))
        # A journaled or peer spec that still names the retired engine
        # knob decodes, with the field ignored.
        assert JobSpec.from_dict(dict(spec.to_dict(), engine="legacy")) == spec

    @pytest.mark.parametrize("goal", ["size", "latency"])
    def test_job_spec_searches_like_its_config(self, goal):
        """A job runs the search its config runs in-process: one mapping
        to ``SearchOptions``, with only the service's generation length
        differing."""
        config = K2Config(goal=goal, conflict_budget=5_000,
                          verify_pipeline="window,full")
        in_process = config.search_options()
        daemon = config.job_spec(benchmark="xdp_pktcntr").search_options(
            None, None)
        assert daemon.sync_interval == 250
        assert dataclasses.replace(daemon, sync_interval=None) == in_process

    def test_spec_naming_a_store_is_refused(self):
        # The daemon searches on its own shared store; a spec naming
        # another one would be silently ignored, so it is refused.
        with pytest.raises(ValueError, match="store"):
            JobSpec.from_dict({"benchmark": "xdp_pktcntr",
                               "store": "elsewhere.k2s"})
        with pytest.raises(ValueError, match="store"):
            K2Config(store="elsewhere.k2s").job_spec(benchmark="xdp_pktcntr")

    def test_spec_verify_pipeline_reaches_the_search(self):
        spec = JobSpec.from_dict({"benchmark": "xdp_pktcntr",
                                  "verify_pipeline": "cache,full"})
        equivalence = spec.search_options(None, None).equivalence
        assert (equivalence.enable_cache, equivalence.modular_verification,
                equivalence.full_symbolic) == (True, False, True)

    def test_journal_keeps_jobs_whose_spec_no_longer_validates(
            self, tmp_path):
        """A spec journaled before a knob value was retired (the
        ``thread`` executor, the ``replay`` verification stage) keeps its
        job: a finished one replays as it was, an unfinished one replays
        as failed and never runs.  Only a line that does not decode into a
        job is skipped."""
        for knob, value, message in (
                ("executor", "thread", "executor"),
                ("verify_pipeline", "replay,full", "replay")):
            journal = str(tmp_path / f"{knob}.jsonl")
            record = {"id": "j0001", "state": "done",
                      "spec": {"benchmark": "xdp_pktcntr", knob: value},
                      "result": {"best_insns": 3}}
            with open(journal, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(record) + "\n")
                handle.write(json.dumps(dict(record, id="j0002",
                                             state="queued", result=None))
                             + "\n")
                handle.write(json.dumps(dict(record, id="j0003", spec=None))
                             + "\n")
            for _ in range(2):  # the failure is journaled, not re-derived
                replayed = JobQueue(journal)
                assert [job.id for job in replayed.jobs()] == \
                    ["j0001", "j0002"]
                done, queued = replayed.jobs()
                assert done.state == "done" and \
                    done.result == {"best_insns": 3}
                assert done.error is None
                assert queued.state == "failed" and message in queued.error
                assert queued.finished_at is not None
                assert replayed.next_runnable() is None

    def test_journal_replay_requeues_running_jobs(self, tmp_path):
        journal = str(tmp_path / "jobs.jsonl")
        queue = JobQueue(journal)
        job_a = queue.submit(JobSpec(benchmark="xdp_pktcntr"))
        job_b = queue.submit(JobSpec(benchmark="xdp_pktcntr", seed=1))
        job_a.state = "done"
        job_a.result = {"best_insns": 3}
        queue.persist(job_a)
        job_b.state = "running"
        queue.persist(job_b)

        # A new daemon replays the journal: the latest record per job wins
        # and the job orphaned mid-run goes back to the queue.
        replayed = JobQueue(journal)
        assert [job.id for job in replayed.jobs()] == [job_a.id, job_b.id]
        assert replayed.get(job_a.id).state == "done"
        assert replayed.get(job_a.id).result == {"best_insns": 3}
        assert replayed.get(job_b.id).state == "queued"
        assert replayed.next_runnable().id == job_b.id
        # Fresh ids keep counting upward instead of reusing b's.
        assert replayed.submit(JobSpec(benchmark="xdp_pktcntr")).id == "j0003"

    def test_torn_journal_line_loses_one_update_not_the_queue(self, tmp_path):
        journal = str(tmp_path / "jobs.jsonl")
        queue = JobQueue(journal)
        job = queue.submit(JobSpec(benchmark="xdp_pktcntr"))
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"id": "j0001", "state": "do')  # torn write
        replayed = JobQueue(journal)
        assert replayed.get(job.id).state == "queued"

    def test_cancel_semantics(self, tmp_path):
        queue = JobQueue(str(tmp_path / "jobs.jsonl"))
        queued = queue.submit(JobSpec(benchmark="xdp_pktcntr"))
        running = queue.submit(JobSpec(benchmark="xdp_pktcntr", seed=1))
        running.state = "running"
        queue.persist(running)

        # Queued cancels immediately; running is only flagged — the daemon
        # stops it at the next generation boundary.
        assert queue.request_cancel(queued.id).state == "cancelled"
        flagged = queue.request_cancel(running.id)
        assert flagged.state == "running" and flagged.cancel_requested
        assert queue.next_runnable() is None
        # Terminal jobs and unknown ids are left alone.
        assert queue.request_cancel(queued.id).state == "cancelled"
        assert queue.request_cancel("j9999") is None


# --------------------------------------------------------------------- #
# Daemon-level end-to-end
# --------------------------------------------------------------------- #
SPEC = dict(benchmark="xdp_pktcntr", iterations=120, settings=2,
            sync_interval=40, seed=7)


def result_identity(job):
    """The comparable part of a job's result summary."""
    summary = dict(job["result"])
    for field in ("elapsed_seconds", "worker_retries", "store"):
        summary.pop(field, None)
    summary["cache"] = {key: value
                        for key, value in summary["cache"].items()
                        if key != "key_memo_hits"}
    return summary


class DaemonHarness:
    """A real ``k2 serve`` subprocess plus a client pointed at it."""

    def __init__(self, state_dir):
        self.state_dir = str(state_dir)
        self.client = DaemonClient(self.state_dir)
        self.process = None

    def start(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--state", self.state_dir],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                self.client.ping()
                return self
            except DaemonUnavailable:
                time.sleep(0.05)
        raise RuntimeError("daemon did not come up")

    def wait_for_progress(self, job_id, generations=1, timeout=60):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            job = self.client.status(job_id)
            if (job["progress"] or {}).get("generation", 0) >= generations:
                return job
            time.sleep(0.02)
        raise RuntimeError(f"job {job_id} never reached "
                           f"generation {generations}")

    def sigkill(self):
        self.process.send_signal(signal.SIGKILL)
        self.process.wait(timeout=10)

    def stop(self):
        if self.process is None or self.process.poll() is not None:
            return
        try:
            self.client.shutdown()
        except (DaemonUnavailable, ValueError):
            self.process.terminate()
        self.process.wait(timeout=15)


@pytest.fixture
def harness(tmp_path):
    instance = DaemonHarness(tmp_path / "state")
    yield instance
    instance.stop()


class TestDaemonEndToEnd:
    def test_submit_runs_to_done(self, harness):
        harness.start()
        job_id = harness.client.submit(JobSpec(**SPEC))
        job = harness.client.wait(job_id, timeout=120)
        assert job["state"] == "done" and job["error"] is None
        assert job["result"]["best_insns"] \
            < job["result"]["source_insns"]
        assert job["progress"]["generation"] == job["progress"]["total"]
        # status omits the (potentially large) result payload.
        assert "result" not in harness.client.status(job_id)

    def test_daemon_sigkill_resume_is_bit_identical(self, harness, tmp_path):
        clean_harness = DaemonHarness(tmp_path / "clean").start()
        try:
            clean_id = clean_harness.client.submit(JobSpec(**SPEC))
            clean = result_identity(
                clean_harness.client.wait(clean_id, timeout=120))
        finally:
            clean_harness.stop()

        harness.start()
        job_id = harness.client.submit(JobSpec(**SPEC))
        harness.wait_for_progress(job_id, generations=1)
        harness.sigkill()

        harness.start()  # journal replays, job requeues, search resumes
        job = harness.client.wait(job_id, timeout=120)
        assert job["state"] == "done"
        assert job["attempts"] == 2
        assert result_identity(job) == clean

    def test_graceful_sigterm_requeues_then_resumes(self, harness):
        harness.start()
        job_id = harness.client.submit(JobSpec(**SPEC))
        harness.wait_for_progress(job_id, generations=1)
        harness.process.send_signal(signal.SIGTERM)
        assert harness.process.wait(timeout=30) == 0

        # The interrupted job went back to the queue, not to a terminal
        # state — the restarted daemon picks it up from its checkpoint.
        harness.start()
        job = harness.client.wait(job_id, timeout=120)
        assert job["state"] == "done" and job["attempts"] == 2

    def test_cancel_running_job(self, harness):
        harness.start()
        job_id = harness.client.submit(
            JobSpec(**dict(SPEC, iterations=100_000, sync_interval=25)))
        harness.wait_for_progress(job_id, generations=1)
        job = harness.client.cancel(job_id)
        assert job["cancel_requested"]
        job = harness.client.wait(job_id, timeout=60)
        assert job["state"] == "cancelled"
        # The dead job's checkpoint was dropped from the shared store, and
        # with every job finished no checkpoint history is left on disk.
        path = os.path.join(harness.state_dir, "store.k2s")
        assert VerdictStore(path).checkpoint_for(job_id) is None
        with open(path, "r", encoding="utf-8") as handle:
            assert '"t":"ck"' not in handle.read()

    def test_bad_requests_are_answered_not_fatal(self, harness):
        harness.start()
        with pytest.raises(ValueError, match="unknown job"):
            harness.client.status("j9999")
        with pytest.raises(ValueError):
            harness.client.submit(JobSpec())  # no program at all
        with pytest.raises(ValueError, match="store"):
            harness.client.submit(JobSpec(benchmark="xdp_pktcntr",
                                          store="elsewhere.k2s"))
        response = harness.client.request({"op": "frobnicate"})
        assert response["ok"] is False
        # ...and the daemon is still alive and serving afterwards.
        assert harness.client.ping()["ok"]

    def test_bad_spec_fails_without_retries(self, harness):
        harness.start()
        job_id = harness.client.submit(
            JobSpec(benchmark="no_such_benchmark"))
        job = harness.client.wait(job_id, timeout=60)
        assert job["state"] == "failed"
        assert job["attempts"] == 1
        assert "no_such_benchmark" in job["error"]

    def test_client_without_daemon_raises_daemon_unavailable(self, tmp_path):
        client = DaemonClient(str(tmp_path / "empty"))
        with pytest.raises(DaemonUnavailable):
            client.ping()


class TestServiceCli:
    def test_submit_status_result_via_cli(self, harness):
        harness.start()
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

        def k2(*argv):
            return subprocess.run(
                [sys.executable, "-m", "repro.cli", *argv],
                env=env, capture_output=True, text=True)

        submit = k2("submit", "--state", harness.state_dir,
                    "--benchmark", "xdp_pktcntr", "--iterations", "120",
                    "--settings", "2", "--seed", "7")
        assert submit.returncode == 0, submit.stderr
        job_id = submit.stdout.strip()

        result = k2("result", "--state", harness.state_dir, job_id, "--wait")
        assert result.returncode == 0, result.stderr
        record = json.loads(result.stdout)
        assert record["state"] == "done"
        assert record["result"]["best_insns"] < record["result"]["source_insns"]

        listing = k2("jobs", "--state", harness.state_dir)
        assert job_id in listing.stdout and "done" in listing.stdout

        missing = k2("status", "--state", harness.state_dir, "j9999")
        assert missing.returncode == 2
        assert "unknown job" in missing.stderr

        off = k2("status", "--state", str(harness.state_dir) + "-none", "j1")
        assert off.returncode == 2
        assert "no k2 daemon" in off.stderr
