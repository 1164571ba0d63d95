"""Tests for the scale-out service: concurrency, shards, watch, protocol.

Layered like the implementation:

* protocol v1 — typed codec round-trips, forward compatibility (unknown
  fields ignored), and structured errors, unversioned requests included;
* shard planning and the deterministic merge — a sharded search's merged
  result carries the unsharded run's ``search_signature``;
* scheduler semantics — concurrent jobs bit-identical to serial ones,
  worker-budget clamping, FIFO-with-budgets fairness, priorities;
* event streaming — ``watch``/``wait`` consume pushed events with zero
  status polls, and a stream survives a daemon SIGKILL + restart;
* shard fault tolerance — a SIGKILL'd shard worker daemon makes the
  coordinator reassign, with the merged result unchanged.

In-process daemons (real sockets, real threads) keep most scenarios
fast; the restart/SIGKILL scenarios use real subprocesses.
"""

import contextlib
import json
import os
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.service import (DaemonClient, DaemonUnavailable, JobSpec,
                           K2Daemon, merge_shard_payloads, plan_shards,
                           run_shard)
from repro.service import protocol
from repro.synthesis import Synthesizer
from golden_helpers import search_signature
from test_parallel_search import REDUNDANT
from test_service import SPEC, DaemonHarness, result_identity


# --------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------- #
@contextlib.contextmanager
def daemon(state_dir, **kwargs):
    """An in-process daemon on a real socket, stopped on exit."""
    instance = K2Daemon(str(state_dir), poll_interval=0.05, **kwargs)
    thread = threading.Thread(
        target=instance.serve_forever,
        kwargs={"install_signal_handlers": False}, daemon=True)
    thread.start()
    client = DaemonClient(str(state_dir))
    deadline = time.monotonic() + 10
    while True:
        try:
            client.ping()
            break
        except DaemonUnavailable:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.02)
    try:
        yield instance, client
    finally:
        instance.request_stop()
        thread.join(timeout=60)


def sharded_identity(job):
    """result_identity minus the coordinator-only shard placement report."""
    summary = result_identity(job)
    summary.pop("shards", None)
    return summary


def scheduled_identity(job):
    """result_identity minus store-timing-dependent speed counters.

    Daemon jobs share one verdict store; a job that starts after another
    finished warm-starts from its flushed verdicts (store_hits > 0, fewer
    SMT calls), while a concurrently-started job does not.  Warm starts
    are pure speed — verdicts are content-addressed, so the trajectory and
    every candidate digest stay identical — and the affected counters are
    excluded here the same way ``resume_signature`` excludes them.
    """
    summary = result_identity(job)
    summary.pop("cache", None)
    for chain in summary.get("chains", ()):
        chain.pop("equivalence_cache_hits", None)
        chain.pop("equivalence_checks", None)
    return summary


def shard_signature(result):
    """search_signature minus the per-cache key memo counter.

    The key memo is a pure-speed, per-cache-instance memo: a sharded run
    holds one cache per shard where the unsharded run holds one total, so
    later chains see fewer memoized keys without any trajectory change —
    the same exclusion ``resume_signature`` documents for resumes.
    """
    signature = search_signature(result)
    signature[-1].pop("key_memo_hits", None)
    return signature


# --------------------------------------------------------------------- #
# Protocol v1: typed codec, forward compat, structured errors
# --------------------------------------------------------------------- #
class TestProtocolV1:
    def test_request_round_trip_carries_proto(self):
        wire = protocol.WatchRequest(job="j0001", after=7, run="abc").to_wire()
        assert wire["proto"] == protocol.PROTO_VERSION
        request = protocol.decode_request(wire)
        assert isinstance(request, protocol.WatchRequest)
        assert (request.job, request.after, request.run) == ("j0001", 7, "abc")

    def test_unknown_fields_are_ignored_not_fatal(self):
        request = protocol.decode_request(
            {"op": "ping", "proto": 1, "from_the_future": True})
        assert isinstance(request, protocol.PingRequest)
        response = protocol.decode_response(
            {"ok": True, "proto": 9, "pid": 1, "jobs": 0, "stopping": False,
             "new_feature": "yes"})
        assert isinstance(response, protocol.PingResponse)

    def test_unknown_op_raises_typed_error(self):
        with pytest.raises(protocol.ProtocolError) as info:
            protocol.decode_request({"op": "frobnicate", "proto": 1})
        assert info.value.code == "unknown-op"

    def test_line_reader_splits_coalesced_event_lines(self):
        left, right = __import__("socket").socketpair()
        with left, right:
            left.sendall(b'{"a": 1}\n{"a": 2}\n')
            left.close()
            reader = protocol.LineReader(right)
            assert reader.read_message() == {"a": 1}
            assert reader.read_message() == {"a": 2}
            assert reader.read_message() is None

    def test_error_shape_per_generation(self):
        """Requests of every generation get one error shape: the
        structured v1 ``{code, message}`` object."""
        # Unversioned (v0) requests, and ones whose proto is not a v1
        # integer, are refused instead of decoded.
        for bad in ({"op": "status", "job": "j0001"},
                    {"op": "ping", "proto": "1"}, {"op": "ping", "proto": 0}):
            with pytest.raises(protocol.ProtocolError) as info:
                protocol.decode_request(bad)
            assert info.value.code == "bad-message"
        error = protocol.ErrorResponse(code="unknown-job",
                                       message="unknown job")
        wire = error.to_wire()
        assert wire == {"ok": False, "proto": protocol.PROTO_VERSION,
                        "error": {"code": "unknown-job",
                                  "message": "unknown job"}}
        decoded = protocol.decode_response(wire)
        assert isinstance(decoded, protocol.ErrorResponse)
        assert (decoded.code, decoded.message) == ("unknown-job",
                                                   "unknown job")
        # A v0 bare-string error is not a response the client accepts.
        with pytest.raises(protocol.ProtocolError) as info:
            protocol.decode_response({"ok": False, "error": "unknown job"})
        assert info.value.code == "bad-message"

    def test_v0_client_against_v1_daemon(self, tmp_path):
        """A pre-versioning client's raw dicts are refused in the v1
        shape, and the daemon keeps serving afterwards."""
        with daemon(tmp_path / "state") as (_, client):
            refused = client.request({"op": "ping"})
            assert refused["ok"] is False
            assert refused["proto"] == protocol.PROTO_VERSION
            assert refused["error"]["code"] == "bad-message"
            decoded = protocol.decode_response(refused)
            assert isinstance(decoded, protocol.ErrorResponse)
            assert decoded.code == "bad-message"
            unknown = client.request({"op": "frobnicate", "proto": 1})
            assert unknown["error"]["code"] == "unknown-op"
            with protocol.connect(client.state_dir) as sock:
                sock.sendall(b"not json\n")
                garbled = protocol.recv_message(sock)
            assert garbled["proto"] == protocol.PROTO_VERSION
            assert garbled["error"]["code"] == "bad-request"
            pong = client.ping()
            assert pong["ok"] and pong["proto"] == protocol.PROTO_VERSION
            assert "watch" in pong["capabilities"]


# --------------------------------------------------------------------- #
# Shard planning and the deterministic merge
# --------------------------------------------------------------------- #
class TestShards:
    def test_plan_shards_tiles_contiguously(self):
        assert plan_shards(8, 3) == [
            {"index": 0, "of": 3, "lo": 0, "hi": 3, "total": 8},
            {"index": 1, "of": 3, "lo": 3, "hi": 6, "total": 8},
            {"index": 2, "of": 3, "lo": 6, "hi": 8, "total": 8}]
        # Shards are clamped to the chain count, never empty.
        assert plan_shards(2, 5) == [
            {"index": 0, "of": 2, "lo": 0, "hi": 1, "total": 2},
            {"index": 1, "of": 2, "lo": 1, "hi": 2, "total": 2}]

    def test_merged_shards_match_unsharded_search_signature(self):
        """The tentpole determinism claim, at the library layer."""
        spec = JobSpec(program_text=REDUNDANT, iterations=120, settings=4,
                       seed=7, sync_interval=40, share_cache=False,
                       share_counterexamples=False)
        source = spec.build_program()
        unsharded = Synthesizer(
            spec.search_options(None, None)).optimize(source)

        for num_shards in (2, 3):
            payloads = [run_shard(spec, plan, None, None)
                        for plan in plan_shards(spec.settings, num_shards)]
            merged = merge_shard_payloads(source, spec, payloads)
            assert shard_signature(merged) == shard_signature(unsharded), \
                f"{num_shards}-way shard merge diverged"

    def test_merge_rejects_gapped_payloads(self):
        spec = JobSpec(program_text=REDUNDANT, iterations=40, settings=4,
                       seed=7, share_cache=False,
                       share_counterexamples=False)
        source = spec.build_program()
        plans = plan_shards(4, 2)
        payloads = [run_shard(spec, plans[0], None, None)]
        with pytest.raises(ValueError, match="cover every chain"):
            merge_shard_payloads(source, spec, payloads)

    def test_windowed_jobs_are_not_shardable(self):
        with pytest.raises(ValueError, match="not shardable"):
            JobSpec.from_dict(dict(SPEC, shards=2, windowed=True))

    def test_sharded_daemon_job_matches_unsharded(self, tmp_path):
        """End-to-end: shards=2 with no peers runs locally, merged result
        bit-identical to the shards=1 run of the same spec."""
        spec = dict(SPEC, settings=4, share_cache=False,
                    share_counterexamples=False)
        with daemon(tmp_path / "flat") as (_, client):
            flat = client.wait(client.submit(JobSpec(**spec)), timeout=300)
        with daemon(tmp_path / "sharded") as (_, client):
            sharded = client.wait(client.submit(JobSpec(**spec, shards=2)),
                                  timeout=300)
        assert flat["state"] == "done" and sharded["state"] == "done"
        assert sharded_identity(sharded) == sharded_identity(flat)
        placement = sharded["result"]["shards"]
        assert [s["ran_on"] for s in placement] == ["local", "local"]


# --------------------------------------------------------------------- #
# Concurrent scheduler
# --------------------------------------------------------------------- #
class TestScheduler:
    def test_concurrent_jobs_bit_identical_to_serial(self, tmp_path):
        specs = [JobSpec(**SPEC), JobSpec(**dict(SPEC, seed=9))]
        with daemon(tmp_path / "serial") as (_, client):
            ids = [client.submit(spec) for spec in specs]
            serial = [client.wait(job, timeout=300) for job in ids]
        with daemon(tmp_path / "conc", max_concurrent_jobs=2,
                    worker_budget=2) as (_, client):
            ids = [client.submit(spec) for spec in specs]
            concurrent = [client.wait(job, timeout=300) for job in ids]
        assert [job["state"] for job in concurrent] == ["done", "done"]
        assert [scheduled_identity(job) for job in concurrent] \
            == [scheduled_identity(job) for job in serial]

    def test_worker_grant_clamped_to_budget(self, tmp_path):
        with daemon(tmp_path / "state", max_concurrent_jobs=1,
                    worker_budget=2) as (_, client):
            job_id = client.submit(JobSpec(**dict(
                SPEC, num_workers=8, executor="serial")))
            job = client.wait(job_id, timeout=300)
        assert job["state"] == "done"
        assert job["workers_granted"] == 2

    def test_budget_serializes_jobs_without_skipping(self, tmp_path):
        """FIFO-with-budgets: a free slot without budget must wait."""
        with daemon(tmp_path / "state", max_concurrent_jobs=2,
                    worker_budget=1) as (_, client):
            first = client.submit(JobSpec(**dict(SPEC, iterations=400)))
            second = client.submit(JobSpec(**dict(SPEC, iterations=40,
                                                  settings=1)))
            jobs = [client.wait(job, timeout=300) for job in (first, second)]
        assert all(job["state"] == "done" for job in jobs)
        assert all(job["workers_granted"] == 1 for job in jobs)
        # Both slots were free, but one worker existed: strictly serial.
        assert jobs[1]["started_at"] >= jobs[0]["finished_at"]

    def test_priority_orders_the_queue(self, tmp_path):
        with daemon(tmp_path / "state") as (_, client):
            filler = client.submit(JobSpec(**dict(SPEC, iterations=200)))
            low = client.submit(JobSpec(**dict(SPEC, iterations=40,
                                               settings=1)))
            high = client.submit(JobSpec(**dict(SPEC, iterations=40,
                                                settings=1, seed=1,
                                                priority=5)))
            done = {job: client.wait(job, timeout=300)
                    for job in (filler, low, high)}
        assert all(job["state"] == "done" for job in done.values())
        assert done[high]["started_at"] < done[low]["started_at"]


# --------------------------------------------------------------------- #
# Event streaming
# --------------------------------------------------------------------- #
class TestWatch:
    def test_wait_is_event_driven_with_zero_polls(self, tmp_path):
        with daemon(tmp_path / "state") as (_, client):
            job_id = client.submit(JobSpec(**SPEC))

            def no_polling(*args, **kwargs):  # pragma: no cover - guard
                raise AssertionError("wait() fell back to status polling")

            client.status = client.result = no_polling
            job = client.wait(job_id, timeout=300)
        assert job["state"] == "done"
        assert job["result"]["best_insns"] < job["result"]["source_insns"]

    def test_watch_streams_generation_events(self, tmp_path):
        with daemon(tmp_path / "state") as (_, client):
            job_id = client.submit(JobSpec(**SPEC))
            events = list(client.watch(job_id, timeout=300))
        kinds = [event.event for event in events]
        assert kinds.count("generation") >= 2
        assert events[-1].final and events[-1].data["state"] == "done"
        # Generation events carry per-chain progress at each boundary.
        boundary = next(e for e in events if e.event == "generation")
        assert boundary.data["total"] == SPEC["iterations"] \
            // SPEC["sync_interval"]
        assert len(boundary.data["chains"]) == SPEC["settings"]
        assert {"chain", "iterations", "best_cost"} \
            <= set(boundary.data["chains"][0])
        # Sequence numbers are strictly increasing within an incarnation.
        assert [e.seq for e in events] == sorted(set(e.seq for e in events))

    def test_watch_unknown_job_is_a_structured_error(self, tmp_path):
        with daemon(tmp_path / "state") as (_, client):
            with pytest.raises(ValueError, match="unknown job"):
                next(iter(client.watch("j9999", timeout=5)))

    def test_watch_survives_daemon_restart_mid_job(self, tmp_path):
        harness = DaemonHarness(tmp_path / "state")
        harness.start()
        try:
            job_id = harness.client.submit(
                JobSpec(**dict(SPEC, iterations=600, sync_interval=40)))
            events = []
            done = threading.Event()

            def follow():
                for event in harness.client.watch(
                        job_id, timeout=300, reconnect_attempts=60):
                    events.append(event)
                done.set()

            watcher = threading.Thread(target=follow, daemon=True)
            watcher.start()
            harness.wait_for_progress(job_id, generations=2)
            harness.sigkill()
            harness.start()  # journal requeues; the job resumes
            assert done.wait(timeout=300), "watch stream never completed"
            watcher.join(timeout=10)
        finally:
            harness.stop()
        assert events and events[-1].final
        assert events[-1].data["state"] == "done"
        # The stream spans both daemon incarnations: the reconnecting
        # client carried run ids, so the restarted daemon replayed from
        # the start of its fresh sequence space instead of skipping.
        assert len({event.run for event in events}) == 2


# --------------------------------------------------------------------- #
# Shard fault tolerance
# --------------------------------------------------------------------- #
class TestShardFailover:
    def test_sigkilled_shard_worker_is_reassigned(self, tmp_path):
        """SIGKILL the only peer mid-shard: the coordinator reassigns the
        work (here: local fallback) and the merged result is unchanged."""
        spec = dict(SPEC, iterations=600, sync_interval=50,
                    share_cache=False, share_counterexamples=False)
        with daemon(tmp_path / "baseline") as (_, client):
            baseline = client.wait(client.submit(JobSpec(**spec)),
                                   timeout=600)

        peer = DaemonHarness(tmp_path / "peer")
        peer.start()
        killed = False
        try:
            with daemon(tmp_path / "coord",
                        peers=[peer.state_dir]) as (_, client):
                job_id = client.submit(JobSpec(**spec, shards=2))
                # Kill the peer once it is actually running shard work.
                peer_client = DaemonClient(peer.state_dir)
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    try:
                        if any(job["state"] == "running"
                               for job in peer_client.jobs()):
                            break
                    except (DaemonUnavailable, ValueError):
                        pass
                    time.sleep(0.05)
                peer.sigkill()
                killed = True
                job = client.wait(job_id, timeout=600)
        finally:
            if not killed:
                peer.stop()
        assert job["state"] == "done"
        assert sharded_identity(job) == sharded_identity(baseline)
        placement = job["result"]["shards"]
        assert sum(shard["reassignments"] for shard in placement) >= 1
        assert any(shard["ran_on"] == "local" for shard in placement)


# --------------------------------------------------------------------- #
# CLI: submit --follow
# --------------------------------------------------------------------- #
class TestCliFollow:
    def test_submit_follow_prints_pushed_events(self, tmp_path):
        harness = DaemonHarness(tmp_path / "state")
        harness.start()
        try:
            src = os.path.dirname(
                os.path.dirname(os.path.abspath(repro.__file__)))
            env = dict(os.environ)
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            output = subprocess.run(
                [sys.executable, "-m", "repro.cli", "submit",
                 "--state", harness.state_dir,
                 "--benchmark", SPEC["benchmark"],
                 "--iterations", str(SPEC["iterations"]),
                 "--settings", str(SPEC["settings"]),
                 "--sync-interval", str(SPEC["sync_interval"]),
                 "--seed", str(SPEC["seed"]), "--follow"],
                env=env, capture_output=True, text=True, timeout=300)
        finally:
            harness.stop()
        assert output.returncode == 0, output.stderr
        lines = output.stdout.splitlines()
        assert lines[0].startswith("j")  # the job id, printed first
        # Event lines are one JSON object per line (keys sorted, so the
        # first key varies); the final record is pretty-printed across
        # multiple lines, starting with a bare "{".
        events = []
        for line in lines[1:]:
            if not (line.startswith("{") and line.endswith("}")):
                break
            events.append(json.loads(line))
        kinds = [event["event"] for event in events]
        assert "generation" in kinds and kinds[-1] == "state"
        record = json.loads("\n".join(lines[1 + len(events):]))
        assert record["state"] == "done"
