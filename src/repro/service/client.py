"""Client side of the serve protocol: what ``k2 submit`` etc. talk through.

Speaks protocol v1: typed requests carrying ``proto``/capabilities and
structured ``{code, message}`` errors (see :mod:`repro.service.protocol`).

Two interaction shapes:

* one-shot requests (``ping``/``submit``/``status``/...): one connection,
  one JSON line each way;
* the ``watch`` stream: one connection held open while the daemon pushes
  job events — :meth:`DaemonClient.watch` wraps it in a generator with
  reconnect-and-resume (jittered exponential backoff, ``after``/``run``
  bookkeeping), and :meth:`DaemonClient.wait` is built on it, so waiting
  for a job costs zero status polls while the stream is healthy.
"""

from __future__ import annotations

import random
import socket
import time
from typing import Iterator, List, Optional

from . import protocol
from .jobs import JobSpec

__all__ = ["DaemonClient", "DaemonUnavailable"]


class DaemonUnavailable(Exception):
    """No daemon is listening on the state directory's socket."""


class DaemonClient:
    """One-request-per-connection client for a :class:`K2Daemon`.

    Stateless: each call opens a fresh connection, so a client object can
    outlive daemon restarts.
    """

    def __init__(self, state_dir: str, timeout: float = 10.0):
        self.state_dir = str(state_dir)
        self.timeout = timeout

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def request(self, payload: dict) -> dict:
        """One raw request → raw response dict (debugging door).

        Typed callers go through :meth:`request_typed`; this stays public
        because a dict in, dict out escape hatch is the cheapest way to
        poke a daemon.
        """
        try:
            sock = protocol.connect(self.state_dir, timeout=self.timeout)
        except OSError as exc:
            raise DaemonUnavailable(
                f"no k2 daemon at {self.state_dir!r} ({exc})") from exc
        try:
            with sock:
                protocol.send_message(sock, payload)
                response = protocol.recv_message(sock)
        except (OSError, ValueError) as exc:
            raise DaemonUnavailable(
                f"k2 daemon at {self.state_dir!r} dropped the "
                f"connection ({exc})") from exc
        if response is None:
            raise DaemonUnavailable(
                f"k2 daemon at {self.state_dir!r} closed without replying")
        return response

    def request_typed(self, request: protocol.Request) -> protocol.Response:
        """Send a typed request; raise ``ValueError`` on a daemon error."""
        response = protocol.decode_response(self.request(request.to_wire()))
        if isinstance(response, protocol.ErrorResponse):
            raise ValueError(response.message or response.code)
        return response

    # ------------------------------------------------------------------ #
    # One-shot requests
    # ------------------------------------------------------------------ #
    def ping(self) -> dict:
        return self.request(protocol.PingRequest().to_wire())

    def submit(self, spec: JobSpec) -> str:
        response = self.request_typed(
            protocol.SubmitRequest(spec=spec.to_dict()))
        return str(response.job)

    def status(self, job_id: str) -> dict:
        return dict(self.request_typed(
            protocol.StatusRequest(job=str(job_id))).job)

    def result(self, job_id: str) -> dict:
        return dict(self.request_typed(
            protocol.ResultRequest(job=str(job_id))).job)

    def cancel(self, job_id: str) -> dict:
        return dict(self.request_typed(
            protocol.CancelRequest(job=str(job_id))).job)

    def jobs(self) -> List[dict]:
        return list(self.request_typed(protocol.JobsRequest()).jobs)

    def shutdown(self) -> dict:
        return self.request(protocol.ShutdownRequest().to_wire())

    # ------------------------------------------------------------------ #
    # Event streaming
    # ------------------------------------------------------------------ #
    def watch(self, job_id: str, timeout: Optional[float] = None,
              after: int = 0, reconnect_attempts: int = 6,
              backoff_base: float = 0.05, backoff_cap: float = 2.0
              ) -> Iterator[protocol.EventResponse]:
        """Yield a job's pushed events until its terminal event.

        Holds one connection open per stream segment; the daemon pushes an
        event line at every job state change and generation boundary, so
        consuming this generator costs **zero** status polls.  When the
        stream drops (daemon restart, network hiccup) the generator
        reconnects with jittered exponential backoff and resumes from the
        last seen sequence number — carrying the daemon incarnation
        (``run``) so a *restarted* daemon replays its fresh stream from
        the start instead of the resume point silently skipping events.

        Raises :class:`DaemonUnavailable` after ``reconnect_attempts``
        consecutive failed reconnects, and :class:`TimeoutError` when
        ``timeout`` elapses (the job keeps running — watching is
        observation, not control).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        run = ""
        failures = 0
        while True:
            self._check_deadline(deadline, job_id)
            try:
                sock = protocol.connect(self.state_dir, timeout=self.timeout)
            except OSError as exc:
                failures += 1
                if failures > reconnect_attempts:
                    raise DaemonUnavailable(
                        f"no k2 daemon at {self.state_dir!r} after "
                        f"{failures} attempts ({exc})") from exc
                self._backoff(failures, backoff_base, backoff_cap, deadline,
                              job_id)
                continue
            try:
                with sock:
                    protocol.send_message(
                        sock, protocol.WatchRequest(
                            job=str(job_id), after=after, run=run).to_wire())
                    reader = protocol.LineReader(sock)
                    while True:
                        self._check_deadline(deadline, job_id)
                        sock.settimeout(1.0)
                        try:
                            message = reader.read_message()
                        except socket.timeout:
                            continue  # idle stream; buffer is intact
                        if message is None:
                            break  # peer closed: reconnect and resume
                        response = protocol.decode_response(message)
                        if isinstance(response, protocol.ErrorResponse):
                            raise ValueError(response.message
                                             or response.code)
                        if not isinstance(response,
                                          protocol.EventResponse):
                            raise protocol.ProtocolError(
                                "bad-message",
                                "watch streams carry only events")
                        failures = 0
                        after = response.seq
                        run = response.run
                        yield response
                        if response.final:
                            return
            except (OSError, protocol.ProtocolError):
                pass  # stream segment died: fall through to reconnect
            failures += 1
            if failures > reconnect_attempts:
                raise DaemonUnavailable(
                    f"k2 daemon at {self.state_dir!r} kept dropping the "
                    f"watch stream for job {job_id}")
            self._backoff(failures, backoff_base, backoff_cap, deadline,
                          job_id)

    def _check_deadline(self, deadline: Optional[float],
                        job_id: str) -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError(f"job {job_id} not terminal before deadline")

    def _backoff(self, failures: int, base: float, cap: float,
                 deadline: Optional[float], job_id: str) -> None:
        """Jittered exponential backoff between reconnect attempts."""
        delay = min(cap, base * (2 ** (failures - 1)))
        delay *= 0.5 + random.random()  # full jitter in [0.5x, 1.5x)
        if deadline is not None:
            delay = min(delay, max(0.0, deadline - time.monotonic()))
            if delay <= 0:
                raise TimeoutError(
                    f"job {job_id} not terminal before deadline")
        time.sleep(delay)

    # ------------------------------------------------------------------ #
    def wait(self, job_id: str, timeout: Optional[float] = None,
             poll: float = 0.2) -> dict:
        """Block until the job is terminal; returns its full record.

        Event-driven: consumes the :meth:`watch` stream and returns the
        job record carried by the terminal event — zero status polls while
        the stream is healthy.  Status polling (every ``poll`` seconds)
        remains only as the documented fallback when the stream cannot be
        held (e.g. a daemon rolling through restarts faster than the
        reconnect budget), so waiting still converges there.

        Raises :class:`TimeoutError` if ``timeout`` elapses first (the job
        keeps running — waiting is observation, not control).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            for event in self.watch(job_id, timeout=timeout):
                if event.final:
                    job = (event.data or {}).get("job")
                    if job:
                        return dict(job)
                    break  # terminal but bare: fetch the record below
        except (DaemonUnavailable, ValueError):
            pass  # stream lost or rejected: fall back to polling
        while True:
            try:
                job = self.result(job_id)
                if job["state"] in ("done", "failed", "cancelled"):
                    return job
            except DaemonUnavailable:
                pass  # daemon restarting; keep polling until the deadline
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(
                    f"job {job_id} still running after {timeout}s")
            time.sleep(poll)
