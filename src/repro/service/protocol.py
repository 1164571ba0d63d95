"""Wire protocol of the serve daemon: versioned line-delimited JSON.

Transport
---------
Addressing goes through the daemon *state directory*: an ``AF_UNIX``
socket at ``<state>/daemon.sock`` where the platform has one, otherwise a
loopback TCP socket whose ephemeral port is published in
``<state>/daemon.port`` (the same degrade-don't-die posture as the verdict
store's lock fallback).  Every message is one JSON object terminated by
``\\n``; a torn line simply fails its JSON parse and is answered with an
error.  Most operations are one request / one response / one connection;
``watch`` keeps the connection open and the daemon pushes a *stream* of
event lines until the watched job is terminal (or the peer goes away).

Versioning (protocol v1)
------------------------
Requests and responses are typed dataclasses (:class:`Request` /
:class:`Response` subclasses below) with a single codec shared by daemon
and client: :func:`decode_request`, :meth:`Message.to_wire` and
:func:`decode_response`.  The rules:

* every v1 message carries ``proto`` (an integer, currently
  :data:`PROTO_VERSION`); ``ping`` additionally exchanges each side's
  ``proto_version`` and capability list, so clients feature-detect instead
  of guessing;
* **unknown fields are ignored** on decode (dataclass fields are the
  schema), so either side may add fields without breaking the other;
* unknown *request types* get a structured :class:`ErrorResponse`
  (``{"code": "unknown-op", ...}``), never a dropped connection;
* a request without an integer ``proto`` gets the same structured error
  with code ``bad-message``; every reply, errors included, is v1-shaped.

Bumping :data:`PROTO_VERSION` is reserved for changes the field rules
above cannot absorb (re-typed fields, changed semantics of an existing
op); additive changes (new ops, new fields, new capabilities) must not
bump it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import socket
from typing import ClassVar, Dict, List, Optional, Type

__all__ = ["SOCKET_NAME", "PORT_FILE", "MAX_LINE_BYTES", "PROTO_VERSION",
           "CAPABILITIES", "has_unix_sockets", "bind_server", "connect",
           "send_message", "recv_message", "LineReader", "ProtocolError",
           "Message", "Request", "Response",
           "PingRequest", "SubmitRequest", "StatusRequest", "ResultRequest",
           "CancelRequest", "JobsRequest", "WatchRequest", "ShutdownRequest",
           "PingResponse", "SubmitResponse", "JobResponse", "JobsResponse",
           "ShutdownResponse", "EventResponse", "ErrorResponse",
           "decode_request", "decode_response"]

SOCKET_NAME = "daemon.sock"
PORT_FILE = "daemon.port"

#: Upper bound on one message line; a submit carrying a program listing is
#: a few KB, so anything near this is a protocol error, not a real request.
MAX_LINE_BYTES = 8 * 1024 * 1024

#: Current protocol generation.  See the module docstring for the bump
#: policy: additive changes never bump this.
PROTO_VERSION = 1

#: What this build of the daemon can do, advertised on ``ping``.  Clients
#: feature-detect on these strings, never on version arithmetic.
CAPABILITIES = ("jobs-v1", "watch", "shards", "concurrent-scheduler",
                "typed-errors")


class ProtocolError(ValueError):
    """A structurally-invalid message (carries a machine-readable code)."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


# --------------------------------------------------------------------------- #
# Transport
# --------------------------------------------------------------------------- #
def has_unix_sockets() -> bool:
    return hasattr(socket, "AF_UNIX")


def _socket_path(state_dir: str) -> str:
    return os.path.join(state_dir, SOCKET_NAME)


def _port_path(state_dir: str) -> str:
    return os.path.join(state_dir, PORT_FILE)


def bind_server(state_dir: str) -> socket.socket:
    """Create, bind and listen the daemon's server socket.

    A stale ``AF_UNIX`` socket file from a killed daemon is unlinked before
    binding — daemon liveness is probed via ``ping``, never inferred from
    the file's existence.  On TCP platforms the kernel picks the port and
    :data:`PORT_FILE` publishes it for clients.
    """
    if has_unix_sockets():
        path = _socket_path(state_dir)
        with contextlib.suppress(OSError):
            os.unlink(path)
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        server.bind(path)
    else:  # pragma: no cover - non-POSIX platforms
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.bind(("127.0.0.1", 0))
        with open(_port_path(state_dir), "w", encoding="utf-8") as handle:
            handle.write(str(server.getsockname()[1]))
    server.listen(16)
    return server


def connect(state_dir: str, timeout: Optional[float] = 10.0) -> socket.socket:
    """Connect to the daemon addressed by ``state_dir``.

    Raises :class:`OSError` (including :class:`FileNotFoundError` /
    :class:`ConnectionRefusedError`) when no daemon is listening; the
    client wraps that into :class:`~repro.service.client.DaemonUnavailable`.
    """
    if has_unix_sockets():
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(_socket_path(state_dir))
        return sock
    with open(_port_path(state_dir), "r", encoding="utf-8") as handle:  # pragma: no cover
        port = int(handle.read().strip())
    sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)  # pragma: no cover
    return sock  # pragma: no cover


def send_message(sock: socket.socket, message: dict) -> None:
    sock.sendall(json.dumps(message, sort_keys=True,
                            separators=(",", ":")).encode("utf-8") + b"\n")


class LineReader:
    """Buffered newline-framed reader over a socket.

    The one-shot :func:`recv_message` discards whatever trails the first
    newline in its final ``recv`` — fine for one-response connections,
    fatal for a ``watch`` stream where several event lines can land in one
    TCP segment.  This reader buffers the remainder, so every line is
    delivered exactly once.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._buffer = b""
        self._eof = False

    def read_message(self) -> Optional[dict]:
        """The next JSON object line; ``None`` once the peer closed."""
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                line, self._buffer = (self._buffer[:newline],
                                      self._buffer[newline + 1:])
                if not line.strip():
                    continue
                message = json.loads(line.decode("utf-8"))
                if not isinstance(message, dict):
                    raise ProtocolError("bad-message",
                                        "protocol messages must be "
                                        "JSON objects")
                return message
            if self._eof:
                return None
            chunk = self._sock.recv(65536)
            if not chunk:
                self._eof = True
                continue
            self._buffer += chunk
            if len(self._buffer) > MAX_LINE_BYTES:
                raise ProtocolError("line-too-long",
                                    "message exceeds protocol line limit")


def recv_message(sock: socket.socket) -> Optional[dict]:
    """Read one newline-terminated JSON object; ``None`` on a closed peer.

    One-shot convenience for single-response exchanges; streaming
    consumers must hold a :class:`LineReader` instead.
    """
    return LineReader(sock).read_message()


# --------------------------------------------------------------------------- #
# Typed messages
# --------------------------------------------------------------------------- #
@dataclasses.dataclass
class Message:
    """Base of every typed wire message.

    The dataclass fields *are* the schema: :meth:`from_wire` keeps known
    fields and silently ignores the rest (forward compatibility), and
    :meth:`to_wire` emits exactly the fields plus the envelope (``proto``
    and, where applicable, ``op``/``ok``).
    """

    @classmethod
    def from_wire(cls, data: dict) -> "Message":
        names = {field.name for field in dataclasses.fields(cls)}
        try:
            return cls(**{key: value for key, value in data.items()
                          if key in names})
        except TypeError as exc:
            raise ProtocolError("bad-message", str(exc)) from exc

    def _fields(self) -> dict:
        return {field.name: getattr(self, field.name)
                for field in dataclasses.fields(self)}


@dataclasses.dataclass
class Request(Message):
    op: ClassVar[str] = ""

    def to_wire(self) -> dict:
        payload = self._fields()
        payload["op"] = self.op
        payload["proto"] = PROTO_VERSION
        return payload


@dataclasses.dataclass
class PingRequest(Request):
    op: ClassVar[str] = "ping"
    #: The *client's* protocol generation and capabilities — the daemon
    #: answers with its own, completing the exchange.
    proto_version: int = PROTO_VERSION
    capabilities: List[str] = dataclasses.field(
        default_factory=lambda: list(CAPABILITIES))


@dataclasses.dataclass
class SubmitRequest(Request):
    op: ClassVar[str] = "submit"
    spec: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class StatusRequest(Request):
    op: ClassVar[str] = "status"
    job: str = ""


@dataclasses.dataclass
class ResultRequest(Request):
    op: ClassVar[str] = "result"
    job: str = ""


@dataclasses.dataclass
class CancelRequest(Request):
    op: ClassVar[str] = "cancel"
    job: str = ""


@dataclasses.dataclass
class JobsRequest(Request):
    op: ClassVar[str] = "jobs"


@dataclasses.dataclass
class WatchRequest(Request):
    op: ClassVar[str] = "watch"
    job: str = ""
    #: Resume the stream after this event sequence number (0 = from the
    #: start of what the daemon still holds).  Lets a reconnecting client
    #: skip events it has already seen.
    after: int = 0
    #: The daemon incarnation (``EventResponse.run``) the client's
    #: ``after`` belongs to.  Event sequence numbers are per-incarnation:
    #: a restarted daemon serves the stream from the beginning when the
    #: incarnations differ, instead of silently skipping events.
    run: str = ""


@dataclasses.dataclass
class ShutdownRequest(Request):
    op: ClassVar[str] = "shutdown"


REQUEST_TYPES: Dict[str, Type[Request]] = {
    cls.op: cls for cls in (PingRequest, SubmitRequest, StatusRequest,
                            ResultRequest, CancelRequest, JobsRequest,
                            WatchRequest, ShutdownRequest)
}


def decode_request(data: dict) -> Request:
    """The typed request a raw wire dict denotes.

    A request without an integer ``proto`` and an unknown op both raise a
    typed :class:`ProtocolError` the dispatcher turns into a structured
    error.
    """
    proto = data.get("proto")
    if not isinstance(proto, int) or isinstance(proto, bool) or proto < 1:
        raise ProtocolError("bad-message",
                            "request lacks an integer proto (unversioned "
                            "v0 requests are no longer served)")
    op = data.get("op")
    cls = REQUEST_TYPES.get(op)
    if cls is None:
        raise ProtocolError("unknown-op", f"unknown op {op!r}")
    return cls.from_wire(data)


# --------------------------------------------------------------------------- #
@dataclasses.dataclass
class Response(Message):
    ok: ClassVar[bool] = True

    def to_wire(self) -> dict:
        payload = self._fields()
        payload["ok"] = self.ok
        payload["proto"] = PROTO_VERSION
        return payload


@dataclasses.dataclass
class PingResponse(Response):
    pid: int = 0
    jobs: int = 0
    stopping: bool = False
    proto_version: int = PROTO_VERSION
    capabilities: List[str] = dataclasses.field(
        default_factory=lambda: list(CAPABILITIES))
    #: Scheduler occupancy (informational).
    running: int = 0
    max_concurrent_jobs: int = 1
    worker_budget: int = 1


@dataclasses.dataclass
class SubmitResponse(Response):
    job: str = ""


@dataclasses.dataclass
class JobResponse(Response):
    """status / result / cancel all answer with one job snapshot."""

    job: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class JobsResponse(Response):
    jobs: List[dict] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class ShutdownResponse(Response):
    stopping: bool = True


@dataclasses.dataclass
class EventResponse(Response):
    """One pushed line of a ``watch`` stream.

    ``seq`` is per-job and strictly increasing, so a reconnecting watcher
    resumes with ``WatchRequest(after=last_seen_seq)``.  ``final`` marks
    the job's terminal event; the stream closes after it.
    """

    event: str = ""
    job: str = ""
    seq: int = 0
    final: bool = False
    #: Daemon incarnation id; pairs with ``seq`` for reconnect bookkeeping.
    run: str = ""
    data: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class ErrorResponse(Response):
    ok: ClassVar[bool] = False
    code: str = "error"
    message: str = ""

    def to_wire(self) -> dict:
        return {"ok": False, "proto": PROTO_VERSION,
                "error": {"code": self.code, "message": self.message}}


def decode_response(data: dict) -> Response:
    """Typed view of a response dict (client side).

    Errors carry a structured ``{code, message}`` object; success
    responses are classified by their payload fields.
    """
    if not data.get("ok"):
        error = data.get("error")
        if not isinstance(error, dict):
            raise ProtocolError("bad-message", "unstructured error response")
        return ErrorResponse(code=str(error.get("code") or "error"),
                             message=str(error.get("message") or ""))
    if "event" in data:
        return EventResponse.from_wire(data)
    if "pid" in data:
        return PingResponse.from_wire(data)
    if "jobs" in data and isinstance(data["jobs"], list):
        return JobsResponse.from_wire(data)
    if isinstance(data.get("job"), dict):
        return JobResponse.from_wire(data)
    if "job" in data:
        return SubmitResponse.from_wire(data)
    if "stopping" in data:
        return ShutdownResponse.from_wire(data)
    raise ProtocolError("bad-message", "unclassifiable response")
