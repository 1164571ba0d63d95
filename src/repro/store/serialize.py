"""Pickle-free stable serialization for the durable verdict store.

Every value the store persists — cache keys and :class:`EquivalenceResult`
verdicts, including their counterexample test cases — round-trips through
plain JSON types: nested lists of ints and strings, with ``bytes``
hex-encoded.  The encoding is *stable*: encoding the same value always
produces the same JSON text (``canonical_json``), which is what makes
per-record checksums and content digests meaningful across runs, machines
and Python versions.

Pickle is deliberately not used: a store file may be written by one version
of the code and read by another, and a verdict store shared between many
submissions must never execute arbitrary payloads on load.
"""

from __future__ import annotations

import hashlib
import json

from ..equivalence.checker import EquivalenceResult
from ..interpreter import ProgramInput

__all__ = ["canonical_json", "record_checksum", "source_digest",
           "encode_key", "decode_key",
           "encode_test", "decode_test",
           "encode_result", "decode_result"]


def canonical_json(value) -> str:
    """Deterministic JSON text for ``value`` (sorted keys, no whitespace)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def record_checksum(record: dict) -> str:
    """Checksum of a store record, excluding its own ``"c"`` field."""
    body = {field: value for field, value in record.items() if field != "c"}
    digest = hashlib.blake2b(canonical_json(body).encode("utf-8"),
                             digest_size=8)
    return digest.hexdigest()


def source_digest(encoded_key: list) -> str:
    """Compact content address for a source program's encoded content key.

    Verdict records reference their source program by this digest instead
    of repeating the full content key per record; the store keeps the
    digest → full-key mapping (one ``src`` record per source) and refuses
    a digest whose declared keys ever disagree, so a (cryptographically
    unlikely) collision degrades to a cold cache rather than a wrong
    verdict.
    """
    digest = hashlib.blake2b(canonical_json(encoded_key).encode("utf-8"),
                             digest_size=16)
    return digest.hexdigest()


# --------------------------------------------------------------------------- #
# Keys: arbitrarily nested tuples of ints / strings / None (structural keys,
# canonical cache keys, program content keys).  ``True``/``False`` are
# normalized to 1/0 — in the original tuples they are already compared as
# ints, and JSON round-tripping must not split one key into two.
# --------------------------------------------------------------------------- #
def encode_key(key):
    if isinstance(key, tuple):
        return [encode_key(part) for part in key]
    if isinstance(key, bool):
        return int(key)
    if key is None or isinstance(key, (int, str)):
        return key
    raise TypeError(f"unsupported key element {type(key).__name__}")


def decode_key(encoded):
    if isinstance(encoded, list):
        return tuple(decode_key(part) for part in encoded)
    if encoded is None or isinstance(encoded, (int, str)):
        return encoded
    raise ValueError(f"bad key element {type(encoded).__name__}")


# --------------------------------------------------------------------------- #
# Test cases (the counterexamples embedded in verdicts and checkpoints).
# --------------------------------------------------------------------------- #
def encode_test(test: ProgramInput) -> dict:
    return {
        "packet": test.packet.hex(),
        "ctx": sorted([name, int(value)] for name, value in test.ctx.items()),
        "maps": sorted(
            [fd, sorted([key.hex(), value.hex()]
                        for key, value in entries.items())]
            for fd, entries in test.map_contents.items()),
        "random": [int(v) for v in test.random_values],
        "time_ns": int(test.time_ns),
        "cpu": int(test.cpu_id),
    }


def decode_test(encoded: dict) -> ProgramInput:
    return ProgramInput(
        packet=bytes.fromhex(encoded["packet"]),
        ctx={name: int(value) for name, value in encoded["ctx"]},
        map_contents={
            int(fd): {bytes.fromhex(key): bytes.fromhex(value)
                      for key, value in entries}
            for fd, entries in encoded["maps"]},
        random_values=[int(v) for v in encoded["random"]],
        time_ns=int(encoded["time_ns"]),
        cpu_id=int(encoded["cpu"]),
    )


# --------------------------------------------------------------------------- #
# Equivalence verdicts.
# --------------------------------------------------------------------------- #
def encode_result(result: EquivalenceResult) -> dict:
    return {
        "eq": bool(result.equivalent),
        "unk": bool(result.unknown),
        "us": bool(result.used_solver),
        "reason": result.reason,
        "cex": None if result.counterexample is None
        else encode_test(result.counterexample),
    }


def decode_result(encoded: dict) -> EquivalenceResult:
    return EquivalenceResult(
        equivalent=bool(encoded["eq"]),
        unknown=bool(encoded["unk"]),
        used_solver=bool(encoded["us"]),
        reason=str(encoded["reason"]),
        counterexample=None if encoded["cex"] is None
        else decode_test(encoded["cex"]),
    )

