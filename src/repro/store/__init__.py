"""Durable content-addressed persistence of verdicts and checkpoints."""

from .serialize import (
    canonical_json, decode_key, decode_result, decode_test, encode_key,
    encode_result, encode_test, record_checksum, source_digest,
)
from .store import (
    SEMANTICS_VERSION, STORE_FORMAT, VerdictStore, flush_open_stores,
)

__all__ = ["SEMANTICS_VERSION", "STORE_FORMAT", "VerdictStore",
           "flush_open_stores",
           "canonical_json", "record_checksum", "source_digest",
           "encode_key", "decode_key",
           "encode_test", "decode_test",
           "encode_result", "decode_result"]
