"""Checkpoint codec for crash-recoverable chain searches (ROADMAP item 5).

The parallel engine already confines all cross-chain sharing to generation
boundaries (:mod:`repro.synthesis.parallel`), which makes the boundary a
natural *consistency point*: between two generations the entire search state
is a plain value — every chain's RNG, current program, test suite,
pipeline counters and cache, plus the controller's shared logs.  This module serializes
that value to JSON-safe data (and back), so the controller can persist it as
a ``ck`` record in the durable :class:`~repro.store.VerdictStore` after each
generation and a crashed or killed run can be resumed *bit-identically* from
the last boundary it completed.

Bit-identity is the design constraint, not an afterthought.  Everything the
search trajectory observes is captured exactly:

* the chain RNG via ``random.Random.getstate()`` (the full Mersenne state);
* the current program and every verified candidate as raw BPF bytes
  (:mod:`repro.bpf.encoder`);
* the test suite's counterexample tail (initial tests are regenerated from
  the seed, so only post-seed additions are stored);
* the verification pipeline's per-stage counters;
* the equivalence cache with per-entry provenance (local / cross-chain /
  store-preseeded), so post-resume hit accounting matches the original run.

Deliberately *not* captured: decode caches, analyzer memos and the cache's
canonical-key memo.  They are pure-speed devices — a resumed run recomputes
them and walks the same trajectory, only marginally slower for a generation
— and excluding them keeps checkpoints small.  (Consequence: the cache's
``key_memo_hits`` counter is the one statistic a resumed run legitimately
reports lower; resume-identity tests compare signatures without it.)

Everything here is pickle-free for the same reasons as
:mod:`repro.store.serialize`: a checkpoint written by one version of the
code may be read by another, and a shared store file must never execute
arbitrary payloads on load.  Structural drift (different options, different
source program, different generation schedule) is detected by an explicit
signature and degrades to a cold start — never to a wrong resume.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from ..bpf.encoder import decode_program, encode_program
from ..equivalence import EquivalenceCache
from ..store.serialize import (
    decode_key, decode_outcome, decode_result, decode_test, encode_key,
    encode_outcome, encode_result, encode_test, source_digest,
)
from .mcmc import ChainStatistics, MarkovChain, VerifiedCandidate

__all__ = ["CHECKPOINT_VERSION", "encode_candidate", "decode_candidate",
           "capture_chain_state", "decode_chain_state", "apply_chain_state",
           "options_signature", "build_controller_payload",
           "decode_controller_payload"]

#: Bump when the payload layout changes; old checkpoints then read as
#: incompatible (cold start) instead of being misinterpreted.
#: v2: ``chain_index_offset`` joined the options signature (shard-local
#: controllers seed chains by global index; see ``repro.service.shards``).
#: v3: the pipeline's replay pool and refutation counts left the chain
#: state (the pipeline no longer keeps a counterexample pool).
CHECKPOINT_VERSION = 3


# --------------------------------------------------------------------------- #
# RNG state: (version, 625-int Mersenne vector, gauss_next).
# --------------------------------------------------------------------------- #
def encode_rng_state(state) -> list:
    version, internal, gauss = state
    return [version, [int(word) for word in internal], gauss]


def decode_rng_state(encoded):
    version, internal, gauss = encoded
    return (version, tuple(int(word) for word in internal),
            None if gauss is None else float(gauss))


# --------------------------------------------------------------------------- #
# Instructions round-trip through the kernel byte format.
# --------------------------------------------------------------------------- #
def _encode_insns(instructions) -> str:
    return encode_program(instructions).hex()


def _decode_insns(encoded: str):
    return decode_program(bytes.fromhex(encoded))


# --------------------------------------------------------------------------- #
# Verified candidates (checkpoints and shard payloads share this layout).
# --------------------------------------------------------------------------- #
def encode_candidate(candidate: VerifiedCandidate) -> dict:
    return {
        "insns": _encode_insns(candidate.program.instructions),
        "perf_cost": candidate.perf_cost,
        "instruction_count": candidate.instruction_count,
        "estimated_latency": candidate.estimated_latency,
        "found_at_iteration": candidate.found_at_iteration,
        "found_at_seconds": candidate.found_at_seconds,
    }


def decode_candidate(source, entry: dict) -> VerifiedCandidate:
    """The candidate ``entry`` encodes, as a sibling of ``source``."""
    return VerifiedCandidate(
        program=source.with_instructions(_decode_insns(entry["insns"])),
        perf_cost=float(entry["perf_cost"]),
        instruction_count=int(entry["instruction_count"]),
        estimated_latency=float(entry["estimated_latency"]),
        found_at_iteration=int(entry["found_at_iteration"]),
        found_at_seconds=float(entry["found_at_seconds"]),
    )


# --------------------------------------------------------------------------- #
# Equivalence-cache snapshots (entries with provenance + counters).
# --------------------------------------------------------------------------- #
def encode_cache_state(state: dict) -> dict:
    return {
        "max_entries": int(state["max_entries"]),
        "counters": {name: int(value)
                     for name, value in state["counters"].items()},
        "entries": [[encode_key(key), encode_result(result),
                     int(foreign), int(from_store)]
                    for key, result, foreign, from_store in state["entries"]],
    }


def decode_cache_state(encoded: dict) -> dict:
    return {
        "max_entries": int(encoded["max_entries"]),
        "counters": {name: int(value)
                     for name, value in encoded["counters"].items()},
        "entries": [(decode_key(key), decode_result(result),
                     bool(foreign), bool(from_store))
                    for key, result, foreign, from_store
                    in encoded["entries"]],
    }


# --------------------------------------------------------------------------- #
# Per-chain state
# --------------------------------------------------------------------------- #
def capture_chain_state(chain: MarkovChain) -> dict:
    """One chain's full search state as JSON-safe data.

    Valid only at a generation boundary (no in-flight proposal, solver
    sessions dropped) — exactly where the controller calls it.
    """
    suite = chain.tests
    return {
        "rng": encode_rng_state(chain.rng.getstate()),
        "current": _encode_insns(chain._current),
        "current_cost": float(chain._current_cost),
        "stats": dataclasses.asdict(chain.stats),
        "verified": [encode_candidate(candidate)
                     for candidate in chain.verified],
        "discovered": [encode_test(test)
                       for test in chain.discovered_counterexamples],
        "suite_extras": [encode_test(test)
                         for test in suite.tests[suite.num_initial:]],
        "pipeline_stats": chain.pipeline.stats.as_dict(),
        "cache": encode_cache_state(chain.pipeline.cache.snapshot_state()),
    }


def decode_chain_state(state: dict, source) -> dict:
    """Pure decode pass: raises on malformed data, mutates nothing.

    Split from :func:`apply_chain_state` so a corrupt checkpoint is
    rejected *before* any chain has been touched — restore is then
    all-or-nothing at the controller level.  ``source`` is the program
    the chains search (verified candidates are its siblings).
    """
    return {
        "rng": decode_rng_state(state["rng"]),
        "current": _decode_insns(state["current"]),
        "current_cost": float(state["current_cost"]),
        "stats": ChainStatistics(**state["stats"]),
        "verified": [decode_candidate(source, entry)
                     for entry in state["verified"]],
        "discovered": [decode_test(test) for test in state["discovered"]],
        "suite_extras": [decode_test(test)
                         for test in state["suite_extras"]],
        "pipeline_stats": dict(state["pipeline_stats"]),
        "cache": decode_cache_state(state["cache"]),
    }


def apply_chain_state(chain: MarkovChain, decoded: dict) -> None:
    """Overwrite a freshly-built chain with a decoded checkpoint state.

    The chain must have been constructed exactly as the original was (same
    seeds, same settings): construction-time state the checkpoint does not
    carry — the suite's initial tests, the proposer's operand pools — is
    then already identical, and everything trajectory-bearing is replaced
    below.  The constructor's self-evaluation of the source pollutes stats,
    cache and pipeline counters; all of those are overwritten here.
    """
    chain.rng.setstate(decoded["rng"])
    chain._current = list(decoded["current"])
    chain._current_cost = decoded["current_cost"]
    chain.stats = decoded["stats"]
    chain.verified = list(decoded["verified"])
    chain.discovered_counterexamples = list(decoded["discovered"])
    suite = chain.tests
    del suite.tests[suite.num_initial:]
    suite._seen = {test.freeze_key() for test in suite.tests}
    suite._source_outputs = None
    for test in decoded["suite_extras"]:
        suite.add_counterexample(test)
    chain.pipeline.stats.load_dict(decoded["pipeline_stats"])
    chain.pipeline.cache = EquivalenceCache.restore_state(decoded["cache"])


# --------------------------------------------------------------------------- #
# Controller payloads
# --------------------------------------------------------------------------- #
def options_signature(source, settings, options, proposal_region,
                      keep_nops) -> list:
    """Everything a checkpoint's validity depends on, as JSON-safe data.

    A resumed controller whose signature differs from the checkpoint's
    would not replay the original trajectory, so any mismatch degrades to
    a cold start.  Wall-clock and purely-operational knobs (executor kind,
    worker count, retry budgets) are deliberately absent — they never touch
    the trajectory, and a run may legitimately resume under different ones.
    """
    return [
        CHECKPOINT_VERSION,
        source_digest(encode_key(source.content_key())),
        int(options.seed),
        int(options.iterations_per_chain),
        None if options.sync_interval is None else int(options.sync_interval),
        len(settings),
        bool(options.share_cache),
        bool(options.share_counterexamples),
        bool(options.store_preseed_counterexamples),
        int(options.chain_index_offset),
        None if proposal_region is None else list(proposal_region),
        bool(keep_nops),
        repr(options.equivalence),
    ]


def build_controller_payload(controller, next_generation: int,
                             schedule: List[int], chains) -> dict:
    """The complete resume payload for one controller, after a generation.

    The shared cache snapshot doubles as the cache *log*: entries are
    stored in insertion order, which is exactly the order the controller
    appended them to ``_cache_log`` (both grow together), so one structure
    restores both — including per-entry provenance for the store-preseeded
    head.
    """
    return {
        "version": CHECKPOINT_VERSION,
        "signature": options_signature(
            controller.source, controller.settings, controller.options,
            controller.proposal_region, controller.keep_nops),
        "schedule": [int(iterations) for iterations in schedule],
        "next_generation": int(next_generation),
        "shared_cache": encode_cache_state(
            controller.shared_cache.snapshot_state()),
        "pool": [[int(origin), encode_test(test)]
                 for origin, test in controller._pool],
        "analysis": [[encode_key(key), encode_outcome(outcome)]
                     for key, outcome in controller._analysis_log],
        "store_summary": dict(controller.store_summary or {}),
        "chains": [capture_chain_state(chain) for chain in chains],
    }


def decode_controller_payload(payload: dict, source, settings, options,
                              proposal_region, keep_nops,
                              schedule: List[int]) -> Optional[dict]:
    """Validate and fully decode a controller payload; ``None`` if stale.

    Returns plain decoded data (no controller mutation): the caller applies
    it only after this whole pass succeeded, so a truncated or incompatible
    checkpoint can never leave a controller half-restored.
    """
    try:
        if payload.get("version") != CHECKPOINT_VERSION:
            return None
        expected = options_signature(source, settings, options,
                                     proposal_region, keep_nops)
        if list(payload["signature"]) != expected:
            return None
        if [int(i) for i in payload["schedule"]] != \
                [int(i) for i in schedule]:
            return None
        next_generation = int(payload["next_generation"])
        if not 1 <= next_generation <= len(schedule):
            return None
        chain_states = payload["chains"]
        if len(chain_states) != len(settings):
            return None
        return {
            "next_generation": next_generation,
            "shared_cache": decode_cache_state(payload["shared_cache"]),
            "pool": [(int(origin), decode_test(test))
                     for origin, test in payload["pool"]],
            "analysis": [(decode_key(key), decode_outcome(outcome))
                         for key, outcome in payload["analysis"]],
            "store_summary": dict(payload.get("store_summary") or {}),
            "chains": [decode_chain_state(state, source)
                       for state in chain_states],
        }
    except (KeyError, IndexError, TypeError, ValueError):
        return None
