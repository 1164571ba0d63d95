"""Chain sharding: split one job's chains across controllers and daemons.

A job with ``JobSpec.shards = N`` is split into N contiguous *shard specs*
(``chains lo..hi of total``).  Each shard runs an ordinary
:class:`~repro.synthesis.parallel.ChainController` over its slice of the
Table 8 parameter settings, with ``SearchOptions.chain_index_offset`` set
so every chain derives its seeds from its **global** index — shard-local
chain ``i`` is bit-identical to chain ``lo + i`` of the unsharded run.
The coordinator daemon farms shards out to peer daemons as ordinary jobs
over the wire protocol (falling back to running them locally when a peer
dies) and merges the returned payloads **in shard order**, which is chain
order, which is exactly the merge order of the in-process controller — so
a sharded run is bit-identical to its unsharded counterpart.

Sharding semantics
------------------
``shards`` partitions the *cross-chain sharing domain*: the equivalence
cache and counterexample pool are shared within a shard, never across
shards — regardless of whether the shards happen to run on one host or
five.  Placement therefore never changes results.  The corollary: a
sharded run equals the unsharded run **when sharing is disabled**
(``share_cache=False, share_counterexamples=False``) or trivially scoped
(one chain per shard); with intra-shard sharing enabled, sharded and
unsharded runs are *each* deterministic but legitimately differ from each
other (different sharing domains), exactly like changing
``sync_interval``.

Payloads are JSON-safe (the wire carries them) and reuse the checkpoint
codec of :mod:`repro.synthesis.checkpoint` for programs, statistics and
cache snapshots — one serialization discipline for everything that must
round-trip bit-identically.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional

from ..bpf.program import BpfProgram
from ..equivalence import EquivalenceCache
from ..synthesis.checkpoint import (
    decode_cache_state, decode_candidate, encode_cache_state, encode_candidate,
)
from ..synthesis.mcmc import ChainResult, ChainStatistics
from ..synthesis.parallel import ChainController
from ..synthesis.params import all_parameter_settings
from ..synthesis.search import SearchResult, assemble_search_result

__all__ = ["SHARD_PAYLOAD_VERSION", "plan_shards", "shard_spec_dict",
           "run_shard", "encode_chain_result", "decode_chain_result",
           "merge_shard_payloads"]

#: Bump when the payload layout changes; a coordinator refuses to merge
#: payloads of a different version (the shard is re-run instead).
SHARD_PAYLOAD_VERSION = 1


def plan_shards(num_settings: int, num_shards: int) -> List[dict]:
    """Contiguous near-even split of ``num_settings`` chains into shards.

    Earlier shards take the remainder (like
    :func:`repro.synthesis.windows.split_budget`); shards beyond the chain
    count would be empty and are dropped.  Each entry is the JSON-safe
    shard descriptor carried by sub-job specs::

        {"index": k, "of": n, "lo": first, "hi": past_last, "total": all}
    """
    num_shards = max(1, min(int(num_shards), int(num_settings)))
    base, remainder = divmod(int(num_settings), num_shards)
    plans = []
    lo = 0
    for index in range(num_shards):
        size = base + (1 if index < remainder else 0)
        plans.append({"index": index, "of": num_shards,
                      "lo": lo, "hi": lo + size, "total": int(num_settings)})
        lo += size
    return plans


def shard_spec_dict(spec_dict: dict, plan: dict) -> dict:
    """The sub-job spec a coordinator submits to a peer for one shard."""
    sub = dict(spec_dict)
    sub["shard"] = dict(plan)
    sub["shards"] = 1  # a shard never re-shards
    return sub


# --------------------------------------------------------------------------- #
# Chain-result codec (JSON-safe, via the checkpoint discipline)
# --------------------------------------------------------------------------- #
def encode_chain_result(result: ChainResult) -> dict:
    """One chain's outcome as plain data.

    Candidates are stored in their (perf-cost-sorted) order; ``best`` is
    the head by construction (:meth:`MarkovChain.run`), so it needs no
    separate encoding.
    """
    return {
        "stats": dataclasses.asdict(result.statistics),
        "candidates": [encode_candidate(candidate)
                       for candidate in result.candidates],
    }


def decode_chain_result(source: BpfProgram, encoded: dict) -> ChainResult:
    candidates = [decode_candidate(source, entry)
                  for entry in encoded["candidates"]]
    return ChainResult(best=candidates[0] if candidates else None,
                       candidates=candidates,
                       statistics=ChainStatistics(**encoded["stats"]))


# --------------------------------------------------------------------------- #
# Running one shard
# --------------------------------------------------------------------------- #
def run_shard(spec, shard: dict, store_path: Optional[str],
              checkpoint_key: Optional[str],
              generation_hook: Optional[Callable] = None,
              progress_listener: Optional[Callable] = None,
              num_workers: Optional[int] = None) -> dict:
    """Run one shard's chains to completion; returns the merge payload.

    ``spec`` is a :class:`~repro.service.jobs.JobSpec` (the *original*
    job's spec — iteration counts, seed, goal etc. all read from it);
    ``shard`` is a :func:`plan_shards` descriptor.  Runs in-process: the
    coordinator calls this directly for local shards, and a peer daemon's
    job runner calls it for farmed-out shard sub-jobs.
    """
    program = spec.build_program()
    options = spec.search_options(store_path, checkpoint_key,
                                  generation_hook, progress_listener)
    lo, hi = int(shard["lo"]), int(shard["hi"])
    options = dataclasses.replace(options, chain_index_offset=lo,
                                  window_mode=False)
    if num_workers is not None:
        options = dataclasses.replace(options,
                                      num_workers=max(1, int(num_workers)))
    settings = all_parameter_settings(options.goal)[:int(shard["total"])]
    controller = ChainController(program, settings[lo:hi], options)
    results = controller.run()
    payload = {
        "v": SHARD_PAYLOAD_VERSION,
        "shard": {key: int(shard[key])
                  for key in ("index", "of", "lo", "hi", "total")},
        "chains": [encode_chain_result(result) for result in results],
        "cache": encode_cache_state(controller.shared_cache.snapshot_state()),
        "counterexamples_shared": controller.counterexamples_shared,
        "num_generations": controller.num_generations,
        "executor_used": controller.executor_kind,
        "store": dict(controller.store_summary)
        if controller.store_summary else None,
    }
    return payload


# --------------------------------------------------------------------------- #
# Deterministic merge
# --------------------------------------------------------------------------- #
def merge_shard_payloads(source: BpfProgram, spec, payloads: List[dict],
                         kernel_checker=None,
                         elapsed_seconds: float = 0.0) -> SearchResult:
    """Merge shard payloads into one :class:`SearchResult`.

    Payloads are ordered by shard index (= global chain order) and must
    tile ``[0, total)`` exactly; the merged chain list then matches the
    unsharded controller's chain-index merge order, and the shared post-
    processing of :func:`~repro.synthesis.search.assemble_search_result`
    (sort → kernel filter → dedup → top-k) does the rest.  Caches are
    merged in the same order with accumulated counters, mirroring the
    controller's end-of-run ``shared_cache.merge`` loop.
    """
    ordered = sorted(payloads, key=lambda p: int(p["shard"]["index"]))
    if not ordered:
        raise ValueError("no shard payloads to merge")
    for payload in ordered:
        if int(payload.get("v", -1)) != SHARD_PAYLOAD_VERSION:
            raise ValueError("shard payload version mismatch")
    total = int(ordered[0]["shard"]["total"])
    covered = 0
    for payload in ordered:
        shard = payload["shard"]
        if int(shard["lo"]) != covered or int(shard["total"]) != total:
            raise ValueError("shard payloads do not tile the chain range")
        covered = int(shard["hi"])
    if covered != total:
        raise ValueError("shard payloads do not cover every chain")

    options = spec.search_options()
    settings = all_parameter_settings(options.goal)[:total]

    chain_results = [decode_chain_result(source, encoded)
                     for payload in ordered
                     for encoded in payload["chains"]]

    cache = EquivalenceCache.restore_state(
        decode_cache_state(ordered[0]["cache"]))
    for payload in ordered[1:]:
        cache.merge(EquivalenceCache.restore_state(
            decode_cache_state(payload["cache"])), include_counters=True)

    store_stats: Optional[Dict[str, object]] = None
    for payload in ordered:
        summary = payload.get("store")
        if not summary:
            continue
        if store_stats is None:
            store_stats = dict(summary)
        else:
            for field, value in summary.items():
                if isinstance(value, int) \
                        and isinstance(store_stats.get(field), int):
                    store_stats[field] += value

    return assemble_search_result(
        source, chain_results, settings, options, kernel_checker,
        elapsed_seconds=elapsed_seconds,
        cache_stats=cache.stats(),
        counterexamples_shared=sum(
            int(payload["counterexamples_shared"]) for payload in ordered),
        num_generations=int(ordered[0]["num_generations"]),
        executor_used=str(ordered[0]["executor_used"]),
        store_stats=store_stats)
