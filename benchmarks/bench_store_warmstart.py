"""Warm-start search from a durable verdict store vs. a cold start.

The durable verdict store (:mod:`repro.store`) persists equivalence
verdicts across runs, keyed on the canonical program content plus a
semantics version stamp.  A second run on the same program preseeds the
shared equivalence cache from disk, so every candidate the first run
already proved equal (or found a counterexample for) is answered without
touching the solver.

This bench runs every small corpus benchmark three ways with the same seed
and iteration budget:

* **off** — no store configured (the baseline semantics);
* **cold** — a fresh store file: the run pays the same solver bill as
  ``off`` and flushes its verdicts to disk;
* **warm** — the same store file again: the run preseeds from disk.

It gates on the three acceptance criteria of the store:

* search results are bit-identical across off/cold/warm (the store is a
  pure accelerator, never a behavior change);
* the warm run issues at least 5x fewer full-SMT equivalence queries than
  the cold run, aggregated across the corpus;
* the warm run is at least 1.5x faster end-to-end than the cold run.

Environment knobs: ``K2_BENCH_SMOKE=1`` shrinks the iteration budget for CI
smoke runs; ``K2_BENCH_JSON=path`` writes a JSON summary (the
``BENCH_*.json`` perf trajectory); ``K2_BENCH_STORE=dir`` keeps the store
files in ``dir`` instead of a temporary directory, so nightly runs can
carry verdicts across CI jobs (reported, not gated: a carried-over store
makes even the "cold" leg warm).
"""

import json
import os
import shutil
import tempfile

from repro.corpus import get_benchmark
from repro.synthesis import SearchOptions, Synthesizer

from harness import SMALL_BENCHMARKS, print_table

SMOKE = os.environ.get("K2_BENCH_SMOKE", "") not in ("", "0")
ITERATIONS = 150 if SMOKE else 200
NUM_SETTINGS = 2
SEED = 7
JSON_PATH = os.environ.get("K2_BENCH_JSON", "")
STORE_DIR = os.environ.get("K2_BENCH_STORE", "")

FULL_QUERY_GATE = 5.0
WALL_CLOCK_GATE = 1.5


def _run(program, store_path=None):
    options = SearchOptions(iterations_per_chain=ITERATIONS,
                            num_parameter_settings=NUM_SETTINGS,
                            seed=SEED, store_path=store_path)
    return Synthesizer(options).optimize(program)


def _signature(result):
    return (result.best.program.structural_key() if result.best else None,
            tuple(candidate.program.structural_key()
                  for candidate in result.top_candidates))


def _full_attempts(result):
    return result.verification_stats.get("full", {}).get("attempts", 0)


def test_store_warm_start():
    persistent = bool(STORE_DIR)
    store_dir = STORE_DIR or tempfile.mkdtemp(prefix="k2-store-bench-")
    os.makedirs(store_dir, exist_ok=True)

    rows = []
    summary = []
    cold_seconds = warm_seconds = 0.0
    cold_full = warm_full = 0
    cross_run_hits = 0

    try:
        for name in SMALL_BENCHMARKS:
            program = get_benchmark(name).build()
            store_path = os.path.join(store_dir, f"{name}.k2s")

            off = _run(program)
            cold = _run(program, store_path=store_path)
            warm = _run(program, store_path=store_path)

            # The store must never change what the search finds, only how
            # fast it proves it.
            assert _signature(off) == _signature(cold) == _signature(warm), (
                f"{name}: results differ between store-off, cold-store and "
                f"warm-store runs")

            cold_seconds += cold.elapsed_seconds
            warm_seconds += warm.elapsed_seconds
            cold_full += _full_attempts(cold)
            warm_full += _full_attempts(warm)
            hits = int(warm.cache_stats.get("store_hits", 0))
            cross_run_hits += hits

            rows.append([name,
                         _full_attempts(cold), _full_attempts(warm), hits,
                         f"{cold.elapsed_seconds:.2f}",
                         f"{warm.elapsed_seconds:.2f}"])
            summary.append({
                "benchmark": name,
                "cold_full_queries": _full_attempts(cold),
                "warm_full_queries": _full_attempts(warm),
                "cross_run_hits": hits,
                "cold_seconds": round(cold.elapsed_seconds, 3),
                "warm_seconds": round(warm.elapsed_seconds, 3),
                "preseeded_verdicts":
                    warm.store_stats["preseeded_verdicts"],
                "flushed_verdicts": cold.store_stats["flushed_verdicts"],
            })
    finally:
        if not persistent:
            shutil.rmtree(store_dir, ignore_errors=True)

    full_ratio = cold_full / max(warm_full, 1)
    time_ratio = cold_seconds / warm_seconds if warm_seconds else 0.0

    rows.append(["TOTAL", cold_full, warm_full, cross_run_hits,
                 f"{cold_seconds:.2f}", f"{warm_seconds:.2f}"])
    print_table(
        "Warm-start search from a durable verdict store (same seed/budget)",
        ["benchmark", "cold full-SMT", "warm full-SMT", "cross-run hits",
         "cold (s)", "warm (s)"],
        rows)
    print(f"full-SMT query ratio: {full_ratio:.1f}x "
          f"(gate >= {FULL_QUERY_GATE:.0f}x)   "
          f"wall-clock ratio: {time_ratio:.2f}x "
          f"(gate >= {WALL_CLOCK_GATE:.1f}x)")

    if JSON_PATH:
        payload = {"bench": "store_warmstart", "smoke": SMOKE,
                   "iterations_per_chain": ITERATIONS,
                   "num_settings": NUM_SETTINGS, "seed": SEED,
                   "persistent_store": persistent,
                   "cold_full_queries": cold_full,
                   "warm_full_queries": warm_full,
                   "cross_run_hits": cross_run_hits,
                   "cold_seconds": round(cold_seconds, 3),
                   "warm_seconds": round(warm_seconds, 3),
                   "full_query_ratio": round(full_ratio, 2),
                   "wall_clock_ratio": round(time_ratio, 3),
                   "rows": summary}
        with open(JSON_PATH, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
        print(f"wrote {JSON_PATH}")

    # With a persistent store the first leg is already warm, so the
    # cold/warm ratios are meaningless; report but do not gate.
    if persistent:
        return

    assert full_ratio >= FULL_QUERY_GATE, (
        f"warm run should issue >= {FULL_QUERY_GATE:.0f}x fewer full-SMT "
        f"queries than the cold run, got {cold_full} -> {warm_full} "
        f"({full_ratio:.1f}x)")
    assert time_ratio >= WALL_CLOCK_GATE, (
        f"warm run should be >= {WALL_CLOCK_GATE:.1f}x faster than the "
        f"cold run, got {cold_seconds:.2f}s -> {warm_seconds:.2f}s "
        f"({time_ratio:.2f}x)")
