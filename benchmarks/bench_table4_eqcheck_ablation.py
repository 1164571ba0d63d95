"""Table 4: equivalence-checking time as the §5 optimizations are turned off.

For each benchmark we build a small MCMC-like verification workload — for
every eligible store instruction, a few single-window candidate rewrites
(NOP the store, tweak its immediate, shift its offset) — and push every
candidate through the tiered :class:`repro.verification.VerificationPipeline`
under four configurations:

* **all opts** — the full pipeline (cache → window → full) with one
  *incremental* solver session per source: the source encoding is blasted
  once, each query runs in a push/pop scope, learned clauses carry over.
* **fresh/query** — the same stage logic but with a fresh pipeline per query
  (shared cache only): this reproduces the pre-refactor cost structure, where
  every query re-executed the source symbolically and re-blasted everything
  into a brand-new solver.  ``speedup = fresh / all opts`` is the headline
  number for the incremental core: the acceptance bar is >= 1.3x in
  aggregate and a *per-program* floor (``MIN_PROGRAM_SPEEDUP``) on every
  row, so one program where the incremental session stops paying fails
  the bench even when the others carry the aggregate.
* **no modular** — ablates §5 IV: stages ``cache,full`` only, so every
  query pays the full-program formula.
* **no offset concr.** — ablates §5 III on top of no-modular: symbolic
  aliasing clauses instead of compile-time offsets.

(Optimizations I and II — per-region and per-map tables — are structural in
this reproduction's encoding and cannot be disabled without changing its
soundness; see EXPERIMENTS.md.)

Each timed leg starts with a full garbage collection: a generation-2
collection costs tens of milliseconds and otherwise lands in whichever leg
crosses the collector's threshold, which depends on the allocations of
the legs before it rather than on the leg itself.

Environment knobs: ``K2_BENCH_SMOKE=1`` shrinks the benchmark list and the
workload for CI smoke runs; ``K2_BENCH_JSON=path`` writes a JSON summary of
the printed rows (the ``BENCH_*.json`` perf trajectory).
"""

import gc
import json
import os
import time

import pytest

from repro.bpf import NOP
from repro.corpus import get_benchmark
from repro.equivalence import EquivalenceCache, EquivalenceOptions, Window
from repro.verification import VerificationPipeline

from harness import print_table

SMOKE = os.environ.get("K2_BENCH_SMOKE", "") not in ("", "0")
BENCHMARKS = ["xdp_exception", "xdp_redirect_err", "xdp_cpumap_kthread",
              "sys_enter_open", "xdp_pktcntr", "from-network"]
if SMOKE:
    BENCHMARKS = ["xdp_exception", "xdp_pktcntr"]
MAX_WINDOWS = 2 if SMOKE else 4
JSON_PATH = os.environ.get("K2_BENCH_JSON", "")

#: Acceptance bar for the incremental refactor, asserted on the aggregate.
MIN_SPEEDUP = 1.3
#: Acceptance bar for the incremental session, asserted per program: it
#: must beat fresh solving on *every* row, not only in aggregate.
MIN_PROGRAM_SPEEDUP = 1.2


def _workload(source):
    """Single-window candidate rewrites around store instructions."""
    work = []
    windows = 0
    for index, insn in enumerate(source.instructions):
        if not insn.is_store or insn.is_nop:
            continue
        window = Window(index, index + 1)
        variants = [NOP]
        if insn.is_store_imm:
            variants.append(insn.with_fields(imm=insn.imm ^ 1))
        variants.append(insn.with_fields(off=insn.off - 8))
        for variant in variants:
            instructions = list(source.instructions)
            instructions[index] = variant
            work.append((source.with_instructions(instructions), window))
        windows += 1
        if windows >= MAX_WINDOWS:
            break
    if not work:
        raise AssertionError("benchmark has no store to rewrite")
    return work


def _run_incremental(source, work, options):
    """One persistent pipeline: incremental sessions across all queries."""
    pipeline = VerificationPipeline(options=options)
    gc.collect()
    started = time.perf_counter()
    verdicts = [pipeline.verify(source, candidate, window=window).result.equivalent
                for candidate, window in work]
    return (time.perf_counter() - started) * 1e6, verdicts


def _run_fresh(source, work, options):
    """Fresh pipeline per query (pre-refactor cost structure, shared cache)."""
    cache = EquivalenceCache()
    gc.collect()
    started = time.perf_counter()
    verdicts = []
    for candidate, window in work:
        pipeline = VerificationPipeline(options=options, cache=cache)
        verdicts.append(
            pipeline.verify(source, candidate, window=window).result.equivalent)
    return (time.perf_counter() - started) * 1e6, verdicts


def _run_all():
    rows = []
    summary = []
    total_incremental = 0.0
    total_fresh = 0.0
    speedups = {}
    for name in BENCHMARKS:
        source = get_benchmark(name).program()
        work = _workload(source)

        all_opts, verdicts = _run_incremental(source, work,
                                              EquivalenceOptions())
        fresh, fresh_verdicts = _run_fresh(source, work, EquivalenceOptions())
        assert verdicts == fresh_verdicts, \
            "incremental and fresh solving must agree on every verdict"
        no_modular, _ = _run_incremental(
            source, work, EquivalenceOptions.from_stages("cache,full"))
        no_offsets, _ = _run_incremental(
            source, work, EquivalenceOptions.from_stages(
                "cache,full", memory_offset_concretization=False))

        total_incremental += all_opts
        total_fresh += fresh
        speedup = fresh / max(all_opts, 1e-9)
        speedups[name] = speedup
        rows.append([
            name, len(source.instructions), len(work),
            f"{all_opts:,.0f}",
            f"{fresh:,.0f}", f"{speedup:.1f}x",
            f"{no_modular:,.0f}", f"{no_modular / max(all_opts, 1e-9):.1f}x",
            f"{no_offsets:,.0f}", f"{no_offsets / max(all_opts, 1e-9):.1f}x",
        ])
        summary.append({
            "benchmark": name, "queries": len(work),
            "all_opts_us": round(all_opts), "fresh_us": round(fresh),
            "speedup_incremental": round(speedup, 2),
            "no_modular_us": round(no_modular),
            "no_offsets_us": round(no_offsets),
        })
    aggregate = total_fresh / max(total_incremental, 1e-9)
    print_table(
        "Table 4: equivalence-checking time (us) per workload and slowdown "
        "vs. all optimizations on",
        ["benchmark", "#inst", "#queries", "all opts (us)",
         "fresh/query (us)", "speedup",
         "no modular (us)", "slowdown",
         "no offset concr. (us)", "slowdown"], rows)
    print(f"\naggregate incremental speedup (fresh / all opts): "
          f"{aggregate:.2f}x (bar: {MIN_SPEEDUP}x)")
    worst = min(speedups, key=speedups.get)
    print(f"worst per-program incremental speedup (fresh / all opts): "
          f"{speedups[worst]:.2f}x on {worst} "
          f"(floor: {MIN_PROGRAM_SPEEDUP}x)")
    if JSON_PATH:
        with open(JSON_PATH, "w", encoding="utf-8") as handle:
            json.dump({"table": "table4_eqcheck_ablation", "smoke": SMOKE,
                       "aggregate_speedup": round(aggregate, 2),
                       "worst_incremental_speedup": round(speedups[worst], 2),
                       "rows": summary}, handle, indent=2)
    return rows, aggregate, speedups


@pytest.mark.benchmark(group="table4")
def test_table4_equivalence_ablation(benchmark):
    rows, aggregate, speedups = benchmark.pedantic(
        _run_all, rounds=1, iterations=1)
    assert len(rows) == len(BENCHMARKS)
    assert aggregate >= MIN_SPEEDUP, (
        f"incremental pipeline must be at least {MIN_SPEEDUP}x faster than "
        f"the fresh-solver-per-query baseline, got {aggregate:.2f}x")
    for name, speedup in speedups.items():
        assert speedup >= MIN_PROGRAM_SPEEDUP, (
            f"incremental pipeline must be at least {MIN_PROGRAM_SPEEDUP}x "
            f"faster than fresh solving on every program; {name} got "
            f"{speedup:.2f}x")
