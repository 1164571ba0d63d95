"""Incremental vs. from-scratch static safety analysis on proposal traces.

After the decode-once engine made execution ~5.7x faster (PR 3), static
safety checking became a dominant per-proposal cost of the synthesis loop.
The fused analyzer (:mod:`repro.analysis`) attacks it the same way the
engine attacked decoding: per-basic-block memoization keyed on block
content + input state, so an MCMC proposal that mutates a small window
only re-analyzes the blocks it actually changed.

This bench replays realistic proposal traces — a random walk of MCMC
rewrites over corpus benchmarks, exactly what
:class:`~repro.synthesis.proposals.ProposalGenerator` feeds the chain —
through the analyzer twice:

* **scratch** — every program analyzed with all memo layers disabled
  (what a checker without memos pays per proposal);
* **incremental** — one long-lived analyzer, as a chain holds it.

Verdicts are asserted identical pair-wise; the acceptance gate is on the
aggregate speedup: ``incremental >= MIN_SPEEDUP x scratch``.

Environment knobs: ``K2_BENCH_SMOKE=1`` shrinks programs/trace lengths for
CI smoke runs; ``K2_BENCH_JSON=path`` writes a JSON summary (the
``BENCH_*.json`` perf trajectory).
"""

import json
import os
import random
import time

from repro.analysis import AbstractAnalyzer
from repro.corpus import get_benchmark
from repro.synthesis.proposals import ProposalGenerator

from harness import print_table

SMOKE = os.environ.get("K2_BENCH_SMOKE", "") not in ("", "0")
BENCHMARKS = ["xdp_exception", "xdp_pktcntr", "xdp1", "xdp_fw",
              "xdp_map_access", "xdp-balancer"]
if SMOKE:
    BENCHMARKS = ["xdp_exception", "xdp1", "xdp-balancer"]
TRACE_LENGTH = 120 if SMOKE else 300
JSON_PATH = os.environ.get("K2_BENCH_JSON", "")

#: Acceptance bar for per-block memoization on corpus proposal traces.
MIN_SPEEDUP = 2.0


def _proposal_trace(benchmark_name: str, length: int):
    """A Metropolis-shaped proposal trace: every program is one rewrite away
    from a slowly-drifting *current* program — exactly the candidate stream
    :meth:`MarkovChain.step` hands the safety checker."""
    source = get_benchmark(benchmark_name).program()
    rng = random.Random(0xC0FFEE ^ length)
    generator = ProposalGenerator(source, rng)
    trace = [source]
    current = list(source.instructions)
    for _ in range(length):
        proposal = generator.propose(current)
        trace.append(source.with_instructions(proposal))
        if rng.random() < 0.3:  # occasional acceptance moves the chain
            current = proposal
    return trace


def _measure(analyzer: AbstractAnalyzer, trace, use_memo: bool,
             warmup: int):
    """Analyze the trace; time only the steady-state tail.

    The first ``warmup`` programs are analyzed untimed (they fill the
    incremental analyzer's memos the way a chain's first proposals do);
    both modes then time the identical remaining programs, measuring the
    per-proposal cost the synthesis hot loop actually pays.
    """
    outcomes = [analyzer.analyze(program, use_memo=use_memo)
                for program in trace[:warmup]]
    started = time.perf_counter()
    outcomes += [analyzer.analyze(program, use_memo=use_memo)
                 for program in trace[warmup:]]
    return outcomes, time.perf_counter() - started


def test_incremental_analysis_speedup():
    rows = []
    summary = []
    total_scratch = total_incremental = 0.0

    for name in BENCHMARKS:
        trace = _proposal_trace(name, TRACE_LENGTH)
        warmup = len(trace) // 4
        scratch_analyzer = AbstractAnalyzer()
        incremental_analyzer = AbstractAnalyzer()

        scratch_outcomes, scratch_s = _measure(scratch_analyzer, trace,
                                               use_memo=False, warmup=warmup)
        incremental_outcomes, incremental_s = _measure(incremental_analyzer,
                                                       trace, use_memo=True,
                                                       warmup=warmup)

        # The memo layers are accelerators only: verdicts must be
        # bit-identical program by program.
        for fresh, memoized in zip(scratch_outcomes, incremental_outcomes):
            assert fresh.safe == memoized.safe
            assert fresh.violation_kinds() == memoized.violation_kinds()

        stats = incremental_analyzer.stats()
        analyzed = stats["blocks_analyzed"]
        reused = stats["blocks_reused"]
        reuse_pct = 100.0 * reused / max(analyzed + reused, 1)
        speedup = scratch_s / incremental_s if incremental_s else float("inf")
        total_scratch += scratch_s
        total_incremental += incremental_s
        rows.append([name, len(trace), f"{scratch_s:.3f}",
                     f"{incremental_s:.3f}", f"{speedup:.2f}x",
                     f"{reuse_pct:.0f}%"])
        summary.append({"benchmark": name, "trace_length": len(trace),
                        "scratch_seconds": round(scratch_s, 6),
                        "incremental_seconds": round(incremental_s, 6),
                        "speedup": round(speedup, 3),
                        "blocks_analyzed": analyzed,
                        "blocks_reused": reused,
                        "block_reuse_percent": round(reuse_pct, 1)})

    aggregate = total_scratch / total_incremental
    rows.append(["aggregate", "-", f"{total_scratch:.3f}",
                 f"{total_incremental:.3f}", f"{aggregate:.2f}x", "-"])
    print_table(
        "Incremental abstract interpretation on proposal traces",
        ["benchmark", "programs", "scratch (s)", "incremental (s)",
         "speedup", "block reuse"],
        rows)

    if JSON_PATH:
        payload = {"bench": "analysis_incremental", "smoke": SMOKE,
                   "trace_length": TRACE_LENGTH,
                   "min_speedup_gate": MIN_SPEEDUP,
                   "aggregate_speedup": round(aggregate, 3),
                   "rows": summary}
        with open(JSON_PATH, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
        print(f"wrote {JSON_PATH}")

    assert aggregate >= MIN_SPEEDUP, (
        f"incremental analysis speedup {aggregate:.2f}x below the "
        f"{MIN_SPEEDUP}x acceptance gate")
