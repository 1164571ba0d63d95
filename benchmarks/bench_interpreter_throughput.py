"""Interpreter throughput: fused and decode-once engines vs. legacy.

Every MCMC proposal is replayed on the pooled test inputs before any solver
query, so interpreter throughput bounds end-to-end synthesis speed (paper
§3.2).  This bench measures the execution engines on corpus programs in
the two shapes the search actually produces:

* **steady state** — one program executed over a test suite repeatedly
  (the accept/reject inner loop on an unchanged current program);
* **proposal churn** — a fresh, never-repeating mutation per batch (every
  decode is a cache miss at the program level, but unchanged instructions
  come from the per-instruction memo; the fused tier defers both CFG
  construction and block compilation until a program recurs, so one-shot
  churn must not regress below the decoded tier).

Throughput is reported in executed instructions per second (the engines are
bit-identical, so all of them execute exactly the same steps; the bench
asserts that).  Timing is interleaved best-of-``REPEATS`` CPU time, which
suppresses scheduler noise on busy hosts.  Three acceptance gates:

* ``decoded >= MIN_SPEEDUP x legacy`` (the decode-once refactor),
* ``fused >= MIN_FUSED_SPEEDUP x decoded`` (the superinstruction engine),
* ``fused churn >= MIN_CHURN_SPEEDUP x decoded churn`` (tiered promotion:
  compiling fused blocks must not cost more than it saves under churn).

Environment knobs: ``K2_BENCH_SMOKE=1`` shrinks the program list and pass
counts for CI smoke runs; ``K2_BENCH_JSON=path`` writes a JSON summary (the
``BENCH_*.json`` perf trajectory).
"""

import itertools
import json
import os
import time

import pytest

from repro.bpf.instruction import NOP
from repro.corpus import get_benchmark
from repro.engine import ExecutionEngine, FusedEngine
from repro.interpreter import Interpreter
from repro.synthesis.testcases import TestCaseGenerator as InputGenerator

from harness import print_table

SMOKE = os.environ.get("K2_BENCH_SMOKE", "") not in ("", "0")
BENCHMARKS = ["xdp_exception", "xdp_pktcntr", "xdp1", "xdp_fw",
              "xdp_map_access", "xdp-balancer"]
if SMOKE:
    BENCHMARKS = ["xdp_exception", "xdp1"]
NUM_TESTS = 8 if SMOKE else 16
PASSES = 6 if SMOKE else 12
REPEATS = 2 if SMOKE else 3
CHURN_PROPOSALS = 20 if SMOKE else 60
JSON_PATH = os.environ.get("K2_BENCH_JSON", "")

#: Acceptance bar for the decode-once engine, asserted on the aggregate
#: steady-state throughput ratio against the legacy interpreter.
MIN_SPEEDUP = 3.0
#: Acceptance bar for the superinstruction-fused engine, asserted on the
#: aggregate steady-state throughput ratio against the decoded engine.
MIN_FUSED_SPEEDUP = 3.0
#: Acceptance bar for tiered promotion: aggregate proposal-churn time with
#: the fused engine must not exceed the decoded engine's.
MIN_CHURN_SPEEDUP = 1.0


def _measure_steady(engine, program, tests, passes):
    """(executed instructions, CPU seconds) for repeated batches."""
    steps = 0
    started = time.process_time()
    for _ in range(passes):
        for output in engine.run_batch(program, tests):
            steps += output.steps
    return steps, time.process_time() - started


def _measure_churn(engine, program, tests, proposals):
    """(instructions, seconds) with a fresh mutation per batch.

    Models the MCMC shape: each proposal NOPs a different *pair* of
    instructions, so every variant is a distinct content key (whole-program
    decode misses every time) while the per-instruction memo carries
    everything outside the mutated window.  Distinct keys matter: churn is
    the one-shot shape, and a wrapping index would re-propose variants and
    measure promotion/compilation instead (that recurring shape is the
    steady-state leg's job).
    """
    variants = []
    for first, second in itertools.islice(
            itertools.combinations(range(len(program.instructions) - 1), 2),
            proposals):
        instructions = list(program.instructions)
        instructions[first] = NOP
        instructions[second] = NOP
        variants.append(program.with_instructions(instructions))
    steps = 0
    started = time.process_time()
    for variant in variants:
        for output in engine.run_batch(variant, tests):
            steps += output.steps
    return steps, time.process_time() - started


def _run_all():
    rows = []
    summary = []
    totals = {name: {"steps": 0.0, "seconds": 0.0}
              for name in ("legacy", "decoded", "fused")}
    churn_totals = {"decoded": 0.0, "fused": 0.0}
    for name in BENCHMARKS:
        program = get_benchmark(name).program()
        tests = InputGenerator(program, seed=11).generate(NUM_TESTS)
        engines = {"legacy": Interpreter(), "decoded": ExecutionEngine(),
                   "fused": FusedEngine()}
        # Warm every engine (decode/fuse + machine allocation outside the
        # timers) and assert they agree before trusting the step counts.
        warm = {kind: engine.run_batch(program, tests)
                for kind, engine in engines.items()}
        for kind in ("decoded", "fused"):
            assert [o.steps for o in warm["legacy"]] == \
                [o.steps for o in warm[kind]], kind
            assert [o.observable() for o in warm["legacy"]] == \
                [o.observable() for o in warm[kind]], kind

        # Interleaved best-of-REPEATS: one round-robin pass per repeat, the
        # minimum CPU time per engine.  Interleaving spreads slow-host noise
        # evenly instead of biasing whichever engine ran while the box was
        # busy.
        steady = {kind: {"steps": 0, "seconds": float("inf")}
                  for kind in engines}
        for _ in range(REPEATS):
            for kind, engine in engines.items():
                steps, seconds = _measure_steady(engine, program, tests,
                                                 PASSES)
                steady[kind]["steps"] = steps
                steady[kind]["seconds"] = min(steady[kind]["seconds"],
                                              seconds)
        for kind in engines:
            totals[kind]["steps"] += steady[kind]["steps"]
            totals[kind]["seconds"] += steady[kind]["seconds"]

        _, churn_decoded_seconds = _measure_churn(
            engines["decoded"], program, tests, CHURN_PROPOSALS)
        churn_steps, churn_fused_seconds = _measure_churn(
            engines["fused"], program, tests, CHURN_PROPOSALS)
        churn_totals["decoded"] += churn_decoded_seconds
        churn_totals["fused"] += churn_fused_seconds

        tput = {kind: steady[kind]["steps"]
                / max(steady[kind]["seconds"], 1e-9) for kind in engines}
        churn_speedup = churn_decoded_seconds / max(churn_fused_seconds, 1e-9)
        cache = engines["fused"].stats()
        rows.append([
            name, len(program.instructions),
            f"{tput['legacy'] / 1e3:,.0f}", f"{tput['decoded'] / 1e3:,.0f}",
            f"{tput['fused'] / 1e3:,.0f}",
            f"{tput['decoded'] / tput['legacy']:.1f}x",
            f"{tput['fused'] / tput['decoded']:.1f}x",
            f"{churn_speedup:.1f}x",
        ])
        summary.append({
            "benchmark": name, "instructions": len(program.instructions),
            "legacy_kinsn_per_s": round(tput["legacy"] / 1e3, 1),
            "decoded_kinsn_per_s": round(tput["decoded"] / 1e3, 1),
            "fused_kinsn_per_s": round(tput["fused"] / 1e3, 1),
            "steady_speedup": round(tput["decoded"] / tput["legacy"], 2),
            "fused_speedup": round(tput["fused"] / tput["decoded"], 2),
            "churn_speedup_fused_vs_decoded": round(churn_speedup, 2),
            "decode_cache": cache,
            "churn_steps": churn_steps,
        })

    def aggregate_tput(kind):
        return totals[kind]["steps"] / max(totals[kind]["seconds"], 1e-9)

    aggregate = aggregate_tput("decoded") / aggregate_tput("legacy")
    aggregate_fused = aggregate_tput("fused") / aggregate_tput("decoded")
    aggregate_churn = churn_totals["decoded"] / max(churn_totals["fused"],
                                                    1e-9)
    print_table(
        "Interpreter throughput: fused / decoded / legacy (kinsn/s)",
        ["benchmark", "#inst", "legacy", "decoded", "fused",
         "dec/leg", "fus/dec", "churn fus/dec"], rows)
    print(f"\naggregate steady-state speedup (decoded / legacy): "
          f"{aggregate:.2f}x (bar: {MIN_SPEEDUP}x)")
    print(f"aggregate steady-state speedup (fused / decoded): "
          f"{aggregate_fused:.2f}x (bar: {MIN_FUSED_SPEEDUP}x)")
    print(f"aggregate proposal-churn speedup (fused / decoded): "
          f"{aggregate_churn:.2f}x (bar: {MIN_CHURN_SPEEDUP}x)")
    if JSON_PATH:
        with open(JSON_PATH, "w", encoding="utf-8") as handle:
            json.dump({"table": "interp_throughput", "smoke": SMOKE,
                       "aggregate_speedup": round(aggregate, 2),
                       "aggregate_fused_speedup": round(aggregate_fused, 2),
                       "aggregate_churn_speedup": round(aggregate_churn, 2),
                       "min_speedup_gate": MIN_SPEEDUP,
                       "min_fused_speedup_gate": MIN_FUSED_SPEEDUP,
                       "min_churn_speedup_gate": MIN_CHURN_SPEEDUP,
                       "rows": summary}, handle, indent=2)
    return rows, aggregate, aggregate_fused, aggregate_churn


@pytest.mark.benchmark(group="interp_throughput")
def test_interpreter_throughput(benchmark):
    rows, aggregate, aggregate_fused, aggregate_churn = \
        benchmark.pedantic(_run_all, rounds=1, iterations=1)
    assert len(rows) == len(BENCHMARKS)
    assert aggregate >= MIN_SPEEDUP, (
        f"decoded engine must be at least {MIN_SPEEDUP}x faster than the "
        f"legacy interpreter on corpus programs, got {aggregate:.2f}x")
    assert aggregate_fused >= MIN_FUSED_SPEEDUP, (
        f"fused engine must be at least {MIN_FUSED_SPEEDUP}x faster than "
        f"the decoded engine on corpus programs, got {aggregate_fused:.2f}x")
    assert aggregate_churn >= MIN_CHURN_SPEEDUP, (
        f"tiered promotion must keep fused proposal churn at least "
        f"{MIN_CHURN_SPEEDUP}x the decoded engine's, got "
        f"{aggregate_churn:.2f}x")
