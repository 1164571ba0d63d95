"""Interpreter throughput: the decode-once engine vs. legacy.

Every MCMC proposal is replayed on the pooled test inputs before any solver
query, so interpreter throughput bounds end-to-end synthesis speed (paper
§3.2).  This bench measures both engines on corpus programs in the steady
state: one program executed over a test suite repeatedly (the accept/reject
inner loop on an unchanged current program).

Throughput is reported in executed instructions per second (the engines are
bit-identical, so both execute exactly the same steps; the bench asserts
that).  Timing is interleaved best-of-``REPEATS`` CPU time, which
suppresses scheduler noise on busy hosts.  The acceptance gate is on the
aggregate steady-state throughput ratio: ``decoded >= MIN_SPEEDUP x
legacy`` (the decode-once refactor).

Environment knobs: ``K2_BENCH_SMOKE=1`` shrinks the program list and pass
counts for CI smoke runs; ``K2_BENCH_JSON=path`` writes a JSON summary (the
``BENCH_*.json`` perf trajectory).
"""

import json
import os
import time

import pytest

from repro.corpus import get_benchmark
from repro.engine import ExecutionEngine
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
JSON_PATH = os.environ.get("K2_BENCH_JSON", "")

#: Acceptance bar for the decode-once engine, asserted on the aggregate
#: steady-state throughput ratio against the legacy interpreter.
MIN_SPEEDUP = 3.0


def _measure_steady(engine, program, tests, passes):
    """(executed instructions, CPU seconds) for repeated batches."""
    steps = 0
    started = time.process_time()
    for _ in range(passes):
        for output in engine.run_batch(program, tests):
            steps += output.steps
    return steps, time.process_time() - started


def _run_all():
    rows = []
    summary = []
    totals = {name: {"steps": 0.0, "seconds": 0.0}
              for name in ("legacy", "decoded")}
    for name in BENCHMARKS:
        program = get_benchmark(name).program()
        tests = InputGenerator(program, seed=11).generate(NUM_TESTS)
        engines = {"legacy": Interpreter(), "decoded": ExecutionEngine()}
        # Warm both engines (decode + machine allocation outside the
        # timers) and assert they agree before trusting the step counts.
        warm = {kind: engine.run_batch(program, tests)
                for kind, engine in engines.items()}
        assert [o.steps for o in warm["legacy"]] == \
            [o.steps for o in warm["decoded"]]
        assert [o.observable() for o in warm["legacy"]] == \
            [o.observable() for o in warm["decoded"]]

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

        tput = {kind: steady[kind]["steps"]
                / max(steady[kind]["seconds"], 1e-9) for kind in engines}
        rows.append([
            name, len(program.instructions),
            f"{tput['legacy'] / 1e3:,.0f}", f"{tput['decoded'] / 1e3:,.0f}",
            f"{tput['decoded'] / tput['legacy']:.1f}x",
        ])
        summary.append({
            "benchmark": name, "instructions": len(program.instructions),
            "legacy_kinsn_per_s": round(tput["legacy"] / 1e3, 1),
            "decoded_kinsn_per_s": round(tput["decoded"] / 1e3, 1),
            "steady_speedup": round(tput["decoded"] / tput["legacy"], 2),
            "decode_cache": engines["decoded"].stats(),
        })

    def aggregate_tput(kind):
        return totals[kind]["steps"] / max(totals[kind]["seconds"], 1e-9)

    aggregate = aggregate_tput("decoded") / aggregate_tput("legacy")
    print_table(
        "Interpreter throughput: decoded / legacy (kinsn/s)",
        ["benchmark", "#inst", "legacy", "decoded", "dec/leg"], rows)
    print(f"\naggregate steady-state speedup (decoded / legacy): "
          f"{aggregate:.2f}x (bar: {MIN_SPEEDUP}x)")
    if JSON_PATH:
        with open(JSON_PATH, "w", encoding="utf-8") as handle:
            json.dump({"table": "interp_throughput", "smoke": SMOKE,
                       "aggregate_speedup": round(aggregate, 2),
                       "min_speedup_gate": MIN_SPEEDUP,
                       "rows": summary}, handle, indent=2)
    return rows, aggregate


@pytest.mark.benchmark(group="interp_throughput")
def test_interpreter_throughput(benchmark):
    rows, aggregate = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    assert len(rows) == len(BENCHMARKS)
    assert aggregate >= MIN_SPEEDUP, (
        f"decoded engine must be at least {MIN_SPEEDUP}x faster than the "
        f"legacy interpreter on corpus programs, got {aggregate:.2f}x")
