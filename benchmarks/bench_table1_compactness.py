"""Table 1: program compactness — instruction counts of K2 vs. the original.

For each benchmark the search optimizes instruction count and the bench
prints the original size, K2's size, the compression percentage and when the
smallest program was found (time and iterations), i.e. the columns of
Table 1.  Laptop-scale iteration budgets (hundreds of iterations per chain,
far below the paper's) mean the compression percentages are smaller than
the paper's.
"""

import os

import pytest

from harness import (DEFAULT_ITERATIONS, DEFAULT_SETTINGS, SMALL_BENCHMARKS,
                     print_table, run_search)

BENCHMARKS = SMALL_BENCHMARKS[:6] + ["xdp_devmap_xmit"]
#: Set K2_BENCH_WORKERS=N to run each benchmark's chains on a process pool.
NUM_WORKERS = int(os.environ.get("K2_BENCH_WORKERS", "1"))


def _run_all():
    rows = []
    for name in BENCHMARKS:
        source, result = run_search(name, iterations=DEFAULT_ITERATIONS,
                                    num_settings=DEFAULT_SETTINGS,
                                    num_workers=NUM_WORKERS)
        best = result.search.best
        rows.append([
            name,
            source.num_real_instructions,
            result.optimized.num_real_instructions,
            f"{result.compression_percent:.2f}%",
            f"{best.found_at_seconds:.1f}s" if best else "-",
            best.found_at_iteration if best else "-",
        ])
    print_table("Table 1: reduction in instruction count",
                ["benchmark", "original", "K2", "compression",
                 "time to best", "iterations"], rows)
    return rows


@pytest.mark.benchmark(group="table1")
def test_table1_compactness(benchmark):
    rows = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    # The search must never return a program larger than the input.
    for row in rows:
        assert row[2] <= row[1]
