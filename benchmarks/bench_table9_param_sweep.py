"""Table 9: best program size found under each parameter setting.

Runs a short instruction-count search per (benchmark, parameter setting)
pair and reports the smallest verified program each setting found, marking
the per-benchmark minimum with a ``*`` as Table 9 does.

Each per-setting search is a single chain, so the parallel engine has
nothing to fan out here; the multi-chain benches (Tables 1 and 6b) are the
ones that honour ``K2_BENCH_WORKERS``.
"""

import pytest

from repro.synthesis import PerformanceGoal, all_parameter_settings

from harness import print_table, run_search

BENCHMARKS = ["xdp_exception", "xdp_pktcntr", "xdp_map_access"]
NUM_SETTINGS = 5
ITERATIONS = 400


def _run_all():
    settings = all_parameter_settings(PerformanceGoal.INSTRUCTION_COUNT)[:NUM_SETTINGS]
    rows = []
    for name in BENCHMARKS:
        sizes = []
        for setting in settings:
            source, result = run_search(name, iterations=ITERATIONS,
                                        num_settings=1, settings=[setting])
            sizes.append(result.optimized.num_real_instructions)
        best = min(sizes)
        row = [name] + [f"{size}{'*' if size == best else ''}" for size in sizes]
        row.append(f"{100.0 * sum(1 for s in sizes if s == best) / len(sizes):.0f}%")
        rows.append(row)
    print_table("Table 9: best program size per parameter setting",
                ["benchmark"] + [f"setting {s.setting_id}" for s in settings]
                + ["% settings finding the best"], rows)
    return rows


@pytest.mark.benchmark(group="table9")
def test_table9_parameter_sweep(benchmark):
    rows = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    assert len(rows) == len(BENCHMARKS)
