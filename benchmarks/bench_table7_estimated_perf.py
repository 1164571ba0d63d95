"""Table 7 (Appendix E): improvements in K2's *estimated* performance.

Runs the latency-goal search and reports the compiler's own latency estimate
(the §3.2 cost function) for the original and optimized programs, plus the
iteration at which the best program was found — the columns of Table 7.
"""

import pytest

from repro.perf import estimate_program_latency

from harness import print_table, run_search

BENCHMARKS = ["xdp_redirect", "xdp1", "xdp_pktcntr", "xdp_map_access",
              "from-network", "xdp_fw"]


def _run_all():
    rows = []
    for name in BENCHMARKS:
        source, result = run_search(name, iterations=600, num_settings=2,
                                    goal="latency")
        original = estimate_program_latency(source)
        optimized = estimate_program_latency(result.optimized)
        gain = 100.0 * (original - optimized) / original if original else 0.0
        best = result.search.best
        rows.append([name, f"{original:.1f}", f"{optimized:.1f}",
                     f"{gain:.2f}%",
                     best.found_at_iteration if best else "-"])
    print_table("Table 7: estimated program latency (ns, compiler cost model)",
                ["benchmark", "original", "K2", "gain", "found at iteration"],
                rows)
    return rows


@pytest.mark.benchmark(group="table7")
def test_table7_estimated_performance(benchmark):
    rows = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    for row in rows:
        assert float(row[2]) <= float(row[1])
