"""Table 2: throughput (MLFFR, Mpps per core) of the best clang vs. K2 variant.

The simulated testbed (repro.perf.rig) plays the role of the paper's T-Rex +
CloudLab setup: 64-byte packets, single core, RFC 2544 style maximum
loss-free forwarding rate.  The K2 variant comes from a short latency-goal
search, mirroring how the paper picks its top-k latency candidates.
"""

import pytest

from repro.perf import BenchmarkRig

from harness import print_table, run_search

BENCHMARKS = ["xdp2", "xdp_router_ipv4", "xdp1", "xdp_map_access"]


def _run_all():
    rows = []
    for name in BENCHMARKS:
        source, result = run_search(name, iterations=500, num_settings=1,
                                    goal="latency")
        clang_rig = BenchmarkRig(source, packets_per_trial=4000)
        k2_rig = BenchmarkRig(result.optimized, packets_per_trial=4000)
        clang_mlffr = clang_rig.mlffr_mpps()
        k2_mlffr = k2_rig.mlffr_mpps()
        gain = 100.0 * (k2_mlffr - clang_mlffr) / clang_mlffr if clang_mlffr else 0.0
        rows.append([name, f"{clang_mlffr:.3f}", f"{k2_mlffr:.3f}",
                     f"{gain:+.2f}%"])
    print_table("Table 2: MLFFR throughput (Mpps per core)",
                ["benchmark", "clang", "K2", "gain"], rows)
    return rows


@pytest.mark.benchmark(group="table2")
def test_table2_throughput(benchmark):
    rows = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    for row in rows:
        # K2 must never make throughput worse (it returns the source program
        # when nothing better is found).
        assert float(row[2]) >= float(row[1]) * 0.999
