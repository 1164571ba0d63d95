"""Table 3: average packet latency at the four standard offered loads.

For each benchmark the bench measures the clang (source) and K2 (optimized)
variants at the low / medium / high / saturating loads defined exactly as in
the paper: relative to the slower and faster of the two variants' MLFFR.
"""

import pytest

from repro.perf import BenchmarkRig

from harness import print_table, run_search

BENCHMARKS = ["xdp2", "xdp_router_ipv4", "xdp_fwd"]


def _run_all():
    rows = []
    for name in BENCHMARKS:
        source, result = run_search(name, iterations=400, num_settings=1,
                                    goal="latency")
        clang_rig = BenchmarkRig(source, packets_per_trial=4000)
        k2_rig = BenchmarkRig(result.optimized, packets_per_trial=4000)
        loads = clang_rig.standard_latency_loads(k2_rig)
        for label, load in loads.items():
            clang_point = clang_rig.run_at_load(load)
            k2_point = k2_rig.run_at_load(load)
            reduction = 0.0
            if clang_point.average_latency_us:
                reduction = 100.0 * (clang_point.average_latency_us
                                     - k2_point.average_latency_us) \
                    / clang_point.average_latency_us
            rows.append([name, label, f"{load:.2f}",
                         f"{clang_point.average_latency_us:.3f}",
                         f"{k2_point.average_latency_us:.3f}",
                         f"{reduction:+.2f}%"])
    print_table("Table 3: average latency (us) at offered loads (Mpps)",
                ["benchmark", "load level", "offered", "clang", "K2",
                 "reduction"], rows)
    return rows


@pytest.mark.benchmark(group="table3")
def test_table3_latency(benchmark):
    rows = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    assert len(rows) == len(BENCHMARKS) * 4
