"""Figure 2 / Appendix H: throughput, latency and drop rate vs. offered load.

Sweeps the offered load for each XDP benchmark (clang and K2 variants) and
prints the three curves the appendix plots: throughput vs. offered load,
average latency vs. offered load, and drop rate vs. offered load.
"""

import pytest

from repro.perf import BenchmarkRig

from harness import print_table, run_search

BENCHMARKS = ["xdp2", "xdp1"]
LOAD_FRACTIONS = [0.4, 0.7, 0.9, 1.0, 1.1, 1.3]


def _run_all():
    rows = []
    for name in BENCHMARKS:
        source, result = run_search(name, iterations=300, num_settings=1,
                                    goal="latency")
        variants = {"clang": source, "K2": result.optimized}
        rigs = {label: BenchmarkRig(program, packets_per_trial=3000)
                for label, program in variants.items()}
        base_mlffr = rigs["clang"].mlffr_mpps()
        loads = [round(base_mlffr * fraction, 3) for fraction in LOAD_FRACTIONS]
        for label, rig in rigs.items():
            for point in rig.load_profile(loads):
                rows.append([name, label, f"{point.offered_mpps:.2f}",
                             f"{point.throughput_mpps:.3f}",
                             f"{point.average_latency_us:.3f}",
                             f"{point.drop_rate:.4f}"])
    print_table("Appendix H: load profiles (throughput / latency / drops)",
                ["benchmark", "variant", "offered (Mpps)", "throughput (Mpps)",
                 "avg latency (us)", "drop rate"], rows)
    return rows


@pytest.mark.benchmark(group="figures")
def test_fig_load_profiles(benchmark):
    rows = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    assert len(rows) == len(BENCHMARKS) * 2 * len(LOAD_FRACTIONS)
    # Past saturation the drop rate must become non-zero.
    saturated = [row for row in rows if float(row[2]) > 0]
    assert any(float(row[5]) > 0 for row in saturated)
