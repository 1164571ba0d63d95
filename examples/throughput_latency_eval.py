#!/usr/bin/env python3
"""Measure throughput and latency of corpus programs, clang vs. K2 style.

This reproduces the §8 measurement methodology on the simulated testbed: the
maximum loss-free forwarding rate (MLFFR) of each program variant, plus the
average packet latency at the four standard offered loads (low, medium, high,
saturating).  It compares each benchmark's original ("clang") form with a
hand-picked K2-style optimized variant produced by a short search.

Run with::

    python examples/throughput_latency_eval.py
"""

from repro import api
from repro.corpus import get_benchmark
from repro.perf import BenchmarkRig

BENCHMARKS = ["xdp_exception", "xdp_map_access", "xdp1"]


def main() -> None:
    for name in BENCHMARKS:
        bench = get_benchmark(name)
        source = bench.program()
        optimized = api.optimize(source, api.K2Config(
            goal="latency", iterations=600, settings=1, seed=3)).optimized

        rig_src = BenchmarkRig(source, packets_per_trial=4000)
        rig_opt = BenchmarkRig(optimized, packets_per_trial=4000)
        mlffr_src = rig_src.mlffr_mpps()
        mlffr_opt = rig_opt.mlffr_mpps()
        gain = 100.0 * (mlffr_opt - mlffr_src) / mlffr_src if mlffr_src else 0.0

        print(f"=== {name} ===")
        print(f"  instructions : {source.num_real_instructions} -> "
              f"{optimized.num_real_instructions}")
        print(f"  MLFFR        : clang {mlffr_src:.3f} Mpps | "
              f"K2 {mlffr_opt:.3f} Mpps | gain {gain:+.2f}%")

        loads = rig_src.standard_latency_loads(rig_opt)
        for label, load in loads.items():
            src_point = rig_src.run_at_load(load)
            opt_point = rig_opt.run_at_load(load)
            reduction = 0.0
            if src_point.average_latency_us:
                reduction = 100.0 * (src_point.average_latency_us
                                     - opt_point.average_latency_us) \
                    / src_point.average_latency_us
            print(f"  latency @{label:10s} ({load:6.2f} Mpps): "
                  f"clang {src_point.average_latency_us:8.3f} us | "
                  f"K2 {opt_point.average_latency_us:8.3f} us | "
                  f"reduction {reduction:+.2f}%")
        print()


if __name__ == "__main__":
    main()
