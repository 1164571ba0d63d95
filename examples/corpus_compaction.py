#!/usr/bin/env python3
"""Run the K2 search over several corpus benchmarks (a miniature Table 1).

For each selected benchmark this example runs a short instruction-count
optimization and prints the original size, the optimized size, the
compression percentage, and when the best program was found — the same
columns as Table 1 of the paper, at laptop-scale iteration counts.

Run with::

    python examples/corpus_compaction.py
"""

from repro.api import K2Config
from repro.corpus import get_benchmark
from repro.verifier import KernelChecker

BENCHMARKS = ["xdp_exception", "xdp_pktcntr", "xdp_devmap_xmit",
              "from-network", "xdp_map_access"]


def main() -> None:
    print(f"{'benchmark':20s} {'orig':>5s} {'K2':>5s} {'compression':>12s} "
          f"{'found at iter':>14s} {'kernel ok':>10s}")
    checker = KernelChecker()
    for name in BENCHMARKS:
        source = get_benchmark(name).program()
        compiler = K2Config(goal="size", iterations=3000, settings=2,
                            seed=5).compiler()
        result = compiler.optimize(source)
        best = result.search.best
        found_at = best.found_at_iteration if best else 0
        accepted = checker.load(result.optimized).accepted
        print(f"{name:20s} {source.num_real_instructions:5d} "
              f"{result.optimized.num_real_instructions:5d} "
              f"{result.compression_percent:11.2f}% "
              f"{found_at:14d} {'yes' if accepted else 'NO':>10s}")


if __name__ == "__main__":
    main()
