"""Building the latency cost function from opcode microbenchmarks (§3.2).

The paper derives its performance cost function by timing every BPF opcode in
isolation.  This example runs the reproduction's opcode profiler against the
interpreter, prints the measured per-category costs, and shows how anchoring
the default latency table at 2.5 ns per ALU op scales the compiler's static
latency estimate of a few corpus benchmarks.

Run with::

    python examples/opcode_profiling.py
"""

from repro.corpus import get_benchmark
from repro.perf import (
    DEFAULT_LATENCY_MODEL, OpcodeLatencyModel, OpcodeProfiler,
)


def main() -> None:
    profiler = OpcodeProfiler(copies=64, repeats=9)
    report = profiler.run()

    print("per-opcode interpreter profile (plays the role of the paper's")
    print("per-opcode hardware microbenchmarks):")
    print()
    print(report.format_table())
    print()

    # The default table scaled to 2.5 ns per ALU op; the profile above is
    # a report and does not feed the model.
    scaled = OpcodeLatencyModel(scale=2.5)
    print("static latency estimates (the compiler's §3.2 perf_lat cost):")
    print(f"{'benchmark':<18}{'default model (ns)':>20}"
          f"{'default x 2.5 ns/ALU op':>25}")
    for name in ["xdp_pktcntr", "xdp_exception", "xdp1", "xdp_fw"]:
        program = get_benchmark(name).program()
        default_cost = DEFAULT_LATENCY_MODEL.program_cost(program)
        scaled_cost = scaled.program_cost(program)
        print(f"{name:<18}{default_cost:>20.1f}{scaled_cost:>25.1f}")


if __name__ == "__main__":
    main()
