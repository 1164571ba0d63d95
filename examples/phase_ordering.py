"""The phase-ordering problem (paper §2.2), demonstrated end to end.

A traditional rule-based optimizer has to choose between missing
optimizations and emitting code the kernel checker rejects.  This example
builds a small XDP program that zero-initializes two adjacent stack bytes at
an *odd* offset, then optimizes it three ways:

1. the naive rule-based pipeline (coalesces the stores, checker rejects it),
2. the checker-aware rule-based pipeline (skips the rewrite, missing the win),
3. K2's synthesis (finds a safe, checker-acceptable smaller program).

Run with::

    python examples/phase_ordering.py
"""

from repro.api import K2Config
from repro.baseline import OptimizationLevel, RuleBasedCompiler
from repro.bpf import builders
from repro.bpf.helpers import XDP_PASS
from repro.bpf.hooks import HookType
from repro.bpf.opcodes import MemSize
from repro.bpf.program import BpfProgram
from repro.verifier import KernelChecker


def build_program() -> BpfProgram:
    """Zero two adjacent stack bytes at an odd offset, then return XDP_PASS."""
    instructions = [
        builders.MOV64_IMM(2, 0),
        builders.ST_MEM(MemSize.B, 10, -7, 0),
        builders.ST_MEM(MemSize.B, 10, -6, 0),
        builders.MOV64_IMM(0, XDP_PASS),
        builders.EXIT_INSN(),
    ]
    return BpfProgram.create(instructions, HookType.XDP, name="phase_ordering")


def describe(label: str, program: BpfProgram) -> None:
    verdict = KernelChecker().load(program)
    status = "accepted" if verdict else f"REJECTED ({verdict.reason})"
    print(f"{label:<28} {program.num_real_instructions:>2} instructions, "
          f"kernel checker: {status}")


def main() -> None:
    source = build_program()
    print("source program:")
    print(source.to_text())
    print()

    describe("original", source)

    naive = RuleBasedCompiler(OptimizationLevel.Os, checker_aware=False)
    naive_result = naive.compile(source)
    describe("rule-based (naive -Os)", naive_result.optimized)

    aware = RuleBasedCompiler(OptimizationLevel.Os, checker_aware=True)
    aware_result = aware.compile(source)
    describe("rule-based (checker-aware)", aware_result.optimized)
    for blocked in aware_result.blocked:
        print(f"    blocked {blocked.rule}: {blocked.note}")

    compiler = K2Config(goal="size", iterations=1500, settings=1,
                        seed=11).compiler()
    k2_result = compiler.optimize(source)
    describe("K2 (synthesis)", k2_result.optimized)

    print()
    print("K2 output:")
    print(k2_result.optimized.to_text())


if __name__ == "__main__":
    main()
