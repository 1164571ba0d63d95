"""Differential soundness tests: symbolic encoding vs. the interpreter.

The paper checks the soundness of its first-order-logic formalization "using
a test suite that compares the outputs produced by the logic formulas against
the result of executing the instructions" (§4).  These property-based tests
do exactly that: random straight-line programs are executed concretely and
their symbolic return-value expression is evaluated under the same inputs;
the two must agree.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.bpf import BpfProgram, HookType, assemble, get_hook, builders as b
from repro.bpf.maps import MapEnvironment
from repro.bpf.opcodes import AluOp, MemSize
from repro.equivalence import (
    EquivalenceChecker, SymbolicExecutor, SymbolicInputs, Window,
    WindowEquivalenceChecker,
)
from repro.interpreter import Interpreter, ProgramInput
from repro.safety import SafetyChecker
from repro.smt import evaluate
from repro.verification import VerificationPipeline

_ALU_OPS = [AluOp.ADD, AluOp.SUB, AluOp.MUL, AluOp.OR, AluOp.AND, AluOp.XOR,
            AluOp.LSH, AluOp.RSH, AluOp.ARSH, AluOp.DIV, AluOp.MOD]


def _random_alu_program(rng: random.Random, length: int):
    """A random straight-line ALU/stack program over r0-r5."""
    instructions = [b.MOV64_IMM(reg, rng.randrange(-100, 100))
                    for reg in range(6)]
    stack_written = set()
    for _ in range(length):
        kind = rng.random()
        dst = rng.randrange(6)
        if kind < 0.55:
            op = rng.choice(_ALU_OPS)
            is64 = rng.random() < 0.7
            if rng.random() < 0.5:
                src = rng.randrange(6)
                builder = b.ALU64_REG if is64 else b.ALU32_REG
                instructions.append(builder(op, dst, src))
            else:
                imm = rng.randrange(0, 64) if op in (AluOp.LSH, AluOp.RSH,
                                                     AluOp.ARSH) \
                    else rng.randrange(-1000, 1000)
                builder = b.ALU64_IMM if is64 else b.ALU32_IMM
                instructions.append(builder(op, dst, imm))
        elif kind < 0.7:
            offset = rng.choice([-8, -16, -24, -32])
            instructions.append(b.STX_MEM(MemSize.DW, 10, dst, offset))
            stack_written.add(offset)
        elif kind < 0.85 and stack_written:
            offset = rng.choice(sorted(stack_written))
            instructions.append(b.LDX_MEM(MemSize.DW, dst, 10, offset))
        else:
            width = rng.choice([16, 32, 64])
            swap = rng.random() < 0.5
            builder = b.ENDIAN_BE if swap else b.ENDIAN_LE
            instructions.append(builder(dst, width))
    instructions.append(b.MOV64_REG(0, rng.randrange(6)))
    instructions.append(b.EXIT_INSN())
    return instructions


def _check_program(instructions) -> None:
    program = BpfProgram(instructions=instructions, hook=get_hook(HookType.XDP),
                         maps=MapEnvironment(), name="fuzz")
    concrete = Interpreter(strict_uninitialized=False).run(
        program, ProgramInput(packet=bytes(64)))
    assert not concrete.faulted, concrete.fault

    inputs = SymbolicInputs(program.hook, program.maps)
    result = SymbolicExecutor(inputs, "p1").execute(program)
    assignment = {"input_pkt_len": 64}
    for constraint in result.constraints:
        # The per-lookup constraints only matter for map programs; the fuzzed
        # programs here are map-free, so an empty assignment satisfies them.
        assert constraint is not None
    symbolic_value = evaluate(result.return_value, assignment)
    assert symbolic_value == concrete.return_value, (
        f"symbolic {symbolic_value:#x} != concrete {concrete.return_value:#x}\n"
        + program.to_text())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000_000), st.integers(1, 18))
def test_property_symbolic_encoding_matches_interpreter(seed, length):
    rng = random.Random(seed)
    _check_program(_random_alu_program(rng, length))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000_000))
def test_property_branching_programs_match(seed):
    rng = random.Random(seed)
    instructions = [b.MOV64_IMM(reg, rng.randrange(-16, 16)) for reg in range(4)]
    instructions += [
        b.JEQ_IMM(1, rng.randrange(-16, 16), 2),
        b.ADD64_IMM(2, 5),
        b.MUL64_IMM(2, 3),
        b.JGT_REG(2, 3, 1),
        b.XOR64_REG(2, 1),
        b.MOV64_REG(0, 2),
        b.EXIT_INSN(),
    ]
    _check_program(instructions)


def test_jump_semantics_match_on_signed_boundaries():
    for value in (-1, 0, 1, (1 << 63) - 1):
        instructions = [
            b.MOV64_IMM(1, value if value < (1 << 31) else 0),
            b.LDDW(2, value & ((1 << 64) - 1)),
            b.MOV64_IMM(0, 0),
            b.JMP_REG(__import__("repro.bpf.opcodes", fromlist=["JmpOp"]).JmpOp.JSGT,
                      2, 1, 1),
            b.MOV64_IMM(0, 1),
            b.EXIT_INSN(),
        ]
        _check_program(instructions)


STALE_SLOT_SOURCE = """
    stdw [r10-8], 5
    ldxw r3, [r1+12]
    stxw [r10-4], r3
    ldxdw r2, [r10-8]
    mov64 r0, r2
    rsh64 r0, 32
    and64 r0, 3
    exit
"""


def test_window_precondition_drops_partially_overwritten_stack_slot():
    """A narrower store into a tracked 8-byte slot makes its constant stale.

    ``stxw [r10-4]`` overwrites the upper half of the slot ``stdw [r10-8], 5``
    wrote, so ``r2`` is not 5 at the window ``[4, 5)``.  Binding it to 5 as
    a window precondition would "prove" ``mov64 r0, 5`` equivalent to
    ``mov64 r0, r2``, yet the two programs return 1 and 0 when
    ``ingress_ifindex`` is 1.
    """
    hook = get_hook(HookType.XDP)
    source = BpfProgram(instructions=assemble(STALE_SLOT_SOURCE), hook=hook,
                        name="src")
    candidate = BpfProgram(
        instructions=assemble(STALE_SLOT_SOURCE.replace("mov64 r0, r2",
                                                        "mov64 r0, 5")),
        hook=hook, name="cand")
    assert SafetyChecker().check(source).safe
    assert SafetyChecker().check(candidate).safe

    test = ProgramInput(packet=bytes(64), ctx={"ingress_ifindex": 1})
    interpreter = Interpreter()
    assert interpreter.run(source, test).return_value == 1
    assert interpreter.run(candidate, test).return_value == 0
    assert EquivalenceChecker().check(source, candidate).counterexample \
        is not None

    window = WindowEquivalenceChecker().check(source, candidate, Window(4, 5))
    assert not window.equivalent, window.reason
    outcome = VerificationPipeline().verify(source, candidate)
    assert not outcome.result.equivalent, outcome.concluded_by
