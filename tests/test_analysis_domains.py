"""Property-based lattice tests for the fused analysis domains.

Three families of properties, checked with hypothesis against the concrete
semantics the interpreter itself executes
(:func:`repro.semantics.alu_op_concrete` /
:func:`repro.semantics.jump_taken_concrete`):

* **join soundness** — the join of two abstract values contains every
  member of both operands (tnums and intervals);
* **monotonicity** — widening an input of a transfer function can only
  widen its output (checked on the abstract ordering directly);
* **ALU transfer over-approximation** — for members ``x ∈ γ(a)``,
  ``y ∈ γ(b)``, the concrete 64- or 32-bit result is a member of the
  abstract result, for every ALU opcode the analyzer models; on
  constants the result is exact, down to the value a whole program
  exits with in the interpreter.
"""

from hypothesis import given, settings, strategies as st

from repro.analysis import states_before
from repro.analysis.domains import AbsVal, scalar_alu_transfer
from repro.analysis.tnum import Tnum
from repro.bpf import BpfProgram, HookType, builders
from repro.bpf.opcodes import AluOp, JmpOp
from repro.bpf.valrange import (
    ValueInterval, apply_alu, refine_interval_for_branch,
)
from repro.interpreter import ProgramInput, run_program
from repro.semantics import alu_op_concrete, jump_taken_concrete

U64 = (1 << 64) - 1

u64s = st.integers(min_value=0, max_value=U64)

#: Every ALU op the transfer functions model (END/NEG go through the
#: instruction-level transfer, not the binary scalar path).
ALU_OPS = [AluOp.ADD, AluOp.SUB, AluOp.MUL, AluOp.DIV, AluOp.MOD,
           AluOp.OR, AluOp.AND, AluOp.XOR, AluOp.LSH, AluOp.RSH,
           AluOp.ARSH, AluOp.MOV]

UNSIGNED_JMP_OPS = [JmpOp.JEQ, JmpOp.JNE, JmpOp.JGT, JmpOp.JGE,
                    JmpOp.JLT, JmpOp.JLE]


@st.composite
def tnums(draw):
    mask = draw(u64s)
    value = draw(u64s) & ~mask
    return Tnum(value, mask)


@st.composite
def tnum_members(draw):
    """A tnum together with one concrete member of its set."""
    tnum = draw(tnums())
    member = (tnum.value | (draw(u64s) & tnum.mask)) & U64
    return tnum, member


@st.composite
def intervals(draw):
    a, b = draw(u64s), draw(u64s)
    return ValueInterval(min(a, b), max(a, b))


@st.composite
def interval_members(draw):
    interval = draw(intervals())
    member = draw(st.integers(min_value=interval.lo, max_value=interval.hi))
    return interval, member


def tnum_leq(a: Tnum, b: Tnum) -> bool:
    """γ(a) ⊆ γ(b) — the known-bits ordering, decidable bitwise."""
    return (a.mask & ~b.mask) == 0 and (a.value & ~b.mask) == b.value


def interval_leq(a: ValueInterval, b: ValueInterval) -> bool:
    return b.lo <= a.lo and a.hi <= b.hi


# --------------------------------------------------------------------------- #
# Join soundness
# --------------------------------------------------------------------------- #
class TestJoinSoundness:
    @given(am=tnum_members(), b=tnums())
    def test_tnum_union_contains_both_sides(self, am, b):
        a, x = am
        assert a.union(b).contains(x)
        assert b.union(a).contains(x)

    @given(a=tnums(), b=tnums())
    def test_tnum_union_is_an_upper_bound(self, a, b):
        joined = a.union(b)
        assert tnum_leq(a, joined)
        assert tnum_leq(b, joined)
        assert joined == b.union(a)
        assert a.union(a) == a

    @given(am=interval_members(), b=intervals())
    def test_interval_join_contains_both_sides(self, am, b):
        a, x = am
        assert a.join(b).contains(x)
        assert b.join(a).contains(x)

    @given(a=intervals(), b=intervals())
    def test_interval_join_is_an_upper_bound(self, a, b):
        joined = a.join(b)
        assert interval_leq(a, joined)
        assert interval_leq(b, joined)

    @given(am=tnum_members(), b=tnums())
    def test_tnum_intersect_preserves_common_members(self, am, b):
        a, x = am
        met = a.intersect(b)
        if b.contains(x):
            assert met is not None and met.contains(x)

    @given(am=interval_members(), bm=interval_members())
    def test_absval_join_soundness(self, am, bm):
        a, x = am
        b, y = bm
        va = AbsVal.from_parts(Tnum.const(x), a)
        vb = AbsVal.from_parts(Tnum.const(y), b)
        joined = va.join(vb)
        for member in (x, y):
            assert joined.tnum.contains(member)
            assert joined.rng.contains(member)


# --------------------------------------------------------------------------- #
# ALU transfer over-approximation
# --------------------------------------------------------------------------- #
class TestAluTransferSoundness:
    @settings(max_examples=300)
    @given(am=tnum_members(), bm=tnum_members(),
           op=st.sampled_from([AluOp.ADD, AluOp.SUB, AluOp.AND, AluOp.OR,
                               AluOp.XOR]),
           is64=st.booleans())
    def test_tnum_bitwise_and_arithmetic_ops(self, am, bm, op, is64):
        a, x = am
        b, y = bm
        if not is64:
            a, b = a.truncate32(), b.truncate32()
            x, y = x & 0xFFFFFFFF, y & 0xFFFFFFFF
        result = {AluOp.ADD: a.add, AluOp.SUB: a.sub,
                  AluOp.AND: a.bitwise_and, AluOp.OR: a.bitwise_or,
                  AluOp.XOR: a.bitwise_xor}[op](b)
        concrete = alu_op_concrete(op, x, y, is64)
        if not is64:
            result = result.truncate32()
        assert result.contains(concrete)

    @settings(max_examples=300)
    @given(am=tnum_members(), shift=st.integers(0, 200),
           op=st.sampled_from([AluOp.LSH, AluOp.RSH, AluOp.ARSH]),
           is64=st.booleans())
    def test_tnum_shifts(self, am, shift, op, is64):
        a, x = am
        width = 64 if is64 else 32
        if not is64:
            a, x = a.truncate32(), x & 0xFFFFFFFF
        masked = shift & (width - 1)
        if op == AluOp.LSH:
            result = a.lshift(masked) if is64 else \
                a.lshift(masked).truncate32()
        elif op == AluOp.RSH:
            result = a.rshift(masked)
        else:
            result = a.arshift(masked, width)
        concrete = alu_op_concrete(op, x, shift, is64)
        assert result.contains(concrete)

    @settings(max_examples=500)
    @given(am=interval_members(), bm=interval_members(),
           op=st.sampled_from(ALU_OPS), is64=st.booleans())
    def test_interval_transfer(self, am, bm, op, is64):
        a, x = am
        b, y = bm
        result = apply_alu(op, a, b, is64)
        concrete = alu_op_concrete(op, x, y, is64)
        assert result.contains(concrete), \
            f"{op.name}/{64 if is64 else 32}: {concrete:#x} not in {result}"

    @settings(max_examples=500)
    @given(am=interval_members(), bm=interval_members(),
           tr=u64s, ts=u64s,
           op=st.sampled_from(ALU_OPS), is64=st.booleans())
    def test_fused_scalar_transfer(self, am, bm, tr, ts, op, is64):
        """The product transfer is sound in both components at once."""
        a, x = am
        b, y = bm
        va = AbsVal.from_parts(Tnum(x & ~tr, tr), a)
        vb = AbsVal.from_parts(Tnum(y & ~ts, ts), b)
        assert va.tnum.contains(x) and vb.tnum.contains(y)
        result = scalar_alu_transfer(op, va, vb, is64)
        concrete = alu_op_concrete(op, x, y, is64)
        assert result.tnum.contains(concrete)
        assert result.rng.contains(concrete)

    @settings(max_examples=200, deadline=None)
    @given(x=u64s, y=u64s, op=st.sampled_from(ALU_OPS), is64=st.booleans())
    def test_constant_folding_is_exact(self, x, y, op, is64):
        result = scalar_alu_transfer(op, AbsVal.scalar(x), AbsVal.scalar(y),
                                     is64)
        concrete = alu_op_concrete(op, x, y, is64)
        assert result.const == concrete
        # The whole-program walk predicts the value the interpreter exits
        # with.
        alu = builders.ALU64_REG if is64 else builders.ALU32_REG
        program = BpfProgram.create([
            builders.LDDW(0, x), builders.LDDW(1, y), alu(op, 0, 1),
            builders.EXIT_INSN()], HookType.XDP)
        states = states_before(program.instructions, program.hook)
        output = run_program(program, ProgramInput(packet=bytes(64)))
        assert states[-1].regs[0].const == concrete == output.observable()[0]


# --------------------------------------------------------------------------- #
# Monotonicity
# --------------------------------------------------------------------------- #
class TestMonotonicity:
    @settings(max_examples=300)
    @given(a=tnums(), widen=tnums(), b=tnums(),
           op=st.sampled_from([AluOp.ADD, AluOp.SUB, AluOp.AND, AluOp.OR,
                               AluOp.XOR]))
    def test_tnum_ops_monotone_under_widening(self, a, widen, b, op):
        wider = a.union(widen)
        fn = {AluOp.ADD: "add", AluOp.SUB: "sub", AluOp.AND: "bitwise_and",
              AluOp.OR: "bitwise_or", AluOp.XOR: "bitwise_xor"}[op]
        narrow = getattr(a, fn)(b)
        wide = getattr(wider, fn)(b)
        assert tnum_leq(narrow, wide)

    @settings(max_examples=300)
    @given(a=intervals(), widen=intervals(), b=intervals(),
           op=st.sampled_from(ALU_OPS), is64=st.booleans())
    def test_interval_transfer_monotone_under_widening(self, a, widen, b,
                                                       op, is64):
        wider = a.join(widen)
        narrow = apply_alu(op, a, b, is64)
        wide = apply_alu(op, wider, b, is64)
        assert interval_leq(narrow, wide), \
            f"{op.name}: {narrow} ⊄ {wide} after widening {a} to {wider}"


# --------------------------------------------------------------------------- #
# Branch refinement
# --------------------------------------------------------------------------- #
class TestBranchRefinement:
    @settings(max_examples=500)
    @given(am=interval_members(), imm=u64s,
           op=st.sampled_from(UNSIGNED_JMP_OPS), taken=st.booleans())
    def test_interval_refinement_keeps_consistent_members(self, am, imm, op,
                                                          taken):
        """If the branch outcome matches, the member survives refinement."""
        interval, x = am
        if jump_taken_concrete(op, x, imm, is64=True) != taken:
            return
        refined = refine_interval_for_branch(interval, op, imm, taken)
        assert refined is not None and refined.contains(x)
