"""Instruction transfer and branch refinement over the fused product domain.

This is the single abstract semantics of the repo: the incremental block
analyzer (:mod:`repro.analysis.analyzer`, powering
:class:`repro.safety.SafetyChecker`) and its per-instruction walk
(:func:`~repro.analysis.analyzer.states_before`, behind window
preconditions, window planning and the peephole baseline), and the
path-sensitive kernel-checker walk (:class:`repro.verifier.KernelChecker`).
It subsumes the older provenance/offset/constant pass and the intervals of
:mod:`repro.bpf.valrange`, and additionally models the parts of the
interpreter's behaviour those passes missed:

* loads of context packet-pointer fields only become pointers when the
  access width matches the field (the interpreter's rewrite rule);
* stores that partially overwrite a tracked 8-byte stack slot invalidate
  the slot (the old analysis only dropped exact-slot matches);
* ``bpf_xdp_adjust_head``/``_tail`` invalidate every packet pointer and
  reset the verified packet bound (stale pointers fault at run time).

Constant folding goes through :func:`repro.semantics.alu_op_concrete` /
:func:`repro.semantics.byteswap` — the interpreter's own tables — so the
abstract and concrete semantics cannot drift.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..bpf.helpers import HELPERS, HelperId
from ..bpf.hooks import CtxFieldKind, Hook
from ..bpf.opcodes import AluOp, JmpOp, MemSize, SrcOperand
from ..bpf.regions import MemRegion
from ..bpf.valrange import ValueInterval, refine_interval_for_branch
from ..semantics import byteswap
from .domains import AbsVal, scalar_alu_transfer
from .state import AnalysisState
from .tnum import Tnum

__all__ = ["transfer", "refine_branch", "PACKET_MUTATING_HELPERS"]

_U64 = (1 << 64) - 1

#: Helpers whose success invalidates previously-derived packet pointers.
PACKET_MUTATING_HELPERS = frozenset({
    int(HelperId.XDP_ADJUST_HEAD), int(HelperId.XDP_ADJUST_TAIL),
})

_PACKET_REGIONS = (MemRegion.PACKET, MemRegion.PACKET_END)

#: Regions backed by exactly one runtime object, where a concrete offset
#: identifies a unique address (unlike MAP_VALUE, one buffer per entry).
_SINGLE_OBJECT_REGIONS = frozenset({
    MemRegion.STACK, MemRegion.CTX, MemRegion.PACKET, MemRegion.PACKET_END,
})


def _as_scalar(value: AbsVal) -> AbsVal:
    """View any abstract value as a scalar (pointers become unknown u64s)."""
    if value.region == MemRegion.SCALAR:
        return value
    return AbsVal.scalar(None)


def _signed(delta: int) -> int:
    return delta - (1 << 64) if delta >= (1 << 63) else delta


def transfer(state: AnalysisState, insn, hook: Hook) -> AnalysisState:
    """Apply one non-branch instruction to a copy of the abstract state."""
    state = state.copy()
    regs = state.regs

    if insn.is_nop:
        return state

    if insn.is_lddw:
        if insn.src == 1:
            regs[insn.dst] = AbsVal.pointer(MemRegion.MAP_PTR, map_fd=insn.imm)
        else:
            regs[insn.dst] = AbsVal.scalar(insn.imm64 or insn.imm)
        return state

    if insn.is_alu:
        regs[insn.dst] = _alu_result(regs, insn)
        return state

    if insn.is_load:
        regs[insn.dst] = _load_result(state, insn, hook)
        return state

    if insn.is_store or insn.is_xadd:
        _apply_store(state, insn)
        return state

    if insn.is_call:
        _apply_call(state, insn)
        return state

    return state


# --------------------------------------------------------------------------- #
# ALU
# --------------------------------------------------------------------------- #
def _alu_result(regs, insn) -> AbsVal:
    op = insn.alu_op
    dst_val: AbsVal = regs[insn.dst]
    is64 = insn.is_alu64

    if op == AluOp.END:
        return _end_result(dst_val, insn)
    if op == AluOp.NEG:
        scalar = _as_scalar(dst_val)
        if scalar.const is not None:
            width_mask = _U64 if is64 else 0xFFFFFFFF
            return AbsVal.scalar((-scalar.const) & width_mask)
        tnum = Tnum.const(0).sub(scalar.tnum)
        if not is64:
            tnum = tnum.truncate32()
        return AbsVal.from_parts(tnum, ValueInterval.top() if is64
                                 else ValueInterval(0, 0xFFFFFFFF))

    src_val = regs[insn.src] if insn.uses_reg_source else AbsVal.scalar(insn.imm)

    if op == AluOp.MOV:
        if is64:
            return src_val
        scalar = _as_scalar(src_val)
        return AbsVal.from_parts(scalar.tnum.truncate32(),
                                 scalar.rng.truncate32())

    # Pointer arithmetic: ptr +/- scalar keeps the region (64-bit only).
    if dst_val.is_pointer and is64 and op in (AluOp.ADD, AluOp.SUB):
        if not src_val.is_pointer:
            delta = _as_scalar(src_val).const
            offset = None
            if dst_val.offset is not None and delta is not None:
                signed = _signed(delta)
                offset = dst_val.offset + (signed if op == AluOp.ADD else -signed)
            return AbsVal.pointer(dst_val.region, offset=offset,
                                  map_fd=dst_val.map_fd,
                                  maybe_null=dst_val.maybe_null)
        if op == AluOp.SUB:
            # ptr - ptr yields a scalar (packet length computations).  Within
            # one single-object region the difference of known offsets is
            # exact; MAP_VALUE is excluded because two value pointers with
            # equal offsets may address different map entries.
            if (dst_val.region == src_val.region
                    and dst_val.region in _SINGLE_OBJECT_REGIONS
                    and dst_val.offset is not None
                    and src_val.offset is not None):
                return AbsVal.scalar(dst_val.offset - src_val.offset)
            return AbsVal.scalar(None)

    return scalar_alu_transfer(op, _as_scalar(dst_val), _as_scalar(src_val),
                               is64)


def _end_result(dst_val: AbsVal, insn) -> AbsVal:
    """ENDianness conversion: byteswap (be) or width truncation (le)."""
    width = insn.imm
    if width not in (16, 32, 64):
        return AbsVal.scalar(None)
    scalar = _as_scalar(dst_val)
    swap = insn.src_operand == SrcOperand.X
    if scalar.const is not None:
        value = byteswap(scalar.const, width) if swap \
            else scalar.const & ((1 << width) - 1)
        return AbsVal.scalar(value)
    if swap:
        return AbsVal.scalar(None)
    mask = (1 << width) - 1
    return AbsVal.from_parts(scalar.tnum.truncate(width),
                             ValueInterval(0, min(scalar.rng.hi, mask)))


# --------------------------------------------------------------------------- #
# Memory
# --------------------------------------------------------------------------- #
def _load_result(state: AnalysisState, insn, hook: Hook) -> AbsVal:
    base: AbsVal = state.regs[insn.src]
    width = insn.access_bytes

    if base.region == MemRegion.CTX and base.offset is not None:
        field = hook.field_by_offset(base.offset + insn.off)
        # The interpreter only rewrites a ctx load into a packet pointer
        # when the access width matches the field exactly; a partial load
        # yields raw scalar bytes.
        if field is not None and field.size == width:
            if field.kind == CtxFieldKind.PACKET_PTR:
                return AbsVal.pointer(MemRegion.PACKET, offset=0)
            if field.kind == CtxFieldKind.PACKET_END_PTR:
                return AbsVal.pointer(MemRegion.PACKET_END, offset=0)
    elif base.region == MemRegion.STACK and base.offset is not None:
        slot = base.offset + insn.off
        if insn.mem_size == MemSize.DW and slot in state.stack:
            return state.stack[slot]

    # Any other load produces a scalar bounded by the access width.
    limit = (1 << (8 * width)) - 1
    return AbsVal.from_parts(Tnum(0, limit), ValueInterval(0, limit))


def _apply_store(state: AnalysisState, insn) -> None:
    base: AbsVal = state.regs[insn.dst]
    if base.region != MemRegion.STACK or base.offset is None:
        return
    slot = base.offset + insn.off
    width = insn.access_bytes
    # A store of any width clobbers every tracked 8-byte value it overlaps
    # (the pre-fused analysis only dropped exact-slot matches, missing
    # partial overwrites of spilled pointers).
    state.invalidate_stack_overlap(slot, width)
    state.stack_written = state.stack_written | frozenset(
        range(slot, slot + width))
    if insn.is_store_reg and insn.mem_size == MemSize.DW and not insn.is_xadd:
        state.stack[slot] = state.regs[insn.src]
    elif insn.is_store_imm and insn.mem_size == MemSize.DW:
        state.stack[slot] = AbsVal.scalar(insn.imm)


# --------------------------------------------------------------------------- #
# Helper calls
# --------------------------------------------------------------------------- #
def _apply_call(state: AnalysisState, insn) -> None:
    regs = state.regs
    spec = HELPERS.get(insn.imm)
    result = AbsVal.scalar(None)
    if spec is not None and spec.returns_pointer_to is not None:
        map_fd = None
        if spec.map_ptr_arg is not None:
            map_arg = regs[spec.map_ptr_arg]
            if map_arg.region == MemRegion.MAP_PTR:
                map_fd = map_arg.map_fd
        result = AbsVal.pointer(spec.returns_pointer_to, offset=0,
                                map_fd=map_fd,
                                maybe_null=spec.may_return_null)

    if insn.imm in PACKET_MUTATING_HELPERS:
        # On success the packet moved: every previously-derived packet
        # pointer is stale (it faults in the interpreter), and the verified
        # bound no longer holds.
        for reg in range(11):
            if regs[reg].region in _PACKET_REGIONS:
                regs[reg] = AbsVal.unknown()
        for slot, value in list(state.stack.items()):
            if value.region in _PACKET_REGIONS:
                state.stack[slot] = AbsVal.unknown()
        state.packet_bound = 0

    regs[0] = result
    # r1-r5 are clobbered by the call and become unreadable (paper §6,
    # kernel-checker-specific constraint 3).
    for reg in range(1, 6):
        regs[reg] = AbsVal.uninitialized()


# --------------------------------------------------------------------------- #
# Branch refinement
# --------------------------------------------------------------------------- #
def refine_branch(state: AnalysisState, insn, taken: bool) -> AnalysisState:
    """Refine the abstract state along one edge of a conditional jump.

    Mirrors the pre-fused refinements (NULL checks on map lookups, packet
    bounds checks) and adds scalar refinement of the interval component on
    64-bit comparisons against immediates.  Edges the refinement proves
    impossible are *not* pruned: the state is propagated unrefined instead,
    so reachability — and therefore the set of instructions checked —
    stays that of the control-flow graph.
    """
    state = state.copy()
    if not insn.is_conditional_jump:
        return state
    op = insn.jmp_op
    dst_val = state.regs[insn.dst]
    src_is_imm = not insn.uses_reg_source
    src_val = None if src_is_imm else state.regs[insn.src]

    # --- NULL-check refinement -------------------------------------------- #
    if src_is_imm and insn.imm == 0 and dst_val.is_pointer and dst_val.maybe_null:
        if op == JmpOp.JEQ:
            if taken:
                state.regs[insn.dst] = AbsVal.scalar(0)
            else:
                state.regs[insn.dst] = dataclasses.replace(dst_val,
                                                           maybe_null=False)
        elif op == JmpOp.JNE:
            if taken:
                state.regs[insn.dst] = dataclasses.replace(dst_val,
                                                           maybe_null=False)
            else:
                state.regs[insn.dst] = AbsVal.scalar(0)

    # --- Scalar interval refinement ---------------------------------------- #
    # JMP32 compares only the low halves; refining the 64-bit interval from
    # it would be unsound, so those branches refine nothing.
    if (src_is_imm and not insn.is_jump32
            and dst_val.region == MemRegion.SCALAR):
        refined = refine_interval_for_branch(dst_val.rng, op, insn.imm, taken)
        if refined is not None:
            tnum = dst_val.tnum
            equal_edge = (op == JmpOp.JEQ and taken) or \
                (op == JmpOp.JNE and not taken)
            if equal_edge:
                tnum = Tnum.const(insn.imm)
            state.regs[insn.dst] = AbsVal.from_parts(tnum, refined)
        # refined is None ⇒ the edge is statically impossible; keep the
        # unrefined state rather than pruning (see docstring).

    # --- Packet bounds refinement ------------------------------------------ #
    if src_val is not None:
        pkt, pkt_on_dst = None, None
        if (dst_val.region == MemRegion.PACKET
                and src_val.region == MemRegion.PACKET_END):
            pkt, pkt_on_dst = dst_val, True
        elif (src_val.region == MemRegion.PACKET
              and dst_val.region == MemRegion.PACKET_END):
            pkt, pkt_on_dst = src_val, False
        if pkt is not None and pkt.offset is not None:
            bound = pkt.offset
            safe_taken: Optional[bool] = None
            if pkt_on_dst:
                if op in (JmpOp.JGT, JmpOp.JSGT):       # pkt > end -> overflow
                    safe_taken = False
                elif op in (JmpOp.JLE, JmpOp.JSLE):     # pkt <= end -> safe
                    safe_taken = True
                elif op in (JmpOp.JGE, JmpOp.JSGE):
                    safe_taken = False
                elif op in (JmpOp.JLT, JmpOp.JSLT):
                    safe_taken = True
            else:
                if op in (JmpOp.JGT, JmpOp.JSGT):       # end > pkt -> safe
                    safe_taken = True
                elif op in (JmpOp.JLE, JmpOp.JSLE):
                    safe_taken = False
                elif op in (JmpOp.JGE, JmpOp.JSGE):
                    safe_taken = True
                elif op in (JmpOp.JLT, JmpOp.JSLT):
                    safe_taken = False
            if safe_taken is not None and taken == safe_taken:
                state.packet_bound = max(state.packet_bound, bound)
    return state
