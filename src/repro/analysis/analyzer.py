"""The unified, incremental abstract-interpretation safety analyzer.

:class:`AbstractAnalyzer` runs the fused product domain
(:mod:`repro.analysis.domains`) over a program's basic blocks and produces
the complete §6 verdict — the engine behind
:class:`repro.safety.SafetyChecker` and the windowed scheduler's check of
the stitched program.  :func:`states_before` walks the same blocks with the same
transfer, refinement and joins but records the state before every
instruction instead of checking it: the per-point facts that window
preconditions (§5 opt. IV), window planning and the peephole baseline read.

Incrementality for the synthesis hot loop
-----------------------------------------
Every MCMC proposal differs from the current program in a small window, so
most basic blocks are byte-identical *and* reached with an identical input
state.  The analyzer exploits that with three memo layers, mirroring the
execution engine's decode-window reuse:

* a **program memo** keyed on :meth:`BpfProgram.content_key` — re-checking
  an already-seen candidate costs one dict probe;
* a **block memo** keyed on ``(hook, maps, block instructions, input-state
  signature)`` — a mutated proposal only re-analyzes the blocks whose
  instructions or input state actually changed (violations are stored with
  block-relative indices and rebased on reuse, so a block summary is shared
  by every program that contains it anywhere);
* a **CFG-shape cache** keyed on the control-relevant fields of the
  instruction sequence, skipping block splitting and topological sorting
  when a proposal only rewrites straight-line code.

All memos are capacity-bounded LRUs and affect speed only, never verdicts;
``stats()`` exposes hit counters for the ablation bench
(``benchmarks/bench_analysis_incremental.py``).
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from ..bpf.helpers import HELPERS
from ..bpf.hooks import Hook
from ..bpf.instruction import Instruction
from ..bpf.program import BpfProgram
from ..bpf.regions import MemRegion
from .checks import check_instruction
from .state import AnalysisState
from .transfer import refine_branch, transfer
from .verdicts import SafetyViolation, SafetyViolationKind

__all__ = ["AnalysisOutcome", "AbstractAnalyzer", "pointer_info",
           "states_before"]


# --------------------------------------------------------------------------- #
# CFG shape: the control structure of a program, independent of operands
# --------------------------------------------------------------------------- #
@dataclasses.dataclass
class _ShapeBlock:
    start: int
    end: int
    #: (successor block index, edge kind) with kind in {"taken","fall","seq"}.
    successors: Tuple[Tuple[int, str], ...] = ()


@dataclasses.dataclass
class _CfgShape:
    blocks: List[_ShapeBlock]
    topo_order: Optional[List[int]]     # None when the graph has a cycle
    reachable: frozenset
    #: Indices of unreachable blocks, in block order.
    unreachable: Tuple[int, ...]


_JMP_CLASS = 0x05      # InsnClass.JMP
_JMP32_CLASS = 0x06    # InsnClass.JMP32
_JA_BITS = 0x00        # JmpOp.JA
_CALL_BITS = 0x80      # JmpOp.CALL
_EXIT_BITS = 0x90      # JmpOp.EXIT


def _shape_key(instructions: Sequence[Instruction]) -> Tuple:
    """Control-relevant digest: exits, jump kinds and offsets per position.

    Works on raw opcode bits (not the classification properties, which
    construct enum members per call): this runs for every program of a
    synthesis trace, so it is deliberately branch-light.
    """
    key = []
    append = key.append
    for insn in instructions:
        opcode = insn.opcode
        cls = opcode & 0x07
        if cls == _JMP_CLASS:
            bits = opcode & 0xF0
            if bits == _EXIT_BITS:
                append(-1)
            elif bits == _JA_BITS:
                append(("j", insn.off))
            elif bits == _CALL_BITS:
                append(0)
            else:
                append(("c", insn.off))
        elif cls == _JMP32_CLASS:
            bits = opcode & 0xF0
            # JMP32-encoded JA/CALL/EXIT bit patterns are not control flow
            # (the classification properties treat them as plain insns).
            if bits in (_JA_BITS, _CALL_BITS, _EXIT_BITS):
                append(0)
            else:
                append(("c", insn.off))
        else:
            append(0)
    return tuple(key)


def _build_shape(instructions: Sequence[Instruction]) -> _CfgShape:
    n = len(instructions)
    leaders = {0}
    for index, insn in enumerate(instructions):
        if insn.is_exit:
            if index + 1 < n:
                leaders.add(index + 1)
        elif insn.is_conditional_jump or insn.is_unconditional_jump:
            leaders.add(index + 1 + insn.off)
            if index + 1 < n:
                leaders.add(index + 1)
    starts = sorted(leaders)
    start_to_block = {start: i for i, start in enumerate(starts)}
    blocks: List[_ShapeBlock] = []
    for i, start in enumerate(starts):
        end = starts[i + 1] if i + 1 < len(starts) else n
        blocks.append(_ShapeBlock(start=start, end=end))

    for block in blocks:
        last_index = block.end - 1
        last = instructions[last_index]
        successors: List[Tuple[int, str]] = []
        if last.is_exit:
            pass
        elif last.is_unconditional_jump:
            successors.append((start_to_block[last_index + 1 + last.off], "seq"))
        elif last.is_conditional_jump:
            taken_target = last_index + 1 + last.off
            if last.off == 0 and last_index + 1 < n:
                # Both outcomes reach the same block; neither refinement
                # holds on its own, so the edge carries the join of the two
                # refined states (labeling it "taken" — as the legacy CFG
                # dedup effectively did — would smuggle the taken-branch
                # fact into executions that did not take the branch).
                successors.append((start_to_block[taken_target], "both"))
            else:
                raw = [start_to_block[taken_target]]
                if last_index + 1 < n:
                    raw.append(start_to_block[last_index + 1])
                for succ in dict.fromkeys(raw):
                    kind = "taken" if blocks[succ].start == taken_target \
                        else "fall"
                    successors.append((succ, kind))
        elif last_index + 1 < n:
            successors.append((start_to_block[last_index + 1], "seq"))
        block.successors = tuple(successors)

    # Reachability (DFS from the entry block).
    reachable = set()
    stack = [0]
    while stack:
        node = stack.pop()
        if node in reachable:
            continue
        reachable.add(node)
        stack.extend(succ for succ, _ in blocks[node].successors)

    # Kahn topological sort over the whole block graph (matching the
    # legacy networkx-based is_loop_free / topological_order semantics).
    indegree = [0] * len(blocks)
    for block in blocks:
        for succ, _ in block.successors:
            indegree[succ] += 1
    worklist = [i for i in range(len(blocks)) if indegree[i] == 0]
    topo: List[int] = []
    while worklist:
        node = worklist.pop()
        topo.append(node)
        for succ, _ in blocks[node].successors:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                worklist.append(succ)
    topo_order = topo if len(topo) == len(blocks) else None

    unreachable = tuple(i for i in range(len(blocks)) if i not in reachable)
    return _CfgShape(blocks=blocks, topo_order=topo_order,
                     reachable=frozenset(reachable), unreachable=unreachable)


# --------------------------------------------------------------------------- #
# Block summaries and analysis outcomes
# --------------------------------------------------------------------------- #
@dataclasses.dataclass
class _BlockSummary:
    """Memoized result of analyzing one block from one input state."""

    #: Violations with block-relative instruction indices.
    violations: Tuple[SafetyViolation, ...]
    #: Output state per outgoing edge kind ("taken"/"fall"/"seq").
    out_states: Dict[str, AnalysisState]


@dataclasses.dataclass
class AnalysisOutcome:
    """The fused analyzer's verdict for one program."""

    violations: Tuple[SafetyViolation, ...]

    @property
    def safe(self) -> bool:
        return not self.violations

    def violation_kinds(self) -> frozenset:
        return frozenset(v.kind for v in self.violations)


class AbstractAnalyzer:
    """Forward abstract interpretation with per-block incremental reuse."""

    def __init__(self, strict_alignment: bool = True,
                 program_memo_size: int = 4096,
                 block_memo_size: int = 32768,
                 shape_cache_size: int = 1024):
        self.strict_alignment = strict_alignment
        self._program_memo: "OrderedDict[Tuple, AnalysisOutcome]" = OrderedDict()
        self._block_memo: "OrderedDict[Tuple, _BlockSummary]" = OrderedDict()
        self._shape_cache: "OrderedDict[Tuple, _CfgShape]" = OrderedDict()
        self._program_memo_size = program_memo_size
        self._block_memo_size = block_memo_size
        self._shape_cache_size = shape_cache_size
        #: Per-instruction structural facts (instructions are immutable and
        #: shared across the programs of a trace).
        self._insn_info: Dict[Instruction, Tuple] = {}
        #: Counters surfaced by :meth:`stats`.
        self.programs_analyzed = 0
        self.program_memo_hits = 0
        self.blocks_analyzed = 0
        self.blocks_reused = 0

    # ------------------------------------------------------------------ #
    # Pickling: chains ship analyzers to worker processes; the memos are
    # pure accelerators, so ship configuration only (like the engine).
    # ------------------------------------------------------------------ #
    def __getstate__(self):
        return {"strict_alignment": self.strict_alignment,
                "program_memo_size": self._program_memo_size,
                "block_memo_size": self._block_memo_size,
                "shape_cache_size": self._shape_cache_size}

    def __setstate__(self, state):
        self.__init__(**state)

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, int]:
        return {"programs_analyzed": self.programs_analyzed,
                "program_memo_hits": self.program_memo_hits,
                "blocks_analyzed": self.blocks_analyzed,
                "blocks_reused": self.blocks_reused,
                "block_memo_entries": len(self._block_memo)}

    def clear_memos(self) -> None:
        self._program_memo.clear()
        self._block_memo.clear()
        self._shape_cache.clear()
        self._insn_info.clear()

    # ------------------------------------------------------------------ #
    def analyze(self, program: BpfProgram,
                use_memo: bool = True) -> AnalysisOutcome:
        """Full §6 verdict for ``program`` (memoized on its content key)."""
        key = program.content_key() if use_memo else None
        if key is not None:
            cached = self._program_memo.get(key)
            if cached is not None:
                self._program_memo.move_to_end(key)
                self.program_memo_hits += 1
                return cached

        outcome = self._analyze(program, use_memo)
        if key is not None:
            self._program_memo[key] = outcome
            if len(self._program_memo) > self._program_memo_size:
                self._program_memo.popitem(last=False)
        return outcome

    # ------------------------------------------------------------------ #
    def _analyze(self, program: BpfProgram, use_memo: bool) -> AnalysisOutcome:
        self.programs_analyzed += 1
        instructions = program.instructions
        violations = self._check_structure(program, use_memo)
        fatal = {SafetyViolationKind.MALFORMED, SafetyViolationKind.BAD_JUMP}
        if any(v.kind in fatal for v in violations):
            return AnalysisOutcome(tuple(violations))

        shape = self._shape_for(instructions, use_memo)
        if shape.topo_order is None:
            violations.append(SafetyViolation(
                SafetyViolationKind.LOOP, None,
                "control-flow graph contains a back edge (loop)"))
            return AnalysisOutcome(tuple(violations))
        for block_index in shape.unreachable:
            block = shape.blocks[block_index]
            # Blocks made entirely of NOP padding are tolerated: the search
            # introduces them deliberately and they never execute.
            if all(instructions[i].is_nop for i in range(block.start, block.end)):
                continue
            violations.append(SafetyViolation(
                SafetyViolationKind.UNREACHABLE_CODE, block.start,
                f"basic block {block_index} is unreachable"))

        # A reachable final block whose last instruction is neither an exit
        # nor a jump lets control run past the end of the program — the
        # interpreter faults with InvalidJumpTarget there.  (A conditional
        # jump at the very end has the same problem on its fallthrough
        # outcome; an unconditional jump either targets a valid leader or
        # was already flagged as BAD_JUMP above.)
        final_block = shape.blocks[-1]
        if len(shape.blocks) - 1 in shape.reachable:
            last = instructions[final_block.end - 1]
            if not last.is_exit and not last.is_unconditional_jump:
                violations.append(SafetyViolation(
                    SafetyViolationKind.BAD_JUMP, final_block.end - 1,
                    "control can run past the end of the program"))

        violations.extend(self._dataflow(program, shape, use_memo))
        return AnalysisOutcome(tuple(violations))

    # ------------------------------------------------------------------ #
    def _insn_structure_info(self, insn: Instruction,
                             use_memo: bool = True) -> Tuple:
        """(jump offset | None, unknown-helper, writes-r10, is-exit) for one
        instruction — memoized, since a synthesis trace reuses the same
        (immutable) instruction objects across thousands of programs."""
        info = self._insn_info.get(insn) if use_memo else None
        if info is None:
            jump_off = insn.off if insn.is_jump and not insn.is_call \
                and not insn.is_exit else None
            unknown_helper = insn.is_call and insn.imm not in HELPERS
            writes_r10 = bool(insn.dst == 10 and insn.regs_written()
                              and 10 in insn.regs_written())
            info = (jump_off, unknown_helper, writes_r10, insn.is_exit)
            if use_memo:
                if len(self._insn_info) >= 1 << 16:
                    self._insn_info.clear()
                self._insn_info[insn] = info
        return info

    def _check_structure(self, program: BpfProgram,
                         use_memo: bool = True) -> List[SafetyViolation]:
        violations: List[SafetyViolation] = []
        instructions = program.instructions
        if not instructions:
            return [SafetyViolation(SafetyViolationKind.MALFORMED, None,
                                    "empty program")]
        n = len(instructions)
        has_exit = False
        for index, insn in enumerate(instructions):
            jump_off, unknown_helper, writes_r10, is_exit = \
                self._insn_structure_info(insn, use_memo)
            has_exit = has_exit or is_exit
            if jump_off is not None:
                target = index + 1 + jump_off
                if not 0 <= target < n:
                    violations.append(SafetyViolation(
                        SafetyViolationKind.BAD_JUMP, index,
                        f"jump target {target} outside the program"))
            if unknown_helper:
                violations.append(SafetyViolation(
                    SafetyViolationKind.HELPER_MISUSE, index,
                    f"unknown helper id {insn.imm}"))
            if writes_r10:
                violations.append(SafetyViolation(
                    SafetyViolationKind.READ_ONLY_REGISTER, index,
                    "write to the read-only frame pointer r10"))
        if not has_exit:
            violations.insert(0, SafetyViolation(
                SafetyViolationKind.MALFORMED, None, "no exit instruction"))
        return violations

    # ------------------------------------------------------------------ #
    def _shape_for(self, instructions: Sequence[Instruction],
                   use_memo: bool) -> _CfgShape:
        if not use_memo:
            return _build_shape(instructions)
        key = _shape_key(instructions)
        shape = self._shape_cache.get(key)
        if shape is None:
            shape = _build_shape(instructions)
            self._shape_cache[key] = shape
            if len(self._shape_cache) > self._shape_cache_size:
                self._shape_cache.popitem(last=False)
        else:
            self._shape_cache.move_to_end(key)
        return shape

    # ------------------------------------------------------------------ #
    def _dataflow(self, program: BpfProgram, shape: _CfgShape,
                  use_memo: bool) -> List[SafetyViolation]:
        instructions = program.instructions
        env_sig = insn_sigs = None
        if use_memo:
            content = program.content_key()
            env_sig = (content[1], content[2])  # hook name + map definitions
            insn_sigs = content[0]

        violations: List[SafetyViolation] = []
        entry_states: Dict[int, AnalysisState] = {
            0: AnalysisState.entry(program.hook)}

        for block_index in shape.topo_order:
            if block_index not in shape.reachable:
                continue
            block = shape.blocks[block_index]
            state = entry_states.get(block_index)
            if state is None:
                continue

            summary = None
            memo_key = None
            if use_memo:
                memo_key = (env_sig, insn_sigs[block.start:block.end],
                            state.signature())
                summary = self._block_memo.get(memo_key)
            if summary is None:
                summary = self._analyze_block(program, instructions, block,
                                              state)
                self.blocks_analyzed += 1
                if memo_key is not None:
                    self._block_memo[memo_key] = summary
                    if len(self._block_memo) > self._block_memo_size:
                        self._block_memo.popitem(last=False)
            else:
                self._block_memo.move_to_end(memo_key)
                self.blocks_reused += 1

            if block.start:
                violations.extend(v.rebased(block.start)
                                  for v in summary.violations)
            else:
                violations.extend(summary.violations)

            for successor, kind in block.successors:
                out = summary.out_states[kind]
                existing = entry_states.get(successor)
                entry_states[successor] = out if existing is None \
                    else existing.join(out)
        return violations

    # ------------------------------------------------------------------ #
    def _analyze_block(self, program: BpfProgram,
                       instructions: Sequence[Instruction],
                       block: _ShapeBlock,
                       entry: AnalysisState) -> _BlockSummary:
        state = entry
        violations: List[SafetyViolation] = []
        hook = program.hook
        last_index = block.end - 1

        for index in range(block.start, block.end):
            insn = instructions[index]
            if insn.is_nop:
                continue
            violations.extend(check_instruction(
                program, insn, state, index - block.start,
                self.strict_alignment))
            if index == last_index:
                break
            if insn.is_exit or insn.is_unconditional_jump:
                break
            state = transfer(state, insn, hook)

        return _BlockSummary(violations=tuple(violations),
                             out_states=_edge_states(
                                 state, instructions[last_index], hook))


# --------------------------------------------------------------------------- #
# Per-instruction states (no checks, no memo)
# --------------------------------------------------------------------------- #
def _edge_states(state: AnalysisState, last: Instruction,
                 hook: Hook) -> Dict[str, AnalysisState]:
    """Output state per outgoing edge kind of a block, given the state
    before its last instruction ``last``.

    States are shared, never mutated: :func:`transfer` and
    :func:`refine_branch` work on copies.
    """
    if last.is_exit:
        return {}
    if last.is_conditional_jump:
        taken = refine_branch(state, last, taken=True)
        fall = refine_branch(state, last, taken=False)
        return {"taken": taken, "fall": fall, "both": taken.join(fall)}
    if last.is_unconditional_jump:
        return {"seq": state}
    return {"seq": transfer(state, last, hook)}


def states_before(instructions: Sequence[Instruction],
                  hook: Hook) -> List[Optional[AnalysisState]]:
    """The fused abstract state before each instruction.

    Unreachable instructions get ``None``.  The walk is the safety
    analysis's dataflow (same blocks, transfer, branch refinement and
    joins), so every fact here is one the §6 verdict relied on.  A program
    with a loop is walked once in block order: it is unsafe anyway, and
    callers still get best-effort facts for the blocks reached forward.
    Jump targets must lie inside the program, as for
    :func:`repro.bpf.cfg.build_cfg`.
    """
    states: List[Optional[AnalysisState]] = [None] * len(instructions)
    if not instructions:
        return states
    shape = _build_shape(instructions)
    order = shape.topo_order if shape.topo_order is not None \
        else range(len(shape.blocks))
    entry_states: Dict[int, AnalysisState] = {0: AnalysisState.entry(hook)}
    for block_index in order:
        state = entry_states.get(block_index)
        if state is None:
            continue
        block = shape.blocks[block_index]
        for index in range(block.start, block.end - 1):
            states[index] = state
            state = transfer(state, instructions[index], hook)
        states[block.end - 1] = state
        out_states = _edge_states(state, instructions[block.end - 1], hook)
        for successor, kind in block.successors:
            out = out_states[kind]
            existing = entry_states.get(successor)
            entry_states[successor] = out if existing is None \
                else existing.join(out)
    return states


def pointer_info(insn: Instruction, state: Optional[AnalysisState]
                 ) -> Tuple[MemRegion, Optional[int]]:
    """Region and concrete offset of the memory access ``insn`` makes from
    ``state``; ``(UNKNOWN, None)`` for other instructions and unreachable
    points, and a ``None`` offset when the base offset is unknown."""
    if state is None or not insn.is_memory:
        return MemRegion.UNKNOWN, None
    base = state.regs[insn.src if insn.is_load else insn.dst]
    if base.offset is None:
        return base.region, None
    return base.region, base.offset + insn.off
