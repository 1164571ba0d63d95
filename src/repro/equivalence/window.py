"""Modular (window-based) verification — paper §5 optimization IV, Appendix C.2.

Instead of verifying equivalence of whole programs, K2 synthesizes rewrites
inside small *windows* and verifies each window under:

* a **stronger precondition** than a peephole optimizer: the registers live
  into the window are shared symbolic variables, and registers whose value
  the static analysis proves constant at the window entry are constrained to
  those constants (the "inferred concrete valuations" of the paper);
* a **weaker postcondition**: only the variables live out of the window (and
  the memory/map effects inside it) must agree.

The window verification condition is::

    variables live into window 1 == variables live into window 2
    ∧ inferred concrete valuations of variables
    ∧ input-output behaviour of window 1
    ∧ input-output behaviour of window 2
    ⇒ variables live out of window 1 != variables live out of window 2
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis import AnalysisState, pointer_info, states_before
from ..bpf import builders
from ..bpf.instruction import Instruction
from ..bpf.liveness import compute_liveness
from ..bpf.opcodes import STACK_SIZE
from ..bpf.program import BpfProgram
from ..bpf.regions import MemRegion
from ..smt import (
    CheckResult, Expr, Solver, bool_or, bv_add, bv_const, bv_eq, bv_ne, bv_var,
)
from .checker import (
    MAX_SESSION_CLAUSES, EquivalenceOptions, EquivalenceResult,
)
from .memory_model import SymbolicInputs
from .symbolic import ImpreciseEncodingError, SymbolicExecutor

__all__ = ["Window", "WindowEquivalenceChecker", "live_stack_offsets",
           "select_windows"]


@dataclasses.dataclass(frozen=True)
class Window:
    """A contiguous instruction range ``[start, end)`` inside a program."""

    start: int
    end: int

    def __len__(self) -> int:
        return self.end - self.start


def select_windows(program: BpfProgram, max_size: int = 4) -> List[Window]:
    """Straight-line windows of at most ``max_size`` instructions.

    Windows never contain branches, calls or exits, so the window body is a
    basic-block fragment; this mirrors K2's choice of windows among basic
    blocks of bounded size.
    """
    windows: List[Window] = []
    start: Optional[int] = None
    for index, insn in enumerate(program.instructions):
        breaks = (insn.is_branch or insn.is_call or insn.is_exit) and not insn.is_nop
        if breaks:
            if start is not None and index - start >= 1:
                windows.append(Window(start, index))
            start = None
            continue
        if start is None:
            start = index
        if index - start + 1 == max_size:
            windows.append(Window(start, index + 1))
            start = None
    if start is not None and len(program.instructions) - start >= 1:
        windows.append(Window(start, len(program.instructions)))
    return windows


class _WindowSession:
    """Incremental solver state shared by the window queries of one source.

    Window queries against the same source share: the symbolic inputs, the
    input well-formedness constraints (asserted once at the solver's base
    level), the source's abstract state before every instruction (one
    fused-analysis walk) and — per window — the entry registers and the
    source window's symbolic execution.  Each query's candidate-side
    constraints and postcondition live in one push/pop scope, so the
    bit-blasted CNF and the clauses learned from one candidate prune the
    next.
    """

    def __init__(self, source: BpfProgram, options: EquivalenceOptions):
        self.source_key = source.structural_key()
        self.solver = Solver(max_conflicts=options.max_conflicts)
        self.inputs = SymbolicInputs(source.hook, source.maps)
        self.liveness = compute_liveness(source.instructions)
        self.states = states_before(source.instructions, source.hook)
        self._base_asserted = False
        #: (start, end) -> (entry registers, preconditions, source result).
        self.windows: Dict[Tuple[int, int], tuple] = {}
        #: (start, end) -> live stack offsets (or None for "all").
        self.live_stack: Dict[Tuple[int, int], Optional[set]] = {}

    def assert_base(self) -> None:
        if self._base_asserted:
            return
        for constraint in self.inputs.constraints():
            self.solver.add(constraint)
        self._base_asserted = True


class WindowEquivalenceChecker:
    """Equivalence of two programs that differ only inside one window."""

    def __init__(self, options: Optional[EquivalenceOptions] = None):
        self.options = options or EquivalenceOptions()
        self.num_queries = 0
        self._session: Optional[_WindowSession] = None

    # ------------------------------------------------------------------ #
    # Incremental session management
    # ------------------------------------------------------------------ #
    def reset_session(self) -> None:
        """Drop the incremental solver state (fresh encoding on next query)."""
        self._session = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_session"] = None
        return state

    def _session_for(self, source: BpfProgram) -> _WindowSession:
        session = self._session
        if session is not None and (
                session.source_key != source.structural_key()
                or session.solver.num_clauses > MAX_SESSION_CLAUSES):
            session = None
        if session is None:
            session = _WindowSession(source, self.options)
            self._session = session
        return session

    # ------------------------------------------------------------------ #
    def check(self, source: BpfProgram, candidate: BpfProgram,
              window: Window) -> EquivalenceResult:
        """Window verification; falls back to "unknown" when not applicable."""
        self.num_queries += 1
        if len(source.instructions) != len(candidate.instructions):
            return EquivalenceResult(equivalent=False, unknown=True,
                                     reason="programs have different lengths")
        for index in range(len(source.instructions)):
            if window.start <= index < window.end:
                continue
            if source.instructions[index] != candidate.instructions[index]:
                return EquivalenceResult(
                    equivalent=False, unknown=True,
                    reason="programs differ outside the window")

        try:
            return self._check_window(source, candidate, window)
        except ImpreciseEncodingError as exc:
            return EquivalenceResult(equivalent=False, unknown=True,
                                     reason=f"imprecise window encoding: {exc}")
        except Exception as exc:  # broken candidates (e.g. malformed CFG)
            return EquivalenceResult(equivalent=False, unknown=True,
                                     reason=f"window encoding failed: {exc}")

    # ------------------------------------------------------------------ #
    def _window_program(self, program: BpfProgram,
                        window: Window) -> BpfProgram:
        body = list(program.instructions[window.start:window.end])
        for insn in body:
            if (insn.is_branch or insn.is_call) and not insn.is_nop:
                raise ImpreciseEncodingError(
                    "window contains control flow or helper calls")
        body.append(builders.EXIT_INSN())
        return program.with_instructions(body, name=f"{program.name}_window")

    @staticmethod
    def _entry_registers(inputs: SymbolicInputs,
                         state: Optional[AnalysisState]
                         ) -> Tuple[Dict[int, Expr], List[Expr]]:
        """Shared live-in register variables plus precondition constraints."""
        registers: Dict[int, Expr] = {}
        preconditions: List[Expr] = []
        for reg in range(10):  # r10 keeps its standard value
            variable = bv_var(f"livein_r{reg}", 64)
            value = state.regs[reg] if state is not None else None
            if value is None:
                registers[reg] = variable
                continue
            if value.region == MemRegion.STACK and value.offset is not None:
                registers[reg] = bv_add(inputs.stack_base,
                                        bv_const(value.offset, 64))
            elif value.region == MemRegion.PACKET and value.offset is not None:
                registers[reg] = bv_add(inputs.pkt_base,
                                        bv_const(value.offset, 64))
            elif value.region == MemRegion.CTX and value.offset is not None:
                registers[reg] = bv_add(inputs.ctx_base,
                                        bv_const(value.offset, 64))
            elif value.region == MemRegion.SCALAR and value.const is not None:
                # Inferred concrete valuation: a strong precondition (§5 IV).
                registers[reg] = variable
                preconditions.append(bv_eq(variable, bv_const(value.const, 64)))
            else:
                registers[reg] = variable
        return registers, preconditions

    def _check_window(self, source: BpfProgram, candidate: BpfProgram,
                      window: Window) -> EquivalenceResult:
        session = self._session_for(source)
        inputs = session.inputs

        window_key = (window.start, window.end)
        cached = session.windows.get(window_key)
        if cached is None:
            entry, preconditions = self._entry_registers(
                inputs, session.states[window.start])
            source_window = self._window_program(source, window)
            result1 = SymbolicExecutor(inputs, "p1").execute(
                source_window, entry_registers=dict(entry))
            cached = (entry, preconditions, result1)
            session.windows[window_key] = cached
        entry, preconditions, result1 = cached

        candidate_window = self._window_program(candidate, window)
        result2 = SymbolicExecutor(inputs, "p2").execute(
            candidate_window, entry_registers=dict(entry))

        # Postcondition: live-out registers of the source program, plus all
        # memory stores performed inside the window.
        liveness = session.liveness
        live_out = liveness.live_out_at(window.end - 1) if window.end > 0 else frozenset()

        differences: List[Expr] = []
        for reg in sorted(live_out):
            differences.append(bv_ne(result1.final_registers[reg],
                                     result2.final_registers[reg]))

        if window_key in session.live_stack:
            live_stack = session.live_stack[window_key]
        else:
            live_stack = live_stack_offsets(source.instructions,
                                            session.states, window.end)
            session.live_stack[window_key] = live_stack
        for region in (MemRegion.STACK, MemRegion.PACKET, MemRegion.MAP_VALUE):
            mem1 = result1.memories.get(region)
            mem2 = result2.memories.get(region)
            if mem1 is None and mem2 is None:
                continue
            if (mem1 and mem1.has_symbolic_writes()) or \
               (mem2 and mem2.has_symbolic_writes()):
                return EquivalenceResult(equivalent=False, unknown=True,
                                         reason="symbolic store inside window")
            offsets = set(mem1.written_offsets() if mem1 else []) | \
                set(mem2.written_offsets() if mem2 else [])
            if region == MemRegion.STACK and live_stack is not None:
                # Weaker postcondition (§5 IV): stack bytes never read after
                # the window are not observable and need not match.
                offsets &= live_stack
            for offset in sorted(offsets):
                final1 = (mem1.final_byte(offset) if mem1
                          else self._untouched_byte(inputs, region, offset, result1))
                final2 = (mem2.final_byte(offset) if mem2
                          else self._untouched_byte(inputs, region, offset, result2))
                differences.append(bv_ne(final1, final2))

        if not differences:
            return EquivalenceResult(equivalent=True,
                                     reason="windows have no live outputs")

        difference = bool_or(*differences)
        if difference.op == "boolconst":
            if difference.value:
                return EquivalenceResult(equivalent=False,
                                         reason="window outputs trivially differ")
            return EquivalenceResult(equivalent=True,
                                     reason="window outputs syntactically identical")

        session.assert_base()
        solver = session.solver
        token = solver.push()
        try:
            # Preconditions bind the shared live-in variables to this
            # window's inferred valuations, so they are scoped per query.
            for constraint in preconditions:
                solver.add(constraint)
            for constraint in result1.constraints:
                solver.add(constraint)
            for constraint in result2.constraints:
                solver.add(constraint)
            solver.add(difference)

            verdict = solver.check()
            if verdict == CheckResult.UNSAT:
                return EquivalenceResult(equivalent=True, used_solver=True,
                                         reason="window proved equivalent")
            if verdict == CheckResult.SAT:
                return EquivalenceResult(equivalent=False, used_solver=True,
                                         reason="window counterexample found")
            return EquivalenceResult(equivalent=False, unknown=True,
                                     used_solver=True,
                                     reason="solver budget exhausted")
        finally:
            solver.pop(token)

    @staticmethod
    def _untouched_byte(inputs: SymbolicInputs, region: MemRegion, offset: int,
                        result) -> Expr:
        from .memory_model import RegionMemory

        memory = RegionMemory(region, inputs, "untouched")
        return memory.final_byte(offset)


def live_stack_offsets(instructions: Sequence[Instruction],
                       states: Sequence[Optional[AnalysisState]],
                       end: int) -> Optional[set]:
    """Stack byte offsets that may be read at or after ``end`` (may-live).

    ``states`` are the program's per-instruction abstract states
    (:func:`repro.analysis.states_before`).  This is a conservative
    liveness analysis with kill tracking: a byte overwritten on the
    straight-line path starting at ``end`` (before any control-flow
    divergence) is dead there even if it is read later.  Returns ``None``
    when a later stack read cannot be bounded to a concrete offset, in
    which case every stack byte must be compared.
    """
    jump_targets = set()
    for index, insn in enumerate(instructions):
        if insn.is_jump and not insn.is_call and not insn.is_exit \
                and not insn.is_nop:
            jump_targets.add(index + 1 + insn.off)

    live: set = set()
    killed: set = set()
    tracking_kills = True
    for index in range(end, len(instructions)):
        insn = instructions[index]
        if index in jump_targets or (insn.is_branch and not insn.is_nop):
            # Control flow may diverge or merge here: stop treating later
            # stores as kills (they may not execute on every path).
            tracking_kills = False
        if insn.is_call:
            # Helper calls read memory through pointer arguments (e.g.
            # map keys built on the stack): every byte not already
            # overwritten may be observed.
            live.update(set(range(STACK_SIZE)) - killed)
            continue
        if insn.is_store or insn.is_xadd:
            region, offset = pointer_info(insn, states[index])
            if region == MemRegion.STACK and offset is not None:
                span = range(offset, offset + insn.access_bytes)
                if insn.is_xadd:
                    live.update(set(span) - killed)  # xadd also reads
                elif tracking_kills:
                    killed.update(span)
            continue
        if insn.is_load:
            region, offset = pointer_info(insn, states[index])
            if region != MemRegion.STACK:
                continue
            if offset is None:
                return None
            live.update(set(range(offset, offset + insn.access_bytes))
                        - killed)
    return live
