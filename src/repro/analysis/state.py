"""Abstract machine state for the fused analyzer.

The state holds registers, tracked stack slots, initialized stack bytes
and the verified packet bound as :class:`~repro.analysis.domains.AbsVal`
product values, and is *hashable on demand*: :meth:`AnalysisState.signature` produces the tuple the
incremental analyzer uses to key its per-basic-block memo — two states with
equal signatures produce identical block summaries, which is what makes
block reuse across MCMC proposals sound.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from ..bpf.hooks import Hook
from ..bpf.opcodes import STACK_SIZE
from ..bpf.regions import MemRegion
from .domains import AbsVal

__all__ = ["AnalysisState"]


class AnalysisState:
    """Registers, tracked stack slots and the verified packet bound."""

    __slots__ = ("regs", "stack", "stack_written", "packet_bound")

    def __init__(self, regs: List[AbsVal], stack: Dict[int, AbsVal],
                 stack_written: FrozenSet[int], packet_bound: int):
        self.regs = regs
        self.stack = stack
        self.stack_written = stack_written
        self.packet_bound = packet_bound

    # ------------------------------------------------------------------ #
    @staticmethod
    def entry(hook: Hook) -> "AnalysisState":
        regs = [AbsVal.uninitialized() for _ in range(11)]
        regs[1] = AbsVal.pointer(MemRegion.CTX, offset=0)
        regs[10] = AbsVal.pointer(MemRegion.STACK, offset=STACK_SIZE)
        return AnalysisState(regs=regs, stack={}, stack_written=frozenset(),
                             packet_bound=0)

    def copy(self) -> "AnalysisState":
        return AnalysisState(regs=list(self.regs), stack=dict(self.stack),
                             stack_written=self.stack_written,
                             packet_bound=self.packet_bound)

    # ------------------------------------------------------------------ #
    def join(self, other: "AnalysisState") -> "AnalysisState":
        regs = [a if a == b else a.join(b)
                for a, b in zip(self.regs, other.regs)]
        stack = {slot: self.stack[slot].join(other.stack[slot])
                 for slot in self.stack.keys() & other.stack.keys()}
        return AnalysisState(
            regs=regs, stack=stack,
            stack_written=self.stack_written & other.stack_written,
            packet_bound=min(self.packet_bound, other.packet_bound))

    # ------------------------------------------------------------------ #
    def signature(self) -> Tuple:
        """Hashable identity: equal signatures ⇒ identical analysis behaviour."""
        return (tuple(self.regs),
                tuple(sorted(self.stack.items())),
                self.stack_written,
                self.packet_bound)

    def invalidate_stack_overlap(self, slot: int, width: int) -> None:
        """Drop tracked 8-byte slot values that a store to ``[slot, slot+width)``
        would partially or fully overwrite."""
        if not self.stack:
            return
        dead = [tracked for tracked in self.stack
                if tracked < slot + width and tracked + 8 > slot]
        for tracked in dead:
            del self.stack[tracked]
