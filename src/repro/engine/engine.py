"""The decode-once batched execution engine.

:class:`ExecutionEngine` is the hot-loop replacement for the legacy
:class:`~repro.interpreter.Interpreter`.  It factors one execution into the
three costs the legacy interpreter pays on *every step* and hoists two of
them out of the loop:

* **dispatch** — resolved once per instruction at decode time
  (:mod:`repro.engine.decode`), cached across proposals;
* **state setup** — machine buffers allocated once and rewound in place
  between runs (:mod:`repro.engine.machine`);
* **semantics** — shared with the legacy interpreter through
  :mod:`repro.semantics`, so outputs are bit-identical.

``run(program, test)`` matches ``Interpreter.run`` exactly;
``run_batch(program, tests)`` amortizes the decode and machine setup over a
whole test suite, which is the shape of every hot-loop consumer (the MCMC
accept/reject step, the perf rig).
It also rewinds the machine from cached per-test reset images, and a run
that never touched the packet returns its image's packet bytes.

Every search, test suite and perf rig builds an :class:`ExecutionEngine`.  It and the legacy interpreter expose the same
``run`` / ``run_batch`` surface, so either can be passed wherever an engine
instance is accepted.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from ..bpf.instruction import Instruction
from ..bpf.program import BpfProgram
from ..interpreter.errors import (
    BpfFault,
    InstructionLimitExceeded,
    InvalidJumpTarget,
)
from ..interpreter.interpreter import DEFAULT_STEP_LIMIT, StopPredicate
from ..interpreter.state import PACKET_HEADROOM, ProgramInput, ProgramOutput
from .decode import DecodedProgram, ProgramDecoder
from .machine import ResettableMachine

__all__ = ["ExecutionEngine"]


class ExecutionEngine:
    """Executes BPF programs through pre-decoded micro-ops.

    Drop-in compatible with :class:`~repro.interpreter.Interpreter` (same
    constructor semantics, same ``run`` contract, bit-identical outputs) but
    designed to be *long-lived*: one engine per hot-loop consumer, so its
    decode cache and reusable machine state persist across the thousands of
    candidate executions of a synthesis run.

    Args:
        step_limit: dynamic instruction budget per run.
        opcode_cost_fn: optional per-instruction cost model; evaluated once
            per instruction at decode time (not once per executed step) and
            accumulated into ``ProgramOutput.estimated_ns`` in execution
            order, so totals match the legacy interpreter bit-for-bit.
        strict_uninitialized: fault on reads of uninitialized registers or
            stack bytes (compiled into the micro-ops).
        decode_cache_size: LRU capacity of the whole-program decode cache.
    """

    def __init__(self, step_limit: int = DEFAULT_STEP_LIMIT,
                 opcode_cost_fn: Optional[Callable[[Instruction], float]] = None,
                 strict_uninitialized: bool = True,
                 decode_cache_size: int = 512):
        self.step_limit = step_limit
        self.opcode_cost_fn = opcode_cost_fn
        self.strict_uninitialized = strict_uninitialized
        self._decoder = ProgramDecoder(
            strict_uninitialized=strict_uninitialized,
            opcode_cost_fn=opcode_cost_fn,
            cache_size=decode_cache_size)
        self._machine: Optional[ResettableMachine] = None
        self.runs = 0

    # ------------------------------------------------------------------ #
    # Pickling: engines travel inside MarkovChain work units to process
    # pools.  Micro-ops are closures (unpicklable) and the machine is pure
    # scratch, so only the configuration crosses the boundary; caches
    # rebuild lazily on the other side.
    # ------------------------------------------------------------------ #
    def __getstate__(self):
        return {"step_limit": self.step_limit,
                "opcode_cost_fn": self.opcode_cost_fn,
                "strict_uninitialized": self.strict_uninitialized,
                "decode_cache_size": self._decoder.cache_size}

    def __setstate__(self, state):
        self.__init__(**state)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def decode(self, program: BpfProgram) -> DecodedProgram:
        """Decode ``program`` (or fetch it from the LRU decode cache)."""
        return self._decoder.decode(program)

    def run(self, program: BpfProgram, test: ProgramInput) -> ProgramOutput:
        """Execute ``program`` on ``test``; faults are reported, not raised."""
        decoded = self.decode(program)
        machine = self._machine_for(program)
        machine.reset(test)
        return self._execute(decoded, machine)

    def run_batch(self, program: BpfProgram, tests: Sequence[ProgramInput],
                  stop: Optional[StopPredicate] = None,
                  ) -> List[ProgramOutput]:
        """Execute ``program`` on every test, decoding once.

        ``stop(index, output)`` is the batch's one early exit: it is called
        after each test, and the batch ends as soon as it returns true.  The
        output it was called with is included, so a returned list shorter
        than ``tests`` ends at the output that stopped it: the MCMC step
        stops once its Metropolis-Hastings step is already lost, and a
        first-divergence stop leaves the refuting test at ``result[-1]``.

        Each test rewinds the machine from its cached reset image, built
        the first time the loop reaches that test object.
        """
        decoded = self.decode(program)
        machine = self._machine_for(program)
        outputs: List[ProgramOutput] = []
        for index, test in enumerate(tests):
            machine.reset_cached(test)
            output = self._execute(decoded, machine)
            outputs.append(output)
            if stop is not None and stop(index, output):
                break
        return outputs

    def stats(self) -> dict:
        """Decode-cache and run counters (benchmark / diagnostic surface)."""
        summary = self._decoder.stats()
        summary["runs"] = self.runs
        return summary

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _machine_for(self, program: BpfProgram) -> ResettableMachine:
        machine = self._machine
        # Identity checks catch a different hook/environment; the definition
        # comparison catches in-place mutation of a shared MapEnvironment
        # (MapEnvironment.add after this engine's first run).
        if (machine is None or machine.hook is not program.hook
                or machine.maps_env is not program.maps
                or machine.map_defs != tuple(program.maps.definitions())):
            machine = ResettableMachine(program.hook, program.maps)
            self._machine = machine
        return machine

    def _execute(self, decoded: DecodedProgram,
                 machine: ResettableMachine) -> ProgramOutput:
        ops = decoded.ops
        costs = decoded.costs
        num_insns = len(ops)
        limit = self.step_limit
        return_value = None
        fault_text = None
        estimated = 0.0
        steps = 0
        pc = 0
        self.runs += 1
        try:
            if costs is None:
                while True:
                    if steps >= limit:
                        raise InstructionLimitExceeded(
                            f"exceeded {limit} steps", pc)
                    if not 0 <= pc < num_insns:
                        raise InvalidJumpTarget(f"pc {pc} outside program", pc)
                    steps += 1
                    next_pc = ops[pc](machine, pc)
                    if next_pc is None:
                        return_value = machine.exit_value
                        break
                    pc = next_pc
            else:
                while True:
                    if steps >= limit:
                        raise InstructionLimitExceeded(
                            f"exceeded {limit} steps", pc)
                    if not 0 <= pc < num_insns:
                        raise InvalidJumpTarget(f"pc {pc} outside program", pc)
                    steps += 1
                    estimated += costs[pc]
                    next_pc = ops[pc](machine, pc)
                    if next_pc is None:
                        return_value = machine.exit_value
                        break
                    pc = next_pc
        except BpfFault as fault:
            fault_text = f"{type(fault).__name__}: {fault}"
        # Untouched packet: serve the reset image's captured packet output
        # (equal bytes; every packet byte-write path sets the flag and the
        # extent compare catches adjust_head/adjust_tail).
        packet = machine._image_packet_out
        if (packet is None or machine.packet_dirty
                or machine.packet_start != PACKET_HEADROOM
                or machine.packet_end != machine._image_packet_end):
            packet = machine.packet_bytes()
        return ProgramOutput(return_value, packet,
                             machine.snapshot_maps_dirty(), fault_text,
                             steps, estimated)
