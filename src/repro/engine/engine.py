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
accept/reject step, the verification pipeline's replay stage, the perf rig).

:func:`create_engine` builds an engine for the ``--engine
fused|decoded|legacy`` ablation knob; every kind exposes the same ``run`` /
``run_batch`` surface.
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
from ..interpreter.interpreter import DEFAULT_STEP_LIMIT, Interpreter
from ..interpreter.state import PACKET_HEADROOM, ProgramInput, ProgramOutput
from .decode import DecodedProgram, ProgramDecoder
from .fuse import FusedDecoder, FusedProgram
from .machine import ResettableMachine

__all__ = ["ExecutionEngine", "FusedEngine", "create_engine", "ENGINE_KINDS",
           "DEFAULT_ENGINE_KIND"]

#: Engine kinds accepted by :func:`create_engine` and the CLI ``--engine``.
ENGINE_KINDS = ("fused", "decoded", "legacy")
DEFAULT_ENGINE_KIND = "fused"


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

    kind = "decoded"

    #: Decoder factory; the fused subclass swaps in its block compiler.
    _decoder_class = ProgramDecoder

    def __init__(self, step_limit: int = DEFAULT_STEP_LIMIT,
                 opcode_cost_fn: Optional[Callable[[Instruction], float]] = None,
                 strict_uninitialized: bool = True,
                 decode_cache_size: int = 512):
        self.step_limit = step_limit
        self.opcode_cost_fn = opcode_cost_fn
        self.strict_uninitialized = strict_uninitialized
        self._decoder = self._decoder_class(
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
                  stop_on_first_fault: bool = False,
                  expected: Optional[Sequence[ProgramOutput]] = None,
                  expected_observables: Optional[Sequence[tuple]] = None,
                  ) -> List[ProgramOutput]:
        """Execute ``program`` on every test, decoding once.

        With ``stop_on_first_fault`` the batch ends after the first faulting
        output (which is included in the returned list) — callers that only
        need to know *whether* a candidate misbehaves can skip the rest.

        With ``expected`` (reference outputs aligned with ``tests``) the
        batch ends after the first output whose ``observable()`` diverges
        from the reference — the replay stage's first-divergence early
        exit.  The divergent output is included, so a returned list shorter
        than ``tests`` pinpoints the refuting index at ``len(result) - 1``.

        ``expected_observables`` is the same early exit against
        *precomputed* ``ProgramOutput.observable()`` tuples — the replay
        stage derives them once per counterexample-pool refresh instead of
        once per candidate.
        """
        decoded = self.decode(program)
        machine = self._machine_for(program)
        outputs: List[ProgramOutput] = []
        for index, test in enumerate(tests):
            machine.reset(test)
            output = self._execute(decoded, machine)
            outputs.append(output)
            if stop_on_first_fault and output.fault is not None:
                break
            if expected is not None and \
                    output.observable() != expected[index].observable():
                break
            if expected_observables is not None and \
                    output.observable() != expected_observables[index]:
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
        output = ProgramOutput()
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
                        output.return_value = machine.exit_value
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
                        output.return_value = machine.exit_value
                        break
                    pc = next_pc
        except BpfFault as fault:
            output.fault = f"{type(fault).__name__}: {fault}"
            output.return_value = None
        output.steps = steps
        output.estimated_ns = estimated
        output.packet = machine.packet_bytes()
        output.maps = machine.snapshot_maps()
        return output


class FusedEngine(ExecutionEngine):
    """The superinstruction tier: fused blocks plus batched replay.

    Two changes over the decoded engine, both proven bit-identical by the
    differential batteries in ``tests/test_engine_fused.py`` and
    ``tests/test_batch_replay.py``:

    * programs decode to per-basic-block superinstructions
      (:mod:`repro.engine.fuse`) executed by a block-level dispatch loop —
      one Python call per *block* instead of one per instruction;
    * :meth:`run_batch` rewinds the machine from cached per-test reset
      images (the packet/ctx row matrix built by
      :meth:`~repro.engine.machine.ResettableMachine.reset_images`) instead
      of re-deriving ctx fields and replaying map contents on every run.

    Programs whose static jump structure the CFG builder rejects fall back
    to decoded per-instruction execution inside the fusing decoder, so the
    engine accepts exactly the programs the other engines accept.

    ``promote_after`` tunes the decoder's tiered promotion: a program
    executes through the decoded tier until its ``content_key`` has been
    decoded that many times, and only then pays block-trace compilation.
    Synthesis churn (every proposal is a new content key, most die after
    one replay) stays on the cheap tier; survivors get fused throughput.
    Pass ``1`` to compile eagerly (the pre-promotion behaviour).
    """

    kind = "fused"
    _decoder_class = FusedDecoder

    def __init__(self, step_limit: int = DEFAULT_STEP_LIMIT,
                 opcode_cost_fn: Optional[Callable[[Instruction], float]] = None,
                 strict_uninitialized: bool = True,
                 decode_cache_size: int = 512,
                 promote_after: Optional[int] = None):
        super().__init__(step_limit=step_limit,
                         opcode_cost_fn=opcode_cost_fn,
                         strict_uninitialized=strict_uninitialized,
                         decode_cache_size=decode_cache_size)
        if promote_after is not None:
            self._decoder.promote_after = promote_after

    def __getstate__(self):
        state = super().__getstate__()
        state["promote_after"] = self._decoder.promote_after
        return state

    def run_batch(self, program: BpfProgram, tests: Sequence[ProgramInput],
                  stop_on_first_fault: bool = False,
                  expected: Optional[Sequence[ProgramOutput]] = None,
                  expected_observables: Optional[Sequence[tuple]] = None,
                  ) -> List[ProgramOutput]:
        decoded = self.decode(program)
        machine = self._machine_for(program)
        images = machine.reset_images(tests)
        outputs: List[ProgramOutput] = []
        for index, image in enumerate(images):
            machine.reset_from_image(image)
            output = self._execute(decoded, machine)
            outputs.append(output)
            if stop_on_first_fault and output.fault is not None:
                break
            if expected is not None and \
                    output.observable() != expected[index].observable():
                break
            if expected_observables is not None and \
                    output.observable() != expected_observables[index]:
                break
        return outputs

    def _execute(self, decoded, machine: ResettableMachine) -> ProgramOutput:
        if not isinstance(decoded, FusedProgram):
            # CfgError fallback: per-instruction decoded execution.
            return super()._execute(decoded, machine)
        handlers = decoded.handlers
        num_insns = decoded.num_insns
        limit = self.step_limit
        estimated = 0.0
        steps = 0
        pc = 0
        return_value = None
        fault_text = None
        self.runs += 1
        try:
            while True:
                if not 0 <= pc < num_insns:
                    # Mirror the legacy loop's fault precedence exactly:
                    # the step-limit check runs before the pc-bounds check
                    # on every iteration.
                    machine.fused_steps = steps
                    machine.fused_est = estimated
                    if steps >= limit:
                        raise InstructionLimitExceeded(
                            f"exceeded {limit} steps", pc)
                    raise InvalidJumpTarget(f"pc {pc} outside program", pc)
                pc, steps, estimated = handlers[pc](
                    machine, steps, limit, estimated)
                if pc is None:
                    return_value = machine.exit_value
                    break
        except BpfFault as fault:
            fault_text = f"{type(fault).__name__}: {fault}"
            # The loop locals are stale when a block raised mid-flight; the
            # block (or the bounds check above) spilled exact progress.
            steps = machine.fused_steps
            estimated = machine.fused_est
        # Untouched packet: serve the image's captured packet output (equal
        # bytes; the flag is set by every packet byte-write path and the
        # extent compare catches adjust_head/adjust_tail).
        packet = machine._image_packet_out
        if (packet is None or machine.packet_dirty
                or machine.packet_start != PACKET_HEADROOM
                or machine.packet_end != machine._image_packet_end):
            packet = machine.packet_bytes()
        return ProgramOutput(return_value, packet,
                             machine.snapshot_maps_dirty(), fault_text,
                             steps, estimated)


def create_engine(kind: Optional[str] = None,
                  step_limit: int = DEFAULT_STEP_LIMIT,
                  opcode_cost_fn: Optional[Callable[[Instruction], float]] = None,
                  strict_uninitialized: bool = True,
                  decode_cache_size: int = 512):
    """Build an execution engine for the ``--engine fused|decoded|legacy``
    knob.

    ``None`` selects :data:`DEFAULT_ENGINE_KIND`, the fused engine;
    ``"decoded"`` and ``"legacy"`` remain as ablation baselines (the
    throughput bench gates each tier against the one below).
    """
    if kind is None:
        kind = DEFAULT_ENGINE_KIND
    if kind == "fused":
        return FusedEngine(step_limit=step_limit,
                           opcode_cost_fn=opcode_cost_fn,
                           strict_uninitialized=strict_uninitialized,
                           decode_cache_size=decode_cache_size)
    if kind == "decoded":
        return ExecutionEngine(step_limit=step_limit,
                               opcode_cost_fn=opcode_cost_fn,
                               strict_uninitialized=strict_uninitialized,
                               decode_cache_size=decode_cache_size)
    if kind == "legacy":
        return Interpreter(step_limit=step_limit,
                           opcode_cost_fn=opcode_cost_fn,
                           strict_uninitialized=strict_uninitialized)
    raise ValueError(
        f"unknown engine kind {kind!r}; choose from {ENGINE_KINDS}")
