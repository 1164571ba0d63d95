"""Full-program and window-based equivalence checking (paper §4, §5).

The :class:`EquivalenceChecker` builds the logic query of §4::

    inputs to program 1 == inputs to program 2
    ∧ input-output behaviour of program 1
    ∧ input-output behaviour of program 2
    ⇒ outputs of program 1 != outputs of program 2

by executing both programs symbolically over *shared* input variables and
asking the solver for an input on which the observable outputs differ.  If
the query is unsatisfiable the programs are equivalent; if it is satisfiable
the model is turned into a concrete counterexample test case that the
synthesizer adds to its test suite (Fig. 1 in the paper).

Observable outputs:

* the return value r0,
* the final contents of every packet byte either program wrote,
* the final contents of every map-value byte either program wrote,
* the sequence of map updates / deletions (compared effect-for-effect),
* the sequence of other helper calls (uninterpreted functions: both programs
  must make the same calls with the same arguments under the same conditions).

Window-based (modular) verification, §5 IV, is provided by
:class:`WindowEquivalenceChecker` in :mod:`repro.equivalence.window`.
"""

from __future__ import annotations

import dataclasses
import time
from typing import List, Optional, Tuple

from ..bpf.program import BpfProgram
from ..interpreter import ProgramInput
from ..smt import (
    CheckResult, Expr, Solver, bool_and, bool_or, bool_xor, bv_ne,
)
from .memory_model import SymbolicInputs, map_congruence_constraints
from .symbolic import ImpreciseEncodingError, SymbolicExecutor, SymbolicResult

__all__ = ["EquivalenceOptions", "EquivalenceResult", "EquivalenceChecker"]

#: Clause-database size at which a checker (this module's and the window
#: checker) retires its incremental solver session and starts a fresh one,
#: which bounds long-run memory.
MAX_SESSION_CLAUSES = 250_000


@dataclasses.dataclass
class EquivalenceOptions:
    """Toggles for the §5 optimizations, exercised by the Table 4 ablation.

    This is the *single* options object for the whole candidate-validation
    path: it is owned by :class:`repro.verification.VerificationPipeline`,
    which hands the same instance to every stage (cache, window checking,
    full symbolic checking).  The three ``stage`` toggles map one-to-one
    onto pipeline stages — see :meth:`stage_names`.
    """

    #: I — separate read/write tables per memory region.
    memory_type_concretization: bool = True
    #: II — per-map two-level tables (always structural in this encoding, but
    #: turning it off widens every lookup to consider every map).
    map_type_concretization: bool = True
    #: III — concrete offsets decided at encoding time.
    memory_offset_concretization: bool = True
    #: IV — modular (window) verification; the pipeline's ``window`` stage.
    modular_verification: bool = True
    #: V — cache of canonicalized programs; the pipeline's ``cache`` stage.
    enable_cache: bool = True
    #: Full-program symbolic equivalence; the pipeline's ``full`` stage.
    #: Disabling it (a Table-4-style ablation) makes the pipeline report
    #: "unknown" for whatever the earlier stages cannot decide.
    full_symbolic: bool = True
    #: Conflict budget handed to the SAT solver per query.
    max_conflicts: int = 2_000_000

    #: Pipeline stage order, mapped to the toggle controlling each stage.
    STAGE_TOGGLES = (("cache", "enable_cache"),
                     ("window", "modular_verification"),
                     ("full", "full_symbolic"))

    def stage_names(self) -> Tuple[str, ...]:
        """The enabled pipeline stages, in escalation order."""
        return tuple(stage for stage, toggle in self.STAGE_TOGGLES
                     if getattr(self, toggle))

    @classmethod
    def from_stages(cls, stages: str, **kwargs) -> "EquivalenceOptions":
        """Build options from a comma-separated stage list.

        ``EquivalenceOptions.from_stages("cache,full")`` is the
        one-line way to express a Table 4 ablation configuration; unknown
        stage names raise ``ValueError``.
        """
        known = {stage: toggle for stage, toggle in cls.STAGE_TOGGLES}
        enabled = [part.strip() for part in stages.split(",") if part.strip()]
        for name in enabled:
            if name not in known:
                raise ValueError(
                    f"unknown verification stage {name!r}; "
                    f"choose from {', '.join(known)}")
        for stage, toggle in cls.STAGE_TOGGLES:
            kwargs.setdefault(toggle, stage in enabled)
        return cls(**kwargs)


@dataclasses.dataclass
class EquivalenceResult:
    """Outcome of one equivalence query."""

    equivalent: bool
    counterexample: Optional[ProgramInput] = None
    unknown: bool = False
    reason: str = ""
    solver_time: float = 0.0
    used_solver: bool = False

    def __bool__(self) -> bool:
        return self.equivalent


class _CheckerSession:
    """Incremental solver state shared by every query against one source.

    The source program's encoding never changes between queries, so its
    symbolic execution is done once and its constraints (plus the input
    well-formedness constraints) are asserted once at the solver's base
    level.  Each candidate query then runs inside one push/pop scope: only
    the candidate's constraints and the "outputs differ" formula are new,
    and the hash-consed bit-blaster re-blasts none of the shared structure.
    """

    def __init__(self, source: BpfProgram, options: EquivalenceOptions):
        self.source_key = source.structural_key()
        self.solver = Solver(max_conflicts=options.max_conflicts)
        self.inputs = SymbolicInputs(source.hook, source.maps)
        self.result1 = SymbolicExecutor(
            self.inputs, "p1",
            concretize_offsets=options.memory_offset_concretization,
        ).execute(source)
        self._base_asserted = False

    def assert_base(self) -> None:
        if self._base_asserted:
            return
        for constraint in self.inputs.constraints():
            self.solver.add(constraint)
        for constraint in self.result1.constraints:
            self.solver.add(constraint)
        self._base_asserted = True


class EquivalenceChecker:
    """Formal input/output equivalence of two BPF programs."""

    def __init__(self, options: Optional[EquivalenceOptions] = None):
        self.options = options or EquivalenceOptions()
        self.num_queries = 0
        self.total_time = 0.0
        self._session: Optional[_CheckerSession] = None

    # ------------------------------------------------------------------ #
    # Incremental session management
    # ------------------------------------------------------------------ #
    def reset_session(self) -> None:
        """Drop the incremental solver state (fresh encoding on next query)."""
        self._session = None

    def __getstate__(self):
        # Solver sessions are rebuilt lazily and can be large; never ship
        # them across process boundaries with a pickled checker.
        state = self.__dict__.copy()
        state["_session"] = None
        return state

    def _session_for(self, source: BpfProgram) -> _CheckerSession:
        session = self._session
        if session is not None and (
                session.source_key != source.structural_key()
                or session.solver.num_clauses > MAX_SESSION_CLAUSES):
            session = None
        if session is None:
            session = _CheckerSession(source, self.options)
            self._session = session
        return session

    # ------------------------------------------------------------------ #
    def check(self, source: BpfProgram, candidate: BpfProgram) -> EquivalenceResult:
        """Decide whether ``candidate`` is equivalent to ``source``."""
        started = time.perf_counter()
        self.num_queries += 1
        try:
            result = self._check_inner(source, candidate)
        except ImpreciseEncodingError as exc:
            result = EquivalenceResult(equivalent=False, unknown=True,
                                       reason=f"imprecise encoding: {exc}")
        except Exception as exc:  # broken candidates (e.g. malformed CFG)
            result = EquivalenceResult(equivalent=False, unknown=True,
                                       reason=f"encoding failed: {exc}")
        result.solver_time = time.perf_counter() - started
        self.total_time += result.solver_time
        return result

    # ------------------------------------------------------------------ #
    def _check_inner(self, source: BpfProgram,
                     candidate: BpfProgram) -> EquivalenceResult:
        if source.structural_key() == candidate.structural_key():
            return EquivalenceResult(equivalent=True, reason="identical programs")

        session = self._session_for(source)
        concretize = self.options.memory_offset_concretization
        result1 = session.result1
        result2 = SymbolicExecutor(session.inputs, "p2",
                                   concretize_offsets=concretize).execute(candidate)

        difference = self._outputs_differ(result1, result2)
        if difference is None:
            return EquivalenceResult(
                equivalent=False, unknown=True,
                reason="observable effects cannot be aligned "
                       "(different helper or map effect structure)")
        if difference.op == "boolconst" and not difference.value:
            return EquivalenceResult(equivalent=True,
                                     reason="outputs syntactically identical")

        session.assert_base()
        solver = session.solver
        token = solver.push()
        try:
            for constraint in result2.constraints:
                solver.add(constraint)
            # Link the two executions' initial map reads semantically (equal
            # keys => equal initial contents); keys read through distinct
            # expressions otherwise get unrelated variables, and the solver
            # fabricates counterexamples for equivalent programs.  Scoped to
            # this query: the candidate's key expressions are new each time.
            reads = (result1.map_model.initial_reads
                     + result2.map_model.initial_reads)
            for constraint in map_congruence_constraints(session.inputs, reads):
                solver.add(constraint)
            solver.add(difference)

            verdict = solver.check()
            if verdict == CheckResult.UNSAT:
                return EquivalenceResult(equivalent=True, used_solver=True,
                                         reason="solver proved equivalence")
            if verdict == CheckResult.SAT:
                counterexample = session.inputs.extract_test_case(solver.model())
                return EquivalenceResult(equivalent=False, used_solver=True,
                                         counterexample=counterexample,
                                         reason="counterexample found")
            return EquivalenceResult(equivalent=False, unknown=True,
                                     used_solver=True,
                                     reason="solver budget exhausted")
        finally:
            solver.pop(token)

    # ------------------------------------------------------------------ #
    # Output comparison
    # ------------------------------------------------------------------ #
    def _outputs_differ(self, a: SymbolicResult,
                        b: SymbolicResult) -> Optional[Expr]:
        """Build the "outputs differ" formula, or None if not alignable."""
        from ..bpf.regions import MemRegion

        differences: List[Expr] = [bv_ne(a.return_value, b.return_value)]

        # Packet memory: compare the final value of every concretely-addressed
        # byte either program wrote.  Writes to symbolic offsets cannot be
        # aligned soundly, so we conservatively refuse.
        mem_a = a.memories.get(MemRegion.PACKET)
        mem_b = b.memories.get(MemRegion.PACKET)
        if (mem_a and mem_a.has_symbolic_writes()) or \
           (mem_b and mem_b.has_symbolic_writes()):
            return None
        offsets = set(mem_a.written_offsets() if mem_a else []) | \
            set(mem_b.written_offsets() if mem_b else [])
        for offset in sorted(offsets):
            final_a = self._packet_final_byte(a, offset)
            final_b = self._packet_final_byte(b, offset)
            differences.append(bv_ne(final_a, final_b))

        # Map value cells: align lookups pairwise (same call order) and
        # compare the final contents of every byte either program wrote.
        map_difference = self._map_value_differences(a, b)
        if map_difference is None:
            return None
        differences.extend(map_difference)

        # Map effects (updates / deletes): compare effect-for-effect.
        effects_a = a.map_model.effects
        effects_b = b.map_model.effects
        if len(effects_a) != len(effects_b):
            return None
        for ea, eb in zip(effects_a, effects_b):
            if ea.kind != eb.kind or ea.map_fd != eb.map_fd:
                return None
            differences.append(bool_xor(ea.condition, eb.condition))
            both = bool_and(ea.condition, eb.condition)
            differences.append(bool_and(both, bv_ne(ea.key, eb.key)))
            if ea.value is not None and eb.value is not None:
                differences.append(bool_and(both, bv_ne(ea.value, eb.value)))

        # Uninterpreted helper calls: same calls, same arguments, same order.
        calls_a = a.helper_calls
        calls_b = b.helper_calls
        if len(calls_a) != len(calls_b):
            return None
        for ca, cb in zip(calls_a, calls_b):
            if ca.name != cb.name or len(ca.args) != len(cb.args):
                return None
            differences.append(bool_xor(ca.condition, cb.condition))
            both = bool_and(ca.condition, cb.condition)
            for arg_a, arg_b in zip(ca.args, cb.args):
                differences.append(bool_and(both, bv_ne(arg_a, arg_b)))

        return bool_or(*differences)

    @staticmethod
    def _packet_final_byte(result: SymbolicResult, offset: int) -> Expr:
        from ..bpf.regions import MemRegion
        from .memory_model import RegionMemory

        memory = result.memories.get(MemRegion.PACKET)
        if memory is None:
            # This program never wrote the byte: its final value is the input.
            memory = RegionMemory(MemRegion.PACKET, result.inputs, "untouched")
        return memory.final_byte(offset)

    def _map_value_differences(self, a: SymbolicResult,
                               b: SymbolicResult) -> Optional[List[Expr]]:
        """Differences in map-value cells written through lookup pointers."""
        from ..bpf.regions import MemRegion
        from ..smt import bv_ite

        lookups_a = a.map_model.lookups
        lookups_b = b.map_model.lookups
        mem_a = a.memories.get(MemRegion.MAP_VALUE)
        mem_b = b.memories.get(MemRegion.MAP_VALUE)
        writes_a = mem_a.writes if mem_a else []
        writes_b = mem_b.writes if mem_b else []
        if not writes_a and not writes_b:
            return []
        if len(lookups_a) != len(lookups_b):
            return None
        if (mem_a and mem_a.has_symbolic_writes()) or \
           (mem_b and mem_b.has_symbolic_writes()):
            return None

        differences: List[Expr] = []
        for la, lb in zip(lookups_a, lookups_b):
            if la.map_fd != lb.map_fd:
                return None
            # Bytes of this cell written by either program (relative offsets).
            offsets_a = {w.concrete_offset - la.address for w in writes_a
                         if la.address <= w.concrete_offset < la.address + 0x1000}
            offsets_b = {w.concrete_offset - lb.address for w in writes_b
                         if lb.address <= w.concrete_offset < lb.address + 0x1000}
            touched = offsets_a | offsets_b
            if not touched:
                continue
            # A written cell is observable, so the two programs must have
            # looked up the same key under the same conditions.
            differences.append(bool_xor(la.condition, lb.condition))
            differences.append(bool_and(la.condition, lb.condition,
                                        bv_ne(la.key, lb.key)))
            for rel in sorted(touched):
                init_a = la.value_bytes[rel] if rel < len(la.value_bytes) else None
                init_b = lb.value_bytes[rel] if rel < len(lb.value_bytes) else None
                if init_a is None or init_b is None:
                    return None
                final_a, final_b = init_a, init_b
                for write in writes_a:
                    if write.concrete_offset == la.address + rel:
                        final_a = bv_ite(write.condition, write.value, final_a)
                for write in writes_b:
                    if write.concrete_offset == lb.address + rel:
                        final_b = bv_ite(write.condition, write.value, final_b)
                differences.append(bv_ne(final_a, final_b))
        return differences
