"""The K2 compiler: the library's primary public entry point.

``K2Compiler`` consumes a BPF program (bytecode built with the
:mod:`repro.bpf` builders, assembled from text, or decoded from the kernel's
binary format) and produces a safe, formally-equivalent, more compact or
faster drop-in replacement, exactly as described in §2.3 of the paper.

Typical usage::

    from repro.bpf import BpfProgram, HookType, assemble
    from repro.core import K2Compiler, OptimizationGoal

    program = BpfProgram.create(assemble(source_text), HookType.XDP)
    compiler = K2Compiler(goal=OptimizationGoal.INSTRUCTION_COUNT)
    result = compiler.optimize(program)
    print(result.summary())
    optimized = result.optimized        # a BpfProgram, drop-in replacement
"""

from __future__ import annotations

import dataclasses
import warnings
from typing import List, Optional

from ..bpf.encoder import decode_program, encode_program
from ..bpf.hooks import HookType
from ..bpf.maps import MapEnvironment
from ..bpf.program import BpfProgram
from ..engine import DEFAULT_ENGINE_KIND
from ..equivalence import EquivalenceOptions
from ..perf.latency_model import DEFAULT_LATENCY_MODEL
from ..synthesis.cost import PerformanceGoal
from ..synthesis.params import ParameterSetting
from ..synthesis.search import SearchOptions, SearchResult, Synthesizer
from ..verification import summarize_verification_stats
from ..verifier import KernelChecker, KernelCheckerVerdict

__all__ = ["OptimizationGoal", "CompilationResult", "K2Compiler"]

#: Re-export with a friendlier name for library users.
OptimizationGoal = PerformanceGoal


@dataclasses.dataclass
class CompilationResult:
    """The outcome of one ``K2Compiler.optimize`` invocation."""

    source: BpfProgram
    optimized: BpfProgram
    search: SearchResult
    kernel_checker_verdict: KernelCheckerVerdict

    # ------------------------------------------------------------------ #
    @property
    def improved(self) -> bool:
        return self.search.best is not None and (
            self.optimized.num_real_instructions
            < self.source.num_real_instructions
            or self.estimated_latency_gain > 0)

    @property
    def instruction_reduction(self) -> int:
        return (self.source.num_real_instructions
                - self.optimized.num_real_instructions)

    @property
    def compression_percent(self) -> float:
        original = self.source.num_real_instructions
        return 100.0 * self.instruction_reduction / original if original else 0.0

    @property
    def estimated_latency_gain(self) -> float:
        return (DEFAULT_LATENCY_MODEL.program_cost(self.source)
                - DEFAULT_LATENCY_MODEL.program_cost(self.optimized))

    @property
    def estimated_latency_gain_percent(self) -> float:
        base = DEFAULT_LATENCY_MODEL.program_cost(self.source)
        return 100.0 * self.estimated_latency_gain / base if base else 0.0

    def to_bytes(self) -> bytes:
        """The optimized program in the kernel's binary instruction format."""
        return encode_program(self.optimized.instructions)

    def summary(self) -> str:
        lines = [
            f"program:       {self.source.name}",
            f"instructions:  {self.source.num_real_instructions} -> "
            f"{self.optimized.num_real_instructions} "
            f"({self.compression_percent:.2f}% smaller)",
            f"est. latency:  {DEFAULT_LATENCY_MODEL.program_cost(self.source):.1f}ns -> "
            f"{DEFAULT_LATENCY_MODEL.program_cost(self.optimized):.1f}ns",
            f"kernel check:  {'accepted' if self.kernel_checker_verdict else 'REJECTED'}",
            f"search:        {self.search.total_iterations()} iterations, "
            f"{self.search.elapsed_seconds:.1f}s "
            f"({len(self.search.chain_results)} chains, "
            f"{self.search.executor_used} executor)",
        ]
        cache = self.search.cache_stats
        if cache:
            lines.append(
                f"eq-cache:      {cache['hits']:.0f} hits / "
                f"{cache['misses']:.0f} misses "
                f"({100.0 * cache['hit_rate']:.0f}% hit rate, "
                f"{cache['cross_chain_hits']:.0f} cross-chain), "
                f"{self.search.counterexamples_shared} counterexamples shared")
        verification = self.search.verification_stats
        if verification:
            lines.append(
                f"verify:        {summarize_verification_stats(verification)}")
        store = self.search.store_stats
        if store:
            lines.append(
                f"store:         {store['path']}: "
                f"{store['preseeded_verdicts']} verdicts + "
                f"{store['preseeded_analysis']} memos preseeded "
                f"({self.search.cache_stats.get('store_hits', 0):.0f} "
                f"cross-run hits), "
                f"{store['flushed_records']} records flushed")
        windows = self.search.window_stats
        if windows:
            adopted = [w for w in windows if w.adopted]
            removed = sum(w.insns_removed for w in adopted)
            if self.search.stitch_verified is None:
                stitch = "unchanged"
            elif not self.search.stitch_verified:
                stitch = "proof FAILED (fell back to source)"
            elif self.search.best is None:
                stitch = "verified, kernel-checker REJECTED " \
                         "(fell back to source)"
            else:
                stitch = "verified"
            lines.append(
                f"windows:       {len(windows)} planned, "
                f"{len(adopted)} adopted, {removed} insns removed, "
                f"stitch {stitch}")
        return "\n".join(lines)


class K2Compiler:
    """Program-synthesis-based optimizing compiler for BPF bytecode."""

    def __init__(self, goal: OptimizationGoal = OptimizationGoal.INSTRUCTION_COUNT,
                 iterations_per_chain: int = 2000,
                 num_parameter_settings: int = 4,
                 top_k: Optional[int] = None,
                 seed: int = 0,
                 time_budget_seconds: Optional[float] = None,
                 num_workers: int = 1,
                 executor: str = "auto",
                 sync_interval: Optional[int] = None,
                 verify_stages: Optional[str] = None,
                 equivalence: Optional[EquivalenceOptions] = None,
                 engine: str = DEFAULT_ENGINE_KIND,
                 portfolio: bool = False,
                 windowed: bool = False,
                 window_size: int = 24,
                 window_overlap: int = 8,
                 store: Optional[str] = None,
                 conflict_budget: Optional[int] = None,
                 options: Optional[SearchOptions] = None):
        if options is not None and (verify_stages is not None
                                    or equivalence is not None or portfolio
                                    or conflict_budget is not None):
            raise ValueError("an explicit SearchOptions already carries its "
                             "EquivalenceOptions; do not combine options with "
                             "verify_stages/equivalence/portfolio")
        if options is not None and (windowed or window_size != 24
                                    or window_overlap != 8):
            raise ValueError("an explicit SearchOptions already carries its "
                             "window_mode/window_size/window_overlap; set "
                             "them on the SearchOptions instead of the "
                             "windowed/window_* kwargs")
        if options is not None and store is not None:
            raise ValueError("an explicit SearchOptions already carries its "
                             "store_path; set it on the SearchOptions "
                             "instead of the store kwarg")
        if options is None:
            # One-release deprecation shim: the keyword sprawl still works,
            # but the stable spelling is a typed ``repro.api.K2Config``
            # (``K2Config(...).compiler()`` or ``repro.api.optimize``).
            warnings.warn(
                "K2Compiler(goal=..., iterations_per_chain=..., ...) is "
                "deprecated; build a repro.api.K2Config and use "
                "repro.api.optimize() (or K2Config.compiler()) instead",
                DeprecationWarning, stacklevel=2)
            if equivalence is None:
                equivalence = EquivalenceOptions.from_stages(verify_stages) \
                    if verify_stages is not None else EquivalenceOptions()
            elif verify_stages is not None:
                raise ValueError(
                    "pass either verify_stages or equivalence, not both")
            if portfolio:
                equivalence.portfolio = True
            if conflict_budget is not None:
                # Per-query solver deadline (Solver.set_conflict_budget): a
                # hung SMT query degrades to `unknown` instead of stalling.
                if conflict_budget <= 0:
                    raise ValueError("conflict_budget must be positive")
                equivalence = dataclasses.replace(
                    equivalence, max_conflicts=int(conflict_budget))
            options = SearchOptions(
                goal=goal,
                iterations_per_chain=iterations_per_chain,
                num_parameter_settings=num_parameter_settings,
                top_k=top_k if top_k is not None else (
                    1 if goal == OptimizationGoal.INSTRUCTION_COUNT else 5),
                seed=seed,
                time_budget_seconds=time_budget_seconds,
                num_workers=num_workers,
                executor=executor,
                sync_interval=sync_interval,
                equivalence=equivalence,
                engine=engine,
                window_mode=windowed,
                window_size=window_size,
                window_overlap=window_overlap,
                store_path=store)
        self.options = options
        self.kernel_checker = KernelChecker()

    # ------------------------------------------------------------------ #
    def optimize(self, program: BpfProgram,
                 settings: Optional[List[ParameterSetting]] = None
                 ) -> CompilationResult:
        """Optimize ``program`` and return the best drop-in replacement.

        The result always contains a program that is safe, equivalent to the
        input and accepted by the kernel-checker model; if the search finds
        nothing better, the original program is returned unchanged.
        """
        program.validate()
        synthesizer = Synthesizer(self.options)
        search = synthesizer.optimize(program, settings=settings)
        optimized = search.best_program
        verdict = self.kernel_checker.load(optimized)
        if not verdict.accepted:
            # Fail-safe post-processing (§6): fall back to the source program,
            # which the user already knows the kernel accepts.
            optimized = program
            verdict = self.kernel_checker.load(program)
        return CompilationResult(source=program, optimized=optimized,
                                 search=search,
                                 kernel_checker_verdict=verdict)

    # ------------------------------------------------------------------ #
    def optimize_bytes(self, raw: bytes,
                       hook_type: HookType = HookType.XDP,
                       maps: Optional[MapEnvironment] = None,
                       name: str = "bpf_prog") -> CompilationResult:
        """Optimize a program given in the kernel's binary instruction format."""
        instructions = decode_program(raw)
        program = BpfProgram.create(instructions, hook_type, maps, name)
        return self.optimize(program)
