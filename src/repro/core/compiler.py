"""The K2 compiler: the library's primary public entry point.

``K2Compiler`` consumes a BPF program (bytecode built with the
:mod:`repro.bpf` builders, assembled from text, or decoded from the kernel's
binary format) and produces a safe, formally-equivalent, more compact or
faster drop-in replacement, exactly as described in §2.3 of the paper.

Typical usage (search knobs come from a typed :class:`repro.api.K2Config`,
whose :meth:`~repro.api.K2Config.compiler` builds the ``K2Compiler``)::

    from repro.api import K2Config
    from repro.bpf import BpfProgram, HookType, assemble

    program = BpfProgram.create(assemble(source_text), HookType.XDP)
    compiler = K2Config(goal="size").compiler()
    result = compiler.optimize(program)
    print(result.summary())
    optimized = result.optimized        # a BpfProgram, drop-in replacement
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from ..bpf.encoder import decode_program, encode_program
from ..bpf.hooks import HookType
from ..bpf.maps import MapEnvironment
from ..bpf.program import BpfProgram
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

    def __init__(self, options: SearchOptions):
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
