"""Integration tests: the fused analyzer threaded through the system.

Covers the chain's one analyzer (owned by its safety checker, seeded and
exported by the parallel work units) and the windowed scheduler's static
safety check of the stitched program before its final proof.
"""

from repro.analysis import AbstractAnalyzer
from repro.bpf import BpfProgram, HookType, assemble, get_hook
from repro.synthesis import SearchOptions
from repro.synthesis.mcmc import MarkovChain
from repro.synthesis.parallel import ChainWorkUnit, run_chain_generation
from repro.synthesis.windows import WindowedScheduler
from repro.verifier import KernelChecker


def _prog(text, name="prog"):
    return BpfProgram(instructions=assemble(text),
                      hook=get_hook(HookType.XDP), name=name)


SAFE = "mov64 r0, 2\nmov64 r1, 7\nadd64 r1, 1\nexit"
UNSAFE = "ldxw r2, [r1+0]\nldxb r0, [r2+0]\nexit"


class TestAnalysisKnob:
    def test_fused_chain_shares_one_analyzer(self):
        """A work unit's analysis entries seed the analyzer the chain's
        safety checker runs on, and come back out of it."""
        chain = MarkovChain(_prog(SAFE), seed=1)
        foreign = _prog(UNSAFE, "foreign")
        donor = AbstractAnalyzer()
        donor.analyze(foreign)
        entries = donor.export_program_memo()
        unit = ChainWorkUnit(chain_index=0, chain=chain, iterations=0,
                             shared_cache_entries={},
                             shared_counterexamples=[],
                             shared_analysis_entries=entries,
                             export_analysis=True)
        result = run_chain_generation(unit)
        analyzer = result.chain.safety.analyzer
        assert set(entries) <= set(result.analysis_entries)
        hits = analyzer.program_memo_hits
        assert not result.chain.safety.check(foreign).safe
        assert analyzer.program_memo_hits == hits + 1


class TestStaticSafetyStage:
    """The stitched program of a windowed search is checked statically
    safe against the source before the pipeline proves it equivalent."""

    def _finalize(self, source, stitched):
        scheduler = WindowedScheduler(SearchOptions(),
                                      kernel_checker=KernelChecker())
        verification = {}
        outcome = scheduler._finalize(source, stitched, [], verification,
                                      total_iterations=0, elapsed=0.0)
        return outcome, verification

    def test_rejects_unsafe_candidate_before_any_other_stage(self):
        outcome, verification = self._finalize(_prog(SAFE),
                                               _prog(UNSAFE, "cand"))
        assert outcome == (None, False, 0)
        # Refused before the pipeline: no stage ran, nothing was counted.
        assert verification == {}

    def test_escalates_when_source_itself_unsafe(self):
        source = _prog(UNSAFE, "src")
        stitched = source.with_instructions(
            assemble("ldxw r2, [r1+0]\nldxb r0, [r2+0]\nja +0\nexit"),
            name="cand")
        outcome, verification = self._finalize(source, stitched)
        # An unsafe source does not refuse the stitch: the pipeline proves
        # it, and the kernel checker then rejects the unsafe program.
        assert verification["_pipeline"]["queries"] == 1
        assert outcome == (None, True, 1)
