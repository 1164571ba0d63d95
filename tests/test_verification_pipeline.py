"""Tests for the tiered verification pipeline (repro.verification)."""

import pickle

import pytest

from repro.bpf import BpfProgram, HookType, NOP, assemble, get_hook
from repro.bpf.maps import MapEnvironment
from repro.equivalence import EquivalenceOptions
from repro.synthesis import MarkovChain
from repro.synthesis import TestSuite as SynthTestSuite
from repro.verification import (
    StageOutcome, VerificationPipeline, changed_window,
    summarize_verification_stats,
)


def prog(text, name="prog"):
    return BpfProgram(instructions=assemble(text), hook=get_hook(HookType.XDP),
                      maps=MapEnvironment(), name=name)


REDUNDANT = """
    mov64 r6, 0
    stxw [r10-4], r6
    stxw [r10-4], r6
    ldxw r0, [r10-4]
    exit
"""


def nop_candidate(source, index):
    instructions = list(source.instructions)
    instructions[index] = NOP
    return source.with_instructions(instructions)


class TestStageEscalation:
    def test_window_stage_concludes_single_window_rewrites(self):
        source = prog(REDUNDANT)
        candidate = nop_candidate(source, 1)
        pipeline = VerificationPipeline()
        outcome = pipeline.verify(source, candidate)
        assert outcome.result.equivalent
        assert outcome.concluded_by == "window"
        names = [v.stage for v in outcome.verdicts]
        assert names == ["cache", "window"]
        assert outcome.verdicts[0].outcome == StageOutcome.ESCALATE
        assert outcome.verdicts[1].outcome == StageOutcome.ACCEPT

    def test_cache_stage_concludes_second_query(self):
        source = prog(REDUNDANT)
        candidate = nop_candidate(source, 1)
        pipeline = VerificationPipeline()
        first = pipeline.verify(source, candidate)
        second = pipeline.verify(source, candidate)
        assert first.concluded_by == "window"
        assert second.concluded_by == "cache"
        assert second.cache_hit
        assert second.result.equivalent == first.result.equivalent

    def test_full_stage_is_last_resort(self):
        source = prog("mov64 r0, 1\nexit")
        candidate = prog("mov64 r0, 2\nja +0\nexit")  # different length
        pipeline = VerificationPipeline()
        outcome = pipeline.verify(source, candidate)
        assert not outcome.result.equivalent
        assert outcome.concluded_by == "full"
        assert outcome.result.counterexample is not None

    def test_pipeline_exhausted_reports_unknown(self):
        options = EquivalenceOptions.from_stages("cache")
        source = prog(REDUNDANT)
        candidate = nop_candidate(source, 1)
        pipeline = VerificationPipeline(options=options)
        outcome = pipeline.verify(source, candidate)
        assert outcome.concluded_by == "none"
        assert outcome.result.unknown and not outcome.result.equivalent

    def test_stage_toggles_skip_disabled_stages(self):
        options = EquivalenceOptions.from_stages("cache,full")
        source = prog(REDUNDANT)
        pipeline = VerificationPipeline(options=options)
        outcome = pipeline.verify(source, nop_candidate(source, 1))
        # Disabled stages are never built: they neither run nor count.
        assert [s.name for s in pipeline.stages] == ["cache", "full"]
        assert [v.stage for v in outcome.verdicts] == ["cache", "full"]
        assert outcome.concluded_by == "full"
        assert outcome.result.equivalent
        assert "window" not in pipeline.stats.as_dict()


class TestOptionsStageList:
    def test_default_stage_names(self):
        assert EquivalenceOptions().stage_names() == \
            ("cache", "window", "full")
        assert [s.name for s in VerificationPipeline().stages] == \
            ["cache", "window", "full"]

    def test_from_stages_round_trip(self):
        options = EquivalenceOptions.from_stages("cache,full")
        assert options.stage_names() == ("cache", "full")
        assert options.enable_cache and options.full_symbolic
        assert not options.modular_verification

    def test_from_stages_rejects_unknown(self):
        # ``replay`` named a retired stage: the search loop's test suite
        # already replays every counterexample.
        for stages in ("replay,frobnicate", "replay,full"):
            with pytest.raises(ValueError, match="unknown verification stage"):
                EquivalenceOptions.from_stages(stages)

    def test_from_stages_forwards_kwargs(self):
        options = EquivalenceOptions.from_stages(
            "cache,full", memory_offset_concretization=False)
        assert not options.memory_offset_concretization


class TestStatistics:
    def test_per_stage_counters(self):
        source = prog(REDUNDANT)
        pipeline = VerificationPipeline()
        pipeline.verify(source, nop_candidate(source, 1))   # window accept
        pipeline.verify(source, nop_candidate(source, 1))   # cache hit
        stats = pipeline.stats.as_dict()
        assert set(stats) == {"cache", "window", "full", "_pipeline"}
        assert stats["_pipeline"] == {"queries": 2, "inconclusive": 0}
        assert stats["cache"]["attempts"] == 2
        assert stats["cache"]["escalations"] == 1
        assert stats["cache"]["accepts"] == 1
        assert stats["window"]["attempts"] == 1
        assert stats["window"]["accepts"] == 1
        assert stats["full"]["attempts"] == 0
        assert stats["window"]["seconds"] >= 0.0

    def test_summary_line(self):
        source = prog(REDUNDANT)
        pipeline = VerificationPipeline()
        pipeline.verify(source, nop_candidate(source, 1))
        line = summarize_verification_stats(pipeline.stats.as_dict())
        assert "window 1/1" in line
        assert "cache 0/1" in line


class TestChangedWindow:
    def test_contiguous_difference(self):
        source = prog(REDUNDANT)
        candidate = nop_candidate(source, 2)
        window = changed_window(source, candidate)
        assert (window.start, window.end) == (2, 3)

    def test_no_difference_is_none(self):
        source = prog(REDUNDANT)
        assert changed_window(source, source) is None

    def test_wide_difference_is_none(self):
        source = prog("\n".join(["mov64 r0, 0"] * 8 + ["exit"]))
        candidate = source.with_instructions(
            [NOP] + list(source.instructions[1:7]) + [NOP,
                                                      source.instructions[8]])
        assert changed_window(source, candidate) is None

    def test_length_mismatch_is_none(self):
        assert changed_window(prog("mov64 r0, 0\nexit"),
                              prog("mov64 r0, 0\nja +0\nexit")) is None


class TestMarkovChainIntegration:
    def test_chain_accepts_prebuilt_pipeline(self):
        source = prog(REDUNDANT)
        pipeline = VerificationPipeline()
        chain = MarkovChain(source, seed=5, pipeline=pipeline,
                            test_suite=SynthTestSuite(source, num_initial=8, seed=5))
        chain.run(200)
        assert chain.pipeline is pipeline
        assert pipeline.stats.queries > 0
        assert chain.stats.verification["_pipeline"]["queries"] == \
            pipeline.stats.queries

    def test_stats_match_legacy_counters(self):
        """equivalence_checks/cache_hits keep their pre-pipeline meaning."""
        source = prog(REDUNDANT)
        chain = MarkovChain(source, seed=5,
                            test_suite=SynthTestSuite(source, num_initial=8, seed=5))
        chain.run(300)
        stats = chain.stats
        pipeline_stats = chain.pipeline.stats
        assert stats.equivalence_cache_hits == \
            pipeline_stats.stages["cache"].accepts + \
            pipeline_stats.stages["cache"].rejects
        assert stats.equivalence_checks + stats.equivalence_cache_hits == \
            pipeline_stats.queries


class TestPickling:
    def test_pipeline_pickles_without_solver_sessions(self):
        source = prog(REDUNDANT)
        pipeline = VerificationPipeline()
        first = pipeline.verify(source, nop_candidate(source, 1))
        clone = pickle.loads(pickle.dumps(pipeline))
        # Sessions are dropped in transit but behaviour is unchanged.
        assert clone.checker._session is None
        assert clone.window_checker._session is None
        again = clone.verify(source, nop_candidate(source, 2))
        assert again.result.equivalent == \
            pipeline.verify(source, nop_candidate(source, 2)).result.equivalent
        assert clone.stats.queries == pipeline.stats.queries

    def test_begin_generation_resets_sessions_only(self):
        source = prog(REDUNDANT)
        pipeline = VerificationPipeline()
        pipeline.verify(source, nop_candidate(source, 1))
        queries = pipeline.stats.queries
        entries = pipeline.cache.num_entries
        assert pipeline.window_checker._session is not None
        pipeline.begin_generation()
        assert pipeline.window_checker._session is None
        assert pipeline.checker._session is None
        assert pipeline.stats.queries == queries
        assert pipeline.cache.num_entries == entries
