"""Tests for the tiered verification pipeline (repro.verification)."""

import pickle

import pytest

from repro.bpf import BpfProgram, HookType, NOP, assemble, get_hook
from repro.bpf.maps import MapEnvironment
from repro.corpus import get_benchmark
from repro.equivalence import EquivalenceOptions
from repro.synthesis import MarkovChain
from repro.synthesis import TestSuite as SynthTestSuite
from repro.synthesis.testcases import TestCaseGenerator as InputGenerator
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
        assert names == ["replay", "cache", "window"]
        assert outcome.verdicts[0].outcome == StageOutcome.ESCALATE
        assert outcome.verdicts[1].outcome == StageOutcome.ESCALATE
        assert outcome.verdicts[2].outcome == StageOutcome.ACCEPT

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

    def test_replay_stage_rejects_from_pool(self):
        source = prog("mov64 r0, 1\nexit")
        bad = prog("mov64 r0, 2\nja +0\nexit")
        pipeline = VerificationPipeline()
        first = pipeline.verify(source, bad)
        assert first.concluded_by == "full"
        assert pipeline.pool_size == 1
        # A different non-equivalent candidate fails on the pooled input
        # before any solver work.
        worse = prog("mov64 r0, 3\nja +0\nexit")
        second = pipeline.verify(source, worse)
        assert second.concluded_by == "replay"
        assert not second.result.equivalent
        assert second.result.counterexample is not None

    def test_pipeline_exhausted_reports_unknown(self):
        options = EquivalenceOptions.from_stages("replay,cache")
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
        by_stage = {v.stage: v.outcome for v in outcome.verdicts}
        assert by_stage["replay"] == StageOutcome.SKIP
        assert by_stage["window"] == StageOutcome.SKIP
        assert outcome.concluded_by == "full"
        assert outcome.result.equivalent


class TestAdaptiveReplay:
    """The replay stage runs the pool in refutation-frequency order, so a
    doomed candidate meets its most likely refuter first."""

    def _divergent_pair(self):
        source = get_benchmark("xdp_exception").program()
        # Flip the return value: diverges on every test.
        candidate = source.with_instructions(
            assemble("mov64 r0, 3\nexit") + list(source.instructions[2:]))
        return source, candidate

    def _pipeline(self, source, seed, size):
        pipeline = VerificationPipeline()
        tests = InputGenerator(source, seed=seed).generate(size)
        for test in tests:
            pipeline.add_counterexample(test)
        pipeline._refresh_pool(source)   # source runs outside the counts below
        return pipeline, tests

    def test_replay_plan_orders_by_refutation_frequency(self):
        source = get_benchmark("xdp_exception").program()
        pipeline, tests = self._pipeline(source, seed=7, size=6)
        # Make the *last* pooled test the top refuter.
        for _ in range(3):
            pipeline.record_refutation(tests[-1])
        pipeline.record_refutation(tests[2])
        planned, observables = pipeline.replay_plan(source)
        assert planned[0].freeze_key() == tests[-1].freeze_key()
        assert planned[1].freeze_key() == tests[2].freeze_key()
        assert len(planned) == len(observables) == len(tests)
        # Ties keep pool order behind the ranked tests.
        remainder = [t.freeze_key() for t in planned[2:]]
        assert remainder == [t.freeze_key() for t in tests[:2] + tests[3:-1]]
        assert pipeline.stats.replay_reorders >= 1

    def test_doomed_candidate_dies_on_top_ranked_test(self):
        source, candidate = self._divergent_pair()
        pipeline, tests = self._pipeline(source, seed=11, size=8)
        pipeline.record_refutation(tests[5])
        runs = pipeline.engine.runs
        outcome = pipeline.verify(source, candidate)
        assert not outcome
        assert outcome.concluded_by == "replay"
        assert outcome.result.counterexample.freeze_key() == \
            tests[5].freeze_key()
        assert pipeline.engine.runs - runs == 1
        assert pipeline.stats.stages["replay"].rejects == 1

    def test_surviving_candidate_replays_full_pool(self):
        source = get_benchmark("xdp_exception").program()
        pipeline, _ = self._pipeline(source, seed=19, size=6)
        runs = pipeline.engine.runs
        # The source is equivalent to itself: replay must pass the whole
        # pool and escalate.
        outcome = pipeline.verify(source, source)
        assert bool(outcome)
        replay = next(v for v in outcome.verdicts if v.stage == "replay")
        assert replay.outcome == StageOutcome.ESCALATE
        assert "passed 6 pooled tests" in replay.detail
        assert pipeline.engine.runs - runs == 6


class TestOptionsStageList:
    def test_default_stage_names(self):
        assert EquivalenceOptions().stage_names() == \
            ("replay", "cache", "window", "full")

    def test_from_stages_round_trip(self):
        options = EquivalenceOptions.from_stages("cache,full")
        assert options.stage_names() == ("cache", "full")
        assert not options.interpreter_replay
        assert not options.modular_verification

    def test_from_stages_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown verification stage"):
            EquivalenceOptions.from_stages("replay,frobnicate")

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
        assert stats["_pipeline"]["queries"] == 2
        assert stats["replay"]["attempts"] == 2
        assert stats["replay"]["escalations"] == 2
        assert stats["cache"]["attempts"] == 2
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
