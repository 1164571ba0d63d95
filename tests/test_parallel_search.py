"""Tests for the parallel multi-chain engine (repro.synthesis.parallel).

The engine's contract: the serial executor reproduces the original
sequential engine bit-for-bit under the same seed, and every executor
backend computes identical results (only wall-clock fields differ) because
all cross-chain sharing happens against snapshots taken at generation
boundaries.
"""

import pytest

from repro.bpf import BpfProgram, HookType, assemble, get_hook
from repro.bpf.maps import MapEnvironment
from repro.engine import ExecutionEngine
from repro.equivalence import EquivalenceCache
from repro.equivalence.checker import EquivalenceResult
from repro.synthesis import (
    ChainController, MarkovChain, SearchOptions, SerialExecutor, Synthesizer,
    all_parameter_settings, create_executor, resolve_executor_kind,
)
from repro.synthesis import TestSuite as SynthTestSuite
from repro.verification import VerificationPipeline

from golden_helpers import chain_signature, search_signature


def prog(text, hook=HookType.XDP):
    return BpfProgram(instructions=assemble(text), hook=get_hook(hook),
                      maps=MapEnvironment(), name="prog")


REDUNDANT = """
    mov64 r6, 0
    stxw [r10-4], r6
    stxw [r10-4], r6
    ldxw r0, [r10-4]
    exit
"""


class TestSerialMatchesLegacy:
    def test_serial_reproduces_sequential_engine_exactly(self):
        """Same seed + serial executor == the pre-refactor sequential loop."""
        source = prog(REDUNDANT)
        options = SearchOptions(iterations_per_chain=250,
                                num_parameter_settings=2, seed=7)
        settings = all_parameter_settings(options.goal)[
            :options.num_parameter_settings]

        # The original engine, inlined: one chain per setting, run to
        # completion in order, each with its own engine, suite and
        # verification pipeline (private cache).
        legacy = []
        for index, setting in enumerate(settings):
            engine = ExecutionEngine()
            suite = SynthTestSuite(source, seed=options.seed + index,
                                   engine=engine)
            pipeline = VerificationPipeline(options=options.equivalence)
            chain = MarkovChain(source, cost_settings=setting.cost,
                                probabilities=setting.probabilities,
                                seed=options.seed * 1009 + index,
                                test_suite=suite, pipeline=pipeline,
                                engine=engine)
            legacy.append(chain.run(options.iterations_per_chain))

        result = Synthesizer(options).optimize(source)
        assert result.executor_used == "serial"
        assert result.num_generations == 1
        # Single generation: nothing is ever delivered to a sibling chain,
        # so no sharing may be reported.
        assert result.counterexamples_shared == 0
        assert [chain_signature(c) for c in legacy] == \
            [chain_signature(c) for c in result.chain_results]

    def test_same_seed_same_result(self):
        source = prog(REDUNDANT)
        options = SearchOptions(iterations_per_chain=150,
                                num_parameter_settings=2, seed=3)
        first = Synthesizer(options).optimize(source)
        second = Synthesizer(options).optimize(source)
        assert search_signature(first) == search_signature(second)


class TestExecutorEquivalence:
    OPTIONS = dict(iterations_per_chain=240, num_parameter_settings=2,
                   seed=7, sync_interval=80)

    def test_process_pool_matches_serial(self):
        """Snapshot-at-generation semantics: backend cannot change results."""
        source = prog(REDUNDANT)
        serial = Synthesizer(SearchOptions(executor="serial",
                                           **self.OPTIONS)).optimize(source)
        pooled = Synthesizer(SearchOptions(executor="process", num_workers=2,
                                           **self.OPTIONS)).optimize(source)
        assert pooled.executor_used == "process"
        assert search_signature(serial) == search_signature(pooled)


class TestSharing:
    def test_generation_schedule_and_sharing_statistics(self):
        source = prog(REDUNDANT)
        options = SearchOptions(iterations_per_chain=250,
                                num_parameter_settings=2, seed=7,
                                sync_interval=100)
        result = Synthesizer(options).optimize(source)
        # 250 iterations at interval 100 -> generations of 100, 100, 50.
        assert result.num_generations == 3
        for chain_result in result.chain_results:
            assert chain_result.statistics.iterations == 250
            assert chain_result.statistics.generations == 3

        # Aggregate cache counters survive the merge path: they equal the
        # sum of the per-chain counters instead of staying siloed.
        stats = result.cache_stats
        per_chain = [c.statistics for c in result.chain_results]
        assert stats["hits"] == sum(s.equivalence_cache_hits for s in per_chain)
        assert stats["cross_chain_hits"] == \
            sum(s.cross_chain_cache_hits for s in per_chain)
        assert stats["hits"] + stats["misses"] > 0
        assert 0.0 <= stats["hit_rate"] <= 1.0

        # A counterexample discovered by one chain reaches the others.
        received = sum(s.counterexamples_received for s in per_chain)
        if result.counterexamples_shared:
            assert received >= 1

    def test_sharing_can_be_disabled(self):
        source = prog(REDUNDANT)
        options = SearchOptions(iterations_per_chain=120,
                                num_parameter_settings=2, seed=7,
                                sync_interval=40, share_cache=False,
                                share_counterexamples=False)
        result = Synthesizer(options).optimize(source)
        assert result.counterexamples_shared == 0
        for chain_result in result.chain_results:
            assert chain_result.statistics.cross_chain_cache_hits == 0
            assert chain_result.statistics.counterexamples_received == 0

    def test_chain_wall_clock_accumulates_over_generations(self):
        source = prog(REDUNDANT)
        chain = MarkovChain(source, seed=1,
                            test_suite=SynthTestSuite(source, num_initial=4, seed=1))
        chain.run(50)
        first = chain.stats.elapsed_seconds
        chain.run(50)
        assert chain.stats.elapsed_seconds > first
        assert chain.stats.generations == 2
        assert chain.stats.iterations == 100


class TestEquivalenceCacheMerge:
    def _result(self, equivalent=True):
        return EquivalenceResult(equivalent=equivalent)

    def test_merge_accumulates_counters(self):
        source = prog("mov64 r0, 0\nexit")
        worker = EquivalenceCache()
        worker.store(source, self._result())
        worker.lookup(source)            # hit
        worker.lookup(prog("mov64 r0, 1\nexit"))  # miss
        controller = EquivalenceCache()
        controller.merge(worker)
        assert controller.hits == 1
        assert controller.misses == 1
        assert controller.num_entries == worker.num_entries
        # Merging a second worker keeps accumulating.
        controller.merge(worker, include_counters=True)
        assert controller.hits == 2
        assert controller.misses == 2

    def test_seed_marks_foreign_and_counts_cross_chain_hits(self):
        source = prog("mov64 r0, 0\nexit")
        origin = EquivalenceCache()
        origin.store(source, self._result())
        receiver = EquivalenceCache()
        assert receiver.seed(origin.export_entries(), foreign=True) == 1
        assert receiver.lookup(source) is not None
        assert receiver.hits == 1
        assert receiver.cross_chain_hits == 1
        # Foreign entries are not re-exported as the receiver's discoveries.
        assert receiver.local_entries() == {}

    def test_seed_never_overwrites_local_entries(self):
        source = prog("mov64 r0, 0\nexit")
        cache = EquivalenceCache()
        local = self._result()
        cache.store(source, local)
        cache.seed({EquivalenceCache.canonicalize(source):
                    self._result(equivalent=False)}, foreign=True)
        assert cache.lookup(source) is local
        assert cache.cross_chain_hits == 0
        assert cache.local_entries() != {}

    def test_stats_report_cross_chain_hits(self):
        cache = EquivalenceCache()
        stats = cache.stats()
        assert stats["cross_chain_hits"] == 0
        assert stats["hit_rate"] == 0.0


class TestExecutors:
    def test_serial_executor_runs_inline(self):
        with SerialExecutor() as pool:
            future = pool.submit(lambda x: x * 2, 21)
            assert future.done()
            assert future.result() == 42

    def test_serial_executor_propagates_exceptions(self):
        def boom():
            raise ValueError("boom")

        with SerialExecutor() as pool:
            future = pool.submit(boom)
            with pytest.raises(ValueError, match="boom"):
                future.result()

    def test_serial_executor_rejects_after_shutdown(self):
        pool = SerialExecutor()
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.submit(lambda: None)

    def test_resolve_auto(self):
        assert resolve_executor_kind("auto", 1) == "serial"
        assert resolve_executor_kind("auto", 4) == "process"
        assert resolve_executor_kind("serial", 4) == "serial"
        with pytest.raises(ValueError):
            resolve_executor_kind("fibers", 2)

    def test_create_executor_serial(self):
        assert isinstance(create_executor("serial"), SerialExecutor)
        assert isinstance(create_executor("auto", 1), SerialExecutor)


class TestControllerScheduling:
    def _controller(self, **kwargs):
        source = prog(REDUNDANT)
        options = SearchOptions(num_parameter_settings=1, **kwargs)
        settings = all_parameter_settings(options.goal)[:1]
        return ChainController(source, settings, options)

    def test_schedule_single_generation_by_default(self):
        controller = self._controller(iterations_per_chain=500)
        assert controller._generation_schedule(500) == [500]

    def test_schedule_uneven_split(self):
        controller = self._controller(iterations_per_chain=250,
                                      sync_interval=100)
        assert controller._generation_schedule(250) == [100, 100, 50]

    def test_schedule_interval_larger_than_budget(self):
        controller = self._controller(iterations_per_chain=50,
                                      sync_interval=100)
        assert controller._generation_schedule(50) == [50]

    def test_schedule_non_positive_interval_means_no_syncing(self):
        """A typo'd negative interval must not silently run 0 iterations."""
        for interval in (0, -1, -100):
            controller = self._controller(iterations_per_chain=200,
                                          sync_interval=interval)
            assert controller._generation_schedule(200) == [200]


class TestCliIntegration:
    def test_optimize_with_num_workers_flag(self, capsys):
        from repro.cli import main

        assert main(["optimize", "--benchmark", "xdp_exception",
                     "--iterations", "40", "--settings", "1",
                     "--num-workers", "1", "--executor", "serial"]) == 0
        out = capsys.readouterr().out
        assert "serial executor" in out
        assert "eq-cache" in out

    def test_help_documents_num_workers(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["optimize", "--help"])
        out = capsys.readouterr().out
        assert "--num-workers" in out
        assert "--sync-interval" in out
        assert "--executor" in out
