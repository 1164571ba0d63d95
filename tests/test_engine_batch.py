"""Differential battery for the lockstep vectorized batch tier.

The batch tier's contract is that one handler invocation advancing *all*
test lanes through a basic block at once is observably indistinguishable
from N sequential runs: identical return values, packet bytes, map
snapshots, fault strings, step counts and cost-model nanoseconds, in
identical order, for every early-exit mode.  The suite pins the specific
mechanisms: warp-style divergence masks and reconvergence, per-lane
scalar retirement on faults, step-limit boundaries, SoA map-state
isolation between lanes (array- and hash-backed), the adaptive replay
plan's probe/batch split, and search-trajectory bit-identity with the
batch engine on or off across all executor backends.
"""

import pickle
import random

import pytest

from repro.bpf import BpfProgram, HookType, assemble, get_hook
from repro.bpf.maps import MapEnvironment
from repro.corpus import all_benchmarks, get_benchmark
from repro.engine import BatchedEngine, FusedEngine
from repro.interpreter import Interpreter, ProgramInput
from repro.synthesis import SearchOptions, Synthesizer
from repro.synthesis.proposals import ProposalGenerator
from repro.synthesis.testcases import TestCaseGenerator as InputGenerator
from repro.verification.pipeline import VerificationPipeline

from golden_helpers import search_signature
from test_engine import output_fingerprint


def prog(text, hook=HookType.XDP, maps=None):
    return BpfProgram(instructions=assemble(text), hook=get_hook(hook),
                      maps=maps or MapEnvironment(), name="prog")


def batch_engine(**kwargs):
    """Eager promotion + no minimum so even tiny batches run lockstep."""
    kwargs.setdefault("promote_after", 1)
    kwargs.setdefault("batch_min_lanes", 1)
    return BatchedEngine(**kwargs)


def assert_lockstep_identical(program, tests, engine=None, **kwargs):
    """Lockstep outputs must equal the legacy interpreter's, lane by lane.

    Returns the engine so callers can assert on its lockstep counters.
    """
    engine = engine or batch_engine(**kwargs)
    reference = Interpreter(**kwargs).run_batch(program, tests)
    lockstep = engine.run_batch(program, tests)
    for index, (a, b) in enumerate(zip(reference, lockstep)):
        assert output_fingerprint(a) == output_fingerprint(b), (
            f"lane {index} diverges on {program.name}:\n"
            f"legacy={output_fingerprint(a)}\n"
            f"batch={output_fingerprint(b)}")
    assert len(reference) == len(lockstep)
    return engine


def _packet(first_byte, length=64):
    return bytes([first_byte]) + bytes(length - 1)


# --------------------------------------------------------------------------- #
# Divergence masks and reconvergence
# --------------------------------------------------------------------------- #
class TestDivergence:
    DIVERGING = """
        ldxb r2, [r1+0]
        ldxw r3, [r1+0]
        mov64 r0, 1
        jeq r2, 0, +2
        mov64 r0, 2
        ja +1
        mov64 r0, 3
        add64 r0, 1
        exit
    """

    def test_divergent_branches_reconverge(self):
        # Half the lanes take each arm; both reconverge on the add before
        # exit, so every lane must still execute the join block exactly
        # once.
        program = prog(self.DIVERGING)
        tests = [ProgramInput(packet=_packet(i % 2)) for i in range(10)]
        engine = assert_lockstep_identical(program, tests)
        stats = engine.stats()
        assert stats["lockstep_batches"] == 1
        assert stats["lanes_retired"] == 0
        assert stats["vector_bailouts"] == 0

    def test_all_lanes_one_arm(self):
        # Uniform branches must not spuriously split the warp.
        program = prog(self.DIVERGING)
        tests = [ProgramInput(packet=_packet(7)) for _ in range(6)]
        engine = assert_lockstep_identical(program, tests)
        assert engine.stats()["lanes_retired"] == 0

    def test_lane_dependent_loop_trip_counts(self):
        # A counted loop whose trip count is a packet byte: lanes diverge
        # at the back edge for different numbers of iterations and
        # reconverge at the exit block.
        looping = prog("""
            ldxb r2, [r1+0]
            mov64 r0, 0
            jeq r2, 0, +3
            add64 r0, 2
            sub64 r2, 1
            jne r2, 0, -3
            exit
        """)
        tests = [ProgramInput(packet=_packet(i)) for i in (0, 1, 3, 9, 2, 0)]
        assert_lockstep_identical(looping, tests)


# --------------------------------------------------------------------------- #
# Per-lane faults and scalar retirement
# --------------------------------------------------------------------------- #
class TestPerLaneFaults:
    def test_faulting_lanes_retire_individually(self):
        # Reads byte 60: packets shorter than that fault with the exact
        # out-of-bounds message, longer ones succeed — in the same batch.
        program = prog("""
            ldxw r2, [r1+0]
            ldxw r3, [r1+4]
            mov64 r4, r2
            add64 r4, 60
            jgt r4, r3, +2
            ldxb r0, [r2+60]
            exit
            mov64 r5, r2
            ldxb r0, [r5+60]
            exit
        """)
        tests = [ProgramInput(packet=bytes(size))
                 for size in (64, 32, 80, 16, 61, 60)]
        engine = assert_lockstep_identical(program, tests)
        assert engine.stats()["lanes_retired"] > 0

    def test_division_by_zero_per_lane(self):
        program = prog("""
            ldxb r2, [r1+0]
            mov64 r0, 100
            div64 r0, r2
            exit
        """)
        tests = [ProgramInput(packet=_packet(b)) for b in (2, 0, 5, 0, 1)]
        assert_lockstep_identical(program, tests)

    def test_mutated_candidates_fault_identically(self):
        rng = random.Random(4242)
        for name in ("xdp_exception", "xdp_fw"):
            source = get_benchmark(name).program()
            proposer = ProposalGenerator(source, rng)
            tests = InputGenerator(source, seed=17).generate(6)
            current = list(source.instructions)
            engine = batch_engine()
            for _ in range(40):
                current = proposer.propose(current)
                assert_lockstep_identical(
                    source.with_instructions(current), tests, engine=engine)


# --------------------------------------------------------------------------- #
# Step-limit boundaries
# --------------------------------------------------------------------------- #
class TestStepLimits:
    def test_every_limit_around_program_length(self):
        program = get_benchmark("xdp_exception").program()
        tests = InputGenerator(program, seed=13).generate(5)
        needed = max(o.steps for o in Interpreter().run_batch(program, tests))
        for limit in range(1, needed + 2):
            assert_lockstep_identical(program, tests, step_limit=limit)

    def test_lanes_hit_limit_at_different_steps(self):
        # Lane-dependent trip counts around a shared limit: some lanes
        # finish, others take the step-limit fault mid-loop.
        looping = prog("""
            ldxb r2, [r1+0]
            mov64 r0, 0
            jeq r2, 0, +3
            add64 r0, 2
            sub64 r2, 1
            jne r2, 0, -3
            exit
        """)
        tests = [ProgramInput(packet=_packet(i)) for i in range(8)]
        for limit in (3, 8, 11, 14, 50):
            assert_lockstep_identical(looping, tests, step_limit=limit)

    def test_infinite_loop(self):
        looping = prog("ja -1\nexit")
        tests = [ProgramInput(packet=bytes(64))] * 5
        for limit in (1, 2, 50):
            assert_lockstep_identical(looping, tests, step_limit=limit)


# --------------------------------------------------------------------------- #
# SoA map state: per-lane isolation, array- and hash-backed
# --------------------------------------------------------------------------- #
class TestMapIsolation:
    def test_array_map_writes_stay_in_lane(self):
        # xdp_pktcntr bumps a per-cpu counter cell; every lane must see
        # exactly one increment in its own snapshot.
        program = get_benchmark("xdp_pktcntr").program()
        tests = InputGenerator(program, seed=23).generate(12)
        engine = assert_lockstep_identical(program, tests)
        assert engine.stats()["lanes_retired"] == 0

    def test_hash_map_contents_stay_per_lane(self):
        # xdp_fw looks up a HASH flow table whose contents differ per
        # test; lookups vectorize as per-lane probes and no lane may
        # observe another's entries.
        program = get_benchmark("xdp_fw").program()
        tests = InputGenerator(program, seed=29).generate(16)
        engine = assert_lockstep_identical(program, tests)
        assert engine.stats()["lanes_retired"] == 0

    def test_hash_map_value_stores_isolated(self):
        # recvmsg4 rewrites hash-map values in place; dirty-lane snapshot
        # rebuilds must not leak between lanes.
        program = get_benchmark("recvmsg4").program()
        tests = InputGenerator(program, seed=31).generate(16)
        assert_lockstep_identical(program, tests)

    def test_repeated_batches_rewind_map_state(self):
        # Re-running the same suite must start from pristine map images:
        # a stale dirty matrix would double-count increments.
        program = get_benchmark("xdp_pktcntr").program()
        tests = InputGenerator(program, seed=23).generate(8)
        engine = batch_engine()
        first = [output_fingerprint(o)
                 for o in engine.run_batch(program, tests)]
        second = [output_fingerprint(o)
                  for o in engine.run_batch(program, tests)]
        assert first == second

    def test_whole_corpus_runs_fully_vectorized(self):
        # No corpus program may fall off the vector fast path silently:
        # zero retired lanes and zero bailouts, with outputs identical to
        # the fused tier.
        for bench in all_benchmarks():
            program = bench.program()
            tests = InputGenerator(program, seed=5).generate(8)
            engine = assert_lockstep_identical(program, tests)
            stats = engine.stats()
            assert stats["lanes_retired"] == 0, bench.name
            assert stats["vector_bailouts"] == 0, bench.name


# --------------------------------------------------------------------------- #
# Early exits and the adaptive replay plan
# --------------------------------------------------------------------------- #
class TestAdaptiveReplay:
    def _divergent_pair(self):
        source = get_benchmark("xdp_exception").program()
        instructions = list(source.instructions)
        # Flip the return value: diverges on every test.
        candidate = source.with_instructions(
            assemble("mov64 r0, 3\nexit") + instructions[2:])
        return source, candidate

    def test_expected_observables_early_exit_matches_sequential(self):
        source, candidate = self._divergent_pair()
        tests = InputGenerator(source, seed=3).generate(10)
        observables = [o.observable()
                       for o in Interpreter().run_batch(source, tests)]
        sequential = Interpreter().run_batch(
            candidate, tests, expected_observables=observables)
        lockstep = batch_engine().run_batch(
            candidate, tests, expected_observables=observables)
        assert len(lockstep) == len(sequential)
        for a, b in zip(sequential, lockstep):
            assert output_fingerprint(a) == output_fingerprint(b)

    def test_replay_plan_orders_by_refutation_frequency(self):
        source = get_benchmark("xdp_exception").program()
        pipeline = VerificationPipeline(engine=batch_engine())
        tests = InputGenerator(source, seed=7).generate(6)
        for test in tests:
            pipeline.add_counterexample(test)
        # Make the *last* pooled test the top refuter.
        pipeline._refresh_pool(source)
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

    def test_probe_catches_ranked_refuter_first(self):
        source, candidate = self._divergent_pair()
        pipeline = VerificationPipeline(engine=batch_engine(),
                                        replay_probe_size=2)
        tests = InputGenerator(source, seed=11).generate(8)
        for test in tests:
            pipeline.add_counterexample(test)
        pipeline._refresh_pool(source)
        pipeline.record_refutation(tests[5])
        outcome = pipeline.verify(source, candidate)
        assert not outcome
        assert outcome.concluded_by == "replay"
        assert outcome.result.counterexample.freeze_key() == \
            tests[5].freeze_key()
        assert pipeline.stats.replay_probe_refutes == 1
        assert pipeline.stats.replay_batch_refutes == 0

    def test_surviving_candidate_replays_full_pool(self):
        source = get_benchmark("xdp_exception").program()
        pipeline = VerificationPipeline(engine=batch_engine(),
                                        replay_probe_size=2)
        for test in InputGenerator(source, seed=19).generate(6):
            pipeline.add_counterexample(test)
        # The source is equivalent to itself: replay must pass the whole
        # pool and escalate.
        outcome = pipeline.verify(source, source)
        assert bool(outcome)
        replay = next(v for v in outcome.verdicts if v.stage == "replay")
        assert "passed 6 pooled tests" in replay.detail
        assert pipeline.stats.replay_probe_refutes == 0
        assert pipeline.stats.replay_batch_refutes == 0


# --------------------------------------------------------------------------- #
# Engine mechanics: fallbacks and pickling
# --------------------------------------------------------------------------- #
class TestEngineMechanics:
    def test_small_batches_fall_back_to_fused(self):
        engine = BatchedEngine(batch_min_lanes=50)
        program = get_benchmark("xdp_exception").program()
        tests = InputGenerator(program, seed=3).generate(4)
        reference = Interpreter().run_batch(program, tests)
        outputs = engine.run_batch(program, tests)
        for a, b in zip(reference, outputs):
            assert output_fingerprint(a) == output_fingerprint(b)
        assert engine.stats()["lockstep_batches"] == 0

    def test_cfg_error_falls_back_to_fused_tier(self):
        broken = prog("mov64 r0, 0\nja 100\nexit")
        tests = [ProgramInput(packet=bytes(64))] * 4
        engine = assert_lockstep_identical(broken, tests)
        assert engine.stats()["lockstep_batches"] == 0

    def test_engine_pickles_as_config(self):
        engine = batch_engine(step_limit=777)
        program = get_benchmark("xdp_exception").program()
        tests = InputGenerator(program, seed=3).generate(6)
        before = engine.run_batch(program, tests)
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.step_limit == 777
        assert clone.batch_min_lanes == 1
        assert clone.stats()["lockstep_batches"] == 0  # caches dropped
        after = clone.run_batch(program, tests)
        for a, b in zip(before, after):
            assert output_fingerprint(a) == output_fingerprint(b)


# --------------------------------------------------------------------------- #
# Search-level identity: --engine batch == --engine fused
# --------------------------------------------------------------------------- #
class TestSearchIdentityBatch:
    def _signature(self, engine_kind, executor, **extra):
        source = get_benchmark("xdp_exception").program()
        options = SearchOptions(iterations_per_chain=60,
                                num_parameter_settings=2, seed=11,
                                executor=executor, engine=engine_kind,
                                **extra)
        return search_signature(Synthesizer(options).optimize(source))

    def test_batch_search_bit_identical_to_fused_serial(self):
        assert self._signature("batch", "serial") == \
            self._signature("fused", "serial")

    def test_batch_search_identical_across_executors(self):
        serial = self._signature("batch", "serial")
        threaded = self._signature("batch", "thread", num_workers=2)
        assert threaded == serial

    @pytest.mark.slow
    def test_batch_search_identical_in_process_pool(self):
        serial = self._signature("batch", "serial")
        pooled = self._signature("batch", "process", num_workers=2)
        assert pooled == serial
