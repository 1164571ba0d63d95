"""Differential battery for the superinstruction-fused engine (repro.engine.fuse).

The fused engine's contract is the same as the decoded engine's: bit-identical
observable behaviour to the legacy interpreter — return value, packet bytes,
map snapshots, fault strings, step counts and accumulated cost-model
nanoseconds — while compiling basic-block traces to single Python functions.
The battery checks all three engines pairwise over the corpus, over
proposal-mutated candidates (which exercise every fault path and the trace
budget guard), at step-limit boundaries (the careful decoded-replay path),
and across the trace-cache / CFG-fallback machinery.
"""

import random

import pytest

from repro.bpf import BpfProgram, HookType, assemble, get_hook
from repro.bpf.instruction import NOP
from repro.bpf.maps import MapEnvironment
from repro.corpus import all_benchmarks, get_benchmark
from repro.engine import ExecutionEngine, FusedEngine
from repro.interpreter import Interpreter, ProgramInput
from repro.perf.latency_model import DEFAULT_LATENCY_MODEL
from repro.synthesis.proposals import ProposalGenerator
from repro.synthesis.testcases import TestCaseGenerator as InputGenerator

from golden_helpers import engine_chain_signatures
from test_engine import output_fingerprint


def prog(text, hook=HookType.XDP, maps=None):
    return BpfProgram(instructions=assemble(text), hook=get_hook(hook),
                      maps=maps or MapEnvironment(), name="prog")


def assert_three_way_identical(program, tests, **engine_kwargs):
    """Legacy, decoded and fused must agree bit for bit.

    ``promote_after=1`` forces eager trace compilation so the fused code
    generator (not the pre-promotion decoded tier) is what's compared.
    """
    outputs = {
        "legacy": Interpreter(**engine_kwargs).run_batch(program, tests),
        "decoded": ExecutionEngine(**engine_kwargs).run_batch(program, tests),
        "fused": FusedEngine(promote_after=1,
                             **engine_kwargs).run_batch(program, tests),
    }
    for kind in ("decoded", "fused"):
        for test, a, b in zip(tests, outputs["legacy"], outputs[kind]):
            assert output_fingerprint(a) == output_fingerprint(b), (
                f"{kind} diverges from legacy on {program.name}:\n"
                f"legacy={output_fingerprint(a)}\n"
                f"{kind}={output_fingerprint(b)}")


# --------------------------------------------------------------------------- #
# Corpus differential
# --------------------------------------------------------------------------- #
class TestFusedCorpusDifferential:
    def test_every_corpus_program_matches_both_engines(self):
        for bench in all_benchmarks():
            program = bench.program()
            tests = InputGenerator(program, seed=5).generate(8)
            assert_three_way_identical(program, tests)

    def test_cost_model_estimates_identical(self):
        cost_fn = DEFAULT_LATENCY_MODEL.instruction_cost
        for name in ["xdp_exception", "xdp1", "xdp_fw", "xdp-balancer"]:
            program = get_benchmark(name).program()
            tests = InputGenerator(program, seed=9).generate(6)
            assert_three_way_identical(program, tests, opcode_cost_fn=cost_fn)

    def test_non_strict_mode_matches(self):
        program = get_benchmark("xdp_pktcntr").program()
        tests = InputGenerator(program, seed=2).generate(6)
        assert_three_way_identical(program, tests, strict_uninitialized=False)


# --------------------------------------------------------------------------- #
# Proposal-mutated differential fuzz
# --------------------------------------------------------------------------- #
class TestFusedDifferentialFuzz:
    """Mutated candidates hit the fault paths, the trace budget guard and
    the block memo; the three engines must stay bit-identical throughout."""

    def _fuzz(self, names, proposals_per_program, tests_per_candidate,
              seed=4321):
        rng = random.Random(seed)
        checked = 0
        faults_seen = set()
        engines = {"legacy": Interpreter(), "decoded": ExecutionEngine(),
                   "fused": FusedEngine(promote_after=1)}
        for name in names:
            source = get_benchmark(name).program()
            proposer = ProposalGenerator(source, rng)
            tests = InputGenerator(source, seed=seed).generate(
                tests_per_candidate)
            current = list(source.instructions)
            for _ in range(proposals_per_program):
                current = proposer.propose(current)
                candidate = source.with_instructions(current)
                outputs = {kind: engine.run_batch(candidate, tests)
                           for kind, engine in engines.items()}
                for kind in ("decoded", "fused"):
                    for a, b in zip(outputs["legacy"], outputs[kind]):
                        assert output_fingerprint(a) == \
                            output_fingerprint(b), (
                                f"{kind} divergence on mutated {name}:\n"
                                f"{candidate.to_text()}\n"
                                f"legacy={output_fingerprint(a)}\n"
                                f"{kind}={output_fingerprint(b)}")
                for output in outputs["fused"]:
                    checked += 1
                    if output.fault:
                        faults_seen.add(output.fault.split(":")[0])
        return checked, faults_seen

    def test_mutated_candidates_smoke(self):
        checked, faults = self._fuzz(
            ["xdp_exception", "xdp_pktcntr"], proposals_per_program=30,
            tests_per_candidate=4)
        assert checked > 0
        assert faults, "fuzz run produced no faulting candidates"

    @pytest.mark.slow
    def test_mutated_candidates_wide(self):
        checked, faults = self._fuzz(
            ["xdp_exception", "xdp_pktcntr", "xdp_map_access", "xdp_fw",
             "from-network", "sys_enter_open"],
            proposals_per_program=200, tests_per_candidate=6, seed=77)
        assert checked > 0
        assert len(faults) >= 2


# --------------------------------------------------------------------------- #
# Step-limit boundaries: the trace budget guard and the careful path
# --------------------------------------------------------------------------- #
class TestStepLimitBoundaries:
    def test_every_limit_around_program_length(self):
        # Sweeping the limit across every instruction boundary exercises the
        # fused entry guard (steps + trace length > limit) and the careful
        # per-instruction replay it diverts to, including limits that land
        # mid-trace.  ``xdp2`` writes the packet, so its sweep also covers
        # packet stores replayed by the careful path.
        for name in ("xdp_exception", "xdp2"):
            program = get_benchmark(name).program()
            tests = InputGenerator(program, seed=13).generate(3)
            baseline = Interpreter().run_batch(program, tests)
            steps_needed = max(output.steps for output in baseline)
            for limit in list(range(1, steps_needed + 2)):
                assert_three_way_identical(program, tests, step_limit=limit)

    def test_infinite_loop_limit_fault_identical(self):
        looping = prog("ja -1\nexit")
        for limit in (1, 2, 49, 50):
            assert_three_way_identical(
                looping, [ProgramInput(packet=bytes(64))], step_limit=limit)


# --------------------------------------------------------------------------- #
# Trace cache, block memo and the CFG fallback
# --------------------------------------------------------------------------- #
class TestFuseCache:
    def test_repeated_runs_fuse_once(self):
        engine = FusedEngine()
        program = get_benchmark("xdp_exception").program()
        tests = InputGenerator(program, seed=3).generate(4)
        engine.run_batch(program, tests)
        engine.run_batch(program, tests)
        stats = engine.stats()
        assert stats["program_misses"] == 1
        assert stats["program_hits"] == 1
        # Default tiered promotion: the first decode served the decoded
        # tier, the second promoted to fused blocks.
        assert stats["promotions"] == 1
        assert stats["pending_promotion"] == 0

    def test_promotion_threshold_defers_compilation(self):
        engine = FusedEngine(promote_after=3)
        program = get_benchmark("xdp_exception").program()
        tests = InputGenerator(program, seed=3).generate(4)
        baseline = Interpreter().run_batch(program, tests)
        for round_index in range(4):
            outputs = engine.run_batch(program, tests)
            for a, b in zip(baseline, outputs):
                assert output_fingerprint(a) == output_fingerprint(b)
            stats = engine.stats()
            if round_index < 2:
                assert stats["blocks_compiled"] == 0
                assert stats["promotions"] == 0
            else:
                assert stats["blocks_compiled"] > 0
                assert stats["promotions"] == 1

    def test_eager_promotion_compiles_first_decode(self):
        engine = FusedEngine(promote_after=1)
        program = get_benchmark("xdp_exception").program()
        engine.run(program, InputGenerator(program, seed=3).generate_one())
        stats = engine.stats()
        assert stats["blocks_compiled"] > 0
        assert stats["promotions"] == 0

    def test_mutated_window_reuses_unchanged_blocks(self):
        engine = FusedEngine(promote_after=1)
        program = get_benchmark("xdp_exception").program()
        test = InputGenerator(program, seed=3).generate_one()
        engine.run(program, test)
        reused_before = engine.stats()["blocks_reused"]
        instructions = list(program.instructions)
        instructions[3] = NOP
        engine.run(program.with_instructions(instructions), test)
        assert engine.stats()["blocks_reused"] > reused_before

    def test_broken_jump_structure_falls_back_to_decoded(self):
        # A statically out-of-range jump: CFG validation is deferred to the
        # promotion point, so the first run serves the decoded tier like any
        # fresh proposal; the promotion attempt hits the CfgError, pins the
        # program to the decoded tier for good and counts the fallback.
        # Dynamic faults stay identical across engines throughout.
        broken = prog("mov64 r0, 0\nja 100\nexit")
        test = ProgramInput(packet=bytes(64))
        engine = FusedEngine()
        assert_three_way_identical(broken, [test])
        engine.run(broken, test)
        assert engine.stats()["fallbacks"] == 0  # decoded tier, no CFG yet
        engine.run(broken, test)  # promotion attempt fails on build_cfg
        assert engine.stats()["fallbacks"] == 1
        assert engine.stats()["promotions"] == 0
        engine.run(broken, test)  # pinned: no second promotion attempt
        assert engine.stats()["fallbacks"] == 1


# --------------------------------------------------------------------------- #
# Search-level identity: chains on the fused engine == on the lower tiers
# --------------------------------------------------------------------------- #
class TestSearchIdentityFused:
    def test_fused_search_bit_identical_to_decoded(self):
        source = get_benchmark("xdp_exception").program()
        assert engine_chain_signatures(source, FusedEngine, iterations=60,
                                       seed=11) == \
            engine_chain_signatures(source, ExecutionEngine, iterations=60,
                                    seed=11)

    @pytest.mark.slow
    def test_fused_search_bit_identical_to_legacy_wide(self):
        source = get_benchmark("xdp_pktcntr").program()
        assert engine_chain_signatures(source, FusedEngine, iterations=150,
                                       seed=7) == \
            engine_chain_signatures(source, Interpreter, iterations=150,
                                    seed=7)
