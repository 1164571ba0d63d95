"""Tests for the decode-once execution engine (repro.engine).

The engine's contract: bit-identical observable behaviour to the legacy
interpreter — return value, packet bytes, map snapshots, fault strings,
step counts and accumulated cost-model nanoseconds — while decoding each
program once and reusing machine state across runs.  The differential
classes below enforce that contract over the corpus, over randomly mutated
candidates (which exercise the fault paths) and over a whole search run.
"""

import pickle
import random

import pytest

from repro.bpf import BpfProgram, HookType, assemble, get_hook
from repro.bpf.maps import MapDef, MapEnvironment, MapState, MapType
from repro.corpus import all_benchmarks, get_benchmark
from repro.engine import ExecutionEngine, ProgramDecoder, ResettableMachine
from repro.interpreter import Interpreter, ProgramInput
from repro.interpreter.interpreter import run_program
from repro.perf.latency_model import DEFAULT_LATENCY_MODEL
from repro.perf.rig import DeviceUnderTest, TrafficGenerator
from repro.synthesis.proposals import ProposalGenerator
from repro.synthesis.testcases import TestCaseGenerator as InputGenerator

from golden_helpers import engine_chain_signatures


def prog(text, hook=HookType.XDP, maps=None):
    return BpfProgram(instructions=assemble(text), hook=get_hook(hook),
                      maps=maps or MapEnvironment(), name="prog")


def output_fingerprint(output):
    """Everything the engines must agree on, bit for bit."""
    return (output.return_value, output.packet,
            tuple(sorted((fd, tuple(sorted(entries.items())))
                         for fd, entries in output.maps.items())),
            output.fault, output.steps, output.estimated_ns)


def assert_outputs_identical(program, tests, **engine_kwargs):
    legacy = Interpreter(**engine_kwargs)
    decoded = ExecutionEngine(**engine_kwargs)
    legacy_outputs = legacy.run_batch(program, tests)
    decoded_outputs = decoded.run_batch(program, tests)
    for test, a, b in zip(tests, legacy_outputs, decoded_outputs):
        assert output_fingerprint(a) == output_fingerprint(b), (
            f"engines diverge on {program.name}: legacy={a!r} decoded={b!r}")


# --------------------------------------------------------------------------- #
# Differential fuzz: corpus programs and mutated candidates
# --------------------------------------------------------------------------- #
class TestDifferentialCorpus:
    def test_every_corpus_program_matches_legacy(self):
        for bench in all_benchmarks():
            program = bench.program()
            tests = InputGenerator(program, seed=5).generate(8)
            assert_outputs_identical(program, tests)

    def test_cost_model_accumulation_matches_legacy(self):
        cost_fn = DEFAULT_LATENCY_MODEL.instruction_cost
        for name in ["xdp_exception", "xdp1", "xdp_fw"]:
            program = get_benchmark(name).program()
            tests = InputGenerator(program, seed=9).generate(6)
            assert_outputs_identical(program, tests, opcode_cost_fn=cost_fn)

    def test_non_strict_mode_matches_legacy(self):
        program = get_benchmark("xdp_pktcntr").program()
        tests = InputGenerator(program, seed=2).generate(6)
        assert_outputs_identical(program, tests, strict_uninitialized=False)

    def test_step_limit_fault_matches_legacy(self):
        looping = prog("ja -1\nexit")  # mov-free infinite loop
        assert_outputs_identical(looping, [ProgramInput(packet=bytes(64))],
                                 step_limit=50)


class TestDifferentialFuzz:
    """Random proposal-mutated candidates hit every fault path."""

    def _fuzz(self, names, proposals_per_program, tests_per_candidate,
              seed=1234):
        rng = random.Random(seed)
        checked = 0
        faults_seen = set()
        legacy = Interpreter()
        decoded = ExecutionEngine()
        for name in names:
            source = get_benchmark(name).program()
            proposer = ProposalGenerator(source, rng)
            tests = InputGenerator(source, seed=seed).generate(
                tests_per_candidate)
            current = list(source.instructions)
            for _ in range(proposals_per_program):
                current = proposer.propose(current)
                candidate = source.with_instructions(current)
                legacy_outputs = legacy.run_batch(candidate, tests)
                decoded_outputs = decoded.run_batch(candidate, tests)
                for a, b in zip(legacy_outputs, decoded_outputs):
                    assert output_fingerprint(a) == output_fingerprint(b), (
                        f"divergence on mutated {name}:\n"
                        f"{candidate.to_text()}\n"
                        f"legacy={output_fingerprint(a)}\n"
                        f"decoded={output_fingerprint(b)}")
                    checked += 1
                    if a.fault:
                        faults_seen.add(a.fault.split(":")[0])
        return checked, faults_seen

    def test_mutated_candidates_match_legacy(self):
        checked, faults = self._fuzz(
            ["xdp_exception", "xdp_pktcntr"], proposals_per_program=60,
            tests_per_candidate=4)
        assert checked > 0
        # Mutations must actually exercise the fault machinery.
        assert faults, "fuzz run produced no faulting candidates"

    @pytest.mark.slow
    def test_mutated_candidates_match_legacy_wide(self):
        checked, faults = self._fuzz(
            ["xdp_exception", "xdp_pktcntr", "xdp_map_access", "xdp_fw",
             "from-network", "sys_enter_open"],
            proposals_per_program=150, tests_per_candidate=6, seed=99)
        assert checked > 0
        assert len(faults) >= 2


# --------------------------------------------------------------------------- #
# Decode cache and machine reuse
# --------------------------------------------------------------------------- #
class TestDecodeCache:
    def test_repeated_runs_decode_once(self):
        engine = ExecutionEngine()
        program = get_benchmark("xdp_exception").program()
        tests = InputGenerator(program, seed=3).generate(4)
        engine.run_batch(program, tests)
        engine.run_batch(program, tests)
        engine.run(program, tests[0])
        stats = engine.stats()
        assert stats["program_misses"] == 1
        assert stats["program_hits"] == 2

    def test_equal_content_different_objects_share_decode(self):
        engine = ExecutionEngine()
        program = get_benchmark("xdp_exception").program()
        clone = program.with_instructions(list(program.instructions))
        test = InputGenerator(program, seed=3).generate_one()
        engine.run(program, test)
        engine.run(clone, test)
        assert engine.stats()["program_misses"] == 1

    def test_mutated_window_reuses_unchanged_instructions(self):
        engine = ExecutionEngine()
        program = get_benchmark("xdp_exception").program()
        test = InputGenerator(program, seed=3).generate_one()
        engine.run(program, test)
        compiled_before = engine.stats()["instructions_compiled"]
        # Mutate one instruction: everything outside the window must come
        # from the per-instruction memo.
        instructions = list(program.instructions)
        from repro.bpf.instruction import NOP
        instructions[3] = NOP
        engine.run(program.with_instructions(instructions), test)
        stats = engine.stats()
        newly_compiled = stats["instructions_compiled"] - compiled_before
        assert newly_compiled <= 1
        assert stats["instructions_reused"] >= len(instructions) - 1

    def test_lru_eviction_bounds_cache(self):
        engine = ExecutionEngine(decode_cache_size=2)
        program = get_benchmark("xdp_exception").program()
        test = InputGenerator(program, seed=3).generate_one()
        variants = []
        from repro.bpf.instruction import NOP
        for index in range(4):
            instructions = list(program.instructions)
            instructions[index] = NOP
            variants.append(program.with_instructions(instructions))
        for variant in variants:
            engine.run(variant, test)
        assert engine.stats()["programs_cached"] == 2

    def test_decoder_rejects_bad_cache_size(self):
        with pytest.raises(ValueError):
            ProgramDecoder(cache_size=0)


class TestMachineReuse:
    def test_batch_outputs_equal_fresh_engine_runs(self):
        program = get_benchmark("xdp_map_access").program()
        tests = InputGenerator(program, seed=8).generate(10)
        long_lived = ExecutionEngine()
        batched = long_lived.run_batch(program, tests)
        for test, batch_output in zip(tests, batched):
            fresh = ExecutionEngine().run(program, test)
            assert output_fingerprint(fresh) == output_fingerprint(batch_output)

    def test_map_state_reset_matches_fresh_instance(self):
        definition = MapDef(fd=1, name="m", map_type=MapType.ARRAY,
                            key_size=4, value_size=8, max_entries=4)
        state = MapState(definition)
        key = (1).to_bytes(4, "little")
        state.update(key, b"\xff" * 8)
        # Array maps are pre-populated to capacity: novel keys are rejected
        # (-E2BIG), which is what makes reset()'s zero-dirty-buffers
        # strategy complete for them.
        extra = (9).to_bytes(4, "little")
        assert state.update(extra, b"\xaa" * 8) == -1
        state.reset()
        fresh = MapState(definition)
        assert state.snapshot() == fresh.snapshot()
        assert state.lookup(key) == fresh.lookup(key)

    def test_hash_map_reset_clears_entries_and_addresses(self):
        definition = MapDef(fd=2, name="h", map_type=MapType.HASH,
                            key_size=4, value_size=4, max_entries=8)
        state = MapState(definition)
        key = b"\x01\x02\x03\x04"
        state.update(key, b"\x05\x06\x07\x08")
        first_address = state.lookup(key)
        state.reset()
        assert len(state) == 0
        # Address allocation replays identically after a reset.
        state.update(key, b"\x05\x06\x07\x08")
        assert state.lookup(key) == first_address

    def test_resettable_machine_packet_resize(self):
        program = get_benchmark("xdp_exception").program()
        machine = ResettableMachine(program.hook, program.maps)
        machine.reset(ProgramInput(packet=bytes(range(64))))
        assert machine.packet_bytes() == bytes(range(64))
        machine.reset(ProgramInput(packet=b"\x01" * 8))
        assert machine.packet_bytes() == b"\x01" * 8


# --------------------------------------------------------------------------- #
# Batch API
# --------------------------------------------------------------------------- #
class TestRunBatch:
    def _faulting_setup(self):
        # Faults only on packets shorter than 4 bytes (packet bounds check
        # omitted on purpose).
        program = prog("""
            ldxw r2, [r1+0]
            ldxw r0, [r2+0]
            exit
        """)
        good = ProgramInput(packet=bytes(64))
        bad = ProgramInput(packet=b"")
        return program, good, bad

    def test_stop_on_first_fault_truncates_batch(self):
        program, good, bad = self._faulting_setup()
        for engine in (ExecutionEngine(), Interpreter()):
            outputs = engine.run_batch(
                program, [good, bad, good],
                stop=lambda index, output: output.fault is not None)
            assert len(outputs) == 2
            assert outputs[0].fault is None
            assert outputs[1].fault is not None

    def test_full_batch_by_default(self):
        program, good, bad = self._faulting_setup()
        outputs = ExecutionEngine().run_batch(program, [good, bad, good])
        assert [output.fault is None for output in outputs] == \
            [True, False, True]


# --------------------------------------------------------------------------- #
# Pickling, run_program churn fix
# --------------------------------------------------------------------------- #
class TestEngineFactory:
    def test_engine_pickles_with_warm_caches(self):
        engine = ExecutionEngine(step_limit=1000)
        program = get_benchmark("xdp_exception").program()
        test = InputGenerator(program, seed=3).generate_one()
        before = engine.run(program, test)
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.step_limit == 1000
        assert clone.stats()["program_misses"] == 0   # caches dropped
        after = clone.run(program, test)
        assert output_fingerprint(before) == output_fingerprint(after)

    def test_run_program_reuses_thread_engine(self):
        from repro.interpreter import interpreter as interpreter_module
        program = get_benchmark("xdp_exception").program()
        test = InputGenerator(program, seed=3).generate_one()
        run_program(program, test)
        shared = interpreter_module._thread_engines.engine
        assert isinstance(shared, ExecutionEngine)
        run_program(program, test)
        assert interpreter_module._thread_engines.engine is shared
        # Explicit kwargs still take the one-shot legacy path.
        output = run_program(program, test, step_limit=123456)
        assert output_fingerprint(output) == \
            output_fingerprint(shared.run(program, test))

    def test_run_program_engine_is_thread_local(self):
        import threading
        from repro.interpreter import interpreter as interpreter_module
        program = get_benchmark("xdp_exception").program()
        test = InputGenerator(program, seed=3).generate_one()
        run_program(program, test)
        main_engine = interpreter_module._thread_engines.engine
        seen = {}

        def worker():
            run_program(program, test)
            seen["engine"] = interpreter_module._thread_engines.engine

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen["engine"] is not main_engine

    def test_machine_rebuilt_when_map_environment_mutated(self):
        # A shared MapEnvironment mutated in place between runs must not
        # leave the engine executing against a stale machine.
        maps = MapEnvironment()
        program = prog("mov64 r0, 0\nexit", maps=maps)
        engine = ExecutionEngine()
        test = ProgramInput(packet=bytes(64))
        assert engine.run(program, test).maps == {}
        maps.add(MapDef(fd=1, name="late", map_type=MapType.ARRAY,
                        key_size=4, value_size=8, max_entries=2))
        lookup = prog("""
            mov64 r2, r10
            add64 r2, -4
            mov64 r1, 0
            stxw [r2+0], r1
            ld_map_fd r1, 1
            call 1
            mov64 r0, 0
            exit
        """, maps=maps)
        decoded_output = engine.run(lookup, test)
        legacy_output = Interpreter().run(lookup, test)
        assert output_fingerprint(decoded_output) == \
            output_fingerprint(legacy_output)
        assert decoded_output.fault is None
        assert 1 in decoded_output.maps


# --------------------------------------------------------------------------- #
# Cost-model regression: estimates unchanged across engines
# --------------------------------------------------------------------------- #
class TestLatencyEstimateRegression:
    def test_device_under_test_service_times_identical(self):
        program = get_benchmark("xdp1").program()
        traffic = TrafficGenerator(program, pool_size=16).pool
        dut = DeviceUnderTest(program)
        legacy = Interpreter(
            opcode_cost_fn=DEFAULT_LATENCY_MODEL.instruction_cost)
        legacy_times = [output.estimated_ns + dut.per_packet_overhead_ns
                        for output in legacy.run_batch(program, traffic)]
        assert dut.service_times_ns(traffic) == legacy_times

    def test_static_program_cost_unaffected_by_engine(self):
        # The static estimate never touches an engine; pin a couple of
        # absolute values so cost-table drift is caught explicitly.
        program = prog("mov64 r0, 0\nexit")
        assert DEFAULT_LATENCY_MODEL.program_cost(program) == 2.0
        call = prog("mov64 r0, 0\ncall 7\nexit")  # bpf_get_prandom_u32
        assert DEFAULT_LATENCY_MODEL.program_cost(call) == 10.0


# --------------------------------------------------------------------------- #
# Search-level identity: chains on the decoded engine == on the interpreter
# --------------------------------------------------------------------------- #
class TestSearchIdentityAcrossEngines:
    @pytest.mark.slow
    def test_decoded_search_bit_identical_to_legacy(self):
        source = get_benchmark("xdp_exception").program()
        signatures = {
            name: engine_chain_signatures(source, make_engine,
                                          iterations=150, seed=11)
            for name, make_engine in (("legacy", Interpreter),
                                      ("decoded", ExecutionEngine))}
        assert signatures["decoded"] == signatures["legacy"]
