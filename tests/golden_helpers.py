"""Shared helpers for the golden regression corpora.

Two golden files live next to this module:

* ``golden_verdicts.json`` pins the analyzer verdict (safe/unsafe +
  violation kinds) for every :mod:`repro.corpus` benchmark and for a set
  of hand-written unsafe variants, one per violation class.  The safety
  checker and the kernel checker must reproduce the pinned verdicts
  exactly, so verdict drift — a transfer-function change that silently
  accepts more or fewer programs — fails loudly.
* ``golden_trajectories.json`` pins search trajectories and SAT-core
  answers (see ``test_golden_trajectories.py``); its searches are compared
  through :func:`search_signature`, the one search-identity signature every
  bit-identity test in the suite uses.
"""

from repro.bpf import BpfProgram, HookType, assemble, get_hook
from repro.bpf.maps import MapDef, MapEnvironment, MapType
from repro.synthesis import (
    MarkovChain, PerformanceGoal, TestSuite, all_parameter_settings,
)

__all__ = ["GOLDEN_PATH", "TRAJECTORIES_PATH", "chain_signature",
           "engine_chain_signatures", "search_signature", "unsafe_variants",
           "verification_signature"]

import os

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_verdicts.json")
TRAJECTORIES_PATH = os.path.join(os.path.dirname(__file__),
                                 "golden_trajectories.json")


def verification_signature(stats):
    """Per-stage verification counters without wall-clock fields."""
    return tuple(sorted(
        (stage, tuple(sorted((key, value) for key, value in counters.items()
                             if key != "seconds")))
        for stage, counters in stats.items()))


def chain_signature(chain_result):
    """Everything about a ChainResult except wall-clock timing fields."""
    s = chain_result.statistics
    return (
        s.iterations, s.proposals_accepted, s.proposals_unsafe,
        s.test_failures, s.equivalence_checks, s.equivalence_cache_hits,
        s.counterexamples_added, s.verified_candidates,
        s.best_found_at_iteration, s.cross_chain_cache_hits,
        s.counterexamples_received, verification_signature(s.verification),
        tuple((c.program.structural_key(), c.perf_cost, c.instruction_count,
               c.found_at_iteration) for c in chain_result.candidates),
    )


def engine_chain_signatures(source, make_engine, iterations, seed,
                            num_settings=2):
    """:func:`chain_signature` of one chain per Table 8 size setting, each
    chain running on its own ``make_engine()`` instance.

    Chains and suites are seeded the way the search controller seeds chain
    ``index``, so comparing two engine classes compares two trajectories
    of the same search.
    """
    settings = all_parameter_settings(PerformanceGoal.INSTRUCTION_COUNT)
    signatures = []
    for index, setting in enumerate(settings[:num_settings]):
        engine = make_engine()
        chain = MarkovChain(source, cost_settings=setting.cost,
                            probabilities=setting.probabilities,
                            seed=seed * 1009 + index,
                            test_suite=TestSuite(source, seed=seed + index,
                                                 engine=engine),
                            engine=engine)
        signatures.append(chain_signature(chain.run(iterations)))
    return signatures


def search_signature(result):
    """Everything deterministic about a SearchResult.

    Two searches with equal signatures followed the same trajectory: same
    per-chain counters and verification-stage tallies, same candidates,
    same best program, same shared-cache statistics.  Wall-clock fields
    are left out.  Comparisons that legitimately differ in a field (a
    pure-speed memo counter, say) drop it explicitly at the call site.
    """
    return (
        [chain_signature(c) for c in result.chain_results],
        result.best_program.structural_key(),
        result.rejected_by_kernel_checker,
        result.counterexamples_shared,
        {k: v for k, v in result.cache_stats.items()},
    )


def _prog(text, maps=None, hook=HookType.XDP, name="variant"):
    return BpfProgram(instructions=assemble(text), hook=get_hook(hook),
                      maps=maps or MapEnvironment(), name=name)


def _maps():
    return MapEnvironment([MapDef(fd=1, name="m", map_type=MapType.ARRAY,
                                  key_size=4, value_size=8, max_entries=4)])


def unsafe_variants():
    """Named hand-written variants, one per §6 violation class."""
    variants = {
        "loop": _prog("mov64 r0, 0\nadd64 r0, 1\njlt r0, 5, -2\nexit"),
        "unreachable_code": _prog("mov64 r0, 0\nja +1\nmov64 r0, 9\nexit"),
        "missing_exit": _prog("mov64 r0, 0\nmov64 r1, 1"),
        "unchecked_packet_access": _prog(
            "ldxw r2, [r1+0]\nldxb r0, [r2+0]\nexit"),
        "packet_access_past_bound": _prog(
            "mov64 r0, 2\n"
            "ldxw r2, [r1+0]\nldxw r3, [r1+4]\n"
            "mov64 r4, r2\nadd64 r4, 14\njgt r4, r3, +2\n"
            "ldxb r5, [r2+20]\nmov64 r0, 1\nexit"),
        "stack_out_of_bounds": _prog(
            "mov64 r2, 1\nstxdw [r10+8], r2\nmov64 r0, 0\nexit"),
        "stack_read_before_write": _prog("ldxdw r0, [r10-8]\nexit"),
        "misaligned_stack_access": _prog(
            "mov64 r2, 1\nstxdw [r10-12], r2\nmov64 r0, 0\nexit"),
        "uninitialized_register": _prog("mov64 r0, r7\nexit"),
        "clobbered_after_call": _prog(
            "mov64 r3, 1\ncall bpf_get_smp_processor_id\n"
            "mov64 r0, r3\nexit"),
        "unchecked_map_lookup": _prog(
            "mov64 r6, 0\nstxw [r10-4], r6\nmov64 r2, r10\nadd64 r2, -4\n"
            "ld_map_fd r1, 1\ncall bpf_map_lookup_elem\n"
            "ldxdw r0, [r0+0]\nexit", maps=_maps()),
        "map_value_out_of_bounds": _prog(
            "mov64 r6, 0\nstxw [r10-4], r6\nmov64 r2, r10\nadd64 r2, -4\n"
            "ld_map_fd r1, 1\ncall bpf_map_lookup_elem\n"
            "jeq r0, 0, +2\nldxdw r0, [r0+8]\nexit\nmov64 r0, 0\nexit",
            maps=_maps()),
        "ctx_store": _prog(
            "mov64 r2, 1\nstxw [r1+12], r2\nmov64 r0, 0\nexit"),
        "pointer_arithmetic": _prog(
            "mov64 r2, r1\nmul64 r2, 4\nmov64 r0, 0\nexit"),
        "pointer_leak": _prog("mov64 r0, r10\nexit"),
        "write_to_r10": _prog("mov64 r10, 4\nmov64 r0, 0\nexit"),
        "bad_return_value": _prog("mov64 r0, 77\nexit"),
        "bad_jump_target": _prog("mov64 r0, 0\nja +9\nexit"),
        # A safe control: the canonical bounds-checked parser.
        "safe_parser": _prog(
            "mov64 r0, 2\n"
            "ldxw r2, [r1+0]\nldxw r3, [r1+4]\n"
            "mov64 r4, r2\nadd64 r4, 14\njgt r4, r3, +2\n"
            "ldxb r5, [r2+12]\nmov64 r0, 1\nexit"),
        "safe_checked_lookup": _prog(
            "mov64 r6, 0\nstxw [r10-4], r6\nmov64 r2, r10\nadd64 r2, -4\n"
            "ld_map_fd r1, 1\ncall bpf_map_lookup_elem\n"
            "jeq r0, 0, +2\nldxdw r0, [r0+0]\nexit\nmov64 r0, 0\nexit",
            maps=_maps()),
    }
    for name, program in variants.items():
        program.name = name
    return variants
