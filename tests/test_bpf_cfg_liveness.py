"""Tests for CFG construction, liveness analysis, dead-code elimination and
the per-instruction abstract states of the fused analysis."""

import pytest

from repro.analysis import states_before
from repro.bpf import (
    CfgError, HookType, assemble, build_cfg, compute_liveness,
    dead_code_eliminate, get_hook,
)
from repro.bpf.regions import MemRegion


BRANCHY = """
    mov64 r0, 2
    ldxw r2, [r1+0]
    ldxw r3, [r1+4]
    mov64 r4, r2
    add64 r4, 14
    jgt r4, r3, +4
    ldxh r5, [r2+12]
    be16 r5
    jne r5, 0x0800, +1
    mov64 r0, 1
    exit
"""


class TestCfg:
    def test_block_count_and_edges(self):
        insns = assemble(BRANCHY)
        cfg = build_cfg(insns)
        assert len(cfg.blocks) == 4
        entry = cfg.entry_block
        assert entry.start == 0
        assert sorted(entry.successors) == [1, 3]

    def test_loop_free_and_topological_order(self):
        cfg = build_cfg(assemble(BRANCHY))
        assert cfg.is_loop_free()
        order = cfg.topological_order()
        assert order[0] == 0
        assert len(order) == len(cfg.blocks)

    def test_back_edge_detected(self):
        looping = assemble("""
        mov64 r0, 0
        add64 r0, 1
        jlt r0, 10, -2
        exit
        """)
        cfg = build_cfg(looping)
        assert not cfg.is_loop_free()
        assert cfg.has_back_edge()
        with pytest.raises(CfgError):
            cfg.topological_order()

    def test_unreachable_block_detected(self):
        insns = assemble("""
        mov64 r0, 0
        ja +1
        mov64 r0, 99
        exit
        """)
        cfg = build_cfg(insns)
        unreachable = cfg.unreachable_blocks()
        assert len(unreachable) == 1

    def test_out_of_range_jump_raises(self):
        insns = assemble("jeq r1, 0, +10\nexit")
        with pytest.raises(CfgError):
            build_cfg(insns)

    def test_dominators(self):
        cfg = build_cfg(assemble(BRANCHY))
        assert cfg.dominates(0, len(cfg.blocks) - 1)
        assert not cfg.dominates(1, 0)

    def test_longest_path(self):
        cfg = build_cfg(assemble(BRANCHY))
        assert cfg.longest_path_length() >= 3


class TestLiveness:
    def test_ctx_register_live_at_entry(self):
        insns = assemble(BRANCHY)
        liveness = compute_liveness(insns)
        assert 1 in liveness.live_in_at(0)

    def test_r0_live_out_of_exit_predecessor(self):
        insns = assemble("mov64 r0, 3\nexit")
        liveness = compute_liveness(insns)
        assert 0 in liveness.live_out_at(0)

    def test_overwritten_register_not_live(self):
        insns = assemble("""
        mov64 r2, 1
        mov64 r2, 2
        mov64 r0, r2
        exit
        """)
        liveness = compute_liveness(insns)
        # The first definition of r2 is dead.
        assert 2 not in liveness.live_out_at(0)

    def test_dead_code_eliminated(self):
        insns = assemble("""
        mov64 r3, 77
        mov64 r0, 1
        exit
        """)
        result = dead_code_eliminate(insns)
        assert result[0].is_nop
        assert not result[1].is_nop

    def test_stores_and_calls_never_eliminated(self):
        insns = assemble("""
        mov64 r2, 5
        stxdw [r10-8], r2
        mov64 r0, 0
        exit
        """)
        result = dead_code_eliminate(insns)
        assert not any(insn.is_nop for insn in result)

    def test_chained_dead_code_eliminated(self):
        insns = assemble("""
        mov64 r3, 1
        add64 r3, 2
        mov64 r4, r3
        mov64 r0, 0
        exit
        """)
        result = dead_code_eliminate(insns)
        assert sum(1 for insn in result if insn.is_nop) == 3


class TestTypeAnalysis:
    def test_packet_pointer_tracked_from_ctx(self):
        insns = assemble(BRANCHY)
        states = states_before(insns, get_hook(HookType.XDP))
        value = states[6].regs[2]
        assert value.region == MemRegion.PACKET
        assert value.offset == 0

    def test_packet_bound_established_by_check(self):
        insns = assemble(BRANCHY)
        states = states_before(insns, get_hook(HookType.XDP))
        assert states[6].packet_bound == 14
        assert states[0].packet_bound == 0

    def test_stack_pointer_offsets(self):
        insns = assemble("""
        mov64 r2, r10
        add64 r2, -8
        stxdw [r2+0], r1
        mov64 r0, 0
        exit
        """)
        states = states_before(insns, get_hook(HookType.XDP))
        value = states[2].regs[2]
        assert value.region == MemRegion.STACK
        assert value.offset == 512 - 8

    def test_constant_propagation(self):
        insns = assemble("""
        mov64 r3, 4
        add64 r3, 6
        lsh64 r3, 1
        mov64 r0, r3
        exit
        """)
        states = states_before(insns, get_hook(HookType.XDP))
        assert states[3].regs[3].const == 20

    def test_map_pointer_and_lookup_result(self):
        insns = assemble("""
        mov64 r2, r10
        add64 r2, -4
        stw [r2+0], 0
        ld_map_fd r1, 7
        call bpf_map_lookup_elem
        jeq r0, 0, +1
        ldxdw r3, [r0+0]
        mov64 r0, 0
        exit
        """)
        states = states_before(insns, get_hook(HookType.XDP))
        map_ptr = states[4].regs[1]
        assert map_ptr.region == MemRegion.MAP_PTR and map_ptr.map_fd == 7
        lookup = states[5].regs[0]
        assert lookup.region == MemRegion.MAP_VALUE and lookup.maybe_null
        checked = states[6].regs[0]
        assert checked.region == MemRegion.MAP_VALUE and not checked.maybe_null

    def test_merge_at_join_loses_conflicting_constants(self):
        insns = assemble("""
        jeq r1, 0, +2
        mov64 r2, 1
        ja +1
        mov64 r2, 2
        mov64 r0, r2
        exit
        """)
        states = states_before(insns, get_hook(HookType.XDP))
        merged = states[4].regs[2]
        assert merged.region == MemRegion.SCALAR
        assert merged.const is None
