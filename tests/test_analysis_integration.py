"""Integration tests: the fused analyzer threaded through the system.

Covers the windowed scheduler's static safety check of the stitched program
before its final proof.
"""

from repro.bpf import BpfProgram, HookType, assemble, get_hook
from repro.synthesis import SearchOptions
from repro.synthesis.windows import WindowedScheduler
from repro.verifier import KernelChecker


def _prog(text, name="prog"):
    return BpfProgram(instructions=assemble(text),
                      hook=get_hook(HookType.XDP), name=name)


SAFE = "mov64 r0, 2\nmov64 r1, 7\nadd64 r1, 1\nexit"
UNSAFE = "ldxw r2, [r1+0]\nldxb r0, [r2+0]\nexit"


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
