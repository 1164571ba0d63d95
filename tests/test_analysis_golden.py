"""Golden verdict regression corpus for the safety analyzers.

``tests/golden_verdicts.json`` pins, for every corpus benchmark and every
hand-written variant in :mod:`golden_helpers`, the expected verdict:
``safe`` flag, the set of violation kinds, and the kernel-checker accept
bit.  The safety checker and the kernel checker must reproduce the pinned
verdicts — if a transfer-function change shifts any verdict, this suite
fails loudly and the golden file must be regenerated *deliberately*.

Regenerate after an intentional semantic change with::

    PYTHONPATH=src:tests python tests/test_analysis_golden.py --regenerate
"""

import json

import pytest

from golden_helpers import GOLDEN_PATH, unsafe_variants
from repro.corpus import all_benchmarks
from repro.safety import SafetyChecker
from repro.verifier import KernelChecker

#: The analysis implementation the pinned verdicts belong to; the fused
#: analyzer is the only one, and the ``[fused]`` test ids stay stable.
MODES = ("fused",)


def observed_verdict(program):
    result = SafetyChecker().check(program)
    kernel = KernelChecker().load(program)
    return {"safe": result.safe,
            "kinds": sorted({v.kind.value for v in result.violations}),
            "kernel_accepted": bool(kernel.accepted)}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("mode", MODES)
def test_corpus_verdicts_match_golden(golden, mode):
    drift = {}
    for bench in all_benchmarks():
        expected = golden["corpus"][bench.name]
        got = observed_verdict(bench.program())
        if got != expected:
            drift[bench.name] = (expected, got)
    assert not drift, f"verdict drift ({mode}): {drift}"


@pytest.mark.parametrize("mode", MODES)
def test_variant_verdicts_match_golden(golden, mode):
    drift = {}
    for name, program in unsafe_variants().items():
        expected = golden["variants"][name]
        got = observed_verdict(program)
        if got != expected:
            drift[name] = (expected, got)
    assert not drift, f"verdict drift ({mode}): {drift}"


def test_golden_covers_every_benchmark(golden):
    assert set(golden["corpus"]) == {b.name for b in all_benchmarks()}
    assert set(golden["variants"]) == set(unsafe_variants())


def test_variants_exercise_both_verdicts(golden):
    safes = [n for n, v in golden["variants"].items() if v["safe"]]
    unsafes = [n for n, v in golden["variants"].items() if not v["safe"]]
    assert len(safes) >= 2 and len(unsafes) >= 15


def _regenerate():  # pragma: no cover - maintenance entry point
    golden = {"corpus": {}, "variants": {}}
    for bench in all_benchmarks():
        golden["corpus"][bench.name] = observed_verdict(bench.program())
    for name, program in unsafe_variants().items():
        golden["variants"][name] = observed_verdict(program)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
    print(f"regenerated {GOLDEN_PATH}")


if __name__ == "__main__":  # pragma: no cover
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
