"""Fault injection for the supervised worker fleet (repro.synthesis.parallel).

The controller's supervision contract: a worker killed mid-generation
(``BrokenProcessPool``) costs a pool rebuild and a replay of that
generation from its seeded snapshot — never a different answer.  Replay is
safe because process workers operate on pickled copies; the parent's chain
objects are only mutated when a generation's outcomes are merged back, so
a crashed generation leaves them exactly at the previous boundary.

The kill switch is ``repro.synthesis.parallel._FAULT_HOOK``: a module
global invoked at the top of ``run_chain_generation``.  Linux pools fork,
so workers inherit the parent's module state; a marker file opened with
``O_CREAT | O_EXCL`` makes the kill fire exactly once across the fleet.
"""

import concurrent.futures
import os
import signal

import pytest

import repro.synthesis.parallel as parallel_mod
from repro.bpf import BpfProgram, HookType, assemble, get_hook
from repro.bpf.maps import MapEnvironment
from repro.synthesis import SearchOptions, Synthesizer
from golden_helpers import search_signature
from test_parallel_search import REDUNDANT


def prog(text, hook=HookType.XDP):
    return BpfProgram(instructions=assemble(text), hook=get_hook(hook),
                      maps=MapEnvironment(), name="prog")


def _kill_once(marker_path):
    """A fault hook that SIGKILLs the first worker to claim the marker."""
    def hook(unit):
        try:
            fd = os.open(marker_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return  # someone else already died for the cause
        os.close(fd)
        os.kill(os.getpid(), signal.SIGKILL)
    return hook


def _kill_always(unit):
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.fixture
def fault_hook():
    """Install a fault hook for the test and always uninstall it after."""
    def install(hook):
        parallel_mod._FAULT_HOOK = hook
    yield install
    parallel_mod._FAULT_HOOK = None


OPTIONS = dict(iterations_per_chain=160, num_parameter_settings=2,
               seed=7, sync_interval=40)


class TestWorkerCrashRecovery:
    def test_sigkilled_worker_is_retried_bit_identically(self, tmp_path,
                                                         fault_hook):
        source = prog(REDUNDANT)
        clean = Synthesizer(SearchOptions(executor="process", num_workers=2,
                                          **OPTIONS)).optimize(source)
        assert clean.worker_retries == 0

        fault_hook(_kill_once(str(tmp_path / "killed")))
        survived = Synthesizer(SearchOptions(executor="process",
                                             num_workers=2,
                                             **OPTIONS)).optimize(source)
        assert (tmp_path / "killed").exists(), "fault hook never fired"
        # One generation was replayed: the retry is surfaced per chain and
        # summed on the SearchResult...
        assert survived.worker_retries >= 1
        assert any(chain.statistics.worker_retries > 0
                   for chain in survived.chain_results)
        # ...and nothing else may differ (chain_signature omits the
        # worker_retries counter, so search_signature compares clean).
        assert search_signature(clean) == search_signature(survived)

    def test_retry_budget_exhaustion_raises(self, fault_hook):
        fault_hook(_kill_always)
        options = SearchOptions(executor="process", num_workers=2,
                                max_worker_retries=1,
                                worker_retry_backoff_seconds=0.01, **OPTIONS)
        with pytest.raises(concurrent.futures.BrokenExecutor):
            Synthesizer(options).optimize(prog(REDUNDANT))

    def test_serial_runs_report_no_retries(self):
        result = Synthesizer(SearchOptions(executor="serial",
                                           **OPTIONS)).optimize(
            prog(REDUNDANT))
        assert result.executor_used == "serial"
        assert result.worker_retries == 0
        assert all(chain.statistics.worker_retries == 0
                   for chain in result.chain_results)
