"""Executor backends for the parallel multi-chain search engine.

The controller (:mod:`repro.synthesis.parallel`) dispatches chain work units
over a :class:`concurrent.futures.Executor`.  Two backends are supported:

``serial``
    :class:`SerialExecutor` — runs every submission inline, in submission
    order, in the calling process.  Fully deterministic; the default when
    ``num_workers == 1`` and the backend used by the reproducibility tests.

``process``
    :class:`concurrent.futures.ProcessPoolExecutor` — one OS process per
    worker; the default whenever ``num_workers > 1``.  Work units are
    pickled to the workers and their mutated chains pickled back.

Because the controller snapshots all shared state at generation boundaries
(see :mod:`repro.synthesis.parallel`), both backends compute the same
results for the same seed — only wall-clock timing differs.
"""

from __future__ import annotations

import concurrent.futures
from typing import Callable

__all__ = ["SerialExecutor", "EXECUTOR_KINDS", "resolve_executor_kind",
           "create_executor"]

#: Accepted values for ``SearchOptions.executor``.
EXECUTOR_KINDS = ("auto", "serial", "process")


class SerialExecutor(concurrent.futures.Executor):
    """A deterministic in-process executor.

    ``submit`` runs the callable immediately and returns an
    already-completed :class:`concurrent.futures.Future`, so the dispatch
    order is exactly the completion order and no concurrency is involved.
    Used for tests and for single-worker runs, where it reproduces the
    behaviour of the original sequential engine exactly.
    """

    def __init__(self):
        self._shutdown = False

    def submit(self, fn: Callable, /, *args, **kwargs
               ) -> concurrent.futures.Future:
        if self._shutdown:
            raise RuntimeError("cannot submit to a shut-down SerialExecutor")
        future: concurrent.futures.Future = concurrent.futures.Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # noqa: BLE001 — mirror executor API
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False):
        self._shutdown = True


def resolve_executor_kind(kind: str, num_workers: int) -> str:
    """Map an ``executor`` option value to a concrete backend name.

    ``auto`` picks ``process`` when more than one worker is requested and
    ``serial`` otherwise, so the default configuration stays deterministic
    and dependency-free.
    """
    if kind not in EXECUTOR_KINDS:
        raise ValueError(
            f"unknown executor {kind!r}; expected one of {EXECUTOR_KINDS}")
    if kind == "auto":
        return "process" if num_workers > 1 else "serial"
    return kind


def create_executor(kind: str, num_workers: int = 1
                    ) -> concurrent.futures.Executor:
    """Instantiate the executor backend named by ``kind`` (post-``auto``)."""
    kind = resolve_executor_kind(kind, num_workers)
    if kind == "serial":
        return SerialExecutor()
    return concurrent.futures.ProcessPoolExecutor(
        max_workers=max(num_workers, 1))
