"""Span tracer for the benchmark's traced runs (``--trace 1``).

The tracer wraps the public entry points of each K2 layer from outside:
nothing in ``src/`` changes.  Each wrapped call records a span
``(id, parent id, name, start, end)`` in memory; parents come from a
per-thread stack, so concurrent daemon job threads keep separate trees.
Spans are written out when the traced process ends, together with a
summary of per-name counts, inclusive time and self time (a span's
duration minus the time its child spans cover) and the counters the
wrappers collect (SAT conflicts, engine tests, checkpoint bytes, ...).

A span's layer is its name up to the first dot.  A call that re-enters a
span of the same name (``run_batch`` calling ``super().run_batch``, a
lockstep lane re-run through ``run``) is folded into the outer span.

Processes forked from a traced process (the serve daemon's process-pool
workers) start with an empty trace and write their own file at exit.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import multiprocessing.util
import os
import threading
import time
import weakref
from typing import Callable, Dict, Optional

#: Stage classes of the verification pipeline, by span name suffix.
STAGES = {"safety": "StaticSafetyStage", "replay": "InterpreterReplayStage",
          "cache": "CacheLookupStage", "window": "WindowCheckStage",
          "full": "FullSymbolicStage"}


class Tracer:
    """In-memory span and counter registry of one process."""

    def __init__(self, out_path: Optional[str] = None):
        self.out_path = out_path
        self.spans = []
        self.counters: Dict[str, float] = collections.defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._engine_seen = weakref.WeakKeyDictionary()

    def _reset(self) -> None:
        # In place: the installed wrappers hold these containers.
        self.spans.clear()
        self.counters.clear()
        self._engine_seen.clear()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------ #
    def wrap(self, owner, attr: str, name: str,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(args)`` runs ahead of the call and its value is handed to
        ``after(args, result, state)``, which runs even when the call
        raises (``result`` is then None).
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1][1] == name:
                return original(*args, **kwargs)
            parent = stack[-1][0] if stack else 0
            span_id = next(tracer._ids)
            state = before(args) if before is not None else None
            stack.append((span_id, name))
            result = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent, name, start, end))
                if after is not None:
                    after(args, result, state)

        setattr(owner, attr, traced)

    def count(self, owner, attr: str, after: Callable) -> None:
        """Wrap ``owner.attr`` with counters only (no span): for calls too
        cheap and frequent to time individually."""
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            after(args, result)
            return result

        setattr(owner, attr, counted)

    # ------------------------------------------------------------------ #
    def summary(self) -> dict:
        """Per-name ``[count, total_s, self_s, max_s]``, counters, and the
        time covered by top-level spans."""
        child_time: Dict[int, float] = collections.defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent:
                child_time[parent] += end - start
        names: Dict[str, list] = {}
        toplevel = 0.0
        for span_id, parent, name, start, end in self.spans:
            duration = end - start
            row = names.setdefault(name, [0, 0.0, 0.0, 0.0])
            row[0] += 1
            row[1] += duration
            row[2] += duration - child_time.get(span_id, 0.0)
            row[3] = max(row[3], duration)
            if not parent:
                toplevel += duration
        return {"spans": names, "counters": dict(self.counters),
                "toplevel_s": toplevel}

    def dump(self, path: Optional[str] = None) -> None:
        """Write the summary and every raw span to ``path`` as JSON."""
        path = path or self.out_path
        if path is None:
            return
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"pid": os.getpid(), "summary": self.summary(),
                       "spans": self.spans}, handle)

    def _after_fork(self) -> None:
        self._reset()
        if self.out_path is not None:
            multiprocessing.util.Finalize(
                self, self.dump,
                args=(f"{self.out_path}.{os.getpid()}",), exitpriority=0)

    # ------------------------------------------------------------------ #
    def install(self) -> "Tracer":
        """Wrap every layer's entry points (call before building any
        repro object)."""
        from repro.analysis import AbstractAnalyzer
        from repro.engine import BatchedEngine, ExecutionEngine, FusedEngine
        from repro.equivalence import (
            EquivalenceCache, EquivalenceChecker, WindowEquivalenceChecker,
        )
        from repro.safety import SafetyChecker
        from repro.service import DaemonClient
        from repro.smt.sat import IncrementalSatSolver
        from repro.smt.solver import Solver
        from repro.store import VerdictStore
        from repro.synthesis import mcmc, parallel
        from repro.synthesis.proposals import ProposalGenerator
        from repro.synthesis.testcases import TestSuite
        from repro.verification import VerificationPipeline, stages
        from repro.verifier import KernelChecker

        c = self.counters

        # synthesis: the MH step, proposals, cost (at the names mcmc
        # looks up), and test-suite replay.
        def step_before(args):
            return args[0].stats.proposals_accepted

        def step_after(args, result, accepted):
            c["synthesis.iterations"] += 1
            c["synthesis.accepted"] += \
                args[0].stats.proposals_accepted - accepted

        self.wrap(mcmc.MarkovChain, "step", "synthesis.step",
                  step_before, step_after)
        self.wrap(ProposalGenerator, "propose", "synthesis.propose")
        self.wrap(mcmc, "error_cost", "synthesis.cost")
        self.wrap(mcmc, "performance_cost", "synthesis.cost")
        self.wrap(TestSuite, "run_candidate", "synthesis.testcases")

        # engine: every tier's run/run_batch, folded into one span name.
        seen = self._engine_seen

        def engine_after(args, result, state):
            c["engine.tests_run"] += 1 if state == "run" else \
                len(result or ())
            engine = args[0]
            stats = engine.stats()
            now = (stats.get("lockstep_batches", 0),
                   stats.get("fallbacks", 0))
            last = seen.get(engine, (0, 0))
            c["engine.lockstep_batches"] += now[0] - last[0]
            c["engine.fused_fallbacks"] += now[1] - last[1]
            seen[engine] = now

        self.wrap(ExecutionEngine, "run", "engine.run",
                  lambda args: "run", engine_after)
        for cls in (ExecutionEngine, FusedEngine, BatchedEngine):
            self.wrap(cls, "run_batch", "engine.run",
                      lambda args: "batch", engine_after)

        # safety / analysis
        def safety_after(args, result, state):
            c["safety.checks"] += 1
            c["safety.unsafe"] += result is not None and not result.safe

        def analyze_before(args):
            return args[0].program_memo_hits

        def analyze_after(args, result, hits):
            c["analysis.analyses"] += 1
            c["analysis.memo_hits"] += args[0].program_memo_hits - hits

        self.wrap(SafetyChecker, "check", "safety.check", after=safety_after)
        self.wrap(AbstractAnalyzer, "analyze", "analysis.analyze",
                  analyze_before, analyze_after)

        # verification: the pipeline and each stage's run
        def verify_after(args, result, state):
            c["verification.inconclusive"] += \
                result is not None and result.concluded_by == "none"

        self.wrap(VerificationPipeline, "verify", "verification.verify",
                  after=verify_after)
        for stage, cls_name in STAGES.items():
            def stage_after(args, result, state, stage=stage):
                c[f"verification.{stage}.attempts"] += 1
                c[f"verification.{stage}.decided"] += \
                    result is not None and result.outcome.conclusive
            self.wrap(getattr(stages, cls_name), "run",
                      f"verification.{stage}", after=stage_after)

        # equivalence
        def check_after(args, result, state):
            c["equivalence.checks"] += 1

        def lookup_after(args, result):
            c["equivalence.cache_lookups"] += 1
            c["equivalence.cache_hits"] += result is not None

        self.wrap(EquivalenceChecker, "check", "equivalence.check",
                  after=check_after)
        self.wrap(WindowEquivalenceChecker, "check", "equivalence.window",
                  after=check_after)
        self.count(EquivalenceCache, "lookup", lookup_after)

        # smt: SAT search (effort from the solver's cumulative counters)
        # and bit-blasting.  Blasting enters through the solver's pending
        # queue, which covers BitBlaster.assert_expr for base assertions
        # and the blast_bool calls of scoped assertions and assumptions.
        def solve_before(args):
            return args[0].conflicts, args[0].decisions

        def solve_after(args, result, state):
            c["smt.solves"] += 1
            c["smt.conflicts"] += args[0].conflicts - state[0]
            c["smt.decisions"] += args[0].decisions - state[1]

        self.wrap(IncrementalSatSolver, "solve", "smt.solve",
                  solve_before, solve_after)
        self.wrap(Solver, "_blast_pending", "smt.blast")

        # store and checkpoint
        def flush_before(args):
            return sum(len(line) for line in args[0]._pending)

        def flush_after(args, result, pending_bytes):
            c["store.flushes"] += 1
            c["store.bytes_written"] += pending_bytes

        def checkpoint_after(args, result, state):
            c["checkpoint.writes"] += 1
            c["checkpoint.bytes"] += len(args[0]._pending[-1])

        self.wrap(VerdictStore, "load", "store.load")
        self.wrap(VerdictStore, "flush", "store.flush",
                  flush_before, flush_after)
        self.wrap(VerdictStore, "record_checkpoint", "checkpoint.record",
                  after=checkpoint_after)
        self.wrap(parallel, "build_controller_payload", "checkpoint.build")

        # verifier
        def load_after(args, result, state):
            c["verifier.loads"] += 1
            c["verifier.rejected"] += result is not None \
                and not result.accepted

        self.wrap(KernelChecker, "load", "verifier.load", after=load_after)

        # service (client side)
        self.wrap(DaemonClient, "submit", "service.submit")
        self.wrap(DaemonClient, "wait", "service.wait")

        multiprocessing.util.register_after_fork(self, Tracer._after_fork)
        return self
