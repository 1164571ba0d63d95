"""A CDCL SAT solver with incremental solving under assumptions.

This is the decision procedure underneath the bit-vector solver, standing in
for Z3's SAT core.  It implements the standard conflict-driven clause
learning loop:

* unit propagation with two watched literals,
* first-UIP conflict analysis with clause learning and non-chronological
  backjumping,
* VSIDS-style variable activities with exponential decay,
* Luby-sequence restarts,
* phase saving.

Two entry points exist:

* :class:`SatSolver` — the classic one-shot interface: load a :class:`CNF`,
  call :meth:`~IncrementalSatSolver.solve` once.
* :class:`IncrementalSatSolver` — the incremental interface used by the
  scoped :class:`repro.smt.Solver`: variables and clauses may be added
  between ``solve()`` calls, each ``solve()`` may carry *assumption
  literals* (Minisat-style: assumptions are enqueued as the first
  decisions), and learned clauses, variable activities and saved phases
  persist across calls.  Learned clauses are derived by resolution from the
  clause database alone, never from the assumptions, so reusing them across
  queries with different assumptions is sound.

Literal encoding
----------------
The interface speaks DIMACS integers: variables are ``1..num_vars`` and
``-v`` is the negation of ``v`` (``new_var``, ``add_clause``, the
assumptions of ``solve`` and the keys of :attr:`SatResult.model`).
Internally the hot loop follows MiniSat (Eén & Sörensson, "An Extensible
SAT-solver", SAT 2003): literal ``v`` is the code ``2v`` and ``-v`` is
``2v + 1``, so negation is ``code ^ 1`` and the variable is ``code >> 1``.
Assignments live in one list indexed by literal code (``True``, ``False``
or ``None``; both codes of a variable are written together), watch lists
in a list indexed by literal code, and clauses — original and learned —
are lists of codes.  Unit propagation is a single loop with the value
lookups and assignments inlined.

Ordering invariant
------------------
Search trajectories are part of the contract: the same clause database,
call sequence and assumptions give the same propagations, learned
clauses, decisions, models and conflict counts, so equivalence verdicts,
counterexamples and whole synthesis runs are reproducible.  Concretely:

* each watch list is visited in order; a clause's replacement watch is
  its first non-false literal from position 2 on; the falsified watch
  moves to position 1; a clause whose other watch is true at level 0 is
  dropped from the falsified literal's list;
* conflict analysis walks the trail backwards and visits, bumps and
  collects the literals of each clause in clause order;
* a decision is the unassigned variable minimising ``(-activity, var)``.
  The order heap may hold stale entries; ``_queued[v]`` records whether
  the entry carrying ``v``'s current activity is still in it, so an
  unassigned variable only needs a new entry when that one was popped.

Any change to these orders (blocker literals, learned-clause deletion,
separate binary watch lists, another restart or decision policy) is a
heuristic change: it must regenerate ``tests/golden_trajectories.json``
deliberately.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Sequence

from .cnf import CNF

__all__ = ["IncrementalSatSolver", "SatSolver", "SatResult", "solve_cnf"]


class SatResult:
    """Outcome of one satisfiability check.

    ``model`` maps every DIMACS variable to its value (SAT answers only).
    ``conflicts`` and ``decisions`` count the effort of this check alone;
    the solver's own ``conflicts`` and ``decisions`` attributes are the
    lifetime totals over every ``solve()`` call.
    """

    def __init__(self, satisfiable: bool, model: Optional[Dict[int, bool]] = None,
                 conflicts: int = 0, decisions: int = 0,
                 assumption_failed: bool = False):
        self.satisfiable = satisfiable
        self.model = model or {}
        self.conflicts = conflicts
        self.decisions = decisions
        #: True when UNSAT was caused by the assumptions directly conflicting
        #: with the level-0 consequences of the clause database.
        self.assumption_failed = assumption_failed

    def __bool__(self) -> bool:
        return self.satisfiable

    def __repr__(self) -> str:
        return (f"SatResult(sat={self.satisfiable}, conflicts={self.conflicts}, "
                f"decisions={self.decisions})")


def _luby(index: int) -> int:
    """The Luby restart sequence (0-based): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ..."""
    size, seq = 1, 0
    while size < index + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != index:
        size = (size - 1) // 2
        seq -= 1
        index %= size
    return 1 << seq


def _code(lit: int) -> int:
    """Internal code of a DIMACS literal: ``2v`` for ``v``, ``2v+1`` for ``-v``."""
    return lit << 1 if lit > 0 else 1 - (lit << 1)


class IncrementalSatSolver:
    """CDCL solver whose clause database grows across ``solve()`` calls.

    The class duck-types the :class:`CNF` interface (``new_var``,
    ``add_clause``, ``num_vars``) so the bit-blaster can emit clauses
    directly into the live solver.  Clauses must be added while the solver
    is at decision level 0, which is guaranteed because ``solve()`` always
    backtracks fully before returning (including on timeout).
    """

    def __init__(self, max_conflicts: Optional[int] = None):
        self.num_vars = 0
        #: Conflict budget applied to each individual ``solve()`` call.
        self.max_conflicts = max_conflicts
        # Per literal code (codes 0 and 1 belong to the unused variable 0).
        self.lit_values: List[Optional[bool]] = [None, None]
        self.watches: List[List[List[int]]] = [[], []]
        # Per variable.
        self.level: List[int] = [0]
        self.reason: List[Optional[List[int]]] = [None]
        self.activity: List[float] = [0.0]
        #: Saved phase as the sign bit of the variable's last assignment
        #: (1 = negative, the initial phase).
        self.polarity: List[int] = [1]
        self._queued: List[bool] = [False]
        self._seen: List[bool] = [False]
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.propagate_head = 0
        self.clauses: List[List[int]] = []
        self.learned: List[List[int]] = []
        #: Lifetime totals over every ``solve()`` call.
        self.conflicts = 0
        self.decisions = 0
        self.num_solves = 0
        self._contradiction = False
        # Lazy VSIDS order: a heap of (-activity, var) entries, possibly
        # stale (see the module docstring's ordering invariant).
        self._order: List[tuple] = []

    # ------------------------------------------------------------------ #
    # CNF-compatible construction interface
    # ------------------------------------------------------------------ #
    def new_var(self) -> int:
        """Allocate a fresh variable and return its (positive) index."""
        self.num_vars += 1
        var = self.num_vars
        self.lit_values += (None, None)
        self.watches += ([], [])
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(0.0)
        self.polarity.append(1)
        self._queued.append(True)
        self._seen.append(False)
        heappush(self._order, (0.0, var))
        return var

    def add_clause(self, literals: Sequence[int]) -> None:
        """Add one clause (a disjunction of literals) at decision level 0.

        The clause is simplified against the permanent (level-0) assignment:
        satisfied clauses are dropped, false literals are removed.  This
        keeps the two-watched-literal invariant intact for clauses added
        after earlier ``solve()`` calls have fixed variables at level 0.
        """
        if self._contradiction:
            return
        values = self.lit_values
        clause: List[int] = []
        seen = set()
        for lit in literals:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            if abs(lit) > self.num_vars:
                raise ValueError(f"literal {lit} references an unallocated variable")
            if -lit in seen:
                return  # tautology, skip
            if lit in seen:
                continue
            seen.add(lit)
            code = _code(lit)
            value = values[code]
            if value is True:
                return  # satisfied at level 0, permanently true
            if value is False:
                continue  # falsified at level 0, drop the literal
            clause.append(code)
        # Seed the branching activities with literal occurrence counts so the
        # first decisions target heavily-constrained variables.
        activity = self.activity
        weight = 1.0 / max(1, len(clause))
        for code in clause:
            var = code >> 1
            activity[var] += weight
            heappush(self._order, (-activity[var], var))
            self._queued[var] = True
        self._add_clause(clause)

    def add_clauses(self, clauses) -> None:
        for clause in clauses:
            self.add_clause(clause)

    # ------------------------------------------------------------------ #
    # Clause management (clauses are lists of literal codes)
    # ------------------------------------------------------------------ #
    def _add_clause(self, clause: List[int]) -> None:
        if not clause:
            self._contradiction = True
            return
        if len(clause) == 1:
            if not self._enqueue(clause[0], None):
                self._contradiction = True
            return
        self.clauses.append(clause)
        self.watches[clause[0]].append(clause)
        self.watches[clause[1]].append(clause)

    def _enqueue(self, lit: int, reason: Optional[List[int]]) -> bool:
        """Assign literal code ``lit`` true; its current value if assigned."""
        values = self.lit_values
        current = values[lit]
        if current is not None:
            return current
        values[lit] = True
        values[lit ^ 1] = False
        var = lit >> 1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    # ------------------------------------------------------------------ #
    # Unit propagation (two watched literals)
    # ------------------------------------------------------------------ #
    def _propagate(self) -> Optional[List[int]]:
        """Propagate the trail; return a conflicting clause or ``None``."""
        trail = self.trail
        values = self.lit_values
        watches = self.watches
        level = self.level
        reason = self.reason
        current_level = len(self.trail_lim)
        head = self.propagate_head
        while head < len(trail):
            false_lit = trail[head] ^ 1
            head += 1
            watching = watches[false_lit]
            if not watching:
                continue
            # Compact the watch list in place: ``kept`` clauses stay.
            kept = 0
            clauses = iter(watching)
            for clause in clauses:
                # Ensure the false literal is in position 1.
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                value = values[first]
                if value is True:
                    # Satisfied at level 0 (e.g. a retired scope guard):
                    # permanently true — drop it from this watch list so
                    # finished queries stop taxing propagation.
                    if level[first >> 1]:
                        watching[kept] = clause
                        kept += 1
                    continue
                # Look for a replacement watch.
                size = len(clause)
                if size > 2:
                    candidate = clause[2]
                    if values[candidate] is not False:
                        clause[1] = candidate
                        clause[2] = false_lit
                        watches[candidate].append(clause)
                        continue
                    position = 3
                    while position < size:
                        candidate = clause[position]
                        if values[candidate] is not False:
                            clause[1] = candidate
                            clause[position] = false_lit
                            watches[candidate].append(clause)
                            break
                        position += 1
                    if position < size:
                        continue
                # Clause is unit or conflicting.
                watching[kept] = clause
                kept += 1
                if value is False:
                    # Conflict: keep the remaining watches and report.
                    for clause_left in clauses:
                        watching[kept] = clause_left
                        kept += 1
                    del watching[kept:]
                    self.propagate_head = head
                    return clause
                values[first] = True
                values[first ^ 1] = False
                var = first >> 1
                level[var] = current_level
                reason[var] = clause
                trail.append(first)
            del watching[kept:]
        self.propagate_head = head
        return None

    # ------------------------------------------------------------------ #
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------ #
    def _rescale_activity(self) -> None:
        activity = self.activity
        for var in range(1, self.num_vars + 1):
            activity[var] *= 1e-100
        self.var_inc *= 1e-100
        self._rebuild_order()

    def _rebuild_order(self) -> None:
        """Refill the order heap with one current entry per unassigned var."""
        values = self.lit_values
        activity = self.activity
        queued = self._queued
        order = self._order
        order.clear()
        for var in range(1, self.num_vars + 1):
            unassigned = values[var << 1] is None
            queued[var] = unassigned
            if unassigned:
                order.append((-activity[var], var))
        heapify(order)

    def _analyze(self, conflict: List[int]) -> tuple[List[int], int]:
        seen = self._seen
        level = self.level
        reason = self.reason
        trail = self.trail
        activity = self.activity
        queued = self._queued
        order = self._order
        var_inc = self.var_inc
        current_level = len(self.trail_lim)
        # learnt[0] becomes the negated first-UIP literal.
        learnt: List[int] = [0]
        counter = 0
        resolved = -1
        clause = conflict
        trail_index = len(trail) - 1

        while True:
            for lit in clause:
                # Skip the literal we are resolving on (the implied literal
                # of the reason clause).
                if lit == resolved:
                    continue
                var = lit >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    bumped = activity[var] + var_inc
                    activity[var] = bumped
                    if bumped > 1e100:
                        self._rescale_activity()
                        var_inc = self.var_inc
                    else:
                        heappush(order, (-bumped, var))
                        queued[var] = True
                    if level[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(lit)
            # Pick the next literal to resolve on from the trail.
            while not seen[trail[trail_index] >> 1]:
                trail_index -= 1
            resolved = trail[trail_index]
            trail_index -= 1
            var = resolved >> 1
            seen[var] = False
            counter -= 1
            if counter == 0:
                break
            clause = reason[var] or ()
        learnt[0] = resolved ^ 1
        for lit in learnt:
            seen[lit >> 1] = False

        if len(learnt) == 1:
            return learnt, 0
        # Move the (first) literal with the backjump level to position 1.
        best = 1
        backjump_level = level[learnt[1] >> 1]
        for position in range(2, len(learnt)):
            lit_level = level[learnt[position] >> 1]
            if lit_level > backjump_level:
                backjump_level = lit_level
                best = position
        learnt[1], learnt[best] = learnt[best], learnt[1]
        return learnt, backjump_level

    def _backjump(self, target_level: int) -> None:
        trail_lim = self.trail_lim
        if len(trail_lim) > target_level:
            boundary = trail_lim[target_level]
            del trail_lim[target_level:]
            trail = self.trail
            values = self.lit_values
            polarity = self.polarity
            queued = self._queued
            activity = self.activity
            order = self._order
            for lit in trail[boundary:]:
                values[lit] = None
                values[lit ^ 1] = None
                var = lit >> 1
                polarity[var] = lit & 1
                if not queued[var]:
                    heappush(order, (-activity[var], var))
                    queued[var] = True
            del trail[boundary:]
        self.propagate_head = min(self.propagate_head, len(self.trail))

    # ------------------------------------------------------------------ #
    # Decisions
    # ------------------------------------------------------------------ #
    def _pick_branch_variable(self) -> Optional[int]:
        # Pop until an unassigned variable surfaces.  A variable's current
        # entry sorts before its stale ones (activities only grow between
        # rebuilds), so the first unassigned variable popped is the argmin
        # of (-activity, var) over the unassigned variables.
        if len(self._order) > max(4096, 8 * self.num_vars):
            self._rebuild_order()
        order = self._order
        values = self.lit_values
        activity = self.activity
        queued = self._queued
        while order:
            key, var = heappop(order)
            if key == -activity[var]:
                queued[var] = False
            if values[var << 1] is None:
                return var
        return None

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def solve(self, assumptions: Sequence[int] = ()) -> SatResult:
        """Decide satisfiability of the clause database under ``assumptions``.

        Assumptions are enqueued as the first decisions (one decision level
        each); a conflict that cannot be resolved below the assumption
        levels means the database is UNSAT *under these assumptions* and is
        reported with ``assumption_failed=True``.  The solver always
        backtracks to level 0 before returning, so the caller may add more
        clauses and solve again — learned clauses, activities and phases
        are kept.
        """
        self.num_solves += 1
        try:
            return self._solve([_code(lit) for lit in assumptions])
        finally:
            self._backjump(0)

    def _solve(self, assumptions: List[int]) -> SatResult:
        conflicts_before = self.conflicts
        decisions_before = self.decisions

        def result(satisfiable: bool, model=None, failed=False) -> SatResult:
            return SatResult(satisfiable, model=model,
                             conflicts=self.conflicts - conflicts_before,
                             decisions=self.decisions - decisions_before,
                             assumption_failed=failed)

        if self._contradiction:
            return result(False)
        self._backjump(0)
        if self._propagate() is not None:
            self._contradiction = True
            return result(False)

        restart_count = 0
        conflicts_until_restart = _luby(restart_count) * 128
        conflict_budget = None if self.max_conflicts is None \
            else self.conflicts + self.max_conflicts
        values = self.lit_values
        trail = self.trail
        trail_lim = self.trail_lim
        watches = self.watches

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                if conflict_budget is not None and self.conflicts > conflict_budget:
                    raise TimeoutError(
                        f"SAT solver exceeded {self.max_conflicts} conflicts")
                if not trail_lim:
                    self._contradiction = True
                    return result(False)
                learnt, backjump_level = self._analyze(conflict)
                self._backjump(backjump_level)
                if len(learnt) == 1:
                    self._enqueue_learnt_unit(learnt[0])
                else:
                    self.learned.append(learnt)
                    watches[learnt[0]].append(learnt)
                    watches[learnt[1]].append(learnt)
                    self._enqueue(learnt[0], learnt)
                self.var_inc /= self.var_decay
                conflicts_until_restart -= 1
                if conflicts_until_restart <= 0:
                    restart_count += 1
                    conflicts_until_restart = _luby(restart_count) * 128
                    self._backjump(0)
                continue

            if len(trail_lim) < len(assumptions):
                # Extend the assumption prefix by one decision level.
                lit = assumptions[len(trail_lim)]
                value = values[lit]
                if value is False:
                    return result(False, failed=True)
                trail_lim.append(len(trail))
                if value is None:
                    self._enqueue(lit, None)
                continue

            variable = self._pick_branch_variable()
            if variable is None:
                # Every variable is assigned; positive codes are 2..2n.
                model = dict(zip(range(1, self.num_vars + 1),
                                 values[2:2 * self.num_vars + 2:2]))
                return result(True, model=model)
            self.decisions += 1
            trail_lim.append(len(trail))
            self._enqueue((variable << 1) | self.polarity[variable], None)

    def _enqueue_learnt_unit(self, lit: int) -> None:
        if not self._enqueue(lit, None):
            self._contradiction = True


class SatSolver(IncrementalSatSolver):
    """One-shot CDCL solver over a :class:`CNF` formula (legacy interface)."""

    def __init__(self, cnf: CNF, max_conflicts: Optional[int] = None):
        super().__init__(max_conflicts=max_conflicts)
        for _ in range(cnf.num_vars):
            self.new_var()
        for clause in cnf.clauses:
            self._add_clause([_code(lit) for lit in clause])
        # Seed the branching activities with literal occurrence counts so the
        # first decisions target heavily-constrained variables (the original
        # one-shot seeding, over the unsimplified clause list).
        for clause in cnf.clauses:
            for lit in clause:
                self.activity[abs(lit)] += 1.0 / max(1, len(clause))
        self._rebuild_order()


def solve_cnf(cnf: CNF, max_conflicts: Optional[int] = None) -> SatResult:
    """Convenience wrapper: solve a CNF formula from scratch."""
    return SatSolver(cnf, max_conflicts=max_conflicts).solve()
