"""The benchmark's three workloads.

Program sets and search seeds are pinned, so every ``--seed`` runs the
same searches and the timings compare like with like.  The sets were
drawn once with ``random.Random(DRAW_SEED).sample(...)`` from the corpus
programs named in each workload's ``pool``; ``--seed`` picks the order
the searches run in (the serve job cycle) and the inputs of the
independent output check.  With the search seed following ``--seed``
instead, one program's search time moved by up to 2x between seeds, so
no single run could stand for the workload.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Optional, Tuple

#: Seed of the one-off program draws below (the paper's year).
DRAW_SEED = 2021
#: Search seed of every search and job.
SEARCH_SEED = 7


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    #: ``search``: in-process ``repro.api.optimize`` calls;
    #: ``serve``: jobs through a ``k2 serve`` daemon.
    kind: str
    #: Where the program draw came from.
    pool: str
    programs: Tuple[str, ...]
    iterations: int
    settings: int
    #: Per-program ``iterations`` overrides.
    iterations_for: Tuple[Tuple[str, int], ...] = ()
    #: Run each pass against a fresh, empty verdict store.
    store: bool = False
    sync_interval: Optional[int] = None
    why: str = ""

    def iterations_of(self, program: str) -> int:
        return dict(self.iterations_for).get(program, self.iterations)

    def ordered(self, seed: int) -> list:
        """The programs in the order ``seed`` gives them."""
        programs = list(self.programs)
        random.Random(seed).shuffle(programs)
        return programs


WORKLOADS = {workload.name: workload for workload in [
    Workload(
        name="search_small", kind="search",
        pool="the 15 corpus programs of at most 40 instructions",
        programs=("from-network", "socket-1", "sys_enter_open",
                  "xdp_cpumap_enqueue", "xdp_cpumap_kthread",
                  "xdp_devmap_xmit", "xdp_fw", "xdp_redirect"),
        iterations=120, settings=2, store=True,
        why="the everyday k2 optimize case: in-process, serial, default "
            "K2Config, fresh store; engine, synthesis and safety do most "
            "of the work"),
    Workload(
        name="search_long", kind="search",
        pool="the two long programs the issue names",
        programs=("sys_enter_wide", "xdp_stats_ladder"),
        iterations=16, settings=1,
        iterations_for=(("xdp_stats_ladder", 12),),
        why="long programs, cold, no store: the SMT core and the window "
            "and full verification stages do almost all the work"),
    Workload(
        name="serve_warm", kind="serve",
        pool="the 9 corpus programs of at most 20 instructions",
        programs=("socket-1", "xdp_cpumap_kthread", "xdp_exception",
                  "xdp_map_access"),
        iterations=200, settings=2, sync_interval=100,
        why="jobs through a k2 serve daemon on a pre-filled store: "
            "service, checkpoints and store reads; the SAT core is "
            "nearly idle"),
]}
