"""Shared helpers for the benchmark harness.

Every ``bench_table*.py`` / ``bench_fig*.py`` file regenerates one table or
figure of the paper's evaluation (§8, Appendices E-H).  The benches run the
real pipeline at laptop-scale iteration budgets, print the paper-style rows
and record wall-clock timing through pytest-benchmark.

EXPERIMENTS.md records how the numbers printed here relate to the paper's.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.api import K2Config
from repro.core import OptimizationGoal
from repro.corpus import get_benchmark
from repro.synthesis import ParameterSetting

#: Benchmarks small enough to run the full search in a few seconds each.
SMALL_BENCHMARKS = [
    "xdp_exception", "xdp_redirect_err", "xdp_cpumap_kthread",
    "xdp_cpumap_enqueue", "sys_enter_open", "socket-0", "socket-1",
    "xdp_pktcntr", "xdp_map_access", "from-network",
]

#: Medium benchmarks used where the paper exercises bigger programs.
MEDIUM_BENCHMARKS = ["xdp_devmap_xmit", "xdp1", "xdp_fw", "recvmsg4"]

#: The XDP programs measured on the testbed in Tables 2 and 3.
THROUGHPUT_BENCHMARKS = ["xdp2", "xdp_router_ipv4", "xdp_fwd", "xdp1",
                         "xdp_map_access", "xdp-balancer"]

#: Default laptop-scale search budget used by the table benches.
DEFAULT_ITERATIONS = 800
DEFAULT_SETTINGS = 2


def run_search(benchmark_name: str,
               iterations: int = DEFAULT_ITERATIONS,
               num_settings: int = DEFAULT_SETTINGS,
               goal: OptimizationGoal = OptimizationGoal.INSTRUCTION_COUNT,
               seed: int = 1,
               settings: Optional[List[ParameterSetting]] = None,
               num_workers: int = 1,
               executor: str = "auto",
               sync_interval: Optional[int] = None,
               engine: str = "decoded"):
    """Run the K2 search on one corpus benchmark and return (source, result).

    ``num_workers``/``executor``/``sync_interval`` select the parallel
    engine's dispatch backend and cross-chain sharing cadence; the defaults
    keep the benches sequential and deterministic.  ``engine`` picks the
    candidate execution engine (``decoded``/``legacy``); results are
    bit-identical either way.
    """
    source = get_benchmark(benchmark_name).program()
    config = K2Config(
        goal="latency" if goal == OptimizationGoal.LATENCY else "size",
        iterations=iterations, settings=num_settings, seed=seed,
        num_workers=num_workers, executor=executor,
        sync_interval=sync_interval, engine=engine)
    result = config.compiler().optimize(source, settings=settings)
    return source, result


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Plain-text table formatting used by every bench's printed output."""
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def print_table(title: str, headers: Sequence[str],
                rows: Iterable[Sequence]) -> None:
    print()
    print(f"==== {title} ====")
    print(format_table(headers, rows))
