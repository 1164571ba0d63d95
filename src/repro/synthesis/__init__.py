"""Stochastic program synthesis for BPF (paper section 3)."""

from .cost import (
    CostSettings, DiffKind, NumTestsVariant, PerformanceGoal, ERR_MAX,
    error_cost, output_distance, performance_cost, total_cost,
)
from .proposals import OperandPools, ProposalGenerator, RewriteRuleProbabilities
from .testcases import TestCaseGenerator, TestSuite
from .params import (
    ParameterSetting, TABLE8_SETTINGS, all_parameter_settings,
    best_parameter_settings,
)
from .mcmc import ChainResult, ChainStatistics, MarkovChain, VerifiedCandidate
from .executors import (
    EXECUTOR_KINDS, SerialExecutor, create_executor, resolve_executor_kind,
)
from .checkpoint import (
    CHECKPOINT_VERSION, apply_chain_state, build_controller_payload,
    capture_chain_state, decode_chain_state, decode_controller_payload,
    options_signature,
)
from .parallel import (
    ChainController, ChainWorkUnit, ChainWorkUnitResult, SearchInterrupted,
    run_chain_generation,
)
from .search import GOALS, SearchOptions, SearchResult, Synthesizer
from .windows import (
    SegmentWindow, WindowStats, WindowedScheduler, plan_windows, split_budget,
)

__all__ = [name for name in dir() if not name.startswith("_")]
