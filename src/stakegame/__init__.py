"""Deterministic simulator and equilibrium solver for repeated staking games.

Players with fixed capability types and growing token stakes repeatedly
decide whether to participate; a monetary policy picks a winner each round
and pays out a budget.  Everything is computed with exact rationals, so runs
reproduce bit-for-bit and equilibrium comparisons are never at the mercy of
floating-point noise.
"""

from .core import (
    AffineValue,
    IdentityValue,
    Instance,
    Player,
    RoundRecord,
    TableValue,
    rank,
    scalar,
)
from .engine import (
    PropertyReport,
    Runner,
    Trace,
    monitor_properties,
    run,
    trace_rows,
    write_trace,
)
from .equilibrium import (
    LookaheadHorizonError,
    LookaheadSolver,
    RecoveryPlan,
    Threshold,
    brute_force_equilibrium,
    is_harmful,
    myopic_equilibrium,
    recovery_winner_labels,
    threshold,
)
from .measures import (
    AlignmentReport,
    AxiomReport,
    ValidationReport,
    check_alignment,
    check_decentralization_axioms,
    max_attainable_index,
    tau_decentralization_index,
    tau_index_measure,
    token_value,
    validate_instance,
)
from .policies import (
    FixedWinner,
    MuAll,
    MuAlpha,
    MuEll,
    MuStar,
    expected_budget,
    expected_rewards,
    winner_distribution,
)
from .scenarios import (
    BUILTIN_SCENARIOS,
    Scenario,
    ScenarioError,
    builtin_scenario,
    load_scenario,
    parse_scenario,
)
from .sybil import (
    SybilConditionReport,
    SybilSplit,
    enumerate_splits,
    max_sybil_gain,
    preferred_recovery_sybils,
    sybil_gain,
    sybil_proofness_condition,
)
from .virtualstake import (
    InvarianceReport,
    VirtualStakeState,
    check_invariance,
    expected_step,
    incumbent_gap_state,
    sampled_win_frequencies,
    selection_probabilities,
)

__version__ = "0.1.0"
