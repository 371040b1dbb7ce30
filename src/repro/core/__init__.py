"""Association control for multicast WLANs — the paper's core contribution."""

from repro.core.assignment import (
    Assignment,
    compare_load_vectors,
    from_selected_sets,
    served_counts_by_ap,
)
from repro.core.baselines import (
    solve_least_load,
    solve_least_users,
    solve_random,
)
from repro.core.bla import BlaSolution, max_iterations, solve_bla
from repro.core.bounds import (
    QualityCertificate,
    bla_lp_bound,
    mla_lp_bound,
    mnu_lp_bound,
    quality_certificate,
)
from repro.core.candidates import (
    CandidateSet,
    build_candidates,
    coverable_users,
    group_by_ap,
    restrict_to_users,
)
from repro.core.distributed import (
    AssociationState,
    Decision,
    DistributedResult,
    decide,
    run_distributed,
)
from repro.core.errors import (
    CoverageError,
    InfeasibleAssignmentError,
    ModelError,
    ReproError,
    SolverError,
)
from repro.core.fairness import (
    RevenueBreakdown,
    compare_revenues,
    concave_unicast_revenue,
    max_min_unicast_shares,
    pay_per_view_revenue,
    per_byte_unicast_revenue,
    residual_airtime,
    revenue_breakdown,
    worst_unicast_share,
)
from repro.core.interference_aware import (
    InterferenceAwareSolution,
    solve_interference_aware_mnu,
)
from repro.core.ledger import CandidateGainIndex, LoadLedger
from repro.core.locks import LockTable, run_locked_simultaneous
from repro.core.mcg import McgResult, greedy_mcg
from repro.core.mla import MlaSolution, solve_mla
from repro.core.mnu import MnuSolution, solve_mnu
from repro.core.online import (
    ChurnEvent,
    OnlineController,
    OnlineResult,
    OnlineSnapshot,
    generate_churn_trace,
)
from repro.core.optimal import (
    OptimalSolution,
    optimal_value,
    solve_bla_optimal,
    solve_mla_optimal,
    solve_mnu_optimal,
)
from repro.core.power import (
    DEFAULT_LEVELS,
    PowerAssignment,
    PowerExtendedProblem,
    PowerLevel,
    expand_with_power_levels,
    project_power_assignment,
)
from repro.core.problem import (
    MulticastAssociationProblem,
    Session,
    problem_summary,
)
from repro.core.setcover import SetCoverResult, greedy_set_cover
from repro.core.ssa import SsaSolution, solve_ssa, strongest_ap_of
from repro.core.subscriptions import (
    SubscriptionOutcome,
    SubscriptionProblem,
    expand_subscriptions,
    map_back,
    single_radio_conflicts,
)

__all__ = [
    "Assignment",
    "AssociationState",
    "BlaSolution",
    "CandidateGainIndex",
    "CandidateSet",
    "ChurnEvent",
    "CoverageError",
    "DEFAULT_LEVELS",
    "Decision",
    "DistributedResult",
    "InfeasibleAssignmentError",
    "InterferenceAwareSolution",
    "LoadLedger",
    "LockTable",
    "McgResult",
    "MlaSolution",
    "MnuSolution",
    "ModelError",
    "MulticastAssociationProblem",
    "OnlineController",
    "OnlineResult",
    "OnlineSnapshot",
    "OptimalSolution",
    "PowerAssignment",
    "PowerExtendedProblem",
    "PowerLevel",
    "QualityCertificate",
    "ReproError",
    "RevenueBreakdown",
    "Session",
    "SetCoverResult",
    "SolverError",
    "SsaSolution",
    "SubscriptionOutcome",
    "SubscriptionProblem",
    "bla_lp_bound",
    "build_candidates",
    "compare_load_vectors",
    "compare_revenues",
    "concave_unicast_revenue",
    "coverable_users",
    "decide",
    "expand_subscriptions",
    "expand_with_power_levels",
    "from_selected_sets",
    "generate_churn_trace",
    "greedy_mcg",
    "greedy_set_cover",
    "group_by_ap",
    "map_back",
    "max_iterations",
    "max_min_unicast_shares",
    "mla_lp_bound",
    "mnu_lp_bound",
    "optimal_value",
    "pay_per_view_revenue",
    "per_byte_unicast_revenue",
    "problem_summary",
    "project_power_assignment",
    "quality_certificate",
    "residual_airtime",
    "restrict_to_users",
    "revenue_breakdown",
    "run_distributed",
    "run_locked_simultaneous",
    "served_counts_by_ap",
    "single_radio_conflicts",
    "solve_bla",
    "solve_bla_optimal",
    "solve_interference_aware_mnu",
    "solve_least_load",
    "solve_least_users",
    "solve_mla",
    "solve_mla_optimal",
    "solve_mnu",
    "solve_mnu_optimal",
    "solve_random",
    "solve_ssa",
    "strongest_ap_of",
    "worst_unicast_share",
]
