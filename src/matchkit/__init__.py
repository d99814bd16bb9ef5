"""matchkit: stable matchings in many-to-one markets via firm-worker
hypergraph balancedness, exact LP duality, and choice-function stability."""

from .analysis import (
    DemandType,
    Prop1Verdict,
    TuVerdict,
    demand_type,
    is_totally_unimodular,
    prop1_check,
    tu_cycle_certificate,
)
from .discrete_solver import (
    BlockingCoalition,
    DiscreteStabilityVerdict,
    DynamicsTrace,
    check_stable_discrete,
    enumerate_stable_matchings,
    find_blocking_coalition,
    is_individually_rational,
    run_blocking_dynamics,
)
from .errors import (
    CertificateError,
    InvalidMarketError,
    MarketFormatError,
    MatchkitError,
    SizeGuardExceeded,
    WorkBudgetExceeded,
)
from .generator import GenParams, SplitMix64, gen_discrete_market, gen_roadmap_instance, gen_tu_market
from .hypergraph import (
    BalanceVerdict,
    FirmWorkerHypergraph,
    HyperCycle,
    IntMatrix,
    build_hypergraph,
    check_balanced,
    is_cycle,
    is_nontrivial_odd,
)
from .model import (
    Coalition,
    DiscreteMarket,
    DiscreteMatching,
    TuMarket,
    TuMatching,
    choice,
    satisfactory_sets,
    tu_utilities,
    validate_market,
)
from .roadmap import (
    Roadmap,
    SpecializationResult,
    TechnologyPath,
    Theorem3Report,
    check_specialized,
    is_specialist,
    theorem3_report,
    validate_roadmap,
    worker_subgraph,
)
from .tu_solver import (
    DualSolution,
    TuLpProblem,
    TuStabilityReport,
    build_lp_problem,
    check_stable_tu,
    find_stable_matching_tu,
    max_partition_value,
    potential_coalitions,
    solve_lp,
)

__version__ = "0.1.0"
