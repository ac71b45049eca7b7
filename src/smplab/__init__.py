"""Stochastic multi-value probing laboratory.

Models adaptive decision-tree probing strategies over independent
multi-type elements, evaluates adaptive / non-adaptive / greedy expected
values exactly or by seeded Monte Carlo, and ships the instance families
and verifiers behind the adaptivity-gap inequalities.
"""

from .core import (
    ExactCapExceeded,
    RandomStream,
    Scalar,
    TypeDistribution,
    Universe,
    ValidationError,
    universe_from_type_space,
)
from .evaluate import (
    EvalReport,
    adap_by_path_enumeration,
    adap_exact,
    adap_mc,
    alg_exact,
    alg_mc,
    best_nonadaptive_exact,
    greedy_interleaved_exact,
    kextendible_chain_report,
    submodular_gap_report,
)
from .families import (
    ExplicitFamily,
    IndependenceOracle,
    IntersectionFamily,
    MatchingFamily,
    PartitionMatroid,
    PathChainFamily,
    greedy_select,
    make_uniform_matroid,
    max_rank,
)
from .instances import (
    InstanceBundle,
    RandomInstanceParams,
    gen_prime_matroid_encoding,
    gen_random_instance,
    gen_submodular_lb,
    gen_tree_lb,
    submodular_lb_adap_recurrence,
    submodular_lb_alg_opt,
    submodular_lb_depth,
    tree_lb_adaptive_value,
    tree_lb_nonadaptive_bound,
)
from .reduction import (
    Bucket,
    ClassDecomposition,
    RepresentativeChoice,
    bucketize,
    class_decompose,
    combined_value,
    greedy_optimal_combine,
    select_representatives,
    weight_class,
)
from .strategy import (
    BudgetConstraint,
    CardinalityConstraint,
    ConstraintOracle,
    DagPathConstraint,
    DecisionTree,
    TableConstraint,
    TreeFanConstraint,
    chain_tree,
    check_tree_feasible,
    leaf,
    probe,
    validate_tree,
)
from .valuation import (
    ValuationFunction,
    WeightedRankValuation,
    coverage_valuation,
    partition_weighted_valuation,
)
from .verify import (
    NotKExtendibleError,
    check_downward_closed,
    check_encoding,
    check_k_extendible,
    check_monotone,
    check_prefix_closed,
    check_submodular,
    find_extension_witness,
)

__version__ = "0.1.0"
