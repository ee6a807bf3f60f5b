"""Exact and greedy solvers for chain/antichain coverage problems on DAGs.

For every k >= 1 a DAG admits a duality between covering vertices with k
antichains (or k chains) and partitioning vertices into chains (or
antichains) measured by the k-norm sum(min(|C|, k)).  This package solves
both sides exactly by min-cost circulation, approximately by greedy
set-cover rounds, and provides brute-force oracles plus adversarial
instance generators that realize the worst-case greedy ratios.

The names below are the public API that README documents. Everything
else stays importable from its own module.
"""

from .adversarial import gen_antichain_ratio, gen_chain_ratio, gen_ga, gen_gc
from .dagcore import (
    Antichain,
    Chain,
    Dag,
    Family,
    GraphPath,
    build_dag,
    certify_antichain,
    certify_chain,
    certify_path,
    knorm_collection,
    knorm_partition,
)
from .errors import (
    BudgetExceeded,
    CycleError,
    DomainError,
    GkError,
    MismatchError,
    NotAntichainError,
    NotChainError,
    NotPartitionError,
    OverlapError,
    ParseError,
)
from .greedy import (
    greedy_antichain_cover,
    greedy_k_antichains,
    greedy_k_chains,
    greedy_weighted_chain_cover,
    minimum_path_cover,
)
from .networks import solve_alpha, solve_beta
from .oracle import (
    brute_alpha,
    brute_beta,
    brute_min_knorm_antichain_partition,
    brute_min_knorm_chain_partition,
    random_dag,
    run_verification_sweep,
    verify_gk,
)

__version__ = "0.1.0"

__all__ = [
    # graphs
    "build_dag",
    "Dag",
    "Family",
    "Chain",
    "Antichain",
    "GraphPath",
    "certify_antichain",
    "certify_chain",
    "certify_path",
    "knorm_collection",
    "knorm_partition",
    # exact
    "solve_alpha",
    "solve_beta",
    # greedy
    "greedy_k_chains",
    "greedy_k_antichains",
    "greedy_weighted_chain_cover",
    "greedy_antichain_cover",
    "minimum_path_cover",
    # oracle
    "brute_alpha",
    "brute_beta",
    "brute_min_knorm_chain_partition",
    "brute_min_knorm_antichain_partition",
    "verify_gk",
    "run_verification_sweep",
    "random_dag",
    # generators
    "gen_chain_ratio",
    "gen_antichain_ratio",
    "gen_gc",
    "gen_ga",
    # errors
    "GkError",
    "MismatchError",
    "ParseError",
    "CycleError",
    "DomainError",
    "BudgetExceeded",
    "NotAntichainError",
    "NotChainError",
    "NotPartitionError",
    "OverlapError",
]
