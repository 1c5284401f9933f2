"""Revenue-maximizing iterative pricing on networks with negative externalities.

A seller posts a decreasing sequence of prices to consumers on a weighted
graph; a consumer's value is an intrinsic term plus the total weight of
edges to neighbors who have not bought yet, so every sale lowers the
neighbors' willingness to pay. The package provides the sale-process
engine, pricing strategies with provable guarantees, exact oracles, seeded
graph generators, a CNF hardness reduction, and a CLI.
"""

from .algorithms import (
    PricingResult,
    SplitPartition,
    ba_single_price,
    best_single_price,
    degree_bound,
    er_single_price,
    forest_single_price,
    greedy_iterative,
    min_degree_independent,
    recognize_split,
    split_dp,
)
from .core import (
    PncInstance,
    PriceSequence,
    SaleRound,
    SaleTrace,
    WeightedGraph,
    dump_instance,
    dumps_instance,
    load_instance,
    loads_instance,
    validate_prices,
)
from .engine import make_irredundant, normalize, simulate
from .generators import (
    GenSpec,
    gen_ba,
    gen_er,
    gen_example1,
    gen_forest,
    gen_spider,
    gen_split,
)
from .oracle import OracleBudgetError, OracleConfig, OracleResult, exact_opt
from .reduction import (
    CnfError,
    CnfFormula,
    GadgetCheck,
    GadgetReport,
    ReductionArtifact,
    artifact_metadata,
    assignment_pricing,
    best_assignment_revenue,
    build_reduction,
    clause_gadget_edges,
    clause_window_round,
    is_satisfying,
    parse_dimacs,
    variable_gadget_edges,
    verify_gadget_claims,
)

__version__ = "0.1.0"

__all__ = [
    "PncInstance",
    "PriceSequence",
    "PricingResult",
    "SaleRound",
    "SaleTrace",
    "SplitPartition",
    "WeightedGraph",
    "GenSpec",
    "OracleBudgetError",
    "OracleConfig",
    "OracleResult",
    "CnfError",
    "CnfFormula",
    "GadgetCheck",
    "GadgetReport",
    "ReductionArtifact",
    "artifact_metadata",
    "assignment_pricing",
    "ba_single_price",
    "best_assignment_revenue",
    "best_single_price",
    "build_reduction",
    "clause_gadget_edges",
    "clause_window_round",
    "degree_bound",
    "dump_instance",
    "dumps_instance",
    "er_single_price",
    "exact_opt",
    "forest_single_price",
    "gen_ba",
    "gen_er",
    "gen_example1",
    "gen_forest",
    "gen_spider",
    "gen_split",
    "greedy_iterative",
    "is_satisfying",
    "load_instance",
    "loads_instance",
    "make_irredundant",
    "min_degree_independent",
    "normalize",
    "parse_dimacs",
    "recognize_split",
    "simulate",
    "split_dp",
    "validate_prices",
    "variable_gadget_edges",
    "verify_gadget_claims",
]
