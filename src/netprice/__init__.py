"""Revenue-maximizing iterative pricing on networks with negative externalities.

A seller posts a decreasing sequence of prices to consumers on a weighted
graph; a consumer's value is an intrinsic term plus the total weight of
edges to neighbors who have not bought yet, so every sale lowers the
neighbors' willingness to pay. The package provides the sale-process
engine, pricing strategies with provable guarantees, exact oracles, seeded
graph generators, a CNF hardness reduction, and a CLI.

Each public name is imported from its module on first use (PEP 562), so
``import netprice`` alone loads neither numpy nor any submodule.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "algorithms": (
        "SplitPartition", "ba_single_price", "best_single_price", "degree_bound",
        "er_single_price", "forest_single_price", "greedy_iterative", "min_degree_independent",
        "recognize_split", "split_dp",
    ),
    "core": (
        "PncInstance", "PriceSequence", "SaleRound", "SaleTrace", "WeightedGraph",
        "dump_instance", "dumps_instance", "load_instance", "loads_instance",
        "validate_prices",
    ),
    "engine": ("make_irredundant", "normalize", "simulate"),
    "generators": (
        "gen_ba", "gen_er", "gen_example1", "gen_forest", "gen_spider", "gen_split",
        "generate",
    ),
    "oracle": ("OracleBudgetError", "OracleResult", "exact_opt"),
    "reduction": (
        "CnfError", "CnfFormula", "GadgetCheck", "GadgetReport", "ReductionArtifact",
        "artifact_metadata", "assignment_pricing", "best_assignment_revenue",
        "build_reduction", "clause_gadget_edges", "clause_window_round",
        "is_satisfying", "parse_dimacs", "variable_gadget_edges", "verify_gadget_claims",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule read as an attribute
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_MODULE_OF[name]}")
    globals()[name] = value = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
