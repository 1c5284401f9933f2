"""Exact optimum revenue, by memoized branch-and-bound over residual consumer sets.

Restricting candidate prices to current total values is lossless: pruning
empty rounds and raising every price to its round's cheapest buyer preserves
buyer sets and never lowers revenue, so some optimal sequence prices each
round at a consumer's current value. ``exact_opt`` searches exactly that
space, depth first with the highest price tried first, so its first descent
is the greedy sequence. A residual set's revenue is at most the sum of its
current values, since nobody pays more than their current value; a set whose
bound cannot beat what the caller already holds is not expanded. Each memo
entry is either the set's exact optimum or an upper bound on it, as in
alpha-beta search with a transposition table.

Current values come from one kernel: each node keeps ``(weight, neighbour
bitmask)`` pairs, so its current value is its intrinsic value plus a few
``int.bit_count`` calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .algorithms import greedy_iterative
from .core import PncInstance, PriceSequence
from .engine import simulate


# exact_opt recurses once per sale round, up to once per node; this keeps
# the deepest search well inside Python's default recursion limit of 1000.
DEPTH_LIMIT = 800


@dataclass(frozen=True)
class OracleConfig:
    """Search limits; ``node_limit`` only turns larger inputs away."""

    state_budget: int = 1_000_000
    node_limit: int = DEPTH_LIMIT

    def __post_init__(self) -> None:
        if self.state_budget < 1:
            raise ValueError("state_budget must be positive")
        if self.node_limit < 1:
            raise ValueError("node_limit must be positive")


class OracleBudgetError(RuntimeError):
    """Raised when the memo table would exceed the configured state budget.

    ``lower`` (greedy's revenue) and ``upper`` (the sum of initial values)
    bracket the optimum the search could not finish.
    """

    def __init__(self, states_explored: int, lower: int, upper: int):
        super().__init__(
            f"state budget exhausted after {states_explored} residual sets; "
            f"optimum in [{lower}, {upper}]"
        )
        self.states_explored = states_explored
        self.lower = lower
        self.upper = upper


@dataclass(frozen=True)
class OracleResult:
    revenue: int
    prices: PriceSequence
    states_explored: int


class _OutOfBudget(Exception):
    """Unwinds the search; ``exact_opt`` reraises it as OracleBudgetError with bounds."""


def _value_kernel(instance: PncInstance) -> Callable[[int], list[tuple[int, int]]]:
    """A function from a residual set (bitmask) to its ``(current value, node)`` list."""
    by_weight: list[dict[int, int]] = [{} for _ in range(instance.node_count)]
    for u, v, w in instance.graph.edges:
        by_weight[u][w] = by_weight[u].get(w, 0) | 1 << v
        by_weight[v][w] = by_weight[v].get(w, 0) | 1 << u
    table = [(nu, tuple(groups.items())) for nu, groups in zip(instance.intrinsic, by_weight)]

    def values(mask: int) -> list[tuple[int, int]]:
        items = []
        bits = mask
        while bits:
            low = bits & -bits
            node = low.bit_length() - 1
            bits ^= low
            value, pairs = table[node]
            for weight, neighbours in pairs:
                value += weight * (neighbours & mask).bit_count()
            items.append((value, node))
        return items

    return values


def exact_opt(instance: PncInstance, config: OracleConfig | None = None) -> OracleResult:
    """Optimal revenue over all decreasing price sequences, with a realizer.

    Branch-and-bound, memoized on the residual consumer set (as a bitmask),
    visiting only sets reachable by posting some current total value as the
    price. ``states_explored`` counts the distinct sets visited. Raises
    OracleBudgetError, carrying a lower and an upper bound on the optimum, if
    more than ``config.state_budget`` residual sets are explored, and
    ValueError above ``config.node_limit`` or ``DEPTH_LIMIT`` nodes.
    """
    cfg = config if config is not None else OracleConfig()
    n = instance.node_count
    if n > cfg.node_limit:
        raise ValueError(f"instance has {n} nodes, above the oracle node limit {cfg.node_limit}")
    if n > DEPTH_LIMIT:
        raise ValueError(f"instance has {n} nodes, above the oracle depth limit {DEPTH_LIMIT}")
    values = _value_kernel(instance)
    full = (1 << n) - 1
    # mask -> (revenue, exact, price to post next; 0 = stop). An exact entry
    # holds the set's optimum; otherwise revenue is only an upper bound on it.
    memo: dict[int, tuple[int, bool, int]] = {}

    def solve(mask: int, need: int) -> int:
        """The optimum from ``mask`` if it exceeds ``need``, else an upper bound <= ``need``."""
        if mask == 0:
            return 0
        hit = memo.get(mask)
        if hit is not None and (hit[1] or hit[0] <= need):
            return hit[0]
        if hit is None and len(memo) >= cfg.state_budget:
            raise _OutOfBudget
        items = values(mask)
        bound = sum(value for value, _ in items)
        memo[mask] = (bound, False, 0)  # counts toward the budget from here on
        if bound <= need:
            return bound
        items.sort(reverse=True)
        best = 0
        best_price = 0
        buyers = 0
        index = 0
        while index < len(items):
            price = items[index][0]
            if price <= 0:
                break
            while index < len(items) and items[index][0] == price:
                buyers |= 1 << items[index][1]
                index += 1
            gain = price * index
            # The rest matters only where it lifts this set above both what
            # the caller holds and what a higher price already gave.
            candidate = gain + solve(mask & ~buyers, max(need, best) - gain)
            if candidate > best:
                best = candidate
                best_price = price
        memo[mask] = (best, best > need, best_price)
        return best

    try:
        revenue = solve(full, -1)  # every optimum is >= 0, so the root's entry is exact
    except _OutOfBudget:
        lower = greedy_iterative(instance).revenue
        raise OracleBudgetError(len(memo), lower, sum(instance.initial_values)) from None

    prices = []
    mask = full
    while mask:
        entry = memo.get(mask)
        if entry is None or not entry[1]:
            raise RuntimeError(f"oracle realizer reached residual set {mask:#x} without an exact entry")
        price = entry[2]
        if price == 0:
            break
        prices.append(price)
        buyers = 0
        for value, node in values(mask):
            if value >= price:
                buyers |= 1 << node
        mask &= ~buyers
    realizer = tuple(prices)

    if any(a <= b for a, b in zip(realizer, realizer[1:])):
        raise RuntimeError(f"oracle realizer {realizer} does not decrease")
    if simulate(instance, realizer).total_revenue != revenue:
        raise RuntimeError(f"oracle realizer {realizer} does not reproduce revenue {revenue}")
    return OracleResult(revenue, realizer, len(memo))
