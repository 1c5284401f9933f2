"""Exact optimum revenue, by memoized search over residual consumer sets.

Restricting candidate prices to current total values is lossless: pruning
empty rounds and raising every price to its round's cheapest buyer preserves
buyer sets and never lowers revenue, so some optimal sequence prices each
round at a consumer's current value. ``exact_opt`` searches exactly that
space. ``naive_opt`` does not assume it: it tries every positive integer
price at every state, and exists to certify ``exact_opt`` in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import PncInstance, PriceSequence
from .engine import simulate


@dataclass(frozen=True)
class OracleConfig:
    state_budget: int = 1_000_000
    node_limit: int = 30

    def __post_init__(self) -> None:
        if self.state_budget < 1:
            raise ValueError("state_budget must be positive")
        if self.node_limit < 1:
            raise ValueError("node_limit must be positive")


class OracleBudgetError(RuntimeError):
    """Raised when the memo table would exceed the configured state budget."""

    def __init__(self, states_explored: int):
        super().__init__(f"state budget exhausted after {states_explored} residual sets")
        self.states_explored = states_explored


@dataclass(frozen=True)
class OracleResult:
    revenue: int
    prices: PriceSequence
    states_explored: int


NAIVE_NODE_LIMIT = 8


def _current_values(instance: PncInstance, mask: int) -> list[tuple[int, int]]:
    """(current total value, node) for every node in the residual set ``mask``."""
    adjacency = instance.graph.adjacency
    intrinsic = instance.intrinsic
    items = []
    bits = mask
    while bits:
        low = bits & -bits
        node = low.bit_length() - 1
        bits ^= low
        value = intrinsic[node]
        for neighbor, weight in adjacency[node]:
            if (mask >> neighbor) & 1:
                value += weight
        items.append((value, node))
    return items


def exact_opt(instance: PncInstance, config: OracleConfig | None = None) -> OracleResult:
    """Optimal revenue over all decreasing price sequences, with a realizer.

    Memoizes on the residual consumer set (as a bitmask), visiting only sets
    reachable by posting some current total value as the price. Raises
    OracleBudgetError if more than ``config.state_budget`` residual sets are
    explored, and ValueError above ``config.node_limit`` nodes.
    """
    cfg = config if config is not None else OracleConfig()
    n = instance.node_count
    if n > cfg.node_limit:
        raise ValueError(f"instance has {n} nodes, above the oracle node limit {cfg.node_limit}")
    full = (1 << n) - 1
    # mask -> (best revenue from this residual set, price to post next; 0 = stop)
    memo: dict[int, tuple[int, int]] = {}

    def solve(mask: int) -> int:
        if mask == 0:
            return 0
        hit = memo.get(mask)
        if hit is not None:
            return hit[0]
        if len(memo) >= cfg.state_budget:
            raise OracleBudgetError(len(memo))
        memo[mask] = (0, 0)  # reserve the slot so the budget counts this state
        items = _current_values(instance, mask)
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
            candidate = price * index + solve(mask & ~buyers)
            if candidate > best:
                best = candidate
                best_price = price
        memo[mask] = (best, best_price)
        return best

    revenue = solve(full)

    prices = []
    mask = full
    while mask:
        _, price = memo[mask]
        if price == 0:
            break
        prices.append(price)
        buyers = 0
        for value, node in _current_values(instance, mask):
            if value >= price:
                buyers |= 1 << node
        mask &= ~buyers
    realizer = tuple(prices)

    if any(a <= b for a, b in zip(realizer, realizer[1:])):
        raise RuntimeError(f"oracle realizer {realizer} does not decrease")
    if simulate(instance, realizer).total_revenue != revenue:
        raise RuntimeError(f"oracle realizer {realizer} does not reproduce revenue {revenue}")
    return OracleResult(revenue, realizer, len(memo))


def naive_opt(instance: PncInstance) -> int:
    """Optimum by brute force over every integer price at every state.

    No memoization and no restriction of prices to current total values; the
    only shortcut is a sound bound (nobody ever pays more than their current
    value). Exponential, so capped at 8 nodes.
    """
    n = instance.node_count
    if n > NAIVE_NODE_LIMIT:
        raise ValueError(f"naive_opt handles at most {NAIVE_NODE_LIMIT} nodes, got {n}")
    best = 0

    def dfs(mask: int, banked: int) -> None:
        nonlocal best
        if banked > best:
            best = banked
        if mask == 0:
            return
        items = _current_values(instance, mask)
        if banked + sum(v for v, _ in items) <= best:
            return
        items.sort(reverse=True)
        top = items[0][0]
        buyers = 0
        count = 0
        index = 0
        for price in range(top, 0, -1):
            while index < len(items) and items[index][0] >= price:
                buyers |= 1 << items[index][1]
                count += 1
                index += 1
            dfs(mask & ~buyers, banked + price * count)

    dfs((1 << n) - 1, 0)
    return best
