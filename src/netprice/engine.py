"""Selling process: simulate a price sequence, prune it, normalize it.

Round semantics: every consumer still holding out compares their current total
value (intrinsic plus weights of edges to other non-owners, fixed at the start
of the round) against the posted price, and buys iff value >= price. All
purchases in a round happen simultaneously; the value drops they cause are
visible from the next round on. A price of 0 sells to every remaining
consumer and contributes no revenue.
"""

from __future__ import annotations

from typing import Sequence

from .core import PncInstance, PriceSequence, SaleRound, SaleTrace, total_value, validate_prices


def simulate(instance: PncInstance, prices: Sequence[int]) -> SaleTrace:
    """Run the selling process for ``prices`` and return the full trace.

    Runs in O(tau * n + m): each round scans the remaining consumers once,
    and every edge is charged at most twice over the whole run when its
    endpoints leave the market.
    """
    prices = validate_prices(prices)
    values = list(instance.initial_values)
    remaining = set(range(instance.node_count))
    adjacency = None  # built only if a non-final round actually sells
    rounds = []
    total = 0
    for index, price in enumerate(prices):
        buyers = frozenset(i for i in remaining if values[i] >= price)
        revenue = price * len(buyers)
        total += revenue
        rounds.append(SaleRound(price, buyers, revenue))
        if buyers:
            remaining -= buyers
            if index + 1 < len(prices):
                if adjacency is None:
                    adjacency = instance.graph.adjacency
                for buyer in buyers:
                    for neighbor, weight in adjacency[buyer]:
                        if neighbor in remaining:
                            values[neighbor] -= weight
    return SaleTrace(tuple(rounds), frozenset(remaining), total)


def make_irredundant(instance: PncInstance, prices: Sequence[int]) -> PriceSequence:
    """Drop every price at which nobody buys.

    The surviving rounds keep their buyer sets and revenue, and the result is
    strictly decreasing: a consumer priced out at one round has an even lower
    value later, so a repeated or higher price can never sell again.
    """
    trace = simulate(instance, prices)
    return tuple(r.price for r in trace.rounds if r.buyers)


def normalize(instance: PncInstance, prices: Sequence[int]) -> PriceSequence:
    """Prune empty rounds, then raise each price to its round's cheapest buyer.

    Raising a round's price to the minimum total value among that round's
    buyers leaves every buyer set unchanged and never lowers revenue, so the
    result sells the same partition for at least the original revenue.
    Empty rounds change nobody's value, so one trace serves both steps.
    """
    remaining = set(range(instance.node_count))
    normalized = []
    for r in simulate(instance, prices).rounds:
        if r.buyers:
            normalized.append(min(total_value(instance, i, remaining) for i in r.buyers))
            remaining -= r.buyers
    return tuple(normalized)
