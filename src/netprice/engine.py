"""Selling process: simulate a price sequence, prune it, normalize it.

Round semantics: every consumer still holding out compares their current total
value (intrinsic plus weights of edges to other non-owners, fixed at the start
of the round) against the posted price, and buys iff value >= price. All
purchases in a round happen simultaneously; the value drops they cause are
visible from the next round on. A price of 0 sells to every remaining
consumer and contributes no revenue. A round costs O(n) vectorised work plus
the buyers' CSR rows (``Market.sale``). The graph's CSR is read on the first
settle, and ``simulate``'s last round only marks its buyers as owners: no
later round reads a value, so a single price never builds the CSR.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from .core import PncInstance, PriceSequence, SaleRound, SaleTrace, validate_prices

class Market:
    """A selling process in progress: ``values`` holds every consumer's current
    value, in the instance's value dtype, and -1 for each owner. A value that
    is still selling never falls below its intrinsic value, which is >= 0, so
    the consumers still holding out are exactly ``values >= 0``.
    """

    def __init__(self, instance: PncInstance) -> None:
        self.values = instance.value_array.copy()
        # no price above this sells, and every price compared is within the dtype
        self.top = int(self.values.max())
        self.graph = instance.graph

    @cached_property
    def indptr(self) -> np.ndarray:
        return self.graph.indptr

    @cached_property
    def indices(self) -> np.ndarray:
        return self.graph.indices

    @cached_property
    def weights(self) -> np.ndarray:
        # a weight is at most its endpoints' initial values, so it fits the dtype
        return self.graph.weights.astype(self.values.dtype, copy=False)

    def bidders(self, price: int) -> np.ndarray:
        """Who buys at ``price`` >= 0, in increasing order: one O(n) numpy scan."""
        if price > self.top:
            return np.zeros(0, np.intp)
        return np.flatnonzero(self.values >= price)

    def rows(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The positions of ``nodes``' CSR rows back to back, in the order
        given, and each row's length."""
        starts = self.indptr[nodes]
        lengths = self.indptr[nodes + 1] - starts
        rows = np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())
        return rows, lengths

    def settle(self, buyers: np.ndarray, rows: np.ndarray | None = None) -> None:
        """Make ``buyers`` owners and lower their neighbours still selling,
        reading only the buyers' CSR rows: ``rows`` when the caller has
        gathered them already, as ``Market.rows`` gives them."""
        self.values[buyers] = -1
        if rows is None:
            # one buyer is a slice: on greedy's 10k one-buyer rounds of a sparse weighted
            # graph, the general path made simulate 0.25 s, not 0.17-0.23 s (2 vCPUs, numpy 2.4)
            if len(buyers) == 1:
                rows = slice(self.indptr[buyers[0]], self.indptr[buyers[0] + 1])
            else:
                rows = self.rows(buyers)[0]
        neighbours = self.indices[rows]
        still = self.values[neighbours] >= 0
        # exact in either dtype, and a neighbour of several buyers drops once per buyer
        np.subtract.at(self.values, neighbours[still], self.weights[rows][still])

    def sale(self, price: int, last: bool = False) -> SaleRound:
        """One round at ``price``, as the round's record. The ``last`` round
        of a process only marks its buyers as owners."""
        buyers = self.bidders(price)
        if last:
            self.values[buyers] = -1
        elif len(buyers):
            self.settle(buyers)
        buyers = buyers.tolist()
        return SaleRound(price, frozenset(buyers), price * len(buyers))

    def trace(self, rounds: Sequence[SaleRound]) -> SaleTrace:
        """The trace of ``rounds``, the sales made so far."""
        residual = frozenset(np.flatnonzero(self.values >= 0).tolist())
        return SaleTrace(tuple(rounds), residual, sum(r.revenue for r in rounds))


def simulate(instance: PncInstance, prices: Sequence[int]) -> SaleTrace:
    """Run the selling process for ``prices`` and return the full trace."""
    prices = validate_prices(prices)
    market = Market(instance)
    last = len(prices) - 1
    return market.trace([market.sale(price, index == last) for index, price in enumerate(prices)])


def make_irredundant(instance: PncInstance, prices: Sequence[int]) -> PriceSequence:
    """Drop every price at which nobody buys.

    The surviving rounds keep their buyer sets and revenue, and the result is
    strictly decreasing: a consumer priced out at one round has an even lower
    value later, so a repeated or higher price can never sell again.
    """
    return tuple(r.price for r in simulate(instance, prices).rounds if r.buyers)


def normalize(instance: PncInstance, prices: Sequence[int]) -> PriceSequence:
    """Prune empty rounds, then raise each price to its round's cheapest buyer.

    Raising a round's price to the minimum total value among that round's
    buyers leaves every buyer set unchanged and never lowers revenue, so the
    result sells the same partition for at least the original revenue.
    Empty rounds change nobody's value, so one pass serves both steps.
    """
    market = Market(instance)
    normalized = []
    for price in validate_prices(prices):
        buyers = market.bidders(price)
        if len(buyers):
            normalized.append(int(market.values[buyers].min()))
            market.settle(buyers)
    return tuple(normalized)
