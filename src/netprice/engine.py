"""Selling process: simulate a price sequence, prune it, normalize it.

Round semantics: every consumer still holding out compares their current total
value (intrinsic plus weights of edges to other non-owners, fixed at the start
of the round) against the posted price, and buys iff value >= price. All
purchases in a round happen simultaneously; the value drops they cause are
visible from the next round on. A price of 0 sells to every remaining
consumer and contributes no revenue. ``Market.sell`` sells every round in
a run of rounds per O(n) vectorised scan, reading the CSR (from its first
settle on) only in rows of nodes it may sell. A run whose only round is the
process's last only marks its buyers: no later round reads a value, so a
single price never builds the CSR, nor does one tie group of everyone.
``sell`` hands out arrays, and its callers pick each round's price.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from operator import mul
from typing import Sequence

import numpy as np

from .core import PncInstance, PriceSequence, SaleTrace, _as_type, _exact_array, _read_only, validate_prices


def _join(parts: list[np.ndarray], dtype: np.dtype) -> np.ndarray:
    """The arrays of ``parts`` end to end. ``parts`` is emptied, so a caller
    joining several lists holds each part or its copy, never both at once."""
    joined = parts[0] if len(parts) == 1 else np.concatenate([np.zeros(0, dtype), *parts])
    parts.clear()
    return joined


class Market:
    """A selling process in progress: ``values`` holds every consumer's current
    value, in the instance's value dtype, and -1 for each owner. A value that
    is still selling never falls below its intrinsic value, which is >= 0, so
    the consumers still holding out are exactly ``values >= 0``.
    """

    def __init__(self, instance: PncInstance) -> None:
        self.values = _as_type(instance, PncInstance, "instance").initial_values.copy()
        # no price above this sells, and every price compared is within the dtype
        self.top = int(self.values.max())
        self.graph = instance.graph

    @cached_property
    def weights(self) -> np.ndarray:
        # a weight is at most its endpoints' initial values, so it fits the dtype
        return self.graph.weights.astype(self.values.dtype, copy=False)

    def rows(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The positions of ``nodes``' CSR rows back to back, in the order
        given, and each row's length."""
        starts, lengths = self.graph.indptr[nodes], self.graph.degrees[nodes]
        rows = (starts - lengths.cumsum() + lengths).repeat(lengths) + np.arange(lengths.sum())
        return rows, lengths

    def settle(self, buyers: np.ndarray, rows: np.ndarray | None = None) -> None:
        """Make ``buyers`` owners and lower their neighbours still selling,
        reading only the buyers' CSR rows: ``rows`` when the caller has
        gathered them already, as ``Market.rows`` gives them."""
        self.values[buyers] = -1
        if rows is None:
            # one buyer's row is a slice, cheaper than gathered positions
            if len(buyers) == 1:
                rows = slice(self.graph.indptr[buyers[0]], self.graph.indptr[buyers[0] + 1])
            else:
                rows = self.rows(buyers)[0]
        neighbours = self.graph.indices[rows]
        still = self.values[neighbours] >= 0
        # exact in either dtype, and a neighbour of several buyers drops once per buyer
        np.subtract.at(self.values, neighbours[still], self.weights[rows][still])

    def sell(self, prices: PriceSequence | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Post ``prices``, or with None greedy's (the highest current value,
        until everyone owns): each round's lowest buyer value (0 if it sold
        nobody; greedy's prices), all buyers round by round (each round's
        increasing), and the offsets where rounds end, from 0, as arrays.

        One scan sells a run: the next ``want`` prices that are new minima at
        most ``top`` (no other sells), or greedy's tie groups among the ``want``
        highest values. Every unsold node valued at or above the run's last
        price is a candidate, of the first round priced at or below its value.
        Values only fall, so the rounds before the first with a member adjacent
        to an earlier round's candidate sell exactly their candidates: the run
        takes them. ``want`` starts at 1 and doubles, or is twice what a cut
        run took (nodes for greedy, prices else). A run of one round needs no
        sort, and when that round is the process's last (no price follows it,
        or it sells every unsold node) it only marks its buyers as owners.
        """
        values = self.values
        end = None if prices is None else len(prices)
        left = int(np.count_nonzero(values >= 0))
        # each run's lows, buyers and round ends, joined once
        lows_parts, chunks, ends_parts = [], [], [np.zeros(1, np.int64)]
        at, want, sold = 0, 1, 0
        while left and at != end:
            if prices is None:
                # the want-th highest value: selected among the negated values, the owners'
                # many equal entries lie past it (before it, they slow numpy's partition ~10x)
                kth = min(want, left) - 1
                low = -int(np.partition(-values, kth)[kth])
            else:
                stop, index, low = min(at + want, end), [], self.top + 1
                for i in range(at, stop):
                    if prices[i] < low:
                        index.append(i)
                        low = prices[i]
            candidates = (values >= low).nonzero()[0] if prices is None or index else ()
            if not len(candidates):
                lows_parts.append(np.zeros(stop - at, values.dtype))
                ends_parts.append(np.full(stop - at, sold))
                at, want = stop, 2 * want
                continue
            own = values[candidates]
            if len(index) == 1 if prices is not None else own.max() == low:
                # one round, of every candidate, so no sort; as the process's
                # last round it only marks them, for no later round reads a value
                ends, lows, taken, bought = np.array([len(own)]), own.min(keepdims=True), 1, candidates
                if len(own) == left or prices is not None and stop == end:
                    values[candidates] = -1
                else:
                    self.settle(candidates)
            else:
                order = (-own).argsort(kind="stable")  # highest first, ties increasing
                candidates, own = candidates[order], own[order]
                if prices is None:
                    tops = own[np.concatenate(([True], own[1:] != own[:-1])).nonzero()[0]]
                else:
                    tops = np.array([prices[i] for i in index], values.dtype)
                # the candidates of the rounds up to each: those valued at or above its price
                ends = len(own) - own[::-1].searchsorted(tops)
                lows = own[ends - 1]
                # Round 0 settles first: then a later member whose value fell is
                # adjacent to it, and one adjacent to a later round's member has a
                # neighbour valued at or above the price of the round before its own
                self.settle(candidates[:ends[0]])
                fell = (values[candidates[ends[0]:]] < own[ends[0]:]).nonzero()[0]
                taken = int(ends.searchsorted(ends[0] + fell[0], "right")) if len(fell) else len(tops)
                if taken > 1:
                    rows, lengths = self.rows(candidates[ends[0]:ends[taken - 1]])
                    bars = tops[:taken - 1].repeat(ends[1:taken] - ends[:taken - 1]).repeat(lengths)
                    blocked = (values[self.graph.indices[rows]] >= bars).nonzero()[0]
                    if len(blocked):
                        member = ends[0] + lengths.cumsum().searchsorted(blocked[0], "right")
                        taken = int(ends.searchsorted(member, "right"))
                        rows = rows[:lengths[:ends[taken - 1] - ends[0]].sum()]
                    self.settle(candidates[ends[0]:ends[taken - 1]], rows)
                bought = candidates[:ends[taken - 1]]
                if prices is not None:  # each round's buyers increasing, as greedy's tie groups are
                    bought = bought[np.lexsort((bought, ends[:taken].searchsorted(np.arange(len(bought)), "right")))]
            if prices is None:  # greedy's rounds are the run's tie groups
                index, stop = range(at, at + len(ends)), at + len(ends)
            count = int(ends[taken - 1])
            done = index[taken] if taken < len(index) else stop
            reach, lows = ends[:taken], lows[:taken]
            if len(index) != stop - at:  # a price that is no new minimum sells nobody
                slot = np.searchsorted(index[:taken], np.arange(at, done), "right")
                reach, spread = np.append(0, reach)[slot], np.zeros(done - at, values.dtype)
                spread[np.subtract(index[:taken], at)] = lows
                lows = spread
            lows_parts.append(lows)
            ends_parts.append(sold + reach)
            chunks.append(bought)
            want = 2 * want if taken == len(index) else 2 * (count if prices is None else done - at)
            at, left, sold = done, left - count, sold + count
        if prices is not None:  # every price after everyone owns sells nobody
            lows_parts.append(np.zeros(end - at, values.dtype))
            ends_parts.append(np.full(end - at, sold))
        return _join(lows_parts, values.dtype), _join(chunks, np.intp), _join(ends_parts, np.int64)

    def trace(self, prices: np.ndarray, buyers: np.ndarray, ends: np.ndarray) -> SaleTrace:
        """The trace of the rounds ``Market.sell`` returns, priced at ``prices``
        (greedy's are its lows), at the values now."""
        counts = np.diff(ends)  # summed exactly in Python ints, 4,096 rounds at a time
        revenue = sum(sum(map(mul, prices[i:i + 4096].tolist(), counts[i:i + 4096].tolist()))
                      for i in range(0, len(prices), 4096))
        residual = frozenset(np.flatnonzero(self.values >= 0).tolist())
        return SaleTrace(_read_only(prices), _read_only(buyers), _read_only(ends), residual, revenue)


def simulate(instance: PncInstance, prices: Sequence[int]) -> SaleTrace:
    """Run the selling process for ``prices`` and return the full trace."""
    market = Market(instance)
    prices = validate_prices(prices)
    return market.trace(_exact_array(prices), *market.sell(prices)[1:])


def make_irredundant(instance: PncInstance, prices: Sequence[int]) -> PriceSequence:
    """Drop every price at which nobody buys.

    The surviving rounds keep their buyer sets and revenue, and the result is
    strictly decreasing: a consumer priced out at one round has an even lower
    value later, so a repeated or higher price can never sell again.
    """
    prices = validate_prices(prices)
    return tuple(compress(prices, np.diff(Market(instance).sell(prices)[2]).tolist()))


def normalize(instance: PncInstance, prices: Sequence[int]) -> PriceSequence:
    """Prune empty rounds, then raise each price to its round's cheapest buyer.

    Raising a round's price to the minimum total value among that round's
    buyers leaves every buyer set unchanged and never lowers revenue, so the
    result sells the same partition for at least the original revenue.
    Empty rounds change nobody's value, so one pass serves both steps.
    """
    lows, _, ends = Market(instance).sell(validate_prices(prices))
    return tuple(lows[np.diff(ends) > 0].tolist())
