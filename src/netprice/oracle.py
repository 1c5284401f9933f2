"""Exact optimum revenue, by memoized branch-and-bound over residual consumer sets.

Restricting candidate prices to current total values is lossless: pruning
empty rounds and raising every price to its round's cheapest buyer preserves
buyer sets and never lowers revenue, so some optimal sequence prices each
round at a consumer's current value. ``exact_opt`` searches exactly that
space, depth first with the highest price tried first, so its first descent
is the greedy sequence. A residual set's revenue is at most the sum of its
current values, since nobody pays more than their current value; a set whose
bound cannot beat what the caller already holds is not expanded. The root
already holds the best single price's revenue (the incumbent), so that
pruning starts with the first descent. Each memo entry is either the set's
exact optimum or an upper bound on it, as in alpha-beta search with a
transposition table.

A set's bound is ``bound(S) = sum of intrinsic values over S + 2 w(E[S])``,
so when buyers ``B`` with current values ``v`` leave ``S``,
``bound(S - B) = bound(S) - 2 sum_B v_b + bound(B)``, in exact integers. The
price loop applies it one buyer at a time (``bound({b})`` is ``b``'s
intrinsic value), and the parent settles each child from its memo entry or
its bound before any call: only a set that must be expanded is searched.

Current values pass down the search: each set's ``(value, node)`` list is
its parent's, less the weights from the graph's CSR rows of the buyers that
left. An exact memo entry keeps its best price and the set that price
leaves; the realizer follows these links, and ``simulate`` checks it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algorithms import _best_single, greedy_iterative
from .core import PncInstance, PriceSequence, _as_int, _as_type
from .engine import simulate


# exact_opt recurses once per sale round; each round removes a node and posts
# a positive integer price below the last, so a search is at most
# min(n, 1 + largest initial value) calls deep. This limit keeps the deepest
# search well inside Python's default recursion limit of 1000.
DEPTH_LIMIT = 800


# the residual sets exact_opt's memo may hold unless the caller says otherwise.
# The budget counts states, not bytes: a memo entry keys an n-bit set and
# keeps another (the set its best price leaves), so its size grows with n.
# A search measured about 245 B of resident memory per state at n = 300 and
# about 1.8 KB at n = 3000 (Python 3.11), so at n = 3000 the default admits
# about 1.8 GB before the budget error.
STATE_BUDGET = 1_000_000


class OracleBudgetError(RuntimeError):
    """Raised when the memo table would exceed the state budget.

    ``lower`` (the better of greedy's revenue and the search's incumbent,
    the best single price's) and ``upper`` (the sum of initial values)
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

    def __reduce__(self):
        # rebuild from the fields, so the error crosses a process pool intact
        return type(self), (self.states_explored, self.lower, self.upper)


@dataclass(frozen=True)
class OracleResult:
    revenue: int
    prices: PriceSequence
    states_explored: int
    bound_prunes: int = 0


def exact_opt(instance: PncInstance, state_budget: int = STATE_BUDGET) -> OracleResult:
    """Optimal revenue over all decreasing price sequences, with a realizer.

    Branch-and-bound, memoized on the residual consumer set (as a bitmask),
    visiting only sets reachable by posting some current total value as the
    price. The search starts from the best single price's revenue as the
    incumbent, so from the root on no set whose bound cannot beat it is
    expanded; the first descent is still greedy's. ``states_explored``
    counts the distinct sets visited, and ``bound_prunes`` those of them
    settled by their bound on first visit.
    Raises OracleBudgetError, carrying a lower and an upper bound on the
    optimum, if more than ``state_budget`` residual sets are explored (a
    count of states, whose memory grows with n: see ``STATE_BUDGET``), and
    ValueError if ``state_budget`` is not a positive integer or
    ``min(n, 1 + largest initial value)`` exceeds ``DEPTH_LIMIT``.
    """
    n = _as_type(instance, PncInstance, "instance").node_count
    if (state_budget := _as_int(state_budget, "state_budget")) < 1:
        raise ValueError("state_budget must be positive")
    # every node's numbers as Python ints, read once: the search's sums stay exact
    initial = instance.initial_values.tolist()
    depth = min(n, 1 + max(initial))
    if depth > DEPTH_LIMIT:
        raise ValueError(f"instance's search may recurse {depth} deep, above the oracle depth limit {DEPTH_LIMIT}")
    # each node's CSR row as (neighbour, weight) pairs of Python ints, so
    # weights past int64 stay exact
    indptr = instance.graph.indptr.tolist()
    neighbours = instance.graph.indices.tolist()
    weights = instance.graph.weights.tolist()
    rows = [tuple(zip(neighbours[a:b], weights[a:b])) for a, b in zip(indptr, indptr[1:])]
    intrinsic = instance.intrinsic.tolist()
    full = (1 << n) - 1
    # mask -> (revenue, exact, next price (0 = stop), the set it leaves). An
    # exact entry holds the set's optimum; otherwise revenue only bounds it.
    memo: dict[int, tuple[int, bool, int, int]] = {}
    bound_prunes = 0

    def solve(items: list[tuple[int, int]], mask: int, bound: int, need: int) -> int:
        """The optimum from ``mask`` if it exceeds ``need``, else an upper bound <= ``need``.

        ``items`` is the set's ``(current value, node)`` list, and ``bound``,
        the sum of those values, exceeds ``need``: the caller settles every
        other set itself.
        """
        nonlocal bound_prunes
        memo[mask] = (bound, False, 0, 0)  # counts toward the budget from here on
        items.sort(reverse=True)
        # drop[x]: the weight of x's edges to the buyers taken out so far
        drop = [0] * n
        best = 0
        best_price = best_rest = 0
        rest = mask
        rest_bound = bound
        index = 0
        count = len(items)
        while index < count:
            price = items[index][0]
            if price <= 0:
                break
            while index < count and items[index][0] == price:
                node = items[index][1]
                rest ^= 1 << node
                # bound(R - b) = bound(R) - 2 v_b + bound({b}); b is no
                # neighbour of itself, so v_b, its value against R - b, is
                # its value here (the price) less its edges to earlier buyers
                rest_bound -= 2 * (price - drop[node]) - intrinsic[node]
                for neighbour, weight in rows[node]:
                    drop[neighbour] += weight
                index += 1
            gain = price * index
            # The rest matters only where it lifts this set above both what
            # the caller holds and what a higher price already gave.
            rest_need = max(need, best) - gain
            if rest:
                hit = memo.get(rest)
                if hit is None:
                    if len(memo) >= state_budget:
                        lower = max(greedy_iterative(instance).revenue, incumbent)
                        raise OracleBudgetError(len(memo), lower, top)
                    if rest_bound <= rest_need:
                        hit = memo[rest] = (rest_bound, False, 0, 0)
                        bound_prunes += 1
                if hit is not None and (hit[1] or hit[0] <= rest_need):
                    gain += hit[0]
                else:
                    remaining = [(value - drop[node], node) for value, node in items[index:]]
                    gain += solve(remaining, rest, rest_bound, rest_need)
            if gain > best:
                best = gain
                best_price = price
                best_rest = rest
        memo[mask] = (best, best > need, best_price, best_rest)
        return best

    top = sum(initial)  # the full set's bound
    start = [(value, node) for node, value in enumerate(initial)]
    incumbent = _best_single(instance.initial_values)[1]
    # every optimum is at least the incumbent, so the root's entry is exact
    revenue = solve(start, full, top, incumbent - 1)

    prices = []
    mask = full
    while mask:
        entry = memo.get(mask)
        if entry is None or not entry[1]:
            raise RuntimeError(f"oracle realizer reached residual set {mask:#x} without an exact entry")
        if entry[2]:  # a stop (price 0) leaves the empty set
            prices.append(entry[2])
        mask = entry[3]
    realizer = tuple(prices)

    if any(a <= b for a, b in zip(realizer, realizer[1:])):
        raise RuntimeError(f"oracle realizer {realizer} does not decrease")
    if simulate(instance, realizer).revenue != revenue:
        raise RuntimeError(f"oracle realizer {realizer} does not reproduce revenue {revenue}")
    return OracleResult(revenue, realizer, len(memo), bound_prunes)
