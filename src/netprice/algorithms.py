"""Pricing strategies and structural helpers.

Every strategy returns the engine's ``SaleTrace`` of the prices it chose
(re-simulating them, or for greedy the rounds it sold), so reported revenue
is always the engine's, not a formula's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PncInstance, SaleTrace, WeightedGraph, _as_int, _as_real, _as_type
from .engine import Market, simulate


@dataclass(frozen=True)
class SplitPartition:
    """Clique / independent-set partition of a split graph, as
    ``recognize_split`` finds it.

    ``clique`` is ordered by nondecreasing degree (ties by node id);
    ``independent`` is sorted by node id.
    """

    clique: tuple[int, ...]
    independent: tuple[int, ...]


def _require_plain(instance: PncInstance, op: str) -> None:
    if not _as_type(instance, PncInstance, "instance").graph.is_unweighted():
        raise ValueError(f"{op} requires unit edge weights")
    if instance.intrinsic.any():
        raise ValueError(f"{op} requires all intrinsic values to be zero")


def greedy_iterative(instance: PncInstance) -> SaleTrace:
    """Repeatedly post the highest current total value until everyone owns.

    Each round sells exactly the argmax set, a run of rounds per scan of the
    values (``Market.sell``). Revenue is at least the sum of all intrinsic
    values plus the total edge weight: every edge has the earlier-selling
    endpoint charged for it, and intrinsic value is always charged. A price
    of 0 can only appear in the final round.
    """
    market = Market(instance)
    return market.trace(*market.sell())


def _best_single(values: np.ndarray) -> tuple[int, int]:
    """The single price that earns most from consumers valued at ``values``,
    and its revenue: everyone valued at or above the price buys. Only the
    values themselves can be optimal (any other price can be raised to the
    next value below it without losing a buyer). Ties break toward the
    higher price."""
    ranked = np.sort(values)[::-1].tolist()
    # a run of tied prices earns most at its last place; an earlier place
    # of equal revenue is a higher price, or everyone is valued at 0
    revenues = [price * count for count, price in enumerate(ranked, start=1)]
    best = revenues.index(max(revenues))
    return ranked[best], revenues[best]


def best_single_price(instance: PncInstance) -> SaleTrace:
    """Best revenue from posting one price, over all initial total values,
    as ``_best_single`` finds it."""
    return simulate(instance, (_best_single(_as_type(instance, PncInstance, "instance").initial_values)[0],))


def _require_forest(graph: WeightedGraph) -> None:
    parent = list(range(graph.node_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in zip(graph.u.tolist(), graph.v.tolist()):
        ru, rv = find(u), find(v)
        if ru == rv:
            raise ValueError("forest_single_price requires an acyclic graph")
        parent[ru] = rv


def forest_single_price(instance: PncInstance) -> SaleTrace:
    """Better of the single prices 1 and 2 on an unweighted forest.

    Price 1 sells every non-isolated node; price 2 sells every node of degree
    at least 2, i.e. everything but leaves and isolated nodes. On a forest
    this is within factor 1.5 of the optimum. Ties break toward price 2.
    """
    _require_plain(instance, "forest_single_price")
    _require_forest(instance.graph)
    degrees = instance.graph.degrees
    revenue_at_1 = int(np.count_nonzero(degrees >= 1))
    revenue_at_2 = 2 * int(np.count_nonzero(degrees >= 2))
    price = 2 if revenue_at_2 >= revenue_at_1 else 1
    return simulate(instance, (price,))


def recognize_split(graph: WeightedGraph) -> SplitPartition | None:
    """Degree-sequence recognition of split graphs (Hammer and Simeone, 1981).

    With degrees ranked nonincreasing (ties by node id) and m the number of
    0-based ranks i with d_i >= i (a prefix: d_i - i falls), the graph is split
    iff the first m degrees sum to m(m-1) plus the remaining degrees; the m
    highest-degree nodes then form a clique and the rest an independent set.
    Returns None if not split.
    """
    if not _as_type(graph, WeightedGraph, "graph").is_unweighted():
        raise ValueError("recognize_split requires unit edge weights")
    degrees = graph.degrees
    order = np.argsort(-degrees, kind="stable")
    ranked = degrees[order]
    m = int(np.count_nonzero(ranked >= np.arange(graph.node_count)))
    if int(ranked[:m].sum()) != m * (m - 1) + int(ranked[m:].sum()):
        return None
    clique = order[:m][np.lexsort((order[:m], ranked[:m]))]
    return SplitPartition(tuple(clique.tolist()), tuple(np.sort(order[m:]).tolist()))


def split_dp(instance: PncInstance) -> SaleTrace:
    """Exact optimum on a split graph in O(n^2), with a realizing sequence.

    The partition comes from ``recognize_split``, and a graph that is not
    split raises ValueError. Processes clique prefixes in nondecreasing
    degree order. The optimum for the subgraph induced by the first i clique
    nodes and their independent neighbors either sells a clique suffix at
    that suffix's lowest degree and recurses on a shorter prefix, or sells
    the whole prefix plus the j highest-degree independent neighbors at one
    closing price, after which the leftover independent nodes are worthless.
    Only threshold candidates are scored: a clique-suffix price must strictly
    exceed both the next clique degree down and every current independent
    degree, otherwise the posted price would sell a different set than the
    candidate assumes.

    Each prefix scores every suffix and closing price at once. Of equal
    revenues, a suffix beats a closing price, a longer suffix a shorter one,
    and a higher closing price a lower one.
    """
    _require_plain(instance, "split_dp")
    graph = instance.graph
    partition = recognize_split(graph)
    if partition is None:
        raise ValueError("split_dp requires a split graph")
    clique = partition.clique
    independent = np.array(partition.independent, np.int64)

    k = len(clique)
    indptr, indices = graph.indptr, graph.indices
    clique_deg = graph.degrees[list(clique)]  # nondecreasing
    # a suffix from h priced at clique_deg[h] would also sell an equal clique[h - 1]
    distinct = np.concatenate(([True], clique_deg[1:] != clique_deg[:-1]))
    # prefix_deg[u]: neighbors of node u among the first i clique nodes,
    # read for independent nodes only
    prefix_deg = np.zeros(graph.node_count, np.int64)
    opt = np.zeros(k + 1, np.int64)
    # back[i]: (price, h) posts price, selling clique[h:i], then prices prefix
    # h; a closing price d is (d, 0) and also sells independents of degree
    # >= d. None: the prefix is worthless, as prefix 0 always is.
    back: list[tuple[int, int] | None] = [None] * (k + 1)

    for i, node in enumerate(clique, start=1):
        prefix_deg[indices[indptr[node]:indptr[node + 1]]] += 1
        # independent nodes at each prefix degree from the highest, top, down to 0
        count = np.bincount(prefix_deg[independent], minlength=1)[::-1]
        top = len(count) - 1
        if top > clique_deg[0] - (k - i):
            raise RuntimeError(f"independent degree {top} above the whole clique")
        price = clique_deg[:i] - (k - i)
        gain = np.where(distinct[:i] & (price > top), opt[:i] + price * np.arange(i, 0, -1), 0)
        h = int(gain.argmax())  # the first of equal gains
        if gain[h]:
            opt[i], back[i] = gain[h], (int(price[h]), h)
        # closing at degree d sells the prefix and every independent at d or above
        close = np.where(count > 0, (i + np.cumsum(count)) * np.arange(top, -1, -1), 0)
        j = int(close.argmax())  # the highest of equal degrees
        if close[j] > opt[i]:
            opt[i], back[i] = close[j], (top - j, 0)

    prices = []
    i = k
    while back[i] is not None:
        price, i = back[i]
        prices.append(price)
    trace = simulate(instance, prices)
    if trace.revenue != opt[k]:
        raise RuntimeError(f"split_dp realizer {trace.prices} does not reproduce revenue {opt[k]}")
    return trace


def er_single_price(instance: PncInstance, eta: float, delta: float) -> SaleTrace:
    """Post floor((1 - delta) * (n - 1) * eta) once, for near-average-degree graphs.

    On a dense random graph with edge probability eta this undercuts almost
    every degree, so nearly everyone buys in the single round.
    """
    _require_plain(instance, "er_single_price")
    if not 0 < _as_real(eta, "eta") <= 1:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    if not 0 < _as_real(delta, "delta") < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    price = math.floor((1 - delta) * (instance.node_count - 1) * eta)
    if price < 1:
        raise ValueError(f"computed price {price} is not positive; n or eta too small for delta")
    return simulate(instance, (price,))


def ba_single_price(instance: PncInstance, beta: int) -> SaleTrace:
    """Post the minimum-attachment count beta once; with min degree >= beta
    every consumer buys immediately, for revenue exactly n * beta."""
    if _as_int(beta, "beta") < 1:
        raise ValueError(f"beta must be a positive integer, got {beta!r}")
    if int(_as_type(instance, PncInstance, "instance").graph.degrees.min()) < beta:
        raise ValueError("ba_single_price requires minimum degree >= beta")
    return simulate(instance, (beta,))


def min_degree_independent(graph: WeightedGraph) -> bool:
    """Whether the minimum-degree nodes form an independent set."""
    degrees = _as_type(graph, WeightedGraph, "graph").degrees
    lowest = degrees == degrees.min()
    return not (lowest[graph.u] & lowest[graph.v]).any()


def degree_bound(instance: PncInstance) -> int:
    """max_i i * d_i over the nonincreasing degree sequence (1-based): the
    best single price's revenue over degrees, which on an unweighted
    instance with no intrinsic value are the initial values.

    A bound witness: posting d_i alone sells at least i copies. The optimum
    is at most (1 + ln n) times this value on unweighted instances.
    """
    _require_plain(instance, "degree_bound")
    return _best_single(instance.graph.degrees)[1]
