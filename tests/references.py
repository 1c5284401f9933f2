"""Pure-Python reference implementations the array engine is checked against,
the small weighted instances that brute force can solve, the brute-force
optimum that certifies the oracle, the ``json.loads`` instance loader the
edge-list reader is checked against, the forest-count recurrence the
closed form is checked against, the one-draw Erdős–Rényi generator the
row-block one is checked against, the one-``integers``-call-per-pick
preferential attachment generator the block-read one is checked against,
and the plain split-graph recognition and DP ``recognize_split`` and
``split_dp`` are checked against.

The engine and oracle references read only ``graph.edges``,
``instance.intrinsic`` and ``instance.initial_values`` (as Python lists, with
``tolist()``) and keep every number a Python int, so they share no code with the numpy paths or with the CSR
rows the engine and the oracle both read.
"""

import heapq
import json
import math

import numpy as np
from hypothesis import strategies as st

from netprice import PncInstance, SaleTrace, SplitPartition, simulate, validate_prices

NAIVE_NODE_LIMIT = 8


@st.composite
def weighted_instances(draw):
    """Up to ``NAIVE_NODE_LIMIT`` nodes, weights 1-6, intrinsic values 0-6."""
    n = draw(st.integers(1, NAIVE_NODE_LIMIT))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    edges = [(u, v, draw(st.integers(1, 6))) for u, v in chosen]
    nu = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    return PncInstance.from_edges(n, edges, nu)


def adjacency(graph):
    """Per node, a tuple of (neighbor, weight) pairs in increasing neighbor order."""
    adj = [[] for _ in range(graph.node_count)]
    for u, v, w in graph.edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    return tuple(tuple(sorted(pairs)) for pairs in adj)


def rescan_simulate(instance, prices):
    """The selling process by a full scan of the remaining consumers per round."""
    prices = validate_prices(prices)
    values = instance.initial_values.tolist()
    remaining = set(range(instance.node_count))
    adj = adjacency(instance.graph)
    sold, ends = [], [0]
    total = 0
    for price in prices:
        buyers = sorted(i for i in remaining if values[i] >= price)
        total += price * len(buyers)
        sold += buyers
        ends.append(len(sold))
        remaining -= set(buyers)
        for buyer in buyers:
            for neighbor, weight in adj[buyer]:
                if neighbor in remaining:
                    values[neighbor] -= weight
    return SaleTrace(np.array(prices, object), np.array(sold, np.int64), np.array(ends, np.int64),
                     frozenset(remaining), total)


def rescan_normalize(instance, prices):
    """Normalized prices by a full scan of the remaining consumers per round:
    drop the rounds that sell nobody and price each other round at its
    buyers' lowest value."""
    values = instance.initial_values.tolist()
    remaining = set(range(instance.node_count))
    adj = adjacency(instance.graph)
    normalized = []
    for price in validate_prices(prices):
        buyers = [i for i in remaining if values[i] >= price]
        if buyers:
            normalized.append(min(values[i] for i in buyers))
        remaining.difference_update(buyers)
        for buyer in buyers:
            for neighbor, weight in adj[buyer]:
                if neighbor in remaining:
                    values[neighbor] -= weight
    return tuple(normalized)


def rescan_greedy(instance):
    """Greedy iterative prices by a full scan of the remaining consumers per
    round: post the highest current value, sell everyone at it."""
    values = instance.initial_values.tolist()
    remaining = set(range(instance.node_count))
    adj = adjacency(instance.graph)
    prices = []
    while remaining:
        price = max(values[i] for i in remaining)
        prices.append(price)
        buyers = [i for i in remaining if values[i] == price]
        remaining.difference_update(buyers)
        for buyer in buyers:
            for neighbor, weight in adj[buyer]:
                if neighbor in remaining:
                    values[neighbor] -= weight
    return tuple(prices)


def heap_greedy(instance):
    """Greedy iterative prices from a lazy max-heap of current values.

    Stale entries (from before a neighbor's decrement) are discarded on pop;
    values only fall, so the freshest entry for a node is the first valid one.
    """
    values = instance.initial_values.tolist()
    remaining = set(range(instance.node_count))
    adj = adjacency(instance.graph)
    heap = [(-values[i], i) for i in remaining]
    heapq.heapify(heap)
    prices = []
    while remaining:
        price = -1
        while heap:
            negative, node = heap[0]
            if node not in remaining or -negative != values[node]:
                heapq.heappop(heap)
                continue
            price = -negative
            break
        prices.append(price)
        buyers = []
        while heap:
            negative, node = heap[0]
            if -negative < price:
                break
            heapq.heappop(heap)
            if node in remaining and -negative == values[node]:
                buyers.append(node)
        remaining.difference_update(buyers)
        for buyer in buyers:
            for neighbor, weight in adj[buyer]:
                if neighbor in remaining:
                    values[neighbor] -= weight
                    heapq.heappush(heap, (-values[neighbor], neighbor))
    return tuple(prices)


def recognize_split_reference(graph):
    """``recognize_split`` as a sort by key and a walk down the ranked
    degrees, one node at a time."""
    if not graph.is_unweighted():
        raise ValueError("recognize_split requires unit edge weights")
    degrees = graph.degrees.tolist()
    order = sorted(range(graph.node_count), key=lambda v: (-degrees[v], v))
    ranked = [degrees[v] for v in order]
    m = 0
    while m < len(ranked) and ranked[m] >= m:
        m += 1
    if sum(ranked[:m]) != m * (m - 1) + sum(ranked[m:]):
        return None
    clique = sorted(order[:m], key=lambda v: (degrees[v], v))
    return SplitPartition(tuple(clique), tuple(sorted(order[m:])))


def split_dp_reference(instance):
    """``split_dp`` as a per-neighbour set-membership DP whose closing-price
    loop scans every degree from k down: the same recursion and back-pointers
    with no shortcut."""
    if not instance.graph.is_unweighted() or instance.intrinsic.any():
        raise ValueError("split_dp requires unit edge weights and zero intrinsic values")
    graph = instance.graph
    partition = recognize_split_reference(graph)
    if partition is None:
        raise ValueError("split_dp requires a split graph")
    clique = partition.clique
    indep_set = set(partition.independent)

    k = len(clique)
    degrees = graph.degrees.tolist()
    clique_deg = [degrees[v] for v in clique]  # nondecreasing
    indptr, indices = graph.indptr, graph.indices

    # prefix_deg[u]: neighbors of independent node u among the first i clique nodes
    prefix_deg = [0] * graph.node_count
    bucket = [0] * (k + 2)  # count of independent nodes at each prefix degree
    max_indep_deg = 0
    opt = [0] * (k + 1)
    # back[i]: (price, h) posts price, selling clique[h:i], then prices prefix
    # h; a closing price d is (d, 0) and also sells independents of degree
    # >= d. None: the prefix is worthless, as prefix 0 always is.
    back: list[tuple[int, int] | None] = [None] * (k + 1)

    for i in range(1, k + 1):
        node = clique[i - 1]
        for u in indices[indptr[node]:indptr[node + 1]].tolist():
            if u in indep_set:
                old = prefix_deg[u]
                prefix_deg[u] = old + 1
                if old:
                    bucket[old] -= 1
                bucket[old + 1] += 1
                if old + 1 > max_indep_deg:
                    max_indep_deg = old + 1
        best = 0
        for h in range(i):
            if h > 0 and clique_deg[h - 1] == clique_deg[h]:
                continue  # price would also sell clique[h-1]
            price = clique_deg[h] - (k - i)
            if price <= max_indep_deg:
                continue  # price would also sell an independent node
            candidate = opt[h] + price * (i - h)
            if candidate > best:
                best = candidate
                back[i] = (price, h)
        lowest_clique_deg = clique_deg[0] - (k - i)
        ahead = 0
        for d in range(k, 0, -1):
            ahead += bucket[d]
            if bucket[d] == 0:
                continue
            if d > lowest_clique_deg:
                raise RuntimeError(f"independent degree {d} above the whole clique")
            candidate = (i + ahead) * d
            if candidate > best:
                best = candidate
                back[i] = (d, 0)
        opt[i] = best

    prices = []
    i = k
    while back[i] is not None:
        price, i = back[i]
        prices.append(price)
    trace = simulate(instance, prices)
    if trace.revenue != opt[k]:
        raise RuntimeError(f"split_dp realizer {trace.prices} does not reproduce revenue {opt[k]}")
    return trace


def json_loads_instance(text):
    """An instance file read whole by ``json.loads``: every edge becomes a
    Python list first, then one table."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"instance file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError("instance file must contain a JSON object")
    unknown = set(payload) - {"n", "edges", "nu"}
    if unknown:
        raise ValueError(f"unknown instance fields: {sorted(unknown)}")
    if "n" not in payload:
        raise ValueError("instance file is missing field 'n'")
    n = payload["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"n must be an integer, got {n!r}")
    raw_edges = payload.get("edges", [])
    if not isinstance(raw_edges, list):
        raise ValueError("'edges' must be a list of [u, v, w] triples")
    nu = payload.get("nu")
    if "nu" in payload:
        if not isinstance(nu, list):
            raise ValueError("'nu' must be a list of integers")
        if len(nu) != n:
            raise ValueError(f"'nu' has {len(nu)} entries for n={n}")
    instance = PncInstance.from_edges(n, raw_edges, nu)
    # the graph accepted every edge, so each is a list of three ints
    backwards = [index for index, (u, v, _) in enumerate(raw_edges) if u >= v]
    if backwards:
        raise ValueError(f"edges[{backwards[0]}]: endpoints must satisfy u < v")
    return instance


def triu_gen_er(n, eta, seed):
    """G(n, eta) from one draw over every pair (u, v > u) in row-major order."""
    rng = np.random.Generator(np.random.PCG64(seed))
    us, vs = np.triu_indices(n, k=1)
    keep = rng.random(len(us)) < eta
    return PncInstance.from_edges(n, np.column_stack((us[keep], vs[keep], np.ones(keep.sum(), np.int64))))


def scalar_gen_ba(n, beta, seed):
    """Preferential attachment built edge by edge, one ``rng.integers`` call
    per pick among the edge ends made so far."""
    rng = np.random.Generator(np.random.PCG64(seed))
    edges = []
    targets = []
    for i in range(beta):
        for j in range(i + 1, beta):
            edges.append((i, j, 1))
            targets += [i, j]
    for arrival in range(beta, n):
        if arrival == beta:
            chosen = set(range(beta))
        else:
            chosen = set()
            while len(chosen) < beta:
                chosen.add(targets[int(rng.integers(0, len(targets)))])
        for node in sorted(chosen):
            edges.append((node, arrival, 1))
            targets += [node, arrival]
    return PncInstance.from_edges(n, edges)


def naive_opt(instance):
    """Optimum by brute force over every integer price at every state.

    No memoization and no restriction of prices to current total values; the
    only shortcut is a sound bound (nobody ever pays more than their current
    value). A consumer's current value is its intrinsic value plus the
    weights of its edges to consumers who have not bought yet. Exponential,
    so capped at ``NAIVE_NODE_LIMIT`` nodes.
    """
    n = instance.node_count
    if n > NAIVE_NODE_LIMIT:
        raise ValueError(f"naive_opt handles at most {NAIVE_NODE_LIMIT} nodes, got {n}")
    adj = adjacency(instance.graph)
    intrinsic = instance.intrinsic.tolist()
    best = 0

    def dfs(remaining, banked):
        nonlocal best
        best = max(best, banked)
        values = sorted(
            ((intrinsic[i] + sum(w for j, w in adj[i] if j in remaining), i)
             for i in remaining),
            reverse=True,
        )
        if not values or banked + sum(v for v, _ in values) <= best:
            return
        buyers = set()
        index = 0
        for price in range(values[0][0], 0, -1):
            while index < len(values) and values[index][0] >= price:
                buyers.add(values[index][1])
                index += 1
            dfs(remaining - buyers, banked + price * index)

    dfs(frozenset(range(n)), 0)
    return best


def forest_counts(n, t):
    """Labeled forests on k nodes with j components, for every (k, j) that
    sampling ``t`` trees on ``n`` nodes reaches: j < t and 0 <= k - j <= n - t.

    Row j holds k = j .. j + n - t and is filled from row j - 1 by splitting
    on the size m of the component holding the lowest label: C(k-1, m-1)
    ways to pick its other members, m^(m-2) trees on them (Cayley) and a
    forest on the rest.
    """
    span = n - t
    rows = [(1,) + (0,) * span]
    for j in range(1, t):
        below = rows[-1]
        rows.append(tuple(
            sum(
                math.comb(k - 1, m - 1) * m ** max(m - 2, 0) * below[k - m - j + 1]
                for m in range(1, k - j + 2)
            )
            for k in range(j, j + span + 1)
        ))
    return tuple(rows)
