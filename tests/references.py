"""Pure-Python reference implementations the array engine is checked against,
the small weighted instances that brute force can solve, and the
``json.loads`` instance loader the edge-list reader is checked against.

The engine references read only ``graph.edges`` and
``instance.initial_values`` and keep every number a Python int, so they share
no code with the numpy paths.
"""

import heapq
import json

import numpy as np
from hypothesis import strategies as st

from netprice import PncInstance, SaleRound, SaleTrace, validate_prices
from netprice.core import _as_int, _edge_table
from netprice.oracle import NAIVE_NODE_LIMIT


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
    values = list(instance.initial_values)
    remaining = set(range(instance.node_count))
    adj = adjacency(instance.graph)
    rounds = []
    total = 0
    for price in prices:
        buyers = frozenset(i for i in remaining if values[i] >= price)
        revenue = price * len(buyers)
        total += revenue
        rounds.append(SaleRound(price, buyers, revenue))
        remaining -= buyers
        for buyer in buyers:
            for neighbor, weight in adj[buyer]:
                if neighbor in remaining:
                    values[neighbor] -= weight
    return SaleTrace(tuple(rounds), frozenset(remaining), total)


def heap_greedy(instance):
    """Greedy iterative prices from a lazy max-heap of current values.

    Stale entries (from before a neighbor's decrement) are discarded on pop;
    values only fall, so the freshest entry for a node is the first valid one.
    """
    values = list(instance.initial_values)
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
    n = _as_int(payload["n"], "n")
    raw_edges = payload.get("edges", [])
    if not isinstance(raw_edges, list):
        raise ValueError("'edges' must be a list of [u, v, w] triples")
    nu = payload.get("nu")
    if nu is not None:
        if not isinstance(nu, list):
            raise ValueError("'nu' must be a list of integers")
        if len(nu) != n:
            raise ValueError(f"'nu' has {len(nu)} entries for n={n}")
    table = _edge_table(raw_edges)
    instance = PncInstance.from_edges(n, raw_edges if table is None else table, nu)
    backwards = np.flatnonzero(table[:, 0] >= table[:, 1])
    if len(backwards):
        raise ValueError(f"edges[{backwards[0]}]: endpoints must satisfy u < v")
    return instance
