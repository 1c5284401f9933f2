"""Core data model: weighted graphs, pricing instances, and sale traces.

Nodes are dense 0-based integer ids. All quantities (edge weights, intrinsic
values, prices, revenues) are nonnegative Python ints, so every computation in
the package is exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

# A posted price sequence is a plain tuple of nonnegative ints, price per round.
PriceSequence = tuple[int, ...]


def _as_int(value: object, what: str) -> int:
    # bool is an int subclass; reject it so JSON true/false cannot leak in.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph with positive integer edge weights.

    ``edges`` is canonical: tuples ``(u, v, w)`` with ``u < v``, sorted by
    endpoint pair, no duplicates, no self loops. Instances are immutable;
    derived views (degrees, adjacency) are cached lazily.
    """

    node_count: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        n = _as_int(self.node_count, "node_count")
        if n < 1:
            raise ValueError(f"node_count must be >= 1, got {n}")
        # The only per-edge validator in the package: every loaded or generated
        # graph passes through here once. Error text is built only on failure.
        canonical = []
        for idx, edge in enumerate(self.edges):
            try:
                u, v, w = edge
            except (TypeError, ValueError):
                raise ValueError(f"edges[{idx}]: expected (u, v, w), got {edge!r}") from None
            if type(u) is not int or type(v) is not int or type(w) is not int:
                _as_int(u, f"edges[{idx}]: endpoint")
                _as_int(v, f"edges[{idx}]: endpoint")
                _as_int(w, f"edges[{idx}]: weight")
            if u > v:
                u, v = v, u
            elif u == v:
                raise ValueError(f"edges[{idx}]: self loop at node {u}")
            if u < 0 or v >= n:
                raise ValueError(f"edges[{idx}]: endpoints ({u}, {v}) out of range for n={n}")
            if w < 1:
                raise ValueError(f"edges[{idx}]: weight must be >= 1, got {w}")
            canonical.append((u, v, w))
        canonical.sort()
        for (u1, v1, _), (u2, v2, _) in zip(canonical, canonical[1:]):
            if u1 == u2 and v1 == v2:
                raise ValueError(f"duplicate edge ({u1}, {v1})")
        object.__setattr__(self, "node_count", n)
        object.__setattr__(self, "edges", tuple(canonical))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def total_edge_weight(self) -> int:
        return sum(w for _, _, w in self.edges)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.node_count
        for u, v, _ in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    @cached_property
    def weighted_degrees(self) -> tuple[int, ...]:
        wdeg = [0] * self.node_count
        for u, v, w in self.edges:
            wdeg[u] += w
            wdeg[v] += w
        return tuple(wdeg)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per node, a tuple of (neighbor, weight) pairs."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.node_count)]
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        return tuple(tuple(pairs) for pairs in adj)

    def is_unweighted(self) -> bool:
        return all(w == 1 for _, _, w in self.edges)


@dataclass(frozen=True)
class PncInstance:
    """A selling instance: a weighted graph plus per-node intrinsic values.

    A consumer who has not bought yet values the good at their intrinsic value
    plus the total weight of edges to other consumers who have not bought
    either; purchases by neighbors only ever lower their value.
    """

    graph: WeightedGraph
    intrinsic: tuple[int, ...]

    def __post_init__(self) -> None:
        values = tuple(_as_int(x, f"intrinsic[{i}]") for i, x in enumerate(self.intrinsic))
        if len(values) != self.graph.node_count:
            raise ValueError(
                f"intrinsic has {len(values)} entries for {self.graph.node_count} nodes"
            )
        if any(x < 0 for x in values):
            raise ValueError("intrinsic values must be nonnegative")
        object.__setattr__(self, "intrinsic", values)

    @classmethod
    def from_edges(
        cls,
        node_count: int,
        edges: Iterable[tuple[int, int, int]],
        intrinsic: Sequence[int] | None = None,
    ) -> "PncInstance":
        graph = WeightedGraph(node_count, tuple(edges))
        if intrinsic is None:
            intrinsic = (0,) * node_count
        return cls(graph, tuple(intrinsic))

    @classmethod
    def unweighted(
        cls,
        node_count: int,
        pairs: Iterable[tuple[int, int]],
        intrinsic: Sequence[int] | None = None,
    ) -> "PncInstance":
        return cls.from_edges(node_count, ((u, v, 1) for u, v in pairs), intrinsic)

    @property
    def node_count(self) -> int:
        return self.graph.node_count

    @cached_property
    def initial_values(self) -> tuple[int, ...]:
        """Total value of every consumer before anyone has bought."""
        wdeg = self.graph.weighted_degrees
        return tuple(base + wdeg[i] for i, base in enumerate(self.intrinsic))


def total_value(instance: PncInstance, node: int, remaining: frozenset[int] | set[int]) -> int:
    """Value of ``node`` for the good when ``remaining`` is the non-owner set."""
    if node not in remaining:
        raise ValueError(f"node {node} is not in the remaining set")
    value = instance.intrinsic[node]
    for neighbor, weight in instance.graph.adjacency[node]:
        if neighbor in remaining:
            value += weight
    return value


@dataclass(frozen=True)
class SaleRound:
    price: int
    buyers: frozenset[int]
    revenue: int


@dataclass(frozen=True)
class SaleTrace:
    """Outcome of posting a price sequence: per-round buyer sets and revenue.

    ``residual`` is the set of consumers who never bought. Rounds posted after
    everyone has bought are recorded with empty buyer sets.
    """

    rounds: tuple[SaleRound, ...]
    residual: frozenset[int]
    total_revenue: int

    @property
    def prices(self) -> PriceSequence:
        return tuple(r.price for r in self.rounds)

    @property
    def buyers_by_round(self) -> tuple[frozenset[int], ...]:
        return tuple(r.buyers for r in self.rounds)

    @property
    def all_buyers(self) -> frozenset[int]:
        out: set[int] = set()
        for r in self.rounds:
            out |= r.buyers
        return frozenset(out)


def validate_prices(prices: Sequence[int]) -> PriceSequence:
    out = tuple(_as_int(p, f"prices[{i}]") for i, p in enumerate(prices))
    if any(p < 0 for p in out):
        raise ValueError("prices must be nonnegative")
    return out


# ---------------------------------------------------------------------------
# Instance file format.
#
# One JSON object per file:
#
#   {"n": <int >= 1>,
#    "edges": [[u, v, w], ...],     0-based, u < v, w >= 1, no duplicates
#    "nu": [<int >= 0> x n]}        omitted entirely when all zero
#
# dumps_instance emits the canonical form: compact separators, edges sorted by
# endpoint pair, "nu" omitted iff all intrinsic values are zero, trailing
# newline. load/dump round-trips are lossless.
# ---------------------------------------------------------------------------


def dumps_instance(instance: PncInstance) -> str:
    payload: dict = {
        "n": instance.node_count,
        "edges": [[u, v, w] for u, v, w in instance.graph.edges],
    }
    if any(instance.intrinsic):
        payload["nu"] = list(instance.intrinsic)
    return json.dumps(payload, separators=(",", ":")) + "\n"


def loads_instance(text: str) -> PncInstance:
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
    instance = PncInstance.from_edges(n, raw_edges, nu)
    # the file format also fixes each edge's orientation
    for idx, (u, v, _) in enumerate(raw_edges):
        if u >= v:
            raise ValueError(f"edges[{idx}]: endpoints must satisfy u < v")
    return instance


def load_instance(path: str) -> PncInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_instance(fh.read())


def dump_instance(instance: PncInstance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_instance(instance))
