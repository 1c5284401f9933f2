"""Seeded graph family generators.

All randomness comes from numpy's PCG64 bit generator, seeded per call, so
every generator is a pure function of (parameters, seed) with identical
output across platforms. All families produce unit weights and zero
intrinsic values.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import PncInstance, _as_int, _as_real, _check_params


def _seed(seed: int) -> int:
    # numpy's own error for a negative seed does not name it
    if (seed := _as_int(seed, "seed")) < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return seed


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_seed(seed)))


def _unit_edges(us: list[np.ndarray], vs: list[np.ndarray]) -> np.ndarray:
    """A read-only (m, 3) table of weight-1 edges whose endpoints are the
    arrays in ``us`` and in ``vs``, each list joined in order: the graph
    keeps it as it is."""
    table = np.empty((sum(map(len, us)), 3), np.int64)
    np.concatenate(us, out=table[:, 0])
    np.concatenate(vs, out=table[:, 1])
    table[:, 2] = 1
    table.setflags(write=False)
    return table


_DENSE_PAIR_LIMIT = 30_000_000
# pairs gen_er draws per block of rows
_ER_BLOCK = 1 << 16


def _check_size(count: int, call: str, items: str = "edges") -> None:
    """Raise before anything is built when a call would make too many items."""
    if count > _DENSE_PAIR_LIMIT:
        raise ValueError(f"{call} would build over {_DENSE_PAIR_LIMIT:,} {items}")


def gen_er(n: int, eta: float, seed: int) -> PncInstance:
    """Every unordered pair becomes an edge independently with probability eta."""
    if (n := _as_int(n, "n")) < 2:
        raise ValueError(f"gen_er needs n >= 2, got {n}")
    if not 0 <= (eta := _as_real(eta, "eta")) <= 1:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    _check_size(n * (n - 1) // 2, f"gen_er({n}, {eta})", "candidate pairs")
    rng = _rng(seed)
    # Pairs (u, v > u) in row-major order, drawn a block of rows at a time as
    # one flat run. Generator.random takes one 64-bit output per double, so
    # the blocks read the stream that one draw over every pair would. Each
    # block's ends are kept in the smallest type that holds a node.
    rows, ids = max(1, _ER_BLOCK // n), np.min_scalar_type(n - 1)
    us, vs = [], []
    for top in range(0, n - 1, rows):
        # where each of the block's rows starts in its run of pairs, then the run's length
        starts = np.concatenate(([0], np.cumsum(n - 1 - np.arange(top, min(top + rows, n - 1)))))
        hits = np.flatnonzero(rng.random(starts[-1]) < eta)
        row = np.searchsorted(starts, hits, "right") - 1
        us.append((row + top).astype(ids))
        vs.append((hits - starts[row] + row + top + 1).astype(ids))
    return PncInstance.from_edges(n, _unit_edges(us, vs))


# 64-bit words _below reads from the bit generator at a time
_RAW_BLOCK = 1 << 12


def _below(rng: np.random.Generator) -> Callable[[int], int]:
    """A function ``below(k)`` that draws the ints that successive
    ``rng.integers(0, k)`` calls would, for 2 <= k < 2**32, without a numpy
    call per draw.

    For such a range numpy runs Lemire's method on 32-bit outputs, which
    PCG64 supplies as the low half, then the high half, of each 64-bit word:
    ``m = output * k`` is accepted unless its low 32 bits are below
    ``2**32 mod k``, and the draw is ``m >> 32``. Here the words are read
    in blocks and the method is redone on Python ints. The stream matches
    only while nothing else draws from ``rng``.
    """
    def outputs():
        while True:
            for word in rng.bit_generator.random_raw(_RAW_BLOCK).tolist():
                yield word & 0xFFFFFFFF
                yield word >> 32

    stream = outputs()

    def below(k: int) -> int:
        m = next(stream) * k
        if m & 0xFFFFFFFF < k:  # k bounds the rejection threshold
            threshold = (1 << 32) % k
            while m & 0xFFFFFFFF < threshold:
                m = next(stream) * k
        return m >> 32

    return below


def gen_ba(n: int, beta: int, seed: int) -> PncInstance:
    """Preferential attachment starting from a complete graph on beta nodes.

    Each arrival connects to beta distinct existing nodes, drawn repeatedly
    in proportion to current degree with duplicates discarded. The first
    arrival necessarily takes the whole seed clique, so the final minimum
    degree is beta. More than ``_DENSE_PAIR_LIMIT`` edges raises ValueError.
    """
    if (beta := _as_int(beta, "beta")) < 1:
        raise ValueError(f"beta must be a positive integer, got {beta!r}")
    if (n := _as_int(n, "n")) <= beta:
        raise ValueError(f"gen_ba needs n > beta, got n={n}, beta={beta}")
    edge_count = math.comb(beta, 2) + beta * (n - beta)
    _check_size(edge_count, f"gen_ba({n}, {beta})")
    below = _below(_rng(seed))
    # Entries 2e and 2e + 1 are edge e's lower and upper end, in the order
    # the edges are made: one entry per edge endpoint, so a uniform pick
    # among the entries made so far is degree-proportional. The seed clique
    # comes first, then the first arrival, which takes all of it.
    ends = [end for u in range(beta) for v in range(u + 1, beta) for end in (u, v)]
    ends += [end for u in range(beta) for end in (u, beta)]
    for arrival in range(beta + 1, n):
        chosen = set()
        while len(chosen) < beta:
            chosen.add(ends[below(len(ends))])
        for u in sorted(chosen):
            ends += (u, arrival)
    pairs = np.array(ends, np.int64).reshape(-1, 2)
    # the upper ends grow with each arrival, so a stable sort on the lower
    # end lays the edges out canonically
    pairs = pairs[pairs[:, 0].argsort(kind="stable")]
    return PncInstance.from_edges(n, _unit_edges([pairs[:, 0]], [pairs[:, 1]]))


def gen_spider(k: int) -> PncInstance:
    """A center of degree k whose k legs each have length 2 (n = 2k + 1).

    More than ``_DENSE_PAIR_LIMIT`` edges raises ValueError.
    """
    if (k := _as_int(k, "k")) < 1:
        raise ValueError(f"gen_spider needs k >= 1, got {k}")
    _check_size(2 * k, f"gen_spider({k})")
    middles = np.arange(1, 2 * k, 2)
    # centre-to-middle edges, then middle-to-foot: already in canonical order
    us = np.concatenate((np.zeros(k, dtype=middles.dtype), middles))
    vs = np.concatenate((middles, middles + 1))
    return PncInstance.from_edges(2 * k + 1, _unit_edges([us], [vs]))


def gen_example1(k: int) -> PncInstance:
    """Hub joined to i disjoint cliques of size k!/i for every i in [k].

    n = k * k! + 1. The hub has degree k * k!; every node in a size-(k!/i)
    clique has degree k!/i. Grows factorially: k = 6 has 637,200 edges, and
    a k whose edge count is above ``_DENSE_PAIR_LIMIT`` (k >= 7) raises
    ValueError before any edge is built.
    """
    if (k := _as_int(k, "k")) < 2:
        raise ValueError(f"gen_example1 needs k >= 2, got {k}")
    # the count grows with k, and hub edges alone pass the limit at k = 11
    capped = min(k, 11)
    fact = math.factorial(capped)
    edge_count = capped * fact + sum(i * math.comb(fact // i, 2) for i in range(1, capped + 1))
    _check_size(edge_count, f"gen_example1({k})")
    n = k * fact + 1
    # hub edges, then the cliques in node order: already in canonical order
    us, vs = [np.zeros(n - 1, dtype=np.int64)], [np.arange(1, n)]
    start = 1
    for i in range(1, k + 1):
        size = fact // i
        a, b = np.triu_indices(size, k=1)
        offsets = start + size * np.arange(i)[:, None]
        us.append((offsets + a).ravel())
        vs.append((offsets + b).ravel())
        start += i * size
    return PncInstance.from_edges(n, _unit_edges(us, vs))


def gen_split(n: int, clique_fraction: float, edge_prob: float, seed: int) -> PncInstance:
    """Clique on ceil(clique_fraction * n) nodes, random links to the rest.

    Nodes 0..k-1 form the clique and k..n-1 an independent set; each
    (clique, independent) pair is linked independently with probability
    edge_prob. ``recognize_split`` finds a partition of the result. More
    than ``_DENSE_PAIR_LIMIT`` candidate pairs raises ValueError before any
    draw.
    """
    if (n := _as_int(n, "n")) < 2:
        raise ValueError(f"gen_split needs n >= 2, got {n}")
    if not 0 < (clique_fraction := _as_real(clique_fraction, "clique_fraction")) < 1:
        raise ValueError(f"clique_fraction must be in (0, 1), got {clique_fraction}")
    if not 0 <= (edge_prob := _as_real(edge_prob, "edge_prob")) <= 1:
        raise ValueError(f"edge_prob must be in [0, 1], got {edge_prob}")
    k = math.ceil(clique_fraction * n)
    _check_size(math.comb(k, 2) + k * (n - k), f"gen_split({n}, {clique_fraction})", "candidate pairs")
    rng = _rng(seed)
    # row u holds u's clique edges, then its links: the edges come out in
    # canonical order
    adjacent = np.empty((k, n), bool)
    adjacent[:, :k] = np.arange(k) > np.arange(k)[:, None]
    adjacent[:, k:] = rng.random((k, n - k)) < edge_prob
    us, vs = np.nonzero(adjacent)
    return PncInstance.from_edges(n, _unit_edges([us], [vs]))


# --- uniform labeled forests ------------------------------------------------


def _forest_count(k: int, j: int) -> int:
    """Labeled forests on k nodes with j trees, by Takacs's closed form.

    F(k, j) = C(k, j) / (2^j k) * sum over i <= min(j, k - j) of
    (-1)^i 2^(j-i) C(j, i) (k-j)!/(k-j-i)! (j+i) k^(k-j-i)
    (L. Takacs, "On the number of distinct forests", SIAM J. Discrete Math.
    3(4), 1990). The sum is taken by Horner's rule in 2k with each
    coefficient updated from the last, so every step multiplies or divides
    by a small int: O(min(j, k - j)) steps on integers of O(k log k) bits.
    """
    if k == 0:
        return int(j == 0)
    rest = k - j
    top = min(j, rest)
    acc = 0
    coeff = 1  # (-1)^i C(j, i) rest! / (rest - i)!
    for i in range(top + 1):
        acc = acc * 2 * k + coeff * (j + i)
        coeff = -coeff * (j - i) // (i + 1) * (rest - i)
    return math.comb(k, j) * k ** (rest - top) * acc // (2**top * k)


def _uniform_below(rng: np.random.Generator, bound: int) -> int:
    """Uniform integer in [0, bound) with arbitrary precision, via rng bytes."""
    bits = bound.bit_length()
    nbytes = (bits + 7) // 8
    while True:
        value = int.from_bytes(rng.bytes(nbytes), "big") >> (8 * nbytes - bits)
        if value < bound:
            return value


def _prufer_decode(labels: list[int], code: list[int]) -> list[tuple[int, int]]:
    m = len(labels)
    degree = [1] * m
    for x in code:
        degree[x] += 1
    leaves = [i for i in range(m) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in code:
        leaf = heapq.heappop(leaves)
        edges.append((labels[leaf], labels[x]))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    # exactly the two ends of the last edge remain
    last = heapq.heappop(leaves)
    edges.append((labels[last], labels[heapq.heappop(leaves)]))
    return edges


def gen_forest(n: int, tree_count: int, seed: int) -> PncInstance:
    """Uniformly random labeled forest with exactly ``tree_count`` components.

    Samples the size of the lowest remaining label's component with
    probability proportional to the exact count of forests completing it,
    then its other members uniformly and a uniform Prufer tree on them.
    Counts come from Takacs's closed form, ``_forest_count``, evaluated only
    for the sizes the walk reaches; there is no table. That is O(n +
    tree_count) evaluations of at most min(j, k - j) + 1 steps each: under
    half a second for any ``tree_count`` at n = 1000. All counting is exact
    integer arithmetic, so the distribution is exactly uniform.
    """
    if (n := _as_int(n, "n")) < 1:
        raise ValueError(f"gen_forest needs n >= 1, got {n}")
    if not 1 <= (tree_count := _as_int(tree_count, "tree_count")) <= n:
        raise ValueError(f"tree_count must be in [1, n], got {tree_count}")
    if n > 1000:
        raise ValueError("gen_forest's exact sampler is limited to n <= 1000")
    rng = _rng(seed)
    labels = list(range(n))
    pairs: list[tuple[int, int]] = []
    remaining_trees = tree_count
    while labels:
        pool = len(labels)
        anchor = labels.pop(0)
        # An anchor tree of size m: C(pool - 1, m - 1) choices of its other
        # members, m^(m-2) trees on them (Cayley) and F(pool - m,
        # remaining_trees - 1) forests on the rest. Over m these weights sum
        # to F(pool, remaining_trees).
        pick = _uniform_below(rng, _forest_count(pool, remaining_trees))
        for size in range(1, pool - remaining_trees + 2):
            weight = (
                math.comb(pool - 1, size - 1)
                * size ** max(size - 2, 0)
                * _forest_count(pool - size, remaining_trees - 1)
            )
            if pick < weight:
                break
            pick -= weight
        order = rng.permutation(len(labels))
        members = [anchor] + [labels[int(i)] for i in order[: size - 1]]
        chosen = set(members[1:])
        labels = [x for x in labels if x not in chosen]
        if size == 2:
            pairs.append((members[0], members[1]))
        elif size > 2:
            code = [int(x) for x in rng.integers(0, size, size=size - 2)]
            pairs.extend(_prufer_decode(sorted(members), code))
        remaining_trees -= 1
    normalized = [(min(a, b), max(a, b)) for a, b in pairs]
    return PncInstance.unweighted(n, normalized)


@dataclass(frozen=True)
class Family:
    """How to build a graph family: ``params`` maps each parameter, in the
    order ``build`` takes them, to its default, or to its type when the caller
    must give it; ``build`` takes the seed last."""

    build: Callable[..., PncInstance]
    params: dict


# The one table of graph families. Builders look their generator up at call
# time, so a replaced module attribute (a tracing wrapper, say) reaches here.
_SPLIT = Family(lambda *a: gen_split(*a), {"n": int, "clique_fraction": 0.3, "edge_prob": 0.5})
FAMILIES: dict[str, Family] = {
    "er": Family(lambda *a: gen_er(*a), {"n": int, "eta": float}),
    "ba": Family(lambda *a: gen_ba(*a), {"n": int, "beta": int}),
    "spider": Family(lambda k, seed: gen_spider(k), {"k": int}),
    "example1": Family(lambda k, seed: gen_example1(k), {"k": int}),
    "split": _SPLIT,
    # a clique core with an independent periphery
    "core_peripheral": _SPLIT,
    "forest": Family(lambda *a: gen_forest(*a), {"n": int, "trees": 1}),
}


def generate(family: str, params: dict, seed: int = 0) -> PncInstance:
    """The ``FAMILIES`` graph built from ``params`` and a checked ``seed``, which
    an unseeded family ignores; a parameter not given takes its default."""
    spec = FAMILIES.get(family) if isinstance(family, str) else None
    if spec is None:
        raise ValueError(f"unknown family {family!r}")
    _check_params(f"family {family!r}", params, spec.params)
    return spec.build(*(params.get(name, default) for name, default in spec.params.items()), _seed(seed))
