"""Exact optimum: small closed forms, reference and brute-force agreement,
state counts, budget and depth handling."""

import pickle
import random
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import given, settings

from netprice import (
    OracleBudgetError,
    PncInstance,
    best_single_price,
    build_reduction,
    exact_opt,
    gen_ba,
    gen_forest,
    gen_spider,
    greedy_iterative,
    parse_dimacs,
    simulate,
)
from netprice.oracle import DEPTH_LIMIT
from references import adjacency, naive_opt, weighted_instances

# The 4-variable formula of the benchmark's reduction round trip: each
# variable occurs three times, and x1 = x2 = x3 = true satisfies it.
CNF_4X4 = "p cnf 4 4\n1 2 3 0\n-1 2 4 0\n1 -3 -4 0\n-2 3 4 0\n"


def _reference_opt(instance):
    """Plain memoized search over residual sets, with no bound: (revenue, prices, states).

    Tries every current total value as the next price, highest first, and
    keeps the first best; each set's values are summed afresh from the
    adjacency lists, not passed down from its parent as the oracle does.
    """
    adj = adjacency(instance.graph)
    intrinsic = instance.intrinsic.tolist()

    def values(mask):
        return [
            (intrinsic[node] + sum(w for nb, w in adj[node] if mask >> nb & 1), node)
            for node in range(instance.node_count)
            if mask >> node & 1
        ]

    memo = {}

    def solve(mask):
        if mask == 0:
            return 0
        if mask not in memo:
            items = sorted(values(mask), reverse=True)
            best, best_price, buyers, index = 0, 0, 0, 0
            while index < len(items) and items[index][0] > 0:
                price = items[index][0]
                while index < len(items) and items[index][0] == price:
                    buyers |= 1 << items[index][1]
                    index += 1
                candidate = price * index + solve(mask & ~buyers)
                if candidate > best:
                    best, best_price = candidate, price
            memo[mask] = (best, best_price)
        return memo[mask][0]

    full = (1 << instance.node_count) - 1
    revenue = solve(full)
    prices, mask = [], full
    while mask and memo[mask][1]:
        price = memo[mask][1]
        prices.append(price)
        mask &= ~sum(1 << node for value, node in values(mask) if value >= price)
    return revenue, tuple(prices), len(memo)


def _random_weighted(rng, max_n, large=0.0):
    """Weights 1-9, each replaced with probability ``large`` by one of up to 70 bits."""
    n = rng.randint(1, max_n)
    density = rng.choice((0.2, 0.5, 0.8))
    edges = [
        (u, v, rng.randint(2**40, 2**70) if rng.random() < large else rng.randint(1, 9))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < density
    ]
    return PncInstance.from_edges(n, edges, [rng.randint(0, 9) for _ in range(n)])


def _dense_weighted(n, rng):
    """The benchmark's dense weighted G(n, 0.5): weights 1-9, intrinsic values 0-9."""
    edges = [(u, v, rng.randint(1, 9)) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    return PncInstance.from_edges(n, edges, [rng.randint(0, 9) for _ in range(n)])


def test_closed_forms():
    lone = PncInstance.from_edges(1, [], (5,))
    assert exact_opt(lone).revenue == 5

    pair = PncInstance.from_edges(2, [(0, 1, 3)], None)
    assert exact_opt(pair).revenue == 6  # both worth 3 until either buys

    triangle = PncInstance.unweighted(3, [(0, 1), (1, 2), (0, 2)])
    assert exact_opt(triangle).revenue == 6

    path = PncInstance.unweighted(3, [(0, 1), (1, 2)])
    assert exact_opt(path).revenue == 3  # price 1 beats selling the middle at 2


def test_spider_optimum_is_3k():
    for k in range(1, 6):
        result = exact_opt(gen_spider(k))
        assert result.revenue == 3 * k


def test_realizer_reproduces_revenue():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 9)
        edges = [
            (u, v, rng.randint(1, 5))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.5
        ]
        nu = [rng.randint(0, 3) for _ in range(n)]
        inst = PncInstance.from_edges(n, edges, nu)
        result = exact_opt(inst)
        assert all(p > q for p, q in zip(result.prices, result.prices[1:]))
        assert simulate(inst, result.prices).revenue == result.revenue
        assert result.states_explored >= 1


def test_matches_unrestricted_brute_force():
    # naive_opt tries every integer price at every state, so agreement
    # certifies that restricting candidates to current total values and
    # memoizing over residual sets loses nothing.
    rng = random.Random(22)
    for _ in range(40):
        n = rng.randint(1, 7)
        edges = [
            (u, v, rng.randint(1, 5))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.5
        ]
        nu = [rng.randint(0, 3) for _ in range(n)]
        inst = PncInstance.from_edges(n, edges, nu)
        assert exact_opt(inst).revenue == naive_opt(inst)


def test_budget_exhaustion():
    inst = PncInstance.unweighted(8, [(u, v) for u in range(8) for v in range(u + 1, 8)][:12])
    with pytest.raises(OracleBudgetError, match="state budget exhausted after") as info:
        exact_opt(inst, state_budget=3)
    error = info.value
    assert error.states_explored >= 3
    # the single price (14) beats greedy (12) here, so the bracket's lower end is its revenue
    assert error.lower == max(greedy_iterative(inst).revenue, best_single_price(inst).revenue) == 14
    assert error.lower <= naive_opt(inst) <= error.upper
    assert f"[{error.lower}, {error.upper}]" in str(error)


def _raise_budget_error():
    raise OracleBudgetError(5, 2, 9)


def _budget_fields(error):
    return (type(error), error.states_explored, error.lower, error.upper, str(error))


def test_budget_error_survives_pickling_and_a_process_pool():
    error = OracleBudgetError(5, 2, 9)
    assert _budget_fields(pickle.loads(pickle.dumps(error))) == _budget_fields(error)
    # an experiment's --jobs workers hand their errors back this way
    with ProcessPoolExecutor(max_workers=2) as pool:
        with pytest.raises(OracleBudgetError) as info:
            pool.submit(_raise_budget_error).result()
    assert _budget_fields(info.value) == _budget_fields(error)


def test_node_limit():
    # exact_opt has no node cap, so the benchmark's 32-node reduction solves
    # as it is; the CLI's --node-limit cap is tested in test_cli.
    reduction = build_reduction(parse_dimacs(CNF_4X4)).instance
    assert reduction.node_count == 32
    assert exact_opt(reduction).revenue == 1522932
    with pytest.raises(ValueError, match="at most 8"):
        naive_opt(PncInstance.unweighted(9, [(0, 1)]))


def test_config_validation():
    inst = PncInstance.unweighted(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="state_budget must be positive"):
        exact_opt(inst, state_budget=0)
    # Every non-integer limit is a ValueError, bools included.
    for limits in ({"state_budget": "5"}, {"state_budget": True}, {"state_budget": 5.0}):
        with pytest.raises(ValueError, match="must be an integer"):
            exact_opt(inst, **limits)


def test_matches_reference_search():
    # The bound only skips residual sets that cannot beat what is already
    # held, so revenue and the first-best realizer must be the plain
    # search's, reached through a subset of its states. The last draws add
    # weights of 41-70 bits: those past 2**63 make the graph's CSR weights
    # an object array and the realizer's Market values Python ints.
    rng = random.Random(33)
    draws = [_random_weighted(rng, 12) for _ in range(320)]
    draws += [_random_weighted(rng, 12, large=0.15) for _ in range(160)]
    for inst in draws:
        revenue, prices, states = _reference_opt(inst)
        result = exact_opt(inst)
        assert result.revenue == revenue
        assert result.prices == prices
        assert all(p > q for p, q in zip(result.prices, result.prices[1:]))
        assert simulate(inst, result.prices).revenue == revenue
        assert 1 <= result.states_explored <= states


@settings(max_examples=150, deadline=None)
@given(weighted_instances())
def test_exact_equals_brute_force_property(inst):
    assert exact_opt(inst).revenue == naive_opt(inst)


def test_state_counts_are_pinned():
    # Deterministic counters gate the search effort, and the realizers are
    # the first best sequences the memo leads to; the plain search
    # (_reference_opt) needs 4,282, 24,038 and 72,854 states on these
    # instances. Most visited sets are settled by their bound at once. The
    # right-hand counts are the search's before it started from the best
    # single price's revenue (3,359 and 12,336 on the dense graphs).
    reduction = build_reduction(parse_dimacs(CNF_4X4)).instance
    result = exact_opt(reduction)
    assert result.revenue == 1522932
    assert result.prices == (507810, 101562, 101560, 20312, 20310, 4062, 4060, 812, 163)
    assert result.states_explored == 701 < 4282
    assert result.bound_prunes == 480

    # The benchmark's dense weighted G(40, 0.5) and G(50, 0.5) graphs.
    result = exact_opt(_dense_weighted(40, random.Random(1)))
    assert result.revenue == 2838
    assert result.prices == (97, 20, 10, 8, 1)
    assert result.states_explored == 1413 < 3359 < 24038
    assert result.bound_prunes == 1263

    result = exact_opt(_dense_weighted(50, random.Random(0)))
    assert result.revenue == 4221
    assert result.prices == (86, 7)
    assert result.states_explored == 6176 < 12336 < 72854
    assert result.bound_prunes == 5471

    # Sparse unweighted graphs of hundreds of nodes, where a set's values
    # come from long chains of parents and each buyer's row is short.
    result = exact_opt(gen_ba(600, 2, 0))
    assert result.revenue == 1341
    assert result.prices == (84, 46, 36, 33, 26, 22, 20, 17, 15, 14, 13, 12, 11, 10, 9, 8, 7, 2, 1)
    assert result.states_explored == 854
    assert result.bound_prunes == 596

    result = exact_opt(gen_forest(800, 1, 0))
    assert result.revenue == 1019
    assert result.prices == (6, 5, 3, 1)
    assert result.states_explored == 30 < 31
    assert result.bound_prunes == 17

    # Past 800 nodes: unit weights and no intrinsic value keep the search
    # depth at most 1 + the largest degree.
    result = exact_opt(gen_forest(1000, 1, 0))
    assert result.revenue == 1307
    assert result.prices == (7, 6, 2)
    assert result.states_explored == 37 < 40
    assert result.bound_prunes == 23


def test_depth_limit():
    # Distinct values on isolated nodes sell one per round: the deepest search.
    deepest = PncInstance.from_edges(DEPTH_LIMIT, [], range(1, DEPTH_LIMIT + 1))
    result = exact_opt(deepest)
    assert result.revenue == DEPTH_LIMIT * (DEPTH_LIMIT + 1) // 2
    assert len(result.prices) == DEPTH_LIMIT
    # The bound is min(n, 1 + largest initial value): 801 here.
    too_deep = PncInstance.from_edges(DEPTH_LIMIT + 1, [], range(1, DEPTH_LIMIT + 2))
    with pytest.raises(ValueError, match=f"recurse {DEPTH_LIMIT + 1} deep, above the oracle depth limit"):
        exact_opt(too_deep)
    # Zero values bound the depth at 1, whatever the node count.
    worthless = PncInstance.from_edges(DEPTH_LIMIT + 1, [], None)
    result = exact_opt(worthless)
    assert result.revenue == 0
    assert result.prices == ()
