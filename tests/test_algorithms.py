"""Pricing strategies: guarantees, exactness, recognition, parameter checks."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netprice import (
    PncInstance,
    ba_single_price,
    best_single_price,
    degree_bound,
    dumps_instance,
    er_single_price,
    exact_opt,
    forest_single_price,
    gen_ba,
    gen_er,
    gen_example1,
    gen_forest,
    gen_spider,
    gen_split,
    greedy_iterative,
    loads_instance,
    min_degree_independent,
    normalize,
    recognize_split,
    simulate,
    split_dp,
)
from references import (heap_greedy, naive_opt, recognize_split_reference, rescan_greedy, rescan_normalize,
                        rescan_simulate, split_dp_reference, weighted_instances)


def _random_instance(rng, max_n=12, max_w=5, max_nu=3):
    n = rng.randint(1, max_n)
    edges = [
        (u, v, rng.randint(1, max_w))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < 0.4
    ]
    nu = [rng.randint(0, max_nu) for _ in range(n)]
    return PncInstance.from_edges(n, edges, nu)


def test_greedy_on_star():
    # Selling the center first zeroes every leaf, so greedy banks only the
    # total edge weight here (its guaranteed floor; the optimum is 4).
    star = PncInstance.unweighted(4, [(0, 1), (0, 2), (0, 3)])
    result = greedy_iterative(star)
    assert result.prices.tolist() == [3, 0]
    assert result.revenue == 3
    assert exact_opt(star).revenue == 4


def test_greedy_matches_rescan_reference():
    rng = random.Random(314)
    for _ in range(150):
        inst = _random_instance(rng)
        assert greedy_iterative(inst).prices.tolist() == list(rescan_greedy(inst))


@st.composite
def tie_heavy_instances(draw):
    """Up to 60 nodes, up to 6n edges of weight 1-3 and intrinsic values 0-3,
    so values tie often; every number times 2**63 in some draws, which makes
    the values an object array."""
    n = draw(st.integers(1, 60))
    node = st.integers(0, n - 1)
    drawn = draw(st.lists(st.tuples(node, node, st.integers(1, 3)), max_size=6 * n))
    scale = draw(st.sampled_from([1, 2**63]))
    edges = {(min(u, v), max(u, v)): w * scale for u, v, w in drawn if u != v}
    nu = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return PncInstance.from_edges(n, [(u, v, w) for (u, v), w in edges.items()], [x * scale for x in nu])


@settings(max_examples=300, deadline=None)
@given(tie_heavy_instances())
def test_batched_greedy_matches_rescan_references(inst):
    # each scan sells a run of rounds; every one must be the rescan's round
    trace = greedy_iterative(inst)
    assert trace == rescan_simulate(inst, trace.prices)
    assert trace.prices.tolist() == list(rescan_greedy(inst))
    # greedy prices each round at its buyers' value, so they are normalized
    assert normalize(inst, trace.prices) == tuple(trace.prices.tolist())


def _sparse_weighted(n=2000):
    rng = random.Random(2000)
    pairs = set()
    while len(pairs) < 3 * n:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    edges = [(u, v, rng.randint(1, 10**6)) for u, v in sorted(pairs)]
    return PncInstance.from_edges(n, edges, [rng.randint(1, 10**6) for _ in range(n)])


def test_greedy_on_sparse_weighted_matches_heap_reference():
    # distinct values, about one buyer per round: the scans sell long runs
    inst = _sparse_weighted()
    trace = greedy_iterative(inst)
    assert trace.prices.tolist() == list(heap_greedy(inst))
    assert trace == simulate(inst, trace.prices)
    assert normalize(inst, trace.prices) == tuple(trace.prices.tolist())
    assert len(trace.rounds) > inst.node_count * 9 // 10


def _dense_weighted(n=150):
    rng = random.Random(150)
    edges = [(u, v, rng.randint(1, 9)) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    return PncInstance.from_edges(n, edges, [rng.randint(0, 9) for _ in range(n)])


def test_long_price_lists_match_rescan_references():
    # runs over many prices: new minima and prices that sell nobody, runs cut
    # by adjacent candidates (on the dense graph, nearly every run), and a
    # tail after everyone owns
    for inst in (_sparse_weighted(600), _dense_weighted()):
        rng = random.Random(5)
        top = max(inst.initial_values)
        falling = sorted((rng.randint(0, top) for _ in range(400)), reverse=True)
        for prices in (falling, [rng.randint(0, top + 1) for _ in range(300)], falling[::3] + [0] + falling[:50]):
            assert simulate(inst, prices) == rescan_simulate(inst, prices)
            assert normalize(inst, prices) == rescan_normalize(inst, prices)


def test_greedy_lower_bound_and_two_approx():
    rng = random.Random(2718)
    for _ in range(80):
        inst = _random_instance(rng)
        result = greedy_iterative(inst)
        floor = sum(inst.intrinsic) + inst.graph.total_edge_weight
        assert result.revenue >= floor
        opt = exact_opt(inst).revenue
        assert opt <= 2 * result.revenue
        assert opt <= sum(inst.intrinsic) + 2 * inst.graph.total_edge_weight


@settings(max_examples=150, deadline=None)
@given(weighted_instances())
def test_greedy_guarantees_property(inst):
    revenue = greedy_iterative(inst).revenue
    assert revenue >= sum(inst.intrinsic) + inst.graph.total_edge_weight
    opt = exact_opt(inst).revenue
    assert opt == naive_opt(inst)
    assert opt <= 2 * revenue


def test_best_single_price():
    assert best_single_price(gen_example1(3)).prices.tolist() == [6]
    assert best_single_price(gen_example1(3)).revenue == 42
    # Ties break toward the higher price.
    two = PncInstance.from_edges(2, [], (4, 2))
    result = best_single_price(two)
    assert result.prices.tolist() == [4]
    assert result.revenue == 4


def test_best_single_is_best_over_all_prices():
    rng = random.Random(5)
    for _ in range(100):
        inst = _random_instance(rng, max_n=9)
        best = best_single_price(inst)
        top = max(inst.initial_values)
        brute = max(
            simulate(inst, (p,)).revenue for p in range(1, top + 1)
        ) if top else 0
        assert best.revenue == brute


def test_forest_single_price():
    spider = gen_spider(3)
    result = forest_single_price(spider)
    assert result.prices.tolist() == [2]
    assert result.revenue == 8
    star = PncInstance.unweighted(4, [(0, 1), (0, 2), (0, 3)])
    assert forest_single_price(star).prices.tolist() == [1]
    assert forest_single_price(star).revenue == 4
    # Ties (path on 4 nodes: 4 at price 1, 4 at price 2) go to price 2.
    path4 = PncInstance.unweighted(4, [(0, 1), (1, 2), (2, 3)])
    assert forest_single_price(path4).prices.tolist() == [2]
    # Isolated nodes never buy at price 1.
    sparse = PncInstance.unweighted(4, [(0, 1)])
    assert forest_single_price(sparse).revenue == 2
    assert simulate(sparse, (1,)).revenue == 2


def test_forest_single_requirements():
    triangle = PncInstance.unweighted(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError, match="acyclic"):
        forest_single_price(triangle)
    weighted = PncInstance.from_edges(2, [(0, 1, 2)])
    with pytest.raises(ValueError, match="unit"):
        forest_single_price(weighted)
    valued = PncInstance.unweighted(2, [(0, 1)], (1, 0))
    with pytest.raises(ValueError, match="intrinsic"):
        forest_single_price(valued)


def test_forest_ratio_sampled():
    for seed in range(60):
        inst = gen_forest(4 + seed % 9, 1 + seed % 2, seed)
        single = forest_single_price(inst).revenue
        opt = exact_opt(inst).revenue
        assert 2 * opt <= 3 * single


def test_recognize_split():
    complete = PncInstance.unweighted(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    part = recognize_split(complete.graph)
    assert part is not None and len(part.clique) == 4 and part.independent == ()

    c4 = PncInstance.unweighted(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert recognize_split(c4.graph) is None
    two_k2 = PncInstance.unweighted(4, [(0, 1), (2, 3)])
    assert recognize_split(two_k2.graph) is None
    c5 = PncInstance.unweighted(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert recognize_split(c5.graph) is None

    for seed in range(40):
        inst = gen_split(5 + seed % 9, 0.4, 0.5, seed)
        part = recognize_split(inst.graph)
        assert part is not None
        degrees = inst.graph.degrees
        assert list(part.clique) == sorted(part.clique, key=lambda v: (degrees[v], v))
        assert list(part.independent) == sorted(part.independent)
        clique = set(part.clique)
        present = {(u, v) for u, v, _ in inst.graph.edges}
        for u in part.clique:
            for v in part.clique:
                if u < v:
                    assert (u, v) in present
        for u, v, _ in inst.graph.edges:
            assert u in clique or v in clique


@given(st.one_of(st.builds(gen_split, st.integers(2, 30), st.floats(0.05, 0.99), st.floats(0, 1),
                          st.integers(0, 2**16)),
                 st.builds(gen_er, st.integers(2, 14), st.floats(0.2, 0.8), st.integers(0, 2**16))),
       st.randoms(use_true_random=False))
def test_recognize_split_matches_reference(instance, rng):
    # relabelled, so that ties in degree meet node ids in any order
    order = list(range(instance.node_count))
    rng.shuffle(order)
    graph = PncInstance.unweighted(len(order), [(order[u], order[v]) for u, v, _ in instance.graph.edges]).graph
    assert recognize_split(graph) == recognize_split_reference(graph)


def test_split_dp_matches_oracle():
    for seed in range(60):
        inst = gen_split(4 + seed % 10, 0.3 + 0.05 * (seed % 7), 0.1 + 0.09 * (seed % 10), seed)
        expected = exact_opt(inst).revenue
        result = split_dp(inst)
        assert result.revenue == expected
        assert simulate(inst, result.prices).revenue == expected


@pytest.mark.parametrize("args, prices, revenue", [
    ((14, 0.4, 0.5, 0), (8, 1), 43),
    ((14, 0.4, 0.5, 11), (10, 4, 1), 47),
    ((12, 0.5, 0.3, 369), (9, 5, 2), 31),
    ((40, 0.3, 0.5, 5), (25, 13, 1), 274),
    ((120, 0.2, 0.3, 0), (47, 23, 1), 1079),
])
def test_split_dp_realizers_are_pinned(args, prices, revenue):
    # The first best realizer the DP's back-pointers give, not only its revenue.
    result = split_dp(gen_split(*args))
    assert (result.prices.tolist(), result.revenue) == (list(prices), revenue)


@given(st.integers(2, 30), st.floats(0.05, 0.99),
       st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)), st.integers(0, 2**16))
@example(10, 0.95, 0.5, 0)  # k == n: the whole graph is the clique
@example(12, 0.5, 0.0, 1)
@example(12, 0.5, 1.0, 1)
def test_split_dp_matches_reference(n, clique_fraction, edge_prob, seed):
    # the masked row filter and the closing-price scan from the highest
    # independent degree must give the reference DP's realizer and trace
    instance = gen_split(n, clique_fraction, edge_prob, seed)
    assert split_dp(instance) == split_dp_reference(instance)


def test_split_dp_partition_validation():
    inst = PncInstance.unweighted(3, [(0, 1), (1, 2)])  # path: split via clique {1}
    assert split_dp(inst).revenue == exact_opt(inst).revenue
    c4 = PncInstance.unweighted(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    with pytest.raises(ValueError, match="split"):
        split_dp(c4)


def test_er_single_price():
    inst = gen_er(11, 0.5, 3)
    result = er_single_price(inst, 0.5, 0.2)
    assert result.prices.tolist() == [4]  # floor(0.8 * 10 * 0.5)
    with pytest.raises(ValueError, match="eta"):
        er_single_price(inst, 0.0, 0.2)
    with pytest.raises(ValueError, match="eta"):
        er_single_price(inst, 1.5, 0.2)
    with pytest.raises(ValueError, match="delta"):
        er_single_price(inst, 0.5, 0.0)
    with pytest.raises(ValueError, match="delta"):
        er_single_price(inst, 0.5, 1.0)
    tiny = gen_er(2, 0.5, 0)
    with pytest.raises(ValueError, match="price"):
        er_single_price(tiny, 0.1, 0.5)


def test_ba_single_price():
    inst = gen_ba(200, 3, 9)
    result = ba_single_price(inst, 3)
    assert result.prices.tolist() == [3]
    assert result.revenue == 600
    path = PncInstance.unweighted(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="degree"):
        ba_single_price(path, 2)
    with pytest.raises(ValueError, match="beta"):
        ba_single_price(inst, 0)


def test_degree_bound():
    star = PncInstance.unweighted(5, [(0, i) for i in range(1, 5)])
    assert degree_bound(star) == 5  # rank 5 times degree 1
    k4 = PncInstance.unweighted(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert degree_bound(k4) == 12
    for seed in range(60):
        inst = gen_er(3 + seed % 10, 0.5, seed)
        opt = exact_opt(inst).revenue
        assert opt <= (1 + math.log(inst.node_count)) * degree_bound(inst)
    # with unit weights and no intrinsic value the degrees are the initial
    # values, so the bound is the best single price's revenue
    instances = [gen_spider(k) for k in range(1, 6)]
    for seed in range(4):
        instances += [gen_er(40, 0.2, seed), gen_ba(60, 1 + seed, seed), gen_forest(50, 1 + seed, seed),
                      gen_split(30, 0.3, 0.5, seed)]
    for inst in instances:
        ranked = sorted(inst.graph.degrees, reverse=True)
        bound = max(rank * d for rank, d in enumerate(ranked, start=1))
        assert degree_bound(inst) == bound == best_single_price(inst).revenue


def _harmonic(n):
    return sum(Fraction(1, i) for i in range(1, n + 1))


@st.composite
def _valued_instances(draw):
    """Up to 9 nodes, weights 1-6 and intrinsic values 0-30."""
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    edges = [(u, v, draw(st.integers(1, 6))) for u, v in chosen]
    return PncInstance.from_edges(n, edges, draw(st.lists(st.integers(0, 30), min_size=n, max_size=n)))


@settings(max_examples=200, deadline=None)
@given(_valued_instances())
def test_optimum_is_within_the_harmonic_factor_of_a_single_price(instance):
    # With initial values v_1 >= ... >= v_n, nobody pays more than their
    # initial value, so OPT <= sum v_i; the best single price earns
    # B = max_i i * v_i, so v_i <= B / i and OPT <= H_n * B on any instance
    opt = exact_opt(instance).revenue
    single = best_single_price(instance).revenue
    assert Fraction(opt) <= _harmonic(instance.node_count) * single


@pytest.mark.parametrize("n", [10, 100, 1000])
def test_single_price_falls_behind_by_the_harmonic_factor(n):
    # An edgeless instance with values floor(L / i), i = 1..n, makes that
    # bound tight (a construction for this check, not the paper's): greedy
    # charges everyone their value, which no sequence beats, while a single
    # price p sells to the floor(L / p) values at or above it, for at most L
    top = 10**6
    nu = [top // i for i in range(1, n + 1)]
    instance = PncInstance.from_edges(n, [], nu)
    greedy = greedy_iterative(instance)
    assert greedy.revenue == sum(nu) == sum(instance.initial_values.tolist())
    if n <= 100:  # the oracle's depth limit refuses n = 1000
        assert exact_opt(instance).revenue == sum(nu)
    assert best_single_price(instance).revenue == top
    # each floor loses less than 1, so the ratio is H_n to within n / L
    assert _harmonic(n) - Fraction(n, top) < Fraction(greedy.revenue, top) <= _harmonic(n)


def test_single_prices_build_no_csr():
    # A process's last round only marks its buyers as owners, when it is a
    # run's only round: a price list's last new minimum with no price after
    # it, or a tie group of every unsold node. So a strategy that posts one
    # price never builds the graph's CSR rows, and neither does greedy when
    # its first tie group sells everyone.
    clique = [(u, v) for u in range(30) for v in range(u + 1, 30)]
    for strategy, instance in ((best_single_price, gen_er(300, 0.1, 2)),
                               (forest_single_price, gen_forest(200, 3, 1)),
                               (greedy_iterative, PncInstance.from_edges(1000, [])),
                               (greedy_iterative, PncInstance.unweighted(30, clique))):
        fresh = loads_instance(dumps_instance(instance))
        trace = strategy(fresh)
        assert "_rows" not in fresh.graph.__dict__
        assert trace == rescan_simulate(fresh, trace.prices)


def test_min_degree_independent():
    star = PncInstance.unweighted(4, [(0, 1), (0, 2), (0, 3)])
    assert min_degree_independent(star.graph)
    triangle = PncInstance.unweighted(3, [(0, 1), (1, 2), (0, 2)])
    assert not min_degree_independent(triangle.graph)


def _only_python_ints(values):
    return all(type(x) is int for x in values)


def test_results_hold_only_python_ints():
    # numpy scalars must not leak out of the array engine: sums, counts,
    # rounds and edges are Python ints (per-node and per-round numbers are
    # read-only arrays, checked in test_core.py)
    weighted = PncInstance.from_edges(4, [(0, 1, 3), (1, 2, 2), (2, 3, 5)], (1, 0, 4, 0))
    er, split, spider = gen_er(40, 0.5, seed=4), gen_split(12, 0.4, 0.5, seed=2), gen_spider(3)
    ba, dense = gen_ba(20, 2, seed=3), gen_er(30, 0.3, seed=1)
    runs = [
        (weighted, greedy_iterative(weighted)),
        (dense, greedy_iterative(dense)),
        (weighted, best_single_price(weighted)),
        (spider, forest_single_price(spider)),
        (split, split_dp(split)),
        (ba, ba_single_price(ba, 2)),
        (er, er_single_price(er, 0.5, 0.2)),
    ]
    for instance, trace in runs:
        # every strategy returns the engine's trace of the prices it chose
        assert trace == simulate(instance, trace.prices)
        assert _only_python_ints(trace.prices.tolist()) and type(trace.revenue) is int
        assert _only_python_ints(trace.residual)
        for sale in trace.rounds:
            assert type(sale.price) is int and type(sale.revenue) is int
            assert _only_python_ints(sale.buyers)
    trace = simulate(weighted, (9, 3, 3, 0))
    assert trace.residual == frozenset() and all(_only_python_ints(sale.buyers) for sale in trace.rounds)
    assert _only_python_ints(normalize(weighted, (9, 3, 3, 0)))
    graph = weighted.graph
    for view in graph.edges:
        assert _only_python_ints(view)
    assert type(graph.total_edge_weight) is int
