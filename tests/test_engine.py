"""Selling process semantics: simultaneity, value drops, pruning, normalization,
exact arithmetic on either value dtype, and agreement with the references."""

import random

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from netprice import (
    CnfFormula,
    PncInstance,
    assignment_pricing,
    build_reduction,
    dumps_instance,
    greedy_iterative,
    loads_instance,
    make_irredundant,
    normalize,
    simulate,
)
from netprice.engine import Market
from references import heap_greedy, rescan_normalize, rescan_simulate


def _buyers(trace):
    return tuple(sale.buyers for sale in trace.rounds)


def path3():
    return PncInstance.unweighted(3, [(0, 1), (1, 2)])


def test_path3_two_prices():
    trace = simulate(path3(), (2, 1))
    assert trace.prices.tolist() == [2, 1]
    assert _buyers(trace) == (frozenset({1}), frozenset())
    assert [r.revenue for r in trace.rounds] == [2, 0]
    assert trace.revenue == 2
    assert trace.residual == frozenset({0, 2})


def test_round_is_simultaneous():
    # All three triangle nodes are worth 2 at the start of the round, so one
    # price of 2 sells to all of them; the drops they cause land too late.
    triangle = PncInstance.unweighted(3, [(0, 1), (1, 2), (0, 2)])
    trace = simulate(triangle, (2,))
    assert _buyers(trace) == (frozenset({0, 1, 2}),)
    assert trace.revenue == 6


def test_drops_visible_next_round():
    trace = simulate(path3(), (2, 1, 0))
    # After the middle node buys at 2 the endpoints are worth 0: price 1
    # sells nothing, price 0 clears the market for free.
    assert _buyers(trace)[1] == frozenset()
    assert _buyers(trace)[2] == frozenset({0, 2})
    assert trace.revenue == 2
    assert trace.residual == frozenset()


def test_price_zero_sells_to_everyone():
    trace = simulate(path3(), (0,))
    assert _buyers(trace) == (frozenset({0, 1, 2}),)
    assert trace.revenue == 0


def test_market_values_track_remaining():
    inst = PncInstance.from_edges(3, [(0, 1, 2), (1, 2, 3)], (1, 0, 0))
    market = Market(inst)

    def sell(market, prices):
        lows, buyers, ends = market.sell(None if prices is None else np.array(prices))
        return lows.tolist(), buyers.tolist(), ends.tolist()

    assert market.values.tolist() == [3, 5, 3]
    # price 4 is followed by a posted price, 2, so its round settles; 6 is
    # above every value and sells nobody, and each round reports its lowest
    # buyer value, 0 for a round that sells nobody
    assert sell(market, (4, 6, 2)) == ([5, 0, 0], [1], [0, 1, 1, 1])
    # the buyer's neighbours drop by their edge weights; the buyer reads -1
    assert market.values.tolist() == [1, -1, 0]
    assert sell(market, (6,)) == ([0], [], [0, 0])
    assert market.values.tolist() == [1, -1, 0]
    # a process's last round only marks its buyers: no later round reads a
    # value, and an owner is never lowered again
    assert sell(market, (1,)) == ([1], [0], [0, 1])
    assert market.values.tolist() == [-1, -1, 0]
    # buyers in one round do not lower each other
    triangle = Market(PncInstance.unweighted(3, [(0, 1), (1, 2), (0, 2)]))
    assert sell(triangle, (2, 0)) == ([2, 0], [0, 1, 2], [0, 3, 3])
    # greedy's lows are its prices
    assert sell(Market(path3()), None) == ([2, 0], [1, 0, 2], [0, 1, 3])
    assert triangle.values.tolist() == [-1, -1, -1]
    # a posted price above every candidate of its run sells nobody, so its
    # low is 0, not the next round's
    assert sell(Market(PncInstance.from_edges(2, [], [9, 20])), (20, 10, 9)) == ([20, 0, 9], [1, 0], [0, 1, 1, 2])


def test_weighted_and_intrinsic():
    inst = PncInstance.from_edges(3, [(0, 1, 4), (1, 2, 2)], (0, 1, 3))
    assert inst.initial_values.tolist() == [4, 7, 5]
    trace = simulate(inst, (7, 5, 1))
    assert _buyers(trace) == (
        frozenset({1}),
        frozenset(),
        frozenset({2}),  # dropped from 5 to 3 when the middle node left
    )
    assert trace.revenue == 8
    assert trace.residual == frozenset({0})


def test_empty_and_unsorted_sequences():
    assert simulate(path3(), ()).revenue == 0
    # Prices may rise; a higher later price just sells to nobody new.
    trace = simulate(path3(), (1, 5))
    assert _buyers(trace) == (frozenset({0, 1, 2}), frozenset())


def _random_instance(rng, max_n=10):
    n = rng.randint(1, max_n)
    edges = [
        (u, v, rng.randint(1, 4))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < 0.45
    ]
    nu = [rng.randint(0, 3) for _ in range(n)]
    return PncInstance.from_edges(n, edges, nu)


def _random_prices(rng, inst):
    top = int(inst.initial_values.max()) + 2
    return tuple(rng.randint(0, top) for _ in range(rng.randint(0, 6)))


def test_make_irredundant_preserves_sales():
    rng = random.Random(123)
    for _ in range(200):
        inst = _random_instance(rng)
        prices = _random_prices(rng, inst)
        pruned = make_irredundant(inst, prices)
        before = simulate(inst, prices)
        after = simulate(inst, pruned)
        assert all(p > q for p, q in zip(pruned, pruned[1:]))
        assert after.revenue == before.revenue
        assert after.residual == before.residual
        assert all(r.buyers for r in after.rounds)


def test_normalize_raises_revenue_keeps_partition():
    rng = random.Random(456)
    for _ in range(200):
        inst = _random_instance(rng)
        prices = _random_prices(rng, inst)
        base = simulate(inst, make_irredundant(inst, prices))
        norm = normalize(inst, prices)
        result = simulate(inst, norm)
        assert result.revenue >= base.revenue
        assert _buyers(result) == _buyers(base)
        # Each normalized price is its round's cheapest buyer value, so
        # normalizing again changes nothing.
        assert normalize(inst, norm) == norm


@st.composite
def priced_instances(draw):
    """A random weighted instance, small or with values past int64, and a
    price sequence: unsorted, repeated, zero and huge prices included."""
    n = draw(st.integers(1, 9))
    scale = draw(st.sampled_from([6, 2**60, 2**66]))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    edges = [(u, v, draw(st.integers(1, scale))) for u, v in chosen]
    nu = draw(st.lists(st.integers(0, scale), min_size=n, max_size=n))
    instance = PncInstance.from_edges(n, edges, nu)
    price = st.one_of(
        st.sampled_from(instance.initial_values.tolist() + [0]),
        st.integers(0, int(instance.initial_values.max()) + 1),
        st.integers(2**63 - 2, 2**70),
    )
    return instance, tuple(draw(st.lists(price, max_size=8)))


@given(priced_instances())
def test_simulate_and_greedy_match_references(case):
    instance, prices = case
    assert simulate(instance, prices) == rescan_simulate(instance, prices)
    greedy = greedy_iterative(instance)
    assert greedy.prices.tolist() == list(heap_greedy(instance))
    # greedy's trace is made of the rounds it sold, with no replay
    assert greedy == rescan_simulate(instance, greedy.prices)


@given(priced_instances())
def test_normalize_and_make_irredundant_properties(case):
    instance, prices = case
    revenue = simulate(instance, prices).revenue
    assert normalize(instance, prices) == rescan_normalize(instance, prices)
    assert simulate(instance, normalize(instance, prices)).revenue >= revenue
    pruned = make_irredundant(instance, prices)
    assert all(p > q for p, q in zip(pruned, pruned[1:]))


def test_shared_neighbour_exact_near_2_60():
    # Nodes 0 and 1 buy together and both lower node 2 by weights near 2**60
    # that a float64 cannot hold: node 2 must be left worth exactly 5.
    w1, w2 = 2**60 + 1, 2**60 + 3
    inst = PncInstance.from_edges(4, [(0, 2, w1), (1, 2, w2), (2, 3, 5)], (2**61, 2**61, 0, 0))
    assert inst.initial_values.dtype == np.int64
    first = 2**61 + w1
    trace = simulate(inst, (first, 5))
    assert trace == rescan_simulate(inst, (first, 5))
    assert _buyers(trace) == (frozenset({0, 1}), frozenset({2, 3}))
    assert trace.revenue == 2 * first + 10
    assert normalize(inst, (first, 5)) == (first, 5)
    assert greedy_iterative(inst).prices.tolist() == list(heap_greedy(inst))


def _cyclic_formula(count):
    # clause j is (x_j, -x_{j+1}, x_{j+2}) cyclically: every variable occurs
    # three times in both polarities, and all-true satisfies every clause
    clauses = tuple(
        (j + 1, -((j + 1) % count + 1), (j + 2) % count + 1) for j in range(count)
    )
    return CnfFormula(count, clauses)


def test_values_past_int64_use_python_ints():
    artifact = build_reduction(_cyclic_formula(26))
    inst = artifact.instance
    assert max(inst.initial_values) > 2**63
    assert inst.initial_values.dtype == object
    prices = assignment_pricing(artifact, (True,) * 26)
    trace = simulate(inst, prices)
    assert trace.revenue == artifact.threshold
    assert trace == rescan_simulate(inst, prices)
    assert greedy_iterative(inst).prices.tolist() == list(heap_greedy(inst))
    assert loads_instance(dumps_instance(inst)) == inst


def test_price_past_int64_sells_nobody():
    trace = simulate(path3(), (2**63, 2**64 + 1, 1))
    assert _buyers(trace) == (frozenset(), frozenset(), frozenset({0, 1, 2}))
    assert trace.revenue == 3
    assert normalize(path3(), (2**63, 2)) == (2,)
