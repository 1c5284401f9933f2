"""Metamorphic relations: how revenue moves when an instance is relabelled,
scaled, joined with another or given an isolated node. They compare a
strategy or the oracle only with itself, so they still fail when a change
breaks it and its reference implementation the same way."""

from hypothesis import given, settings
from hypothesis import strategies as st

from netprice import PncInstance, best_single_price, exact_opt, greedy_iterative
from references import weighted_instances


def _rebuilt(instance, label=lambda x: x, scale=1, nodes=None, extra_edges=(), extra_nu=()):
    """``instance`` with node x renamed ``label(x)`` among ``nodes`` nodes,
    every weight and intrinsic value times ``scale``, plus more edges and
    intrinsic values after the renamed ones."""
    n = instance.node_count
    nu = [0] * (n if nodes is None else nodes)
    for x, value in enumerate(instance.intrinsic.tolist()):
        nu[label(x)] = scale * value
    nu[n:n + len(extra_nu)] = extra_nu
    edges = [(label(u), label(v), scale * w) for u, v, w in instance.graph.edges]
    return PncInstance.from_edges(len(nu), edges + list(extra_edges), nu)


def _joined(a, b):
    """The disjoint union of ``a`` and ``b``, ``b``'s nodes after ``a``'s."""
    shift = a.node_count
    edges = [(u + shift, v + shift, w) for u, v, w in b.graph.edges]
    return _rebuilt(a, nodes=shift + b.node_count, extra_edges=edges, extra_nu=b.intrinsic.tolist())


@settings(max_examples=80, deadline=None)
@given(weighted_instances(), st.randoms(use_true_random=False))
def test_relabelling_keeps_every_revenue(instance, rng):
    order = list(range(instance.node_count))
    rng.shuffle(order)
    relabelled = _rebuilt(instance, order.__getitem__)
    assert exact_opt(relabelled).revenue == exact_opt(instance).revenue
    assert greedy_iterative(relabelled).revenue == greedy_iterative(instance).revenue
    assert best_single_price(relabelled).revenue == best_single_price(instance).revenue


@settings(max_examples=80, deadline=None)
@given(weighted_instances(), st.sampled_from((2, 3, 7)))
def test_scaling_scales_revenue_and_greedy_prices(instance, c):
    scaled = _rebuilt(instance, scale=c)
    assert exact_opt(scaled).revenue == c * exact_opt(instance).revenue
    assert best_single_price(scaled).revenue == c * best_single_price(instance).revenue
    greedy, greedy_scaled = greedy_iterative(instance), greedy_iterative(scaled)
    assert greedy_scaled.prices.tolist() == [c * p for p in greedy.prices.tolist()]
    assert [r.buyers for r in greedy_scaled.rounds] == [r.buyers for r in greedy.rounds]


@settings(max_examples=60, deadline=None)
@given(weighted_instances(), weighted_instances())
def test_disjoint_union_lies_between_the_larger_part_and_the_sum(a, b):
    # no edge joins the parts, so a price sequence sells to each as it would
    # alone: a part's best sequence earns at least its optimum on the union,
    # and the union's best earns at most each part's optimum on that part
    opt_a, opt_b = exact_opt(a).revenue, exact_opt(b).revenue
    assert max(opt_a, opt_b) <= exact_opt(_joined(a, b)).revenue <= opt_a + opt_b


@settings(max_examples=80, deadline=None)
@given(weighted_instances())
def test_isolated_node_of_no_value_changes_nothing(instance):
    grown = _rebuilt(instance, nodes=instance.node_count + 1)
    assert exact_opt(grown).revenue == exact_opt(instance).revenue
    assert greedy_iterative(grown).revenue == greedy_iterative(instance).revenue
