"""Graph family generators: shapes, determinism, parameter validation."""

import hashlib
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from netprice import (
    CnfError,
    CnfFormula,
    PncInstance,
    WeightedGraph,
    assignment_pricing,
    ba_single_price,
    build_reduction,
    clause_gadget_edges,
    dumps_instance,
    er_single_price,
    gen_ba,
    gen_er,
    gen_example1,
    gen_forest,
    gen_spider,
    gen_split,
    generate,
    is_satisfying,
    loads_instance,
    make_irredundant,
    parse_dimacs,
    recognize_split,
    simulate,
    validate_prices,
    variable_gadget_edges,
)
from netprice import generators
from netprice.cli import experiment_tasks, run_experiment
from netprice.generators import _below, _forest_count
from references import forest_counts, scalar_gen_ba, triu_gen_er


def _component_count(instance):
    n = instance.node_count
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _ in instance.graph.edges:
        parent[find(u)] = find(v)
    return len({find(x) for x in range(n)})


def _is_plain(instance):
    return all(w == 1 for _, _, w in instance.graph.edges) and all(
        v == 0 for v in instance.intrinsic
    )


# --- Erdos-Renyi -------------------------------------------------------------


def test_er_extreme_probabilities():
    empty = gen_er(10, 0.0, seed=3)
    assert empty.graph.edges == ()
    complete = gen_er(10, 1.0, seed=3)
    assert len(complete.graph.edges) == 45
    assert _is_plain(empty) and _is_plain(complete)


def test_er_reproducible_and_seed_sensitive():
    a = gen_er(40, 0.3, seed=7)
    b = gen_er(40, 0.3, seed=7)
    c = gen_er(40, 0.3, seed=8)
    assert a.graph.edges == b.graph.edges
    assert a.graph.edges != c.graph.edges


def test_er_density_tracks_eta():
    total = sum(len(gen_er(60, 0.25, seed=s).graph.edges) for s in range(30))
    expected = 30 * 0.25 * (60 * 59 // 2)
    assert abs(total - expected) < 0.08 * expected


@pytest.mark.parametrize("n", [2, 3, 257, 2000])
def test_er_matches_one_draw_reference(monkeypatch, n):
    # gen_er draws a block of rows at a time (63 blocks at n = 2000, and one
    # row a block in the second pass): its edges must be those of one draw
    # over every pair
    for block in (generators._ER_BLOCK, 1)[:1 if n == 2000 else 2]:
        monkeypatch.setattr(generators, "_ER_BLOCK", block)
        # eta = 0 and eta = 1 keep the same edges whatever the draws
        for eta, seeds in ((0, (0,)), (0.3, (0, 1, 7)), (1, (0,))):
            for seed in seeds:
                assert gen_er(n, eta, seed) == triu_gen_er(n, eta, seed), (block, eta, seed)


def test_er_validation():
    with pytest.raises(ValueError, match="n >= 2"):
        gen_er(1, 0.5, seed=0)
    with pytest.raises(ValueError, match=r"eta must be in \[0, 1\]"):
        gen_er(5, 1.2, seed=0)


# --- preferential attachment -------------------------------------------------


def test_ba_shape():
    n, beta = 50, 3
    inst = gen_ba(n, beta, seed=11)
    assert inst.node_count == n
    assert len(inst.graph.edges) == math.comb(beta, 2) + beta * (n - beta)
    assert min(inst.graph.degrees) == beta
    assert _component_count(inst) == 1
    assert _is_plain(inst)


def test_ba_reproducible_and_seed_sensitive():
    a = gen_ba(120, 2, seed=5)
    b = gen_ba(120, 2, seed=5)
    c = gen_ba(120, 2, seed=6)
    assert a.graph.edges == b.graph.edges
    assert a.graph.edges != c.graph.edges


def test_ba_degree_beta_mass():
    # preferential attachment puts roughly a 2/(beta+2) fraction of nodes
    # at the minimum degree once n is moderately large
    inst = gen_ba(2000, 3, seed=1)
    frac = sum(1 for d in inst.graph.degrees if d == 3) / inst.node_count
    assert 0.33 <= frac <= 0.47


def test_below_draws_what_numpy_draws():
    # _below redoes numpy's Lemire method on PCG64's 32-bit halves; any change
    # in how numpy bounds integers shows here first. Near 2**31 + 2**30 about
    # a quarter of the outputs are rejected, near 2**31 + 12,345 about half.
    for seed in range(3):
        below = _below(np.random.Generator(np.random.PCG64(seed)))
        reference = np.random.Generator(np.random.PCG64(seed))
        ranges = np.random.Generator(np.random.PCG64(100 + seed))
        corners = [2, 3, 7, 65_537, 2**31, 2**31 + 12_345, 3 * 2**30 + 1, 2**32 - 1]
        ks = corners * 50 + ranges.integers(2, 2**32, 20_000).tolist() + ranges.integers(2, 200, 20_000).tolist()
        for k in ranges.permutation(ks).tolist():
            assert below(k) == reference.integers(0, k), (seed, k)


def test_ba_validation():
    with pytest.raises(ValueError, match="n > beta"):
        gen_ba(3, 3, seed=0)
    with pytest.raises(ValueError, match="positive integer"):
        gen_ba(10, 0, seed=0)


# --- spiders and the hub-of-cliques family ------------------------------------


@pytest.mark.parametrize("k", [1, 2, 5])
def test_spider_shape(k):
    inst = gen_spider(k)
    assert inst.node_count == 2 * k + 1
    assert len(inst.graph.edges) == 2 * k
    degrees = inst.graph.degrees
    assert degrees[0] == k
    middles = [degrees[1 + 2 * leg] for leg in range(k)]
    leaves = [degrees[2 + 2 * leg] for leg in range(k)]
    assert middles == [2] * k if k > 0 else True
    assert leaves == [1] * k
    assert _is_plain(inst)


def test_spider_validation():
    with pytest.raises(ValueError, match="k >= 1"):
        gen_spider(0)


def test_example1_shape():
    inst = gen_example1(3)
    assert inst.node_count == 3 * math.factorial(3) + 1 == 19
    # hub to all 18 others, one K6, two K3s, three K2s
    assert len(inst.graph.edges) == 18 + 15 + 2 * 3 + 3 * 1 == 42
    assert inst.graph.degrees[0] == 18
    assert _is_plain(inst)


@pytest.mark.parametrize("k", [2, 4])
def test_example1_counts(k):
    inst = gen_example1(k)
    fact = math.factorial(k)
    assert inst.node_count == k * fact + 1
    clique_edges = sum(i * math.comb(fact // i, 2) for i in range(1, k + 1))
    assert len(inst.graph.edges) == k * fact + clique_edges
    # each non-hub node sits in exactly one clique: degree 1 + (size - 1)
    sizes = sorted(d for d in inst.graph.degrees[1:])
    expected = sorted(
        fact // i
        for i in range(1, k + 1)
        for _ in range(i * (fact // i))
    )
    assert sizes == expected


def test_example1_validation():
    with pytest.raises(ValueError, match="k >= 2"):
        gen_example1(1)


def _list_spider(k):
    pairs = []
    for leg in range(k):
        middle = 1 + 2 * leg
        pairs += [(0, middle), (middle, middle + 1)]
    return PncInstance.unweighted(2 * k + 1, pairs)


def _list_example1(k):
    fact = math.factorial(k)
    n = k * fact + 1
    edges = [(0, v, 1) for v in range(1, n)]
    start = 1
    for i in range(1, k + 1):
        size = fact // i
        for _ in range(i):
            edges += [(a, b, 1) for a in range(start, start + size) for b in range(a + 1, start + size)]
            start += size
    return PncInstance.from_edges(n, edges)


@pytest.mark.parametrize("build, reference, cases", [
    (gen_spider, _list_spider, [(k,) for k in range(1, 9)]),
    (gen_example1, _list_example1, [(k,) for k in range(2, 5)]),
    (gen_ba, scalar_gen_ba, [(2, 1, 0), (9, 4, 3), (50, 3, 2), (600, 2, 5), (2000, 7, 1), (5000, 3, 9)]
     + [(n, beta, seed) for n, beta in [(3, 1), (300, 5), (2000, 2), (5000, 2)] for seed in range(3)]),
], ids=["spider", "example1", "ba"])
def test_array_built_families_match_list_built_references(build, reference, cases):
    # The generators build their edges as arrays; the graphs must be the
    # ones an edge-by-edge list gives, down to the CSR arrays and dtypes.
    for args in cases:
        got, want = build(*args), reference(*args)
        assert got == want and got.intrinsic.tolist() == want.intrinsic.tolist()
        for name in ("u", "v", "w", "indptr", "indices", "weights"):
            a, b = getattr(got.graph, name), getattr(want.graph, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (args, name)


@pytest.mark.parametrize("call, name", [
    (lambda: gen_er(6.0, 0.5, 0), "n"),
    (lambda: gen_er(6, 0.5, 1.0), "seed"),
    (lambda: gen_ba(True, 2, 0), "n"),
    (lambda: gen_ba(20, 2, 0.5), "seed"),
    (lambda: gen_ba(20, 2.0, 0), "beta"),
    (lambda: gen_ba(20, True, 0), "beta"),
    (lambda: ba_single_price(gen_ba(20, 2, 0), 2.0), "beta"),
    (lambda: gen_spider(3.0), "k"),
    (lambda: gen_example1(False), "k"),
    (lambda: generate("example1", {"k": 2}, "x"), "seed"),
    (lambda: gen_split(10.0, 0.3, 0.5, 0), "n"),
    (lambda: gen_split(10, 0.3, 0.5, True), "seed"),
    (lambda: gen_forest(10.0, 2, 0), "n"),
    (lambda: gen_forest(10, 2.0, 0), "tree_count"),
    (lambda: gen_forest(10, 2, "0"), "seed"),
    (lambda: run_experiment("forest_ratio", trials=2.5), "trials"),
    (lambda: run_experiment("forest_ratio", trials=True), "trials"),
    (lambda: run_experiment("forest_ratio", master_seed=0.0), "master_seed"),
    (lambda: run_experiment("bound_sweep", {"n_max": 8.0}), "n_max"),
    (lambda: run_experiment("forest_ratio", trials=1, jobs=1.5), "jobs"),
], ids=["er-n", "er-seed", "ba-n", "ba-seed", "ba-beta", "ba-beta-bool", "ba-single-beta",
        "spider-k", "example1-k", "example1-seed", "split-n", "split-seed", "forest-n", "forest-trees", "forest-seed",
        "trials", "trials-bool", "master-seed", "n-max", "jobs"])
def test_integer_parameters_are_checked(call, name):
    # numpy's seeding and range() would raise TypeError, or read a bool as 0 or 1
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call()


@pytest.mark.parametrize("call, error, message", [
    (lambda: gen_er(10, "0.5", 0), ValueError, "eta must be a number, got '0.5'"),
    (lambda: gen_er(10, True, 0), ValueError, "eta must be a number, got True"),
    (lambda: gen_er(10, float("nan"), 0), ValueError, "eta must be in [0, 1], got nan"),
    (lambda: gen_split(10, "0.3", 0.5, 0), ValueError, "clique_fraction must be a number, got '0.3'"),
    (lambda: gen_split(10, 0.3, None, 0), ValueError, "edge_prob must be a number, got None"),
    (lambda: generate("er", {"n": 10, "eta": None}), ValueError, "eta must be a number, got None"),
    (lambda: er_single_price(gen_er(20, 0.5, 0), "0.5", 0.1), ValueError, "eta must be a number, got '0.5'"),
    (lambda: er_single_price(gen_er(20, 0.5, 0), 0.5, "0.1"), ValueError, "delta must be a number, got '0.1'"),
    (lambda: run_experiment("er_ratio", {"n": 30, "eta": "0.3"}, trials=1), ValueError,
     "eta must be a number, got '0.3'"),
    (lambda: run_experiment("er_ratio", {"n": 30, "delta": None}, trials=1), ValueError,
     "delta must be a number, got None"),
    (lambda: parse_dimacs(b"p cnf 1 1\n1 0\n"), CnfError, "CNF text must be a str, got bytes"),
    (lambda: loads_instance(b'{"n": 1}'), ValueError, "instance text must be a str, got bytes"),
], ids=["er-eta", "er-eta-bool", "er-eta-nan", "split-clique-fraction", "split-edge-prob", "generate-eta",
        "er-single-eta", "er-single-delta", "experiment-eta", "experiment-delta", "dimacs-bytes",
        "instance-bytes"])
def test_real_parameters_are_checked(call, error, message):
    # comparing a str or None with a number would raise TypeError
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


_FORMULA = ((1, 2, 3), (-1, -2, 3), (1, -2, -3))


@pytest.mark.parametrize("call, error, message", [
    (lambda: gen_er(10, 0.5, -1), ValueError, "seed must be nonnegative, got -1"),
    (lambda: gen_forest(5, 1, -2), ValueError, "seed must be nonnegative, got -2"),
    (lambda: generate("split", {"n": 10}, -3), ValueError, "seed must be nonnegative, got -3"),
    (lambda: generate("spider", {"k": 2}, -1), ValueError, "seed must be nonnegative, got -1"),
    (lambda: run_experiment("forest_ratio", trials=2, master_seed=-1), ValueError,
     "master_seed must be nonnegative, got -1"),
    (lambda: validate_prices(5), ValueError, "prices must be a sequence, got 5"),
    (lambda: simulate(gen_spider(2), None), ValueError, "prices must be a sequence, got None"),
    (lambda: make_irredundant(gen_spider(2), 3), ValueError, "prices must be a sequence, got 3"),
    (lambda: WeightedGraph(3, 5), ValueError, "edges must be a sequence, got 5"),
    (lambda: WeightedGraph(3, None), ValueError, "edges must be a sequence, got None"),
    (lambda: PncInstance.from_edges(3, [], 5), ValueError, "intrinsic must be a sequence, got 5"),
    (lambda: PncInstance.unweighted(3, 5), ValueError, "pairs must be a sequence, got 5"),
    (lambda: PncInstance.unweighted(3, [5]), ValueError, "pairs[0]: expected (u, v), got 5"),
    (lambda: PncInstance.unweighted(3, [(0, 1, 2)]), ValueError, "pairs[0]: expected (u, v), got (0, 1, 2)"),
    (lambda: PncInstance.unweighted(3, [(0, 1), "ab"]), ValueError, "pairs[1]: endpoint must be an integer, got 'a'"),
    (lambda: PncInstance.unweighted(3, [(0, 1.5)]), ValueError, "pairs[0]: endpoint must be an integer, got 1.5"),
    (lambda: PncInstance(WeightedGraph(3, []), None), ValueError, "intrinsic must be a sequence, got None"),
    (lambda: generate("er", None), ValueError, "params must be a dict, got None"),
    (lambda: experiment_tasks("forest_ratio", 5, 2, 0), ValueError, "params must be a dict, got 5"),
    (lambda: CnfFormula(3, None), CnfError, "clauses must be a sequence, got None"),
    (lambda: CnfFormula(3, [5, 5, 5]), CnfError, "clause 1 must be a sequence, got 5"),
    (lambda: is_satisfying(CnfFormula(3, _FORMULA), None), ValueError,
     "assignment must be a sequence, got None"),
    (lambda: assignment_pricing(build_reduction(CnfFormula(3, _FORMULA)), 5), ValueError,
     "assignment must be a sequence, got 5"),
    (lambda: generate([], {}), ValueError, "unknown family []"),
    (lambda: clause_gadget_edges(0, 1, 2, None), ValueError,
     "gadget nodes and scale must be integers, got (0, 1, 2, None)"),
    (lambda: variable_gadget_edges(0, 1, 2, 3, "4", 1), ValueError,
     "gadget nodes and scale must be integers, got (0, 1, 2, 3, '4', 1)"),
], ids=["er-seed", "forest-seed", "generate-seed", "unseeded-seed", "master-seed", "prices", "simulate-prices",
        "irredundant-prices", "graph-edges", "graph-edges-none", "from-edges-intrinsic",
        "unweighted-pairs", "unweighted-pair", "unweighted-triple",
        "unweighted-endpoint", "unweighted-second-endpoint",
        "instance-intrinsic", "generate-params", "experiment-params", "formula-clauses",
        "formula-clause", "satisfying-assignment", "assignment-pricing", "generate-family",
        "clause-gadget", "variable-gadget"])
def test_seeds_and_sequences_are_checked(call, error, message):
    # numpy refuses a negative seed without naming it; len() and iteration of
    # a non-sequence raise TypeError, as do hashing a list and arithmetic on None
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_unseeded_families_ignore_a_valid_seed():
    # a negative or non-integer seed is refused as for a seeded family (above)
    assert generate("spider", {"k": 3}, 7) == gen_spider(3)
    assert generate("example1", {"k": 2}, 2**70) == gen_example1(2)


@pytest.mark.parametrize("k", [7, 8, 9, 10**6])
def test_example1_too_large_raises_before_building(k):
    # k = 7 is 32,949,000 edges; building them first would exhaust memory
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="over 30,000,000 edges"):
            gen_example1(k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sizes_are_counted_in_python_ints():
    # an np.int64 n is read as the Python int it holds: in int64, n * (n - 1)
    # // 2 would wrap (to 3883139810726120960 here, with a RuntimeWarning,
    # an error below) instead of counting the pairs
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^gen_er\(10000000000, 0\.5\) would build over 30,000,000 "):
                gen_er(np.int64(10**10), 0.5, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("build", [
    lambda: gen_split(10_000_000, 0.3, 0.5, seed=0),
    lambda: gen_split(9_000, 0.5, 0.5, seed=0),
    lambda: gen_ba(10**20, 3, seed=0),
    lambda: gen_ba(12_000, 6_000, seed=0),
    lambda: gen_spider(99999999999999999999),
    lambda: gen_spider(15_000_001),
], ids=["split-huge", "split-dense", "ba-huge", "ba-dense", "spider-huge", "spider-limit"])
def test_families_over_the_limit_raise_before_building(build):
    # split-dense: C(4500, 2) + 4500 * 4500 = 30,372,750 candidate pairs
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="over 30,000,000"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# --- split graphs -------------------------------------------------------------


def test_split_partition_is_valid():
    inst = gen_split(20, 0.4, 0.5, seed=9)
    k = math.ceil(0.4 * 20)
    adjacency = {(u, v) for u, v, _ in inst.graph.edges}
    # nodes 0..k-1 form a clique, and nodes k..n-1 an independent set
    assert {(a, b) for a in range(k) for b in range(a + 1, k)} <= adjacency
    assert all(u < k for u, _ in adjacency)
    assert recognize_split(inst.graph) is not None


def test_split_clique_ordered_by_degree():
    inst = gen_split(25, 0.3, 0.6, seed=2)
    part = recognize_split(inst.graph)
    degs = [inst.graph.degrees[v] for v in part.clique]
    assert degs == sorted(degs)


def test_split_reproducible():
    a = gen_split(30, 0.5, 0.4, seed=13)
    b = gen_split(30, 0.5, 0.4, seed=13)
    assert a.graph.edges == b.graph.edges


def test_split_validation():
    with pytest.raises(ValueError, match="n >= 2"):
        gen_split(1, 0.5, 0.5, seed=0)
    with pytest.raises(ValueError, match="clique_fraction"):
        gen_split(10, 1.0, 0.5, seed=0)
    with pytest.raises(ValueError, match="edge_prob"):
        gen_split(10, 0.5, -0.1, seed=0)


# --- uniform forests ----------------------------------------------------------


def test_forest_shape():
    for seed in range(25):
        inst = gen_forest(17, 4, seed=seed)
        assert inst.node_count == 17
        assert len(inst.graph.edges) == 17 - 4
        assert _component_count(inst) == 4  # with n-t edges this forces acyclicity
        assert _is_plain(inst)


def test_forest_single_tree_and_fully_isolated():
    tree = gen_forest(9, 1, seed=0)
    assert len(tree.graph.edges) == 8
    assert _component_count(tree) == 1
    dust = gen_forest(6, 6, seed=0)
    assert dust.graph.edges == ()


def test_forest_sampler_hits_every_tree():
    # all 16 labeled trees on 4 nodes should show up quickly
    seen = {gen_forest(4, 1, seed=s).graph.edges for s in range(400)}
    assert len(seen) == 16


def test_forest_sampler_hits_every_two_tree_forest():
    # all 15 labeled forests on 4 nodes with 2 components
    seen = {gen_forest(4, 2, seed=s).graph.edges for s in range(400)}
    assert len(seen) == 15


def test_forest_component_sizes_unbiased():
    # for n=3, t=2 the forests are the three single-edge graphs; each
    # should appear about a third of the time
    counts = {}
    for s in range(600):
        edges = gen_forest(3, 2, seed=s).graph.edges
        counts[edges] = counts.get(edges, 0) + 1
    assert len(counts) == 3
    assert all(140 <= c <= 260 for c in counts.values())


def test_forest_count_matches_the_recurrence():
    for n in range(1, 31):
        for t in range(1, n + 1):
            for j, row in enumerate(forest_counts(n, t)):
                assert [_forest_count(j + off, j) for off in range(len(row))] == list(row)


def test_forest_count_identities():
    assert _forest_count(0, 0) == 1
    for k in range(1, 201):
        assert _forest_count(k, 0) == 0
        assert _forest_count(k, k) == 1
        assert _forest_count(k, 1) == k ** max(k - 2, 0)  # Cayley


def test_forest_validation():
    with pytest.raises(ValueError, match="n >= 1"):
        gen_forest(0, 1, seed=0)
    with pytest.raises(ValueError, match=r"tree_count must be in \[1, n\]"):
        gen_forest(5, 6, seed=0)
    with pytest.raises(ValueError, match=r"tree_count must be in \[1, n\]"):
        gen_forest(5, 0, seed=0)
    with pytest.raises(ValueError, match="n <= 1000"):
        gen_forest(1001, 3, seed=0)


def test_forest_many_components_at_the_size_limit():
    # counts come from a closed form, so neither recursion depth nor a
    # table of every (k, j) limits n or t
    for tree_count in (50, 995):
        instance = gen_forest(1000, tree_count, seed=0)
        assert _component_count(instance) == tree_count
        assert instance.graph.edge_count == 1000 - tree_count


@pytest.mark.parametrize("build, digest", [
    (lambda: gen_forest(60, 7, seed=3), "144fb4cdd2ddba64"),
    (lambda: gen_forest(200, 2, seed=11), "b4ff97730a4c0a9f"),
    (lambda: gen_forest(400, 3, seed=1), "60fce6ea3d3650da"),
    (lambda: gen_forest(1000, 5, seed=0), "416c2101d31906ac"),
    (lambda: gen_forest(1000, 900, seed=0), "24c2c3f67e0c7c0f"),
    (lambda: gen_er(40, 0.3, seed=5), "e3d97fbcb5446ef8"),
    (lambda: gen_ba(50, 3, seed=2), "564da16135c3ff1f"),
    (lambda: gen_example1(3), "c373799dc100a812"),
    (lambda: gen_split(14, 0.4, 0.5, seed=0), "c0b16a3d7f022d4b"),
    (lambda: gen_split(1000, 0.3, 0.5, seed=43), "8f0906e65defa471"),
    (lambda: gen_er(2000, 0.3, seed=3), "1a6655de9bcdae70"),
    (lambda: gen_ba(5000, 3, seed=43), "436a1122ca41fde8"),
])
def test_generator_output_is_pinned(build, digest):
    text = dumps_instance(build())
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_canonical_families_are_not_sorted_again(monkeypatch):
    # these generators lay their edges out in canonical order, so the graph
    # keeps them as they are and never sorts them
    def refuse(*args, **kwargs):
        raise AssertionError("np.lexsort called")

    monkeypatch.setattr(np, "lexsort", refuse)
    for build in (lambda: gen_er(300, 0.2, 1), lambda: gen_split(300, 0.3, 0.5, 2),
                  lambda: gen_split(10, 0.95, 0.5, 0), lambda: gen_spider(50),
                  lambda: gen_ba(500, 3, 4)):
        assert build().graph.edge_count


# --- the generate dispatcher --------------------------------------------------


# one small request per FAMILIES entry, with the direct call it stands for
_GENSPEC_CASES = {
    "er": ({"n": 15, "eta": 0.4}, 3, lambda: gen_er(15, 0.4, seed=3)),
    "ba": ({"n": 12, "beta": 2}, 4, lambda: gen_ba(12, 2, seed=4)),
    "spider": ({"k": 3}, 0, lambda: gen_spider(3)),
    "example1": ({"k": 2}, 0, lambda: gen_example1(2)),
    "split": ({"n": 14, "clique_fraction": 0.5, "edge_prob": 0.5}, 6,
              lambda: gen_split(14, 0.5, 0.5, seed=6)),
    "core_peripheral": ({"n": 14, "clique_fraction": 0.5, "edge_prob": 0.5}, 6,
                        lambda: gen_split(14, 0.5, 0.5, seed=6)),
    "forest": ({"n": 10, "trees": 2}, 5, lambda: gen_forest(10, 2, seed=5)),
}


def test_genspec_matches_direct_calls():
    assert set(_GENSPEC_CASES) == set(generators.FAMILIES)
    for family, (params, seed, direct) in _GENSPEC_CASES.items():
        built = generate(family, params, seed)
        assert isinstance(built, PncInstance), family
        assert dumps_instance(built) == dumps_instance(direct()), family


def test_genspec_split_alias_and_partition():
    direct = gen_split(14, 0.5, 0.5, seed=6)
    params = {"n": 14, "clique_fraction": 0.5, "edge_prob": 0.5}
    alias = generate("core_peripheral", params, seed=6)
    assert alias.graph.edges == direct.graph.edges
    assert alias.graph.edges == generate("split", params, seed=6).graph.edges
    # the partition comes from recognition alone, the same for either name
    part = recognize_split(alias.graph)
    assert part is not None
    assert part == recognize_split(direct.graph)


def test_genspec_unknown_family():
    with pytest.raises(ValueError, match="unknown family"):
        generate("smallworld", {"n": 5})


def test_genspec_missing_parameter_is_named():
    with pytest.raises(ValueError, match="family 'er' needs parameter 'eta'"):
        generate("er", {"n": 5})
    with pytest.raises(ValueError, match="family 'er' takes no parameter 'k'"):
        generate("er", {"n": 5, "eta": 0.5, "k": 3})
    # a parameter with a default may be left out
    defaulted = generate("core_peripheral", {"n": 5, "clique_fraction": 0.5}, seed=2)
    assert dumps_instance(defaulted) == dumps_instance(gen_split(5, 0.5, 0.5, 2))
    assert dumps_instance(generate("forest", {"n": 8}, seed=1)) == dumps_instance(gen_forest(8, 1, 1))
