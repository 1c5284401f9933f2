"""Data model: graph canonicalization, instances, traces, file format."""

import ast
import json
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import netprice
from netprice import (
    PncInstance,
    SaleRound,
    SaleTrace,
    WeightedGraph,
    dumps_instance,
    load_instance,
    loads_instance,
    validate_prices,
)


def test_edges_are_canonicalized():
    g = WeightedGraph(4, ((3, 1, 2), (0, 2, 1), (1, 0, 5)))
    assert g.edges == ((0, 1, 5), (0, 2, 1), (1, 3, 2))


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError, match="self loop"):
        WeightedGraph(3, ((1, 1, 1),))
    with pytest.raises(ValueError, match="duplicate edge"):
        WeightedGraph(3, ((0, 1, 1), (1, 0, 2)))
    with pytest.raises(ValueError, match="out of range"):
        WeightedGraph(3, ((0, 3, 1),))
    with pytest.raises(ValueError, match="weight"):
        WeightedGraph(3, ((0, 1, 0),))
    with pytest.raises(ValueError, match="integer"):
        WeightedGraph(3, ((0, 1, True),))
    with pytest.raises(ValueError, match="node_count"):
        WeightedGraph(0, ())
    with pytest.raises(ValueError, match=r"expected \(u, v, w\)"):
        WeightedGraph(3, (5,))
    with pytest.raises(ValueError, match=r"expected \(u, v, w\)"):
        WeightedGraph(3, ((0, 1),))


def _reference_edges(n, edges):
    """Canonical edge list, or None when any edge breaks a rule."""
    weights = {}
    for edge in edges:
        if not isinstance(edge, (tuple, list)) or len(edge) != 3:
            return None
        if any(isinstance(x, bool) or not isinstance(x, int) for x in edge):
            return None
        u, v, w = edge
        pair = (min(u, v), max(u, v))
        if u == v or pair[0] < 0 or pair[1] >= n or w < 1 or pair in weights:
            return None
        weights[pair] = w
    return [(u, v, w) for (u, v), w in sorted(weights.items())]


DEFECTS = ("bool", "float", "self_loop", "out_of_range", "zero_weight",
           "duplicate", "reversed_duplicate", "non_sequence")


@st.composite
def edge_lists(draw):
    """A valid edge list in random orientation, then zero or more defects."""
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    edges = []
    for u, v in chosen:
        if draw(st.booleans()):
            u, v = v, u
        edges.append((u, v, draw(st.integers(1, 9))))
    valid = list(edges)
    for defect in draw(st.lists(st.sampled_from(DEFECTS), max_size=2)):
        at = draw(st.integers(0, len(edges)))
        u = draw(st.integers(0, n - 1))
        if defect == "bool":
            edge = (0, 1, True) if n > 1 else (0, True, 1)
        elif defect == "float":
            edge = (float(u), (u + 1) % n, 1) if n > 1 else (0.0, 0, 1)
        elif defect == "self_loop":
            edge = (u, u, 1)
        elif defect == "out_of_range":
            edge = draw(st.sampled_from([(u, n, 1), (-1, u, 1)]))
        elif defect == "zero_weight":
            edge = (u, (u + 1) % n, 0)
        elif defect in ("duplicate", "reversed_duplicate"):
            if not valid:
                continue
            a, b, _ = draw(st.sampled_from(valid))
            edge = (b, a, 2) if defect == "reversed_duplicate" else (a, b, 2)
        else:
            edge = draw(st.sampled_from([5, None, (0, 1), (0, 1, 1, 1)]))
        edges.insert(at, edge)
    return n, edges


@given(edge_lists())
def test_graph_validation_matches_reference(case):
    n, edges = case
    expected = _reference_edges(n, edges)
    if expected is None:
        with pytest.raises(ValueError):
            WeightedGraph(n, tuple(edges))
        return
    graph = WeightedGraph(n, tuple(edges))
    assert list(graph.edges) == expected
    instance = PncInstance(graph, (0,) * n)
    assert loads_instance(dumps_instance(instance)) == instance


@given(edge_lists())
def test_loader_validation_matches_reference(case):
    n, edges = case
    text = json.dumps({"n": n, "edges": [list(e) if isinstance(e, tuple) else e for e in edges]})
    expected = _reference_edges(n, edges)
    if expected is None or any(u >= v for u, v, _ in edges):
        with pytest.raises(ValueError):
            loads_instance(text)
    else:
        assert list(loads_instance(text).graph.edges) == expected


def test_package_has_no_assert_statements():
    # invariants must still be checked under python -O
    package = Path(netprice.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_graph_views():
    g = WeightedGraph(4, ((0, 1, 2), (1, 2, 3), (1, 3, 1)))
    assert g.edge_count == 3
    assert g.total_edge_weight == 6
    assert g.degrees == (1, 3, 1, 1)
    assert g.weighted_degrees == (2, 6, 3, 1)
    assert g.indptr.tolist() == [0, 1, 4, 5, 6]
    assert g.indices.tolist() == [1, 0, 2, 3, 1, 1]
    assert g.weights.tolist() == [2, 2, 3, 1, 3, 1]
    assert not g.is_unweighted()
    assert WeightedGraph(2, ((0, 1, 1),)).is_unweighted()


def test_instance_validation():
    g = WeightedGraph(2, ((0, 1, 1),))
    with pytest.raises(ValueError, match="intrinsic"):
        PncInstance(g, (1,))
    with pytest.raises(ValueError, match="nonnegative"):
        PncInstance(g, (1, -1))
    inst = PncInstance(g, (3, 0))
    assert inst.initial_values == (4, 1)
    assert inst.node_count == 2


def test_unweighted_constructor():
    inst = PncInstance.unweighted(3, [(0, 1), (1, 2)])
    assert inst.graph.edges == ((0, 1, 1), (1, 2, 1))
    assert inst.intrinsic == (0, 0, 0)
    assert inst.initial_values == (1, 2, 1)


def test_validate_prices():
    assert validate_prices([3, 2, 0]) == (3, 2, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        validate_prices([3, -1])
    with pytest.raises(ValueError, match="integer"):
        validate_prices([3, True])
    with pytest.raises(ValueError, match="integer"):
        validate_prices([2.5])


def test_trace_views():
    rounds = (
        SaleRound(3, frozenset({1}), 3),
        SaleRound(1, frozenset({0, 2}), 2),
    )
    trace = SaleTrace(rounds, frozenset(), 5)
    assert trace.prices == (3, 1)
    assert trace.buyers_by_round == (frozenset({1}), frozenset({0, 2}))
    assert trace.all_buyers == frozenset({0, 1, 2})


def test_dumps_is_canonical():
    inst = PncInstance.from_edges(3, [(1, 2, 1), (0, 1, 2)])
    assert dumps_instance(inst) == '{"n":3,"edges":[[0,1,2],[1,2,1]]}\n'
    with_nu = PncInstance.from_edges(2, [(0, 1, 1)], (0, 4))
    assert dumps_instance(with_nu) == '{"n":2,"edges":[[0,1,1]],"nu":[0,4]}\n'


def test_loads_round_trip_random():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 12)
        edges = [
            (u, v, rng.randint(1, 9))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        ]
        nu = [rng.randint(0, 5) for _ in range(n)] if rng.random() < 0.5 else None
        inst = PncInstance.from_edges(n, edges, nu)
        again = loads_instance(dumps_instance(inst))
        assert again == inst


def test_loads_rejects_malformed():
    with pytest.raises(ValueError, match="JSON"):
        loads_instance("{")
    with pytest.raises(ValueError, match="object"):
        loads_instance("[1]")
    with pytest.raises(ValueError, match="missing field 'n'"):
        loads_instance('{"edges":[]}')
    with pytest.raises(ValueError, match="unknown instance fields"):
        loads_instance('{"n":1,"extra":2}')
    with pytest.raises(ValueError, match="u < v"):
        loads_instance('{"n":2,"edges":[[1,0,1]]}')
    with pytest.raises(ValueError, match="'nu' has"):
        loads_instance('{"n":2,"nu":[1]}')
    with pytest.raises(ValueError, match="integer"):
        loads_instance('{"n":2,"edges":[[0,1,true]]}')


def test_file_round_trip(tmp_path):
    from netprice import dump_instance

    inst = PncInstance.from_edges(4, [(0, 3, 2)], (1, 0, 0, 2))
    path = tmp_path / "inst.json"
    dump_instance(inst, str(path))
    assert load_instance(str(path)) == inst
