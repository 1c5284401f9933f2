"""Data model: graph canonicalization, instances, traces, file format."""

import ast
import json
import random
import re
import warnings
from operator import mul
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import netprice
from netprice import core
from netprice import (
    CnfFormula,
    PncInstance,
    SaleRound,
    SaleTrace,
    WeightedGraph,
    assignment_pricing,
    build_reduction,
    dumps_instance,
    greedy_iterative,
    load_instance,
    loads_instance,
    simulate,
    validate_prices,
)
from references import json_loads_instance


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
    # the first bad edge in input order, and its first fault in this order
    with pytest.raises(ValueError, match=r"^edges\[1\]: self loop at node 1$"):
        WeightedGraph(3, ((0, 1, 1), (1, 1, 0), (0, 3, 0)))
    with pytest.raises(ValueError, match=r"^edges\[1\]: endpoints \(0, 3\) out of range for n=3$"):
        WeightedGraph(3, ((0, 1, 1), (3, 0, 0), (1, 1, 0)))
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


def _first_value_fault(n, edges):
    """The error naming the first edge in input order with a self loop, an
    endpoint out of range or a weight below 1, found by a loop over the
    edges; None if there is none."""
    for idx, (u, v, w) in enumerate(edges):
        u, v = min(u, v), max(u, v)
        if u == v:
            return f"edges[{idx}]: self loop at node {u}"
        if u < 0 or v >= n:
            return f"edges[{idx}]: endpoints ({u}, {v}) out of range for n={n}"
        if w < 1:
            return f"edges[{idx}]: weight must be >= 1, got {w}"
    return None


@given(edge_lists())
def test_graph_validation_matches_reference(case):
    n, edges = case
    expected = _reference_edges(n, edges)
    if expected is None:
        # with every edge three ints, the first value fault is named, else a duplicate
        typed = all(isinstance(e, tuple) and len(e) == 3 and type(e[0]) is type(e[1]) is type(e[2]) is int
                    for e in edges)
        fault = _first_value_fault(n, edges) if typed else None
        message = f"^{re.escape(fault)}$" if fault else "^duplicate edge " if typed else None
        with pytest.raises(ValueError, match=message):
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
        for path in sorted(package.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_graph_views():
    g = WeightedGraph(4, ((0, 1, 2), (1, 2, 3), (1, 3, 1)))
    assert g.edge_count == 3
    assert g.total_edge_weight == 6
    assert g.degrees.tolist() == [1, 3, 1, 1]
    assert g.weighted_degrees.tolist() == [2, 6, 3, 1]
    assert g.indptr.tolist() == [0, 1, 4, 5, 6]
    assert g.indices.tolist() == [1, 0, 2, 3, 1, 1]
    assert g.weights.tolist() == [2, 2, 3, 1, 3, 1]
    assert not g.is_unweighted()
    assert WeightedGraph(2, ((0, 1, 1),)).is_unweighted()


def test_graph_copies_an_edge_array_its_caller_can_write():
    table = np.array([[0, 1, 2], [1, 2, 3]])
    view = table[:]
    view.setflags(write=False)  # read-only, but table still writes to it
    graphs = [WeightedGraph(3, table), WeightedGraph(3, view)]
    table[0] = [0, 2, 9]
    assert [g.edges for g in graphs] == [((0, 1, 2), (1, 2, 3))] * 2
    # a read-only array that owns its data is kept as it is
    table.setflags(write=False)
    assert np.shares_memory(WeightedGraph(3, table).u, table)


def test_instance_validation():
    g = WeightedGraph(2, ((0, 1, 1),))
    with pytest.raises(ValueError, match="intrinsic"):
        PncInstance(g, (1,))
    with pytest.raises(ValueError, match="nonnegative"):
        PncInstance(g, (1, -1))
    # checked in bulk, and a bad value is still named by the first index
    with pytest.raises(ValueError, match=r"^intrinsic\[1\] must be an integer, got True$"):
        PncInstance(g, (1, True, 2.5))
    with pytest.raises(ValueError, match=r"^intrinsic\[0\] must be an integer, got 2\.5$"):
        PncInstance(g, (2.5,))
    inst = PncInstance(g, (3, 0))
    assert inst.initial_values.tolist() == [4, 1]
    assert inst.node_count == 2


def test_unweighted_constructor():
    inst = PncInstance.unweighted(3, [(0, 1), (1, 2)])
    assert inst.graph.edges == ((0, 1, 1), (1, 2, 1))
    assert inst.intrinsic.tolist() == [0, 0, 0]
    assert inst.initial_values.tolist() == [1, 2, 1]


def _arrays(instance, *traces):
    """Every per-node and per-round array the instance and traces hand out."""
    graph = instance.graph
    arrays = {"intrinsic": instance.intrinsic, "initial_values": instance.initial_values,
              "degrees": graph.degrees, "weighted_degrees": graph.weighted_degrees}
    for index, trace in enumerate(traces):
        arrays.update({f"prices {index}": trace.prices, f"buyers {index}": trace.buyers,
                       f"ends {index}": trace.ends})
    return arrays


def test_per_node_and_per_round_numbers_are_read_only_arrays():
    # one instance in int64 and one past it: the reduction's weight scales
    # grow about 5x per variable, so 26 variables reach about 2^75
    small = PncInstance.from_edges(4, [(0, 1, 3), (1, 2, 2), (2, 3, 5)], np.array([1, 0, 4, 0]))
    formula = CnfFormula(26, tuple((j + 1, -((j + 1) % 26 + 1), (j + 2) % 26 + 1) for j in range(26)))
    artifact = build_reduction(formula)
    big = artifact.instance
    prices = assignment_pricing(artifact, (True,) * 26)
    cases = [(small, (9, 3, 0), np.int64), (big, prices, object)]
    for instance, posted, dtype in cases:
        traces = greedy_iterative(instance), simulate(instance, posted)
        for name, array in _arrays(instance, *traces).items():
            assert isinstance(array, np.ndarray) and array.ndim == 1, name
            assert not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array[:1] = 0
        assert instance.initial_values.dtype == traces[0].prices.dtype == dtype
        # exact: each node's value summed from the canonical edges in Python ints
        values = instance.intrinsic.tolist()
        for u, v, w in instance.graph.edges:
            values[u] += w
            values[v] += w
        assert instance.initial_values.tolist() == values
        intrinsic = instance.intrinsic.tolist()
        assert instance.graph.weighted_degrees.tolist() == [x - y for x, y in zip(values, intrinsic)]
        replayed = traces[1]
        assert replayed.prices.tolist() == list(posted)
        assert sum(map(mul, replayed.prices.tolist(), np.diff(replayed.ends).tolist())) == replayed.revenue
    assert max(big.initial_values) > 2**70 and big.graph.w.dtype == object
    assert simulate(big, prices).revenue == artifact.threshold
    # a value past int64 in the intrinsic values makes them an object array
    huge = PncInstance.from_edges(2, [(0, 1, 1)], (2**70, 0))
    assert huge.intrinsic.dtype == object and huge.initial_values.tolist() == [2**70 + 1, 1]
    # an array of intrinsic values is copied, so its caller's writes do not reach the instance
    nu = np.array([1, 2])
    copied = PncInstance.from_edges(2, [], nu)
    nu[0] = 9
    assert copied.intrinsic.tolist() == [1, 2] and copied == PncInstance.from_edges(2, [], (1, 2))
    assert copied != PncInstance.from_edges(2, [], (1, 3))


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
    trace = SaleTrace(np.array([3, 1]), np.array([1, 0, 2]), np.array([0, 1, 3]), frozenset(), 5)
    assert trace.prices.tolist() == [3, 1]
    assert trace.rounds == rounds
    # equal by value, as graphs are
    again = SaleTrace(np.array([3, 1]), np.array([1, 0, 2]), np.array([0, 1, 3]), frozenset(), 5)
    assert again == trace
    assert again != SaleTrace(np.array([3, 1]), np.array([1, 0, 2]), np.array([0, 2, 3]), frozenset(), 5)
    assert again != SaleTrace(np.array([3, 2]), np.array([1, 0, 2]), np.array([0, 1, 3]), frozenset(), 5)


def test_dumps_is_canonical():
    inst = PncInstance.from_edges(3, [(1, 2, 1), (0, 1, 2)])
    assert dumps_instance(inst) == '{"n":3,"edges":[[0,1,2],[1,2,1]]}\n'
    with_nu = PncInstance.from_edges(2, [(0, 1, 1)], (0, 4))
    assert dumps_instance(with_nu) == '{"n":2,"edges":[[0,1,1]],"nu":[0,4]}\n'


def test_dumps_matches_json_across_blocks(monkeypatch):
    # 21 edges in blocks of 4, the second-to-last block holding a weight past
    # int64; read back in blocks of 7 characters
    monkeypatch.setattr(core, "_WRITE_ROWS", 4)
    monkeypatch.setattr(core, "_READ_BLOCK", 7)
    edges = [(u, u + d, 1 + (u * d) % 9) for u in range(12) for d in (1, 2) if u + d < 12]
    edges[-3] = (*edges[-3][:2], 2**70)
    nu = [x % 3 for x in range(12)]
    inst = PncInstance.from_edges(12, edges, nu)
    assert inst.graph.w.dtype == object
    for instance, payload in ((inst, {"edges": [list(e) for e in inst.graph.edges], "nu": nu}),
                              (PncInstance.from_edges(3, []), {"edges": []})):
        text = json.dumps({"n": instance.node_count, **payload}, separators=(",", ":")) + "\n"
        assert dumps_instance(instance) == text
        assert _load(loads_instance, text) == _load(json_loads_instance, text)


# numbers at the edges of a digit width, in int64 and past it
EDGE_NUMBERS = (1, 9, 10, 99, 100, 2**31, 2**32, 2**63 - 1, 2**63, 10**19, 2**70)


@st.composite
def writer_instances(draw):
    """A few edges whose endpoints and weights sit at digit-width edges, on
    up to 10,001 nodes, with intrinsic values or without."""
    n = draw(st.sampled_from((2, 11, 101, 1001, 10_001)))
    ends = st.sampled_from([x for x in (0, 9, 10, 99, 100, n - 1) if x < n]) | st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends).filter(lambda p: p[0] != p[1]), max_size=12))
    weight = st.sampled_from(EDGE_NUMBERS) | st.integers(1, 2**70)
    edges = {tuple(sorted(p)): draw(weight) for p in pairs}
    nu = None
    if draw(st.booleans()):
        nu = [0] * n
        for node, value in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 2**64)), max_size=4)):
            nu[node] = value
    return PncInstance.from_edges(n, [(u, v, w) for (u, v), w in edges.items()], nu)


@settings(max_examples=150, deadline=None)
@given(writer_instances(), st.integers(1, 5))
@example(PncInstance.from_edges(101, [(0, 9, 2**63 - 1), (9, 10, 1), (99, 100, 2**32)], [0] * 100 + [5]), 2)
@example(PncInstance.from_edges(11, [(0, 10, 10**19), (1, 2, 9), (3, 4, 99), (5, 6, 2**31)]), 1)
def test_dumps_is_json_dumps_in_any_blocks(instance, rows):
    # blocks of 1-5 edges give each block its own column widths
    graph = instance.graph
    payload = {"n": instance.node_count, "edges": [list(e) for e in graph.edges]}
    if instance.intrinsic.any():
        payload["nu"] = instance.intrinsic.tolist()
    with mock.patch.object(core, "_WRITE_ROWS", rows):
        assert dumps_instance(instance) == json.dumps(payload, separators=(",", ":")) + "\n"


def test_backwards_edge_in_a_late_block_names_its_own_index(monkeypatch):
    monkeypatch.setattr(core, "_READ_BLOCK", 16)
    edges = [[0, v, 1] for v in range(1, 40)]
    edges[33] = [34, 0, 1]
    edges[36] = [37, 0, 1]
    text = json.dumps({"n": 40, "edges": edges})
    with pytest.raises(ValueError, match=r"^edges\[33\]: endpoints must satisfy u < v$"):
        loads_instance(text)


def test_loads_round_trip_random():
    _round_trip_random()


def test_loads_round_trip_random_in_small_blocks(monkeypatch):
    monkeypatch.setattr(core, "_READ_BLOCK", 3)
    monkeypatch.setattr(core, "_WRITE_ROWS", 2)
    _round_trip_random()


def _round_trip_random():
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
    with pytest.raises(ValueError, match="'nu' must be a list of integers"):
        loads_instance('{"n":2,"edges":[],"nu":null}')  # nu may be omitted, not null
    with pytest.raises(ValueError, match="integer"):
        loads_instance('{"n":2,"edges":[[0,1,true]]}')
    with pytest.raises(ValueError, match=r"\(-9223372036854775809, 1\) out of range"):
        loads_instance('{"n":2,"edges":[[-9223372036854775809,1,1]]}')


def test_node_count_above_the_limit_raises_before_allocating():
    # the limit admits the largest graph a generator builds (a spider or a
    # path of 30,000,000 edges)
    assert core.NODE_LIMIT >= 30_000_001
    with pytest.raises(ValueError, match="above the node limit 33,554,432"):
        loads_instance('{"n": 10000000000000, "edges": []}')
    with pytest.raises(ValueError, match="node_count 33,554,433 is above the node limit"):
        WeightedGraph(core.NODE_LIMIT + 1, [])


SPACES = ("", "", " ", "\t", "\r\n", "\n  ")  # mostly none
ODD_TOKENS = ("-0", "00", "01", "-01", "1.0", "1e2", "true", "null", '"1"', "- 1", "1 2", "-", "--1", "1-2",
              "[]", "[5]", "{}", "NaN", str(2**63 - 1), str(2**63), str(10**19), str(-(2**63) - 1))
ODD_FIELDS = (("edges", "[]"), ("edges", "[5]"), ("edges", "[[0,1,1]]"), ("edges", "null"),
              ("edges", "[[0,1,1],5]"), ("x", '"\\"edges\\":[[0,1,1]]"'), ("nu", '[{"edges":[[0,1,1]]}]'),
              ("nu", '{"edges":[[0,1,1]]}'), ("nu", '"edges"'), ("é", '"ü☃"'),
              ("n", '"ü"'), ("\\u0065dges", "[[0,1,2]]"), ("nu", "null"))


@st.composite
def instance_texts(draw):
    """An instance file in random spacing and key order, with a few of its
    edge tokens, triples or fields changed in ways the format may not allow,
    and sometimes cut short."""
    space = lambda: draw(st.sampled_from(SPACES))  # noqa: E731
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    triples = [[str(u), str(v), str(draw(st.integers(1, 9)))] for u, v in chosen]
    for change in draw(st.lists(st.sampled_from(("token", "short", "long", "outside")), max_size=3)):
        at = draw(st.integers(0, len(triples)))
        if change == "outside":
            triples.insert(at, draw(st.sampled_from(("5", "[]", "[5]", "-0"))))
        elif at < len(triples) and isinstance(triples[at], list):
            triple = triples[at]
            if change == "token":
                triple[draw(st.integers(0, len(triple) - 1))] = draw(st.sampled_from(ODD_TOKENS))
            elif change == "short":
                del triple[-1]
            else:
                triple.append("1")
    edges = "[" + ",".join(
        space() + (item if isinstance(item, str)
                   else "[" + ",".join(space() + t + space() for t in item) + "]") + space()
        for item in triples
    ) + "]"
    fields = [("n", str(n)), ("edges", edges)]
    if draw(st.booleans()):
        fields.append(("nu", json.dumps(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))))
    fields += draw(st.lists(st.sampled_from(ODD_FIELDS), max_size=2))
    fields = draw(st.permutations(fields))
    text = space() + "{" + ",".join(
        f'{space()}"{key}"{space()}:{space()}{value}{space()}' for key, value in fields) + "}" + space()
    if draw(st.integers(0, 9)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


def _load(loader, text):
    """The instance with its weight dtype, or the ValueError's message."""
    try:
        instance = loader(text)
    except ValueError as exc:
        return str(exc)
    return instance, instance.graph.w.dtype, instance.intrinsic.tolist()


@settings(max_examples=300)
@given(instance_texts())
@example('{"n":2,"edges":[5],"edges":[[0,1,1]]}')
@example('{"n":2,"edges":[[0,1,1]],"edges":null}')
@example('{"n":2,"edges":[[0,1,1]],"\\u0065dges":[]}')
@example('{"n":1,"edges":[5]}')
@example('{"n":3,"edges":[[0,1-2,1]]}')
@example('{"n":3,"edges":[[0,1,-]]}')
@example('{"n":3,"edges":[[0,1,00]]}')
@example('{"n":3,"edges":[[0,1,1] [1,2,1]]}')
@example('{"n":3,"edges":[[0,1,1],[1,2,1]],}')
@example('{"n":2,"edges":[[0,1,1]]} x')
@example('\ufeff{"n":1}')
@example('[1]')
def test_loader_matches_json_reference(text):
    # Same instance (and weight dtype), or the same ValueError message, as
    # the loader that reads the whole file with json.loads.
    assert _load(loads_instance, text) == _load(json_loads_instance, text)


@settings(max_examples=150)
@given(instance_texts(), st.integers(1, 12))
@example('{"n":3,"edges":[[0,1,1] [1,2,1]]}', 9)
@example('{"n":3,"edges":[[0,1,-1],[1,2,1]]}', 9)
@example('{"n":3,"edges":[[0,1,1],01,[1,2,1]]}', 10)
@example('{"n":3,"edges":[[0,1,1],[1,2,10000000000000000000]]}', 9)
@example('{"n":3,"edges":[[0,1,1] ,[1,2,1]\r\n,[0,2,1]]}', 5)  # no "]," to cut at
@example('{"n":3,"edges":[[0,1,1],[1,2,123456789012]]}', 4)  # a triple longer than a block
@example('{"n":3,"edges":[[0,1,1],[1,2,1]]}', 1)  # a cut on the list's "["
@example('{"n":3,"edges":[[0,1,1],[1,2,1]]}', 8)  # a cut on the list's "]"
def test_loader_matches_json_reference_in_small_blocks(text, block):
    # blocks of a few characters cut the list beside every kind of byte
    with mock.patch.object(core, "_READ_BLOCK", block):
        assert _load(loads_instance, text) == _load(json_loads_instance, text)


@pytest.mark.parametrize("weight", [5, 2**63 - 1, 2**63, 10**19])
def test_loader_keeps_big_numbers_exact(weight):
    # np.fromstring would clamp the last two to 2**63 - 1 without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        graph = loads_instance(f'{{"n":2,"edges":[[0,1,{weight}]]}}').graph
    assert graph.w.tolist() == [weight]
    assert graph.w.dtype == (object if weight > core.INT64_MAX else np.int64)


@pytest.mark.parametrize("spacing", ["", " \r\n\t"])
def test_valid_file_edges_never_reach_json(monkeypatch, spacing):
    pairs = [(u, v) for u in range(60) for v in range(u + 1, 60)][:1000]
    instance = PncInstance.from_edges(60, [(u, v, 1 + (u * v) % 7) for u, v in pairs], range(60))
    text = dumps_instance(instance).replace(",", "," + spacing).replace("[", "[" + spacing)
    body_at = text.index('"edges":') + len('"edges":')
    body = text[body_at:text.index("]]", body_at) + 2]
    texts, starts = [], []
    loads, raw_decode = core.json.loads, core._DECODER.raw_decode
    monkeypatch.setattr(core.json, "loads", lambda s, **kw: texts.append(s) or loads(s, **kw))
    monkeypatch.setattr(core._DECODER, "raw_decode", lambda s, at=0: starts.append(at) or raw_decode(s, at))
    assert loads_instance(text) == instance
    # json decodes the keys, "n" and "nu", and never reads the edge list
    assert all(body not in s for s in texts)
    assert len(starts) == 5 and body_at not in starts


@pytest.mark.parametrize("data", [
    b'{"n":2,\r\n"edges":[[0,1,1]],\r\n\r"nu":[0,1],}',  # the error's line and column count "\r\n" once
    b'{"n":2,\r\n"edges":[[0,1,1]],\xff}',  # not UTF-8
    b'{"n":2,"edges":[[0,1,1]],"nu":[0,"\xc3\xa9\xff"]}',
    b'\xef\xbb\xbf{"n":1}',
    b'{"n":2,"edges":[[0,1,1]\r\n ]}\r x',
    b'{"n":3,"edges":[[0,1,1],[1,2,1]\r]}\r\n',
    b'{"n":2,"\xc3\xa9dges":[[0,1,1]]}',
])
def test_file_reads_as_text_mode_reads_it(tmp_path, data):
    # the loader reads a file's bytes; what it accepts and every error's text
    # are those of loading the text that text mode reads from the file
    path = tmp_path / "inst.json"
    path.write_bytes(data)

    def through_text(path):
        with open(path, encoding="utf-8") as fh:
            return loads_instance(fh.read())

    assert _load(load_instance, path) == _load(through_text, path)


def test_file_round_trip(tmp_path):
    from netprice import dump_instance

    inst = PncInstance.from_edges(4, [(0, 3, 2)], (1, 0, 0, 2))
    path = tmp_path / "inst.json"
    dump_instance(inst, str(path))
    assert load_instance(str(path)) == inst
