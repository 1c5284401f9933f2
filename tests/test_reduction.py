"""CNF reduction: parsing, construction, pricing, and gadget verification."""

import dataclasses
import itertools
import tracemalloc

import pytest

from netprice import (
    CnfError,
    CnfFormula,
    PncInstance,
    artifact_metadata,
    assignment_pricing,
    best_assignment_revenue,
    build_reduction,
    clause_gadget_edges,
    clause_window_round,
    exact_opt,
    is_satisfying,
    parse_dimacs,
    simulate,
    variable_gadget_edges,
    verify_gadget_claims,
)

SAMPLE_TEXT = """\
c three variables, three clauses
p cnf 3 3
1 2 3 0
-1 -2 3 0
1 -2 -3 0
"""

SAMPLE_CLAUSES = ((1, 2, 3), (-1, -2, 3), (1, -2, -3))
SAMPLE_THRESHOLD = 172869


@pytest.fixture(scope="module")
def sample():
    return build_reduction(CnfFormula(3, SAMPLE_CLAUSES))


# --- formula restrictions ------------------------------------------------------


def test_formula_accepts_sample():
    formula = CnfFormula(3, SAMPLE_CLAUSES)
    assert formula.occurrences(1) == (2, 1)
    assert formula.occurrences(2) == (1, 2)
    assert formula.occurrences(3) == (2, 1)
    # lists, or one pass of an iterator, are kept as tuples
    assert CnfFormula(3, iter([list(clause) for clause in SAMPLE_CLAUSES])) == formula


def test_formula_size_floors():
    with pytest.raises(CnfError, match="at least 3 variables"):
        CnfFormula(2, SAMPLE_CLAUSES)
    with pytest.raises(CnfError, match="at least 3 clauses"):
        CnfFormula(3, SAMPLE_CLAUSES[:2])


def test_formula_clause_shape():
    with pytest.raises(CnfError, match="clause 2: has 2 literals"):
        CnfFormula(3, ((1, 2, 3), (-1, -2), (1, -2, -3)))
    with pytest.raises(CnfError, match="clause 1: variables must be distinct"):
        CnfFormula(3, ((1, -1, 2), (1, 2, 3), (-2, -3, 1)))
    with pytest.raises(CnfError, match="clause 2: literal 4 out of range"):
        CnfFormula(3, ((1, 2, 3), (4, -1, -2), (1, -2, -3)))
    with pytest.raises(CnfError, match="literal 0 out of range"):
        CnfFormula(3, ((1, 2, 0), (-1, -2, 3), (1, -2, -3)))


@pytest.mark.parametrize("count, clauses, message", [
    (3, ((1, 2, 3), (-1, -2, 3), (1.0, -2, -3)), r"clause 3: literals must be integers, got \(1\.0, -2, -3\)"),
    (3, ((1, 2, 3), (True, -2, 3), (1, -2, -3)), r"clause 2: literals must be integers, got \(True, -2, 3\)"),
    (3, ((1, 2, 3), (-1, -2, 3), (None, -2, -3)), "clause 3: literals must be integers"),
    (3, (("1", 2, 3), (-1, -2, 3), (1, -2, -3)), "clause 1: literals must be integers"),
    (3.0, ((1, 2, 3), (-1, -2, 3), (1, -2, -3)), "variable count must be an integer, got 3.0"),
], ids=["float", "bool", "none", "str", "float-count"])
def test_formula_rejects_non_integers(count, clauses, message):
    # bool is an int subclass, and abs() takes a float: both would pass as
    # literals unless checked
    with pytest.raises(CnfError, match=message):
        CnfFormula(count, clauses)


def test_formula_occurrence_rules():
    with pytest.raises(CnfError, match="variable 1: occurs 4 times"):
        CnfFormula(
            4, ((1, 2, 3), (-1, -2, 3), (1, -3, 4), (1, 2, -4))
        )
    with pytest.raises(CnfError, match="variable 3: missing a negative occurrence"):
        CnfFormula(3, ((1, 2, 3), (-1, -2, 3), (1, -2, 3)))
    with pytest.raises(CnfError, match="variable 4: never occurs"):
        CnfFormula(4, SAMPLE_CLAUSES)


def test_is_satisfying():
    formula = CnfFormula(3, SAMPLE_CLAUSES)
    assert is_satisfying(formula, (True, True, True))
    assert not is_satisfying(formula, (False, False, False))
    assert not is_satisfying(formula, (True, True, False))
    with pytest.raises(ValueError, match="every variable exactly once"):
        is_satisfying(formula, (True, True))


# --- DIMACS parsing -------------------------------------------------------------


def test_parse_sample():
    formula = parse_dimacs(SAMPLE_TEXT)
    assert formula.variable_count == 3
    assert formula.clauses == SAMPLE_CLAUSES


def test_parse_multiline_clauses_and_terminator():
    text = "p cnf 3 3\n1 2\n3 0 -1 -2 3 0\n1 -2 -3 0\n%\nstray garbage after\n"
    assert parse_dimacs(text).clauses == SAMPLE_CLAUSES


def test_parse_comments_ignored():
    text = "c intro\nc more\n" + SAMPLE_TEXT.splitlines()[1] + "\nc mid\n" + "\n".join(
        SAMPLE_TEXT.splitlines()[2:]
    )
    assert parse_dimacs(text).clauses == SAMPLE_CLAUSES


def test_parse_header_errors():
    with pytest.raises(CnfError, match="missing 'p cnf' header"):
        parse_dimacs("c nothing here\n")
    with pytest.raises(CnfError, match="line 2: duplicate header"):
        parse_dimacs("p cnf 3 3\np cnf 3 3\n")
    with pytest.raises(CnfError, match="expected 'p cnf"):
        parse_dimacs("p sat 3 3\n")
    with pytest.raises(CnfError, match="non-integer header counts"):
        parse_dimacs("p cnf three 3\n")
    with pytest.raises(CnfError, match="header counts must be positive"):
        parse_dimacs("p cnf 0 3\n")
    with pytest.raises(CnfError, match="line 1: clause before 'p cnf' header"):
        parse_dimacs("1 2 3 0\n")


def test_parse_clause_errors():
    with pytest.raises(CnfError, match="invalid token 'two'"):
        parse_dimacs("p cnf 3 3\n1 two 3 0\n")
    with pytest.raises(CnfError, match="clause 1 has 2 literals"):
        parse_dimacs("p cnf 3 3\n1 2 0\n")
    with pytest.raises(CnfError, match="literal 7 out of range for 3 variables"):
        parse_dimacs("p cnf 3 3\n1 2 7 0\n")
    with pytest.raises(CnfError, match="line 4: unterminated clause"):
        parse_dimacs("p cnf 3 3\n1 2 3 0\n-1 -2 3 0\n1 -2\n")
    with pytest.raises(CnfError, match="header declares 4 clauses, found 3"):
        parse_dimacs("p cnf 3 4\n1 2 3 0\n-1 -2 3 0\n1 -2 -3 0\n")


def test_parse_applies_formula_restrictions():
    with pytest.raises(CnfError, match="missing a positive occurrence"):
        parse_dimacs("p cnf 3 3\n-1 2 3 0\n-1 -2 3 0\n-1 -2 -3 0\n")


def test_header_variable_count_costs_no_memory():
    # Counts are kept only for variables that occur, so a header naming ten
    # million variables over three clauses is turned down, with the error
    # the first bad variable gives, without a list per variable (two such
    # lists trace 160 MB).
    clauses = "1 2 3 0\n-1 -2 3 0\n1 -2 -3 0\n"
    tracemalloc.start()
    try:
        with pytest.raises(CnfError, match="variable 4: never occurs"):
            parse_dimacs("p cnf 10000000 3\n" + clauses)
        with pytest.raises(CnfError, match="variable 3: missing a negative occurrence"):
            CnfFormula(10_000_000, ((1, 2, 3), (-1, -2, 3), (1, -2, 3)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


# --- construction ----------------------------------------------------------------


def test_gadget_edge_helpers():
    assert variable_gadget_edges(0, 1, 2, 3, 4, 10) == [
        (0, 2, 30),
        (0, 3, 30),
        (2, 3, 50),
        (2, 4, 20),
        (3, 4, 20),
        (4, 1, 20),
    ]
    assert clause_gadget_edges(0, 1, 2, 10) == [(0, 1, 10), (0, 2, 10), (1, 2, 11)]


def test_variable_gadget_standalone_revenue():
    # with no clause stubs the two intended price sets both collect 24 * scale
    s = 7
    gadget = PncInstance.from_edges(5, variable_gadget_edges(0, 1, 2, 3, 4, s))
    assert gadget.initial_values.tolist() == [6 * s, 2 * s, 10 * s, 10 * s, 6 * s]
    keep_x = simulate(gadget, (10 * s, 2 * s))
    assert keep_x.revenue == 24 * s
    assert 0 in keep_x.residual and 1 not in keep_x.residual
    sell_x = simulate(gadget, (6 * s,))
    assert sell_x.revenue == 24 * s
    assert 0 not in sell_x.residual and 1 in sell_x.residual
    # those two patterns are the standalone optimum
    assert exact_opt(gadget).revenue == 24 * s


def test_sample_artifact_layout(sample):
    assert sample.instance.node_count == 24
    assert sample.instance.graph.edge_count == 36
    assert sample.clause_scale == 46
    assert sample.variable_scales == (5781, 1156, 231)
    assert sample.threshold == SAMPLE_THRESHOLD
    assert sample.literal_nodes == ((0, 1), (5, 6), (10, 11))
    assert sample.auxiliary_nodes == ((2, 3, 4), (7, 8, 9), (12, 13, 14))
    assert sample.clause_nodes == ((15, 16, 17), (18, 19, 20), (21, 22, 23))


def test_sample_scale_chain_recomputed(sample):
    n, m = 3, 3
    a = 5 * m * n + 1
    scales = [5 * a + 1]
    for _ in range(n - 1):
        scales.insert(0, 5 * scales[0] + 1)
    assert sample.clause_scale == a
    assert sample.variable_scales == tuple(scales)
    assert sample.threshold == 24 * sum(scales) + m * (6 * a + 3)


def test_sample_initial_values(sample):
    values = sample.instance.initial_values
    a = sample.clause_scale
    for i, (scale, (x, not_x), (y1, y2, y3)) in enumerate(
        zip(sample.variable_scales, sample.literal_nodes, sample.auxiliary_nodes),
        start=1,
    ):
        pos, neg = sample.formula.occurrences(i)
        assert values[x] == 6 * scale + pos
        assert values[not_x] == 2 * scale + neg
        assert values[y1] == values[y2] == 10 * scale
        assert values[y3] == 6 * scale
    for c, d, e in sample.clause_nodes:
        assert values[c] == 2 * a + 3
        assert values[d] == values[e] == 2 * a + 1


def test_bands_do_not_overlap(sample):
    # every gadget's whole price band sits strictly above the next one's
    bands = [(10 * s, 2 * s) for s in sample.variable_scales]
    bands.append((2 * sample.clause_scale + 3, 2 * sample.clause_scale + 1))
    for (_, low), (high, _) in zip(bands, bands[1:]):
        assert low > high


def test_parameters_fit_in_64_bits():
    # 12 variables and 12 clauses is far beyond what the exhaustive checks
    # exercise; even there every price fits comfortably in a signed 64-bit int
    clauses = []
    for g in range(4):
        a, b, c = 3 * g + 1, 3 * g + 2, 3 * g + 3
        clauses.extend([(a, b, c), (-a, -b, -c), (a, -b, c)])
    artifact = build_reduction(CnfFormula(12, tuple(clauses)))
    assert artifact.instance.node_count == 96
    assert artifact.instance.graph.edge_count == 144
    assert 10 * artifact.variable_scales[0] < 2**63
    assert artifact.threshold < 2**63


# --- assignment pricing -----------------------------------------------------------


def test_assignment_pricing_shape(sample):
    prices = assignment_pricing(sample, (True, False, True))
    # TRUE gadgets contribute two prices, FALSE ones a single price,
    # plus the final clause-window price
    assert len(prices) == 2 + 1 + 2 + 1
    assert list(prices) == sorted(prices, reverse=True)
    assert len(set(prices)) == len(prices)
    assert prices[-1] == 2 * sample.clause_scale + 1
    with pytest.raises(ValueError, match="every variable exactly once"):
        assignment_pricing(sample, (True, False))


def test_threshold_reached_iff_satisfying(sample):
    for bits in itertools.product((False, True), repeat=3):
        revenue = simulate(sample.instance, assignment_pricing(sample, bits)).revenue
        if is_satisfying(sample.formula, bits):
            assert revenue == SAMPLE_THRESHOLD
        else:
            assert revenue < SAMPLE_THRESHOLD


def test_falsifying_assignment_loses_one_clause(sample):
    # all-false falsifies only the first clause, whose c node then never buys
    trace = simulate(sample.instance, assignment_pricing(sample, (False,) * 3))
    assert trace.revenue == SAMPLE_THRESHOLD - (2 * sample.clause_scale + 1)
    c1 = sample.clause_nodes[0][0]
    assert c1 in trace.residual


def test_clause_window_round(sample):
    prices = assignment_pricing(sample, (True, True, True))
    trace = simulate(sample.instance, prices)
    assert clause_window_round(sample, trace) == len(prices) - 1
    prefix_trace = simulate(sample.instance, prices[:-1])
    assert clause_window_round(sample, prefix_trace) is None


def test_best_assignment_search(sample):
    revenue, assignment = best_assignment_revenue(sample)
    assert revenue == SAMPLE_THRESHOLD
    assert is_satisfying(sample.formula, assignment)


def test_best_assignment_guard():
    clauses = []
    for g in range(6):
        a, b, c = 3 * g + 1, 3 * g + 2, 3 * g + 3
        clauses.extend([(a, b, c), (-a, -b, -c)])
    big = build_reduction(CnfFormula(18, tuple(clauses)))
    with pytest.raises(ValueError, match="16 variables"):
        best_assignment_revenue(big)


# --- gadget verification -----------------------------------------------------------


def test_gadget_claims_hold(sample):
    report = verify_gadget_claims(sample)
    assert report.ok
    assert len(report.checks) == 9 * 3 + 5 * 3
    assert report.failures() == ()
    assert report.describe().endswith("42/42 gadget checks passed")


def test_gadget_claims_catch_tampering(sample):
    # weaken the clique edge between y1 and y2 of variable 1: the keep-x
    # pattern then can no longer collect its full 24 * scale
    s = sample.variable_scales[0]
    y1, y2, _ = sample.auxiliary_nodes[0]
    edges = [
        (u, v, w - 1 if (u, v) == (y1, y2) else w)
        for u, v, w in sample.instance.graph.edges
    ]
    tampered = dataclasses.replace(
        sample, instance=PncInstance.from_edges(24, edges)
    )
    report = verify_gadget_claims(tampered)
    assert not report.ok
    assert any(check.gadget == "variable 1" for check in report.failures())
    assert "FAIL" in report.describe()


def test_metadata_round_trip(sample):
    meta = artifact_metadata(sample)
    assert meta["variables"] == 3
    assert meta["clauses"] == [list(c) for c in SAMPLE_CLAUSES]
    assert meta["clause_scale"] == 46
    assert meta["variable_scales"] == [5781, 1156, 231]
    assert meta["threshold"] == SAMPLE_THRESHOLD
    assert meta["node_count"] == 24
    assert meta["edge_count"] == 36
    assert meta["literal_nodes"] == [[0, 1], [5, 6], [10, 11]]
    assert len(meta["auxiliary_nodes"]) == len(meta["clause_nodes"]) == 3
