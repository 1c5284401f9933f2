"""CNF-to-pricing reduction with per-gadget verification.

Maps a restricted CNF formula (exactly three distinct variables per clause,
at most three occurrences per variable, both polarities present) to a
weighted instance whose optimal iterative-pricing revenue reaches a
computable threshold exactly when the formula is satisfiable. Includes a
DIMACS parser, the canonical price sequence induced by a truth assignment,
and a verifier that replays every gadget's intended sale pattern on the
built instance.

Two limits of scope. Every formula in the accepted class is satisfiable:
by Hall's theorem each clause can be matched to a variable of its own
(C. A. Tovey, "A simplified NP-complete satisfiability problem", Discrete
Appl. Math. 8, 1984), so only the side where the threshold is reached can
be exercised. And the paper's hardness result is for unweighted trees with
uniform intrinsic values, while this construction is weighted, with weight
scales of about 5^n; it is not the paper's reduction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .core import PncInstance, PriceSequence, SaleTrace, _all_ints, _as_tuple, _as_type
from .engine import simulate

Clause = tuple[int, int, int]


class CnfError(ValueError):
    """Malformed DIMACS text or a violated formula restriction."""


@dataclass(frozen=True)
class CnfFormula:
    """CNF formula under the reduction's occurrence restrictions.

    Variables are 1-based; a negative literal negates its variable. Every
    clause names three distinct variables; every variable occurs at most
    three times overall and at least once in each polarity. ``clauses`` is
    kept as a tuple of tuples of Python ints, as is the variable count: a
    numpy integer reads as the int it holds.
    """

    variable_count: int
    clauses: tuple[Clause, ...]

    def __post_init__(self) -> None:
        if not _all_ints((self.variable_count,)):
            raise CnfError(f"variable count must be an integer, got {self.variable_count!r}")
        object.__setattr__(self, "variable_count", int(self.variable_count))
        if self.variable_count < 3:
            raise CnfError("at least 3 variables are required")
        clauses = _as_tuple(self.clauses, "clauses", CnfError)
        clauses = tuple(_as_tuple(clause, f"clause {index}", CnfError)
                        for index, clause in enumerate(clauses, start=1))
        if len(clauses) < 3:
            raise CnfError("at least 3 clauses are required")
        # counts per variable that occurs, so memory follows the clauses,
        # not the header's variable count
        positive: Counter[int] = Counter()
        negative: Counter[int] = Counter()
        for index, clause in enumerate(clauses, start=1):
            if len(clause) != 3:
                raise CnfError(f"clause {index}: has {len(clause)} literals, expected 3")
            if not _all_ints(clause):
                raise CnfError(f"clause {index}: literals must be integers, got {clause!r}")
            for literal in clause:
                variable = abs(literal)
                if literal == 0 or variable > self.variable_count:
                    raise CnfError(f"clause {index}: literal {literal} out of range")
                if literal > 0:
                    positive[variable] += 1
                else:
                    negative[variable] += 1
            if len({abs(literal) for literal in clause}) != 3:
                raise CnfError(f"clause {index}: variables must be distinct")
        # At most 3 * len(clauses) variables occur, so when the header names
        # more, this loop stops at variable 3 * len(clauses) + 1 at the latest.
        for variable in range(1, self.variable_count + 1):
            pos, neg = positive[variable], negative[variable]
            if pos + neg == 0:
                raise CnfError(f"variable {variable}: never occurs")
            if pos + neg > 3:
                raise CnfError(f"variable {variable}: occurs {pos + neg} times, limit is 3")
            if pos == 0 or neg == 0:
                missing = "positive" if pos == 0 else "negative"
                raise CnfError(f"variable {variable}: missing a {missing} occurrence")
        object.__setattr__(self, "clauses", tuple(tuple(map(int, clause)) for clause in clauses))

    def occurrences(self, variable: int) -> tuple[int, int]:
        """Counts of positive and negative occurrences of ``variable``."""
        pos = sum(1 for clause in self.clauses for lit in clause if lit == variable)
        neg = sum(1 for clause in self.clauses for lit in clause if lit == -variable)
        return pos, neg


def is_satisfying(formula: CnfFormula, assignment: Sequence[bool]) -> bool:
    """Whether ``assignment`` (index i-1 holds variable i) satisfies every clause."""
    assignment = _as_tuple(assignment, "assignment")
    if len(assignment) != _as_type(formula, CnfFormula, "formula").variable_count:
        raise ValueError("assignment must cover every variable exactly once")
    return all(
        any((literal > 0) == bool(assignment[abs(literal) - 1]) for literal in clause)
        for clause in formula.clauses
    )


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF text ('p cnf' header, zero-terminated clauses).

    Comment lines start with 'c'; a '%' line ends the input. Clauses may
    span lines. Raises CnfError with a line number for syntax problems,
    with a clause or variable index for violated restrictions, and for text
    that is not a str.
    """
    if not isinstance(text, str):
        raise CnfError(f"CNF text must be a str, got {type(text).__name__}")
    variable_count = clause_target = None
    clauses: list[Clause] = []
    pending: list[int] = []
    pending_line = 0
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break
        if line.startswith("p"):
            if variable_count is not None:
                raise CnfError(f"line {line_number}: duplicate header")
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise CnfError(f"line {line_number}: expected 'p cnf <vars> <clauses>'")
            try:
                variable_count, clause_target = int(fields[2]), int(fields[3])
            except ValueError:
                raise CnfError(f"line {line_number}: non-integer header counts") from None
            if variable_count < 1 or clause_target < 1:
                raise CnfError(f"line {line_number}: header counts must be positive")
            continue
        if variable_count is None:
            raise CnfError(f"line {line_number}: clause before 'p cnf' header")
        for token in line.split():
            try:
                literal = int(token)
            except ValueError:
                raise CnfError(f"line {line_number}: invalid token {token!r}") from None
            if literal == 0:
                if len(pending) != 3:
                    raise CnfError(
                        f"line {line_number}: clause {len(clauses) + 1} has "
                        f"{len(pending)} literals, expected 3"
                    )
                clauses.append((pending[0], pending[1], pending[2]))
                pending = []
            else:
                if abs(literal) > variable_count:
                    raise CnfError(
                        f"line {line_number}: literal {literal} out of range "
                        f"for {variable_count} variables"
                    )
                if not pending:
                    pending_line = line_number
                pending.append(literal)
    if variable_count is None:
        raise CnfError("missing 'p cnf' header")
    if pending:
        raise CnfError(f"line {pending_line}: unterminated clause")
    if len(clauses) != clause_target:
        raise CnfError(f"header declares {clause_target} clauses, found {len(clauses)}")
    return CnfFormula(variable_count, clauses)


def variable_gadget_edges(
    x: int, not_x: int, y1: int, y2: int, y3: int, scale: int
) -> list[tuple[int, int, int]]:
    """Internal edges of one variable gadget at weight scale ``scale``.

    Initial values: x = 6*scale + stubs, not_x = 2*scale + stubs,
    y1 = y2 = 10*scale, y3 = 6*scale (stubs are unit links added per
    clause occurrence, at most two per literal node).
    """
    if not _all_ints((x, not_x, y1, y2, y3, scale)):
        raise ValueError(f"gadget nodes and scale must be integers, got {(x, not_x, y1, y2, y3, scale)!r}")
    x, not_x, y1, y2, y3, scale = map(int, (x, not_x, y1, y2, y3, scale))
    return [
        (x, y1, 3 * scale),
        (x, y2, 3 * scale),
        (y1, y2, 5 * scale),
        (y1, y3, 2 * scale),
        (y2, y3, 2 * scale),
        (y3, not_x, 2 * scale),
    ]


def clause_gadget_edges(c: int, d: int, e: int, scale: int) -> list[tuple[int, int, int]]:
    """Internal edges of one clause gadget: d and e are worth 2*scale + 1,
    c is worth 2*scale plus one unit per still-unsold literal node."""
    if not _all_ints((c, d, e, scale)):
        raise ValueError(f"gadget nodes and scale must be integers, got {(c, d, e, scale)!r}")
    c, d, e, scale = map(int, (c, d, e, scale))
    return [(c, d, scale), (c, e, scale), (d, e, scale + 1)]


@dataclass(frozen=True)
class ReductionArtifact:
    """Built instance plus the parameters and node maps needed to reason about it.

    ``variable_scales[i-1]`` is the weight scale of variable gadget i; the
    scales drop by a factor greater than 5 per variable, and the smallest
    exceeds five times ``clause_scale``, so each gadget trades in its own
    disjoint price band. ``threshold`` is the revenue attainable exactly
    when the formula is satisfiable.
    """

    formula: CnfFormula
    instance: PncInstance
    clause_scale: int
    variable_scales: tuple[int, ...]
    threshold: int
    literal_nodes: tuple[tuple[int, int], ...]
    auxiliary_nodes: tuple[tuple[int, int, int], ...]
    clause_nodes: tuple[tuple[int, int, int], ...]


def build_reduction(formula: CnfFormula) -> ReductionArtifact:
    """Build the pricing instance for ``formula``.

    Nodes 5(i-1)..5(i-1)+4 host variable gadget i as (x, not_x, y1, y2, y3);
    nodes 5n+3(j-1).. host clause gadget j as (c, d, e); c carries a unit
    link to each of its clause's three literal nodes. Scales are the minimal
    chain a = 5mn+1, a_n = 5a+1, a_i = 5a_{i+1}+1.
    """
    n = _as_type(formula, CnfFormula, "formula").variable_count
    m = len(formula.clauses)
    clause_scale = 5 * m * n + 1
    scales = [0] * n
    scales[n - 1] = 5 * clause_scale + 1
    for i in range(n - 2, -1, -1):
        scales[i] = 5 * scales[i + 1] + 1

    literal_nodes = tuple((5 * i, 5 * i + 1) for i in range(n))
    auxiliary_nodes = tuple((5 * i + 2, 5 * i + 3, 5 * i + 4) for i in range(n))
    clause_base = 5 * n
    clause_nodes = tuple(
        (clause_base + 3 * j, clause_base + 3 * j + 1, clause_base + 3 * j + 2)
        for j in range(m)
    )

    edges: list[tuple[int, int, int]] = []
    for i in range(n):
        x, not_x = literal_nodes[i]
        y1, y2, y3 = auxiliary_nodes[i]
        edges.extend(variable_gadget_edges(x, not_x, y1, y2, y3, scales[i]))
    for j, clause in enumerate(formula.clauses):
        c, d, e = clause_nodes[j]
        edges.extend(clause_gadget_edges(c, d, e, clause_scale))
        for literal in clause:
            pos, neg = literal_nodes[abs(literal) - 1]
            node = pos if literal > 0 else neg
            edges.append((min(node, c), max(node, c), 1))

    instance = PncInstance.from_edges(5 * n + 3 * m, edges)
    threshold = 24 * sum(scales) + m * (6 * clause_scale + 3)
    return ReductionArtifact(
        formula=formula,
        instance=instance,
        clause_scale=clause_scale,
        variable_scales=tuple(scales),
        threshold=threshold,
        literal_nodes=literal_nodes,
        auxiliary_nodes=auxiliary_nodes,
        clause_nodes=clause_nodes,
    )


def assignment_pricing(artifact: ReductionArtifact, assignment: Sequence[bool]) -> PriceSequence:
    """Price sequence induced by a truth assignment.

    Variable gadget i contributes (10*a_i, 2*a_i) when variable i is TRUE
    (selling y1, y2, then y3 and not_x, leaving x unsold) and (6*a_i,) when
    FALSE (selling x, y1, y2, y3, leaving not_x unsold); one final price
    2*a+1 clears every clause gadget. The scale chain makes the merged
    sequence strictly decreasing. Simulated revenue equals the artifact's
    threshold exactly when the assignment satisfies the formula.
    """
    assignment = _as_tuple(assignment, "assignment")
    if len(assignment) != len(_as_type(artifact, ReductionArtifact, "artifact").variable_scales):
        raise ValueError("assignment must cover every variable exactly once")
    prices: list[int] = []
    for value, scale in zip(assignment, artifact.variable_scales):
        if value:
            prices.extend((10 * scale, 2 * scale))
        else:
            prices.append(6 * scale)
    prices.append(2 * artifact.clause_scale + 1)
    ordered = tuple(sorted(prices, reverse=True))
    if any(high <= low for high, low in zip(ordered, ordered[1:])):
        raise RuntimeError(f"assignment prices {ordered} do not strictly decrease")
    return ordered


def clause_window_round(artifact: ReductionArtifact, trace: SaleTrace) -> int | None:
    """Index of the first round priced inside the clause band (<= 2*a+3)."""
    top = 2 * _as_type(artifact, ReductionArtifact, "artifact").clause_scale + 3
    prices = _as_type(trace, SaleTrace, "trace").prices.tolist()
    return next((index for index, price in enumerate(prices) if price <= top), None)


@dataclass(frozen=True)
class GadgetCheck:
    """One replayed scenario: a price sequence with its expected outcome.

    ``expected_sold`` pins down whether specific nodes must (or must not)
    end up sold; revenue is attributed to the gadget's own nodes only.
    """

    gadget: str
    prices: PriceSequence
    expected_revenue: int
    observed_revenue: int
    expected_sold: tuple[tuple[str, bool], ...]
    observed_sold: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return (
            self.observed_revenue == self.expected_revenue
            and self.observed_sold == self.expected_sold
        )

    def describe(self) -> str:
        status = "ok " if self.passed else "FAIL"
        parts = [
            f"{status} {self.gadget}: prices {list(self.prices)}",
            f"revenue {self.observed_revenue} (expected {self.expected_revenue})",
        ]
        for (label, expected), (_, observed) in zip(self.expected_sold, self.observed_sold):
            mark = "" if expected == observed else " <- MISMATCH"
            parts.append(f"{label} sold={observed} (expected {expected}){mark}")
        return "; ".join(parts)


@dataclass(frozen=True)
class GadgetReport:
    checks: tuple[GadgetCheck, ...]

    @property
    def ok(self) -> bool:
        return all(check.passed for check in self.checks)

    def failures(self) -> tuple[GadgetCheck, ...]:
        return tuple(check for check in self.checks if not check.passed)

    def describe(self) -> str:
        lines = [check.describe() for check in self.checks]
        lines.append(
            f"{len(self.checks) - len(self.failures())}/{len(self.checks)} gadget checks passed"
        )
        return "\n".join(lines)


def _run_check(artifact: ReductionArtifact, gadget: str, prices: Sequence[int], members: frozenset[int],
               expected_revenue: int, expected_sold: Sequence[tuple[str, int, bool]]) -> GadgetCheck:
    trace = simulate(artifact.instance, tuple(prices))
    buyers, ends = trace.buyers.tolist(), trace.ends.tolist()
    return GadgetCheck(
        gadget=gadget,
        prices=tuple(prices),
        expected_revenue=expected_revenue,
        observed_revenue=sum(price * len(members.intersection(buyers[a:b]))
                             for price, a, b in zip(trace.prices.tolist(), ends, ends[1:])),
        expected_sold=tuple((label, want) for label, _, want in expected_sold),
        observed_sold=tuple((label, node not in trace.residual) for label, node, _ in expected_sold),
    )


def verify_gadget_claims(artifact: ReductionArtifact) -> GadgetReport:
    """Replay every gadget's intended sale patterns on the built instance.

    For each variable gadget the candidate price sets inside its band are
    simulated: the two assignment sets must collect exactly 24*a_i with the
    stated literal-node outcome, every other normal candidate strictly
    less. For each clause gadget, revenue must be 6*a+3 exactly when some
    literal node is unsold and the price 2*a+1 is posted, and lower under
    falsified prefixes, shifted prices, or a split window. Cross-gadget
    interference is impossible at these prices, so each scenario isolates
    its gadget even though the whole instance is simulated.
    """
    checks: list[GadgetCheck] = []
    a = _as_type(artifact, ReductionArtifact, "artifact").clause_scale
    n = artifact.formula.variable_count

    for i in range(1, n + 1):
        s = artifact.variable_scales[i - 1]
        h_pos, h_neg = artifact.formula.occurrences(i)
        x, not_x = artifact.literal_nodes[i - 1]
        members = frozenset((x, not_x) + artifact.auxiliary_nodes[i - 1])
        x_sold = ("x", x, True)
        x_kept = ("x", x, False)
        nx_sold = ("not_x", not_x, True)
        nx_kept = ("not_x", not_x, False)
        scenarios = [
            ((10 * s, 2 * s), 24 * s, [x_kept, nx_sold]),
            ((6 * s,), 24 * s, [x_sold, nx_kept]),
            ((10 * s,), 20 * s, [x_kept, nx_kept]),
            ((6 * s + h_pos,), 18 * s + 3 * h_pos, [x_sold, nx_kept]),
            ((6 * s + h_pos, 2 * s + h_neg), 20 * s + 3 * h_pos + h_neg, [x_sold, nx_sold]),
            ((6 * s + h_pos, 2 * s), 22 * s + 3 * h_pos, [x_sold, nx_sold]),
            ((2 * s + h_neg,), 10 * s + 5 * h_neg, [x_sold, nx_sold]),
            ((2 * s + h_neg, 2 * s), 10 * s + 5 * h_neg, [x_sold, nx_sold]),
            ((2 * s,), 10 * s, [x_sold, nx_sold]),
        ]
        for prices, expected, sold in scenarios:
            if prices not in ((10 * s, 2 * s), (6 * s,)) and expected >= 24 * s:
                raise RuntimeError(f"variable {i}: off-pattern prices {prices} expect {expected}")
            checks.append(_run_check(artifact, f"variable {i}", prices, members, expected, sold))

    for j, clause in enumerate(artifact.formula.clauses, start=1):
        c, d, e = artifact.clause_nodes[j - 1]
        members = frozenset((c, d, e))

        def with_clause(satisfy: bool, clause: Clause = clause) -> list[bool]:
            assignment = [True] * n
            for literal in clause:
                assignment[abs(literal) - 1] = (literal > 0) == satisfy
            return assignment

        sat_one = [True] * n
        first = clause[0]
        sat_one[abs(first) - 1] = first > 0
        prefix_sat = assignment_pricing(artifact, sat_one)[:-1]
        prefix_unsat = assignment_pricing(artifact, with_clause(False))[:-1]
        prefix_allsat = assignment_pricing(artifact, with_clause(True))[:-1]

        c_sold = ("c", c, True)
        c_kept = ("c", c, False)
        de_sold = [("d", d, True), ("e", e, True)]
        de_kept = [("d", d, False), ("e", e, False)]
        scenarios = [
            ("satisfied, price 2a+1", prefix_sat + (2 * a + 1,), 6 * a + 3, [c_sold] + de_sold),
            ("falsified, price 2a+1", prefix_unsat + (2 * a + 1,), 4 * a + 2, [c_kept] + de_sold),
            ("satisfied, price 2a", prefix_sat + (2 * a,), 6 * a, [c_sold] + de_sold),
            ("all satisfied, split window", prefix_allsat + (2 * a + 3, 2 * a + 1), 2 * a + 3,
             [c_sold] + de_kept),
            ("satisfied, no clause price", prefix_sat, 0, [c_kept] + de_kept),
        ]
        for label, prices, expected, sold in scenarios:
            checks.append(_run_check(artifact, f"clause {j} ({label})", prices, members, expected, sold))

    return GadgetReport(tuple(checks))


def best_assignment_revenue(artifact: ReductionArtifact) -> tuple[int, tuple[bool, ...]]:
    """Exhaustive maximum of simulated revenue over all truth assignments.

    Equals the threshold exactly when the formula is satisfiable. Cost is
    2^n simulations; guarded to keep runtime sane.
    """
    n = _as_type(artifact, ReductionArtifact, "artifact").formula.variable_count
    if n > 16:
        raise ValueError("exhaustive assignment search is limited to 16 variables")
    best_revenue = -1
    best_assignment = (False,) * n
    for bits in range(1 << n):
        assignment = tuple(bool((bits >> k) & 1) for k in range(n))
        revenue = simulate(artifact.instance, assignment_pricing(artifact, assignment)).revenue
        if revenue > best_revenue:
            best_revenue = revenue
            best_assignment = assignment
    return best_revenue, best_assignment


def artifact_metadata(artifact: ReductionArtifact) -> dict:
    """JSON-ready sidecar describing the artifact's parameters and node maps."""
    return {
        "variables": _as_type(artifact, ReductionArtifact, "artifact").formula.variable_count,
        "clauses": [list(clause) for clause in artifact.formula.clauses],
        "clause_scale": artifact.clause_scale,
        "variable_scales": list(artifact.variable_scales),
        "threshold": artifact.threshold,
        "node_count": artifact.instance.node_count,
        "edge_count": artifact.instance.graph.edge_count,
        "literal_nodes": [list(pair) for pair in artifact.literal_nodes],
        "auxiliary_nodes": [list(triple) for triple in artifact.auxiliary_nodes],
        "clause_nodes": [list(triple) for triple in artifact.clause_nodes],
    }
