"""End-to-end acceptance checks.

Each criterion runs as one test that appends a single PASS/FAIL line to
``CRITERION_LINES`` (printed in the terminal summary by conftest) and stores
a CSV table of everything it measured in ``_CSV_CACHE``. The final
determinism criterion recomputes every table from scratch and demands
byte-identical output.

All randomness is derived from ``MASTER_SEED``, so the whole file is a pure
function of that constant.
"""

import math
import random
import time
from fractions import Fraction

from netprice import (
    PncInstance,
    assignment_pricing,
    ba_single_price,
    best_single_price,
    build_reduction,
    degree_bound,
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
    is_satisfying,
    min_degree_independent,
    parse_dimacs,
    simulate,
    split_dp,
    verify_gadget_claims,
)
from references import naive_opt

MASTER_SEED = 1729

CRITERION_LINES: list[str] = []
_CSV_CACHE: dict[str, str] = {}

SAMPLE_CNF = """\
p cnf 3 3
1 2 3 0
-1 -2 3 0
1 -2 -3 0
"""


def _csv(header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(str(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _finish(key, label, builder, cap_seconds=None):
    start = time.perf_counter()
    ok, detail, csv_text = builder()
    elapsed = time.perf_counter() - start
    _CSV_CACHE[key] = csv_text
    if cap_seconds is not None and elapsed >= cap_seconds:
        ok = False
        detail += f"; exceeded the {cap_seconds}s time cap"
    line = f"{label}: {'PASS' if ok else 'FAIL'} ({detail}; {elapsed:.1f}s)"
    CRITERION_LINES.append(line)
    assert ok, line


def _random_weighted(rng, max_n, max_w, max_nu, edge_prob):
    n = rng.randint(1, max_n)
    edges = [
        (u, v, rng.randint(1, max_w))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < edge_prob
    ]
    nu = [rng.randint(0, max_nu) for _ in range(n)]
    return PncInstance.from_edges(n, edges, nu)


# --- criterion 1: greedy two-approximation and its sandwich bounds ---------------


def _criterion_greedy():
    rng = random.Random(MASTER_SEED + 1)
    rows = []
    violations = 0
    for trial in range(200):
        instance = _random_weighted(rng, max_n=14, max_w=5, max_nu=3, edge_prob=0.35)
        greedy = greedy_iterative(instance).revenue
        opt = exact_opt(instance).revenue
        nu_total = sum(instance.intrinsic)
        weight_total = sum(w for _, _, w in instance.graph.edges)
        ok = (
            opt <= 2 * greedy
            and greedy >= nu_total + weight_total
            and opt <= nu_total + 2 * weight_total
        )
        violations += not ok
        rows.append(
            [trial, instance.node_count, instance.graph.edge_count,
             nu_total, weight_total, greedy, opt, int(ok)]
        )
    header = ["trial", "n", "edges", "nu_total", "weight_total", "greedy", "opt", "ok"]
    return (
        violations == 0,
        f"{violations} violations over 200 weighted instances, n <= 14",
        _csv(header, rows),
    )


def test_criterion_01_greedy_guarantee():
    _finish("ac01", "AC-1 greedy guarantee", _criterion_greedy, cap_seconds=120)


# --- criterion 2: the fast oracle agrees with brute force -------------------------


def _criterion_oracle_soundness():
    rng = random.Random(MASTER_SEED + 2)
    rows = []
    violations = 0
    for trial in range(100):
        instance = _random_weighted(rng, max_n=8, max_w=4, max_nu=3, edge_prob=0.4)
        fast = exact_opt(instance).revenue
        brute = naive_opt(instance)
        ok = fast == brute
        violations += not ok
        rows.append(
            [trial, instance.node_count, instance.graph.edge_count, fast, brute, int(ok)]
        )
    header = ["trial", "n", "edges", "exact_opt", "naive_opt", "ok"]
    return (
        violations == 0,
        f"{violations} disagreements over 100 instances, n <= 8",
        _csv(header, rows),
    )


def test_criterion_02_oracle_soundness():
    _finish("ac02", "AC-2 oracle soundness", _criterion_oracle_soundness, cap_seconds=60)


# --- criterion 3: split-graph dynamic program is exact -----------------------------


def _criterion_split_dp():
    rng = random.Random(MASTER_SEED + 3)
    rows = []
    violations = 0
    for trial in range(100):
        n = rng.randint(2, 14)
        fraction = rng.uniform(0.2, 0.8)
        prob = rng.uniform(0.0, 1.0)
        instance = gen_split(n, fraction, prob, seed=MASTER_SEED + 3000 + trial)
        dp = split_dp(instance).revenue
        opt = exact_opt(instance).revenue
        ok = dp == opt
        violations += not ok
        rows.append([trial, n, instance.graph.edge_count, dp, opt, int(ok)])
    header = ["trial", "n", "edges", "split_dp", "opt", "ok"]
    return (
        violations == 0,
        f"{violations} disagreements over 100 split instances, n <= 14",
        _csv(header, rows),
    )


def test_criterion_03_split_dp_exactness():
    _finish("ac03", "AC-3 split DP exactness", _criterion_split_dp)


# --- criterion 4: spiders pin both the optimum and the single-price gap -------------


def _criterion_spiders():
    rows = []
    violations = 0
    for k in range(1, 9):
        instance = gen_spider(k)
        opt = exact_opt(instance).revenue
        single = best_single_price(instance)
        want_single = 3 if k == 1 else 2 * k + 2
        ok = opt == 3 * k and single.revenue == want_single
        violations += not ok
        rows.append([k, opt, 3 * k, single.prices[0], single.revenue, want_single, int(ok)])
    header = ["k", "opt", "expected_opt", "best_price", "single_revenue",
              "expected_single", "ok"]
    return (
        violations == 0,
        f"{violations} mismatches for k = 1..8 (opt = 3k, single = 2k+2)",
        _csv(header, rows),
    )


def test_criterion_04_spider_tightness():
    _finish("ac04", "AC-4 spider tightness", _criterion_spiders)


# --- criterion 5: the hub-of-cliques family ----------------------------------------
#
# Target revenue for the size-k family is (k!)^2 * (1 + 1/2 + ... + 1/k):
# sell the hub at its value k*k!, then each clique class. Selling the hub
# costs every clique node exactly one unit (its hub edge), so the ladder
# that realizes the target runs one unit BELOW each class value:
# (k*k!, k!-1, k!/2-1, ..., k!/k-1). The ladder of literal class values
# (k*k!, k!, k!/2, ..., k!/k) posts every price one unit above what the
# remaining nodes can pay, so each class only buys one round later at the
# next (lower) price and the last class is stranded: it collects 48 rather
# than 66 at k = 3, and 720 rather than 1200 at k = 4. Both ladders are
# pinned here, and the oracle confirms the target is the true optimum at
# k = 3 (the k = 4 instance, 97 nodes, is beyond exhaustive search).


def _criterion_example_family():
    expected = {
        3: {"single": ((6,), 42), "literal": ((18, 6, 3, 2), 48),
            "realizing": ((18, 5, 2, 1), 66)},
        4: {"single": ((24,), 600), "literal": ((96, 24, 12, 8, 6), 720),
            "realizing": ((96, 23, 11, 7, 5), 1200)},
    }
    rows = []
    failures = []
    for k, want in expected.items():
        instance = gen_example1(k)
        fact = math.factorial(k)
        target = int(fact * fact * sum(Fraction(1, i) for i in range(1, k + 1)))
        single = best_single_price(instance)
        literal_prices, literal_want = want["literal"]
        realizing_prices, realizing_want = want["realizing"]
        literal = simulate(instance, literal_prices).revenue
        realized = simulate(instance, realizing_prices).revenue
        checks = {
            "single": (single.prices, single.revenue) == want["single"],
            "target": realizing_want == target,
            "realized": realized == target,
            "literal": literal == literal_want,
        }
        if k == 3:
            checks["optimal"] = exact_opt(instance).revenue == target
        failures.extend(f"k={k}:{name}" for name, good in checks.items() if not good)
        rows.append(
            [k, single.prices[0], single.revenue, literal, realized, target, int(all(checks.values()))]
        )
    header = ["k", "best_price", "single_revenue", "literal_ladder_revenue",
              "realized_revenue", "target", "ok"]
    detail = (
        "targets 66/1200 realized one unit below class values; literal "
        "class-value ladders stall after the hub sale (48/720); k=3 target "
        "is the oracle optimum"
    )
    if failures:
        detail = "failed: " + ", ".join(failures)
    return not failures, detail, _csv(header, rows)


def test_criterion_05_example_family():
    _finish("ac05", "AC-5 example family", _criterion_example_family)


# --- criterion 6: forests ----------------------------------------------------------


def _components(instance):
    n = instance.node_count
    neighbors = [[] for _ in range(n)]
    for u, v, _ in instance.graph.edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    seen = [False] * n
    out = []
    for root in range(n):
        if seen[root]:
            continue
        stack, comp = [root], []
        seen[root] = True
        while stack:
            node = stack.pop()
            comp.append(node)
            for other in neighbors[node]:
                if not seen[other]:
                    seen[other] = True
                    stack.append(other)
        out.append(sorted(comp))
    return out


def _induced(instance, nodes):
    index = {node: i for i, node in enumerate(nodes)}
    members = set(nodes)
    edges = [
        (index[u], index[v], w)
        for u, v, w in instance.graph.edges
        if u in members and v in members
    ]
    return PncInstance.from_edges(len(nodes), edges)


def _criterion_forests():
    rng = random.Random(MASTER_SEED + 6)
    rows = []
    violations = 0
    for trial in range(300):
        n = rng.randint(2, 14)
        trees = rng.randint(1, max(1, n // 4))
        instance = gen_forest(n, trees, seed=MASTER_SEED + 6000 + trial)
        single = forest_single_price(instance)
        opt = exact_opt(instance).revenue
        ratio_ok = 2 * opt <= 3 * single.revenue
        components_ok = True
        for comp in _components(instance):
            if len(comp) < 4:
                continue  # one or two nodes, or a path of three: all stars
            sub = _induced(instance, comp)
            degrees = sub.graph.degrees
            if max(degrees) == len(comp) - 1:
                continue  # a star
            leaves = sum(1 for d in degrees if d == 1)
            if exact_opt(sub).revenue > 2 * len(comp) - leaves:
                components_ok = False
        ok = ratio_ok and components_ok
        violations += not ok
        rows.append(
            [trial, n, trees, single.prices[0], single.revenue, opt,
             int(ratio_ok), int(components_ok)]
        )
    header = ["trial", "n", "trees", "price", "single_revenue", "opt",
              "ratio_ok", "components_ok"]
    return (
        violations == 0,
        f"{violations} violations over 300 forests, n <= 14 "
        "(1.5x ratio and non-star component bound)",
        _csv(header, rows),
    )


def test_criterion_06_forest_ratio():
    _finish("ac06", "AC-6 forest ratio", _criterion_forests)


# --- criterion 7: dense random graphs, one price ------------------------------------


def _criterion_er():
    rows = []
    good = 0
    for t in range(20):
        seed = MASTER_SEED + 7000 + t
        instance = gen_er(2000, 0.3, seed)
        result = er_single_price(instance, 0.3, 0.1)
        edges = instance.graph.edge_count
        ratio = 2 * edges / result.revenue
        ok = ratio <= 1.25
        good += ok
        rows.append([seed, edges, result.prices[0], result.revenue,
                     f"{ratio:.6f}", int(ok)])
    header = ["seed", "edges", "price", "revenue", "edge_ratio", "ok"]
    return (
        good >= 19,
        f"{good}/20 seeds with 2|E|/revenue <= 1.25 (need >= 19)",
        _csv(header, rows),
    )


def test_criterion_07_er_near_optimality():
    _finish("ac07", "AC-7 ER near-optimality", _criterion_er, cap_seconds=60)


# --- criterion 8: preferential-attachment pricing ------------------------------------


def _criterion_ba():
    rows = []
    single_all = greedy_all = indep_all = True
    in_band = 0
    for t in range(20):
        seed = MASTER_SEED + 8000 + t
        instance = gen_ba(5000, 3, seed)
        single = ba_single_price(instance, 3).revenue
        greedy = greedy_iterative(instance).revenue
        fraction = sum(1 for d in instance.graph.degrees if d == 3) / 5000
        independent = min_degree_independent(instance.graph)
        single_all &= single == 15000
        greedy_all &= greedy <= 24750  # (2 - 2/5 + 0.05) * 15000
        band = 0.35 <= fraction <= 0.45
        in_band += band
        indep_all &= independent
        rows.append([seed, single, greedy, f"{fraction:.6f}", int(band), int(independent)])
    header = ["seed", "single_revenue", "greedy_revenue", "degree3_fraction",
              "fraction_in_band", "gamma_independent"]
    ok = single_all and greedy_all and in_band >= 18 and indep_all
    return (
        ok,
        f"single = 15000 on all: {single_all}; greedy <= 24750 on all: "
        f"{greedy_all}; fraction in [0.35, 0.45] on {in_band}/20 (need >= 18); "
        f"min-degree set independent on all: {indep_all}",
        _csv(header, rows),
    )


def test_criterion_08_ba_pricing():
    _finish("ac08", "AC-8 BA pricing", _criterion_ba)


# --- criterion 9: the sorted-degree bound ---------------------------------------------


def _criterion_degree_bound():
    rng = random.Random(MASTER_SEED + 9)
    rows = []
    violations = 0
    for trial in range(500):
        n = rng.randint(2, 14)
        prob = rng.uniform(0.1, 0.9)
        pairs = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < prob
        ]
        instance = PncInstance.unweighted(n, pairs)
        opt = exact_opt(instance).revenue
        bound = degree_bound(instance)
        cap = (1 + math.log(n)) * bound
        ok = opt <= cap + 1e-9
        violations += not ok
        rows.append([trial, n, len(pairs), opt, bound, f"{cap:.6f}", int(ok)])
    header = ["trial", "n", "edges", "opt", "degree_bound", "log_cap", "ok"]
    return (
        violations == 0,
        f"{violations} violations of opt <= (1+ln n) * bound over 500 instances",
        _csv(header, rows),
    )


def test_criterion_09_degree_bound():
    _finish("ac09", "AC-9 degree bound", _criterion_degree_bound)


# --- criterion 10: the CNF reduction --------------------------------------------------


def _criterion_reduction():
    formula = parse_dimacs(SAMPLE_CNF)
    artifact = build_reduction(formula)
    n, m = formula.variable_count, len(formula.clauses)
    clause_scale = 5 * m * n + 1
    scales = [5 * clause_scale + 1]
    for _ in range(n - 1):
        scales.insert(0, 5 * scales[0] + 1)
    threshold = 24 * sum(scales) + m * (6 * clause_scale + 3)
    assignment = (True, True, True)
    simulated = simulate(
        artifact.instance, assignment_pricing(artifact, assignment)
    ).revenue
    oracle = exact_opt(artifact.instance, state_budget=10**7)
    report = verify_gadget_claims(artifact)
    checks = {
        "assignment satisfies the formula": is_satisfying(formula, assignment),
        "recomputed scale chain matches": (
            artifact.clause_scale == clause_scale
            and artifact.variable_scales == tuple(scales)
        ),
        "recomputed threshold matches": artifact.threshold == threshold == 172869,
        "satisfying pricing reaches the threshold": simulated == threshold,
        "oracle optimum equals the threshold": oracle.revenue == threshold,
        "all gadget checks pass": report.ok,
    }
    failed = [name for name, good in checks.items() if not good]
    rows = [
        ["clause_scale", artifact.clause_scale],
        ["variable_scales", " ".join(str(s) for s in artifact.variable_scales)],
        ["threshold", artifact.threshold],
        ["satisfying_pricing_revenue", simulated],
        ["oracle_revenue", oracle.revenue],
        ["oracle_states", oracle.states_explored],
        ["gadget_checks_passed", len(report.checks) - len(report.failures())],
        ["gadget_checks_total", len(report.checks)],
    ]
    detail = (
        f"threshold {threshold} recomputed, reached by a satisfying assignment, "
        f"matched by the oracle, {len(report.checks)} gadget checks pass"
    )
    if failed:
        detail = "failed: " + ", ".join(failed)
    return not failed, detail, _csv(["quantity", "value"], rows)


def test_criterion_10_reduction():
    _finish("ac10", "AC-10 reduction", _criterion_reduction, cap_seconds=600)


# --- criterion 11: everything above is a pure function of the master seed -------------


_BUILDERS = {
    "ac01": _criterion_greedy,
    "ac02": _criterion_oracle_soundness,
    "ac03": _criterion_split_dp,
    "ac04": _criterion_spiders,
    "ac05": _criterion_example_family,
    "ac06": _criterion_forests,
    "ac07": _criterion_er,
    "ac08": _criterion_ba,
    "ac09": _criterion_degree_bound,
    "ac10": _criterion_reduction,
}


def test_criterion_11_determinism(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("acceptance-csv")

    def build():
        mismatched = []
        for key, builder in _BUILDERS.items():
            first = _CSV_CACHE.get(key)
            if first is None:  # running this test alone: compute both sides here
                first = builder()[2]
            second = builder()[2]
            (outdir / f"{key}.csv").write_text(first, encoding="utf-8")
            (outdir / f"{key}.rerun.csv").write_text(second, encoding="utf-8")
            if first.encode() != second.encode():
                mismatched.append(key)
        identical = len(_BUILDERS) - len(mismatched)
        detail = f"{identical}/{len(_BUILDERS)} criterion tables byte-identical on rerun"
        if mismatched:
            detail += " (mismatched: " + ", ".join(mismatched) + ")"
        return not mismatched, detail, ""

    _finish("ac11", "AC-11 determinism", build)
