"""Contracts of the public API and the CLI, for any argument.

A public function given junk for any argument, a scalar, sequence, dict or
str, or an instance, graph, formula, artifact or trace, either works or
raises ``ValueError`` (``CnfError`` is one). A CLI run returns 0, or 1 with
one ``error:`` line, or argparse's 2, and never prints a traceback. Sizes
stay small and ``jobs`` stays 1, so no call allocates much or starts a
process.
"""

import contextlib
import io
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import netprice
from netprice import CnfFormula, OracleBudgetError, PncInstance, build_reduction, dumps_instance, gen_split, simulate
from netprice.cli import EXPERIMENTS, run_cli
from references import weighted_instances

_FORMULA = CnfFormula(3, ((1, 2, 3), (-1, -2, 3), (1, -2, -3)))
_ARTIFACT = build_reduction(_FORMULA)
_DIMACS = "p cnf 3 3\n1 2 3 0\n-1 -2 3 0\n1 -2 -3 0\n"

JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5),
    st.sampled_from([math.nan, math.inf, -math.inf, -1.5, 0.5, 2.0, np.float64(0.5)]),
    st.sampled_from([-(2**63) - 1, 2**63, 2**64, 10**30, np.int64(3)]),
    st.text(max_size=6), st.binary(max_size=6),
    st.recursive(st.integers(-3, 3) | st.none() | st.text(max_size=2),
                 lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner), max_leaves=8),
    st.dictionaries(st.text(max_size=4), st.integers(-3, 3) | st.none(), max_size=3),
)


@st.composite
def plain_instances(draw):
    """Unit weights and no intrinsic value on up to 8 nodes."""
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return PncInstance.unweighted(n, draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([])))


_INSTANCES = st.one_of(weighted_instances(), plain_instances(),
                       st.builds(gen_split, st.integers(2, 12), st.floats(0.1, 0.9), st.floats(0, 1),
                                 st.integers(0, 99)))
_FAMILY_PARAMS = {"n": st.integers(2, 12), "eta": st.floats(0, 1), "beta": st.integers(1, 3),
                  "k": st.integers(1, 3), "clique_fraction": st.floats(0, 1), "edge_prob": st.floats(0, 1),
                  "trees": st.integers(1, 4)}

# the valid draws of each kind of argument; junk is drawn besides them
VALID = {
    "n": st.integers(2, 12),
    "node_count": st.integers(1, 8),
    "spider_k": st.integers(1, 6),
    "example1_k": st.integers(2, 3),
    "beta": st.integers(1, 3),
    "trees": st.integers(1, 4),
    "seed": st.integers(0, 2**64),
    "unit": st.floats(0, 1),
    "state_budget": st.integers(1, 300),
    "node": st.integers(0, 40),
    "scale": st.integers(1, 10**6),
    "prices": st.lists(st.integers(0, 30), max_size=6),
    "assignment": st.lists(st.booleans(), min_size=3, max_size=3),
    "intrinsic": st.lists(st.integers(0, 6), max_size=8),
    "edges": st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(1, 6)), max_size=8),
    "pairs": st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=8),
    "clauses": st.lists(st.tuples(*[st.sampled_from([-3, -2, -1, 1, 2, 3])] * 3), min_size=3, max_size=4),
    "family": st.sampled_from(sorted(netprice.generators.FAMILIES)),
    "params": st.fixed_dictionaries({}, optional={name: strategy | JUNK for name, strategy in _FAMILY_PARAMS.items()}),
    "instance_text": _INSTANCES.map(dumps_instance).flatmap(
        lambda text: st.integers(0, len(text)).map(lambda cut: text[:cut]) | st.just(text)),
    "cnf_text": st.integers(0, len(_DIMACS)).map(lambda cut: _DIMACS[:cut]) | st.text(max_size=20),
    "instance": _INSTANCES,
    "graph": _INSTANCES.map(lambda instance: instance.graph),
    "formula": st.just(_FORMULA),
    "artifact": st.just(_ARTIFACT),
    "trace": st.lists(st.integers(0, 10**12), max_size=4).map(lambda prices: simulate(_ARTIFACT.instance, prices)),
}

# Every public name, and each public constructor, to the kinds of its
# arguments in order; None for an exception, an alias or a record the
# package builds for its caller, whose fields are not checked.
CONTRACTS = {
    "SplitPartition": None, "SaleRound": None, "SaleTrace": None, "PriceSequence": None,
    "OracleBudgetError": None, "OracleResult": None, "CnfError": None, "GadgetCheck": None,
    "GadgetReport": None, "ReductionArtifact": None,
    "ba_single_price": ("instance", "beta"),
    "best_single_price": ("instance",),
    "degree_bound": ("instance",),
    "er_single_price": ("instance", "unit", "unit"),
    "forest_single_price": ("instance",),
    "greedy_iterative": ("instance",),
    "min_degree_independent": ("graph",),
    "recognize_split": ("graph",),
    "split_dp": ("instance",),
    "PncInstance": ("graph", "intrinsic"),
    "PncInstance.from_edges": ("node_count", "edges", "intrinsic"),
    "PncInstance.unweighted": ("node_count", "pairs"),
    "WeightedGraph": ("node_count", "edges"),
    "dump_instance": ("instance", "out_path"),
    "dumps_instance": ("instance",),
    "load_instance": ("in_path",),
    "loads_instance": ("instance_text",),
    "validate_prices": ("prices",),
    "make_irredundant": ("instance", "prices"),
    "normalize": ("instance", "prices"),
    "simulate": ("instance", "prices"),
    "gen_ba": ("n", "beta", "seed"),
    "gen_er": ("n", "unit", "seed"),
    "gen_example1": ("example1_k",),
    "gen_forest": ("n", "trees", "seed"),
    "gen_spider": ("spider_k",),
    "gen_split": ("n", "unit", "unit", "seed"),
    "generate": ("family", "params", "seed"),
    "exact_opt": ("instance", "state_budget"),
    "CnfFormula": ("node", "clauses"),
    "artifact_metadata": ("artifact",),
    "assignment_pricing": ("artifact", "assignment"),
    "best_assignment_revenue": ("artifact",),
    "build_reduction": ("formula",),
    "clause_gadget_edges": ("node", "node", "node", "scale"),
    "clause_window_round": ("artifact", "trace"),
    "is_satisfying": ("formula", "assignment"),
    "parse_dimacs": ("cnf_text",),
    "variable_gadget_edges": ("node", "node", "node", "node", "node", "scale"),
    "verify_gadget_claims": ("artifact",),
}


def _paths(folder):
    """File paths, drawn from strings only: an int would name an open
    file descriptor, which open() writes to and closes."""
    (folder / "instance.json").write_text('{"n":2,"edges":[[0,1,1]]}\n', encoding="utf-8")
    (folder / "junk.json").write_bytes(b'\xff{"n":')
    names = ["instance.json", "junk.json", "missing/x.json", ".", "out.json"]
    return st.sampled_from([str(folder / name) for name in names] + ["nul\0byte"])


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@pytest.mark.parametrize("name", [*netprice.__all__, "PncInstance.from_edges", "PncInstance.unweighted"])
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_public_calls_work_or_raise_value_error(folder, name, data):
    assert name in CONTRACTS, f"{name} is public but has no entry in CONTRACTS"
    kinds = CONTRACTS[name]
    if kinds is None:
        return
    args = []
    for kind in kinds:
        if kind.endswith("_path"):
            strategy = _paths(folder)
        else:
            strategy = VALID[kind] | JUNK
        args.append(data.draw(strategy, label=kind))
    function = netprice
    for part in name.split("."):
        function = getattr(function, part)
    try:
        function(*args)
    except (ValueError, OracleBudgetError):  # a budget hit is exact_opt's answer, not a refusal
        pass
    except OSError:  # a path's own errors are the operating system's, as open() gives them
        if not any(kind.endswith("_path") for kind in kinds):
            raise


# as often small as invalid
_INTS = st.sampled_from(["1", "2", "3", "5"]) | st.sampled_from(["0", "-1", "x", "1.5", ""])
_REALS = st.sampled_from(["0", "0.3", "0.5", "1"]) | st.sampled_from(["1.5", "-1", "nan", "inf", "x"])
_HUGE = st.sampled_from(["99999999999999999999", str(2**63)])
_INSTANCE_TEXT = '{"n":4,"edges":[[0,1,1],[0,2,1],[1,2,1],[2,3,1]]}\n'
_FILE_BYTES = st.one_of(
    st.just(_INSTANCE_TEXT.encode()), st.just(_DIMACS.encode()),
    st.sampled_from([b"\xff\xfe", b"", b"[]", b'{"n":1e400}', b'{"n":2,"edges":[[0,1,1]],"nu":[1,-1]}']),
    st.integers(0, len(_INSTANCE_TEXT)).map(lambda cut: _INSTANCE_TEXT[:cut].encode()),
    st.integers(0, len(_DIMACS)).map(lambda cut: _DIMACS[:cut].encode()),
    st.binary(max_size=20),
)
_PARAM_FLAGS = {"--n": _INTS, "--eta": _REALS, "--beta": _INTS, "--k": _INTS, "--clique-fraction": _REALS,
                "--edge-prob": _REALS, "--trees": _INTS, "--delta": _REALS, "--n-min": _INTS, "--n-max": _INTS}
_GEN_FLAGS = {**_PARAM_FLAGS, "--n": _INTS | _HUGE, "--k": _INTS | st.just("50"), "--seed": _INTS | _HUGE}
# every experiment run gets --trials, and --n where its default is large;
# --jobs is never above 1
_EXPERIMENT_FLAGS = {**_PARAM_FLAGS, "--master-seed": _INTS | _HUGE, "--jobs": st.sampled_from(["1", "0", "-1", "x"])}


def _flag(name):
    return "--" + name.replace("_", "-")


@st.composite
def cli_runs(draw, folder):
    """An argv for one subcommand, with small or invalid flag values, and
    the bytes of its input file (or of stdin when it reads "-")."""
    data = draw(_FILE_BYTES)
    (folder / "input").write_bytes(data)
    path = st.sampled_from(["-", str(folder / "input"), str(folder), str(folder / "missing" / "x")])
    command = draw(st.sampled_from(["gen", "simulate", "greedy", "single", "forest-single", "split-dp",
                                    "oracle", "reduce", "verify-gadgets", "experiment"]))
    argv, own = [command], []
    if command == "gen":
        family = draw(st.sampled_from([*netprice.generators.FAMILIES, "nope"]))
        argv += ["--family", family]
        own = [_flag(name) for name in netprice.generators.FAMILIES[family].params] if family != "nope" else []
        flags = {**_GEN_FLAGS, "--out": path}
    elif command == "experiment":
        family = draw(st.sampled_from(sorted(EXPERIMENTS)))
        argv += ["--family", family, "--trials", draw(st.sampled_from(["0", "1", "2", "-1", "x"]))]
        if family != "bound_sweep":
            argv += ["--n", draw(st.sampled_from(["2", "5", "8", "-1", "x"]))]
        own = [_flag(name) for name in EXPERIMENTS[family].defaults if name != "n"]
        flags = {**_EXPERIMENT_FLAGS, "--out": path}
    else:
        if draw(st.booleans()):
            argv.append(draw(path))
        flags = {"--json": st.none()}
        if command == "simulate":
            argv += ["--prices", *draw(st.lists(_INTS, min_size=1, max_size=4))]
        elif command == "oracle":
            flags.update({"--state-budget": _INTS, "--node-limit": _INTS})
        elif command == "reduce":
            flags.update({"--out": path, "--meta": path})
    # most of the command's own flags, and now and then any other
    chosen = [flag for flag in own if draw(st.integers(0, 4))]
    chosen += draw(st.lists(st.sampled_from(sorted(set(flags) - set(chosen))), unique=True, max_size=2))
    for flag in chosen:
        value = draw(flags[flag])
        argv += [flag] if value is None else [flag, value]
    return argv, data


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_runs_exit_cleanly(folder, data):
    argv, stdin = data.draw(cli_runs(folder))
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = run_cli(argv)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if status == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert status in (0, 2)
