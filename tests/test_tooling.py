"""Benchmark tooling that the test suite can check without the benchmark harness."""

import ast
import importlib
import json
import importlib.util
import re
import sys
from functools import reduce
from pathlib import Path

import pytest

from netprice import gen_er, greedy_iterative, simulate
from netprice.cli import _build_parser, experiment_tasks, run_cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "netprice"
README = Path(__file__).resolve().parents[1] / "README.md"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the class is built
    spec.loader.exec_module(module)
    return module


def test_traced_attributes_resolve():
    # The traced benchmark pass wraps these module attributes; a refactor that
    # drops one would otherwise fail only when that pass runs.
    tracing = _load("tracing")
    assert tracing.TRACED
    missing = [
        f"{module}.{attribute}"
        for module, attribute, _ in tracing.TRACED
        if not callable(getattr(importlib.import_module(module), attribute, None))
    ]
    assert missing == []


@pytest.mark.parametrize("size", ["full", "tiny"])
def test_benchmark_commands_parse(size, tmp_path, monkeypatch, capsys):
    # A flag the CLI no longer takes, or one that parses but fails when the
    # command runs, would otherwise surface only as failed benchmark jobs.
    # The tiny steps are also run, in order, on their own inputs.
    workloads = _load("workloads")
    parser = _build_parser()
    monkeypatch.chdir(tmp_path)
    for workload in workloads.WORKLOADS.values():
        job = workload(size, seed=0)
        for step in job.steps():
            try:
                args = parser.parse_args(list(step.argv))
            except SystemExit:
                pytest.fail(f"{workload.name} step {step.name} does not parse: {step.argv}")
            if args.command == "experiment":
                experiment_tasks(args.family, args.params, args.trials, args.master_seed)
        if size == "tiny":
            job.write_inputs(tmp_path)
            for step in job.steps():
                code = run_cli(list(step.argv))
                assert code == 0, (workload.name, step.name, capsys.readouterr().err)


def test_traced_counts_read_real_traces():
    # The traced pass keeps what it counts from each wrapped call's result
    # (_KEEP) and reduces it to numbers (_count); a change to the trace type
    # that broke either would otherwise fail only when that pass runs.
    tracing = _load("tracing")
    instance = gen_er(40, 0.3, seed=1)
    tracer = tracing.Tracer()
    greedy = tracer.wrap("algorithms.greedy", greedy_iterative)(instance)
    # greedy's prices with an empty round and a repeated price among them
    prices = [*greedy.prices.tolist()[:3], 10**9, *greedy.prices.tolist()[3:], 0, 0]
    replayed = tracer.wrap("engine.simulate", simulate)(instance, prices)
    records = json.loads(json.dumps(tracing.span_records(tracer.spans)))
    counts = {record["name"]: record["count"] for record in records}
    ends = replayed.ends.tolist()
    scanned = sum(instance.node_count - sold for sold in ends[:-1])
    assert counts == {"algorithms.greedy": len(greedy.prices), "engine.simulate": [len(prices), 40, scanned]}
    metrics = tracing.job_metrics(records, job_s=1.0, startup_s=0.0)
    assert metrics["algorithms.greedy_rounds"] == len(greedy.prices) > 3
    assert metrics["engine.simulate_rounds"] == len(prices)


def test_cli_io_goes_through_the_traced_names(tmp_path, monkeypatch):
    # The traced pass times instance I/O by wrapping netprice.cli's
    # load_instance and dumps_instance. A command that read or wrote an
    # instance some other way would leave core.loads and core.dumps empty,
    # and test_traced_attributes_resolve only checks that the names exist.
    import netprice.cli as cli

    spans = {(module, attribute): span for module, attribute, span in _load("tracing").TRACED}
    assert spans[("netprice.cli", "load_instance")] == "core.loads"
    assert spans[("netprice.cli", "dumps_instance")] == "core.dumps"
    calls = {"load_instance": 0, "dumps_instance": 0}
    for name in calls:
        def counted(*args, _original=getattr(cli, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    instance = str(tmp_path / "spider.json")
    assert run_cli(["gen", "--family", "spider", "--k", "3", "--out", instance]) == 0
    assert calls == {"load_instance": 0, "dumps_instance": 1}
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 4 4\n1 2 3 0\n-1 2 4 0\n1 -3 -4 0\n-2 3 4 0\n", encoding="utf-8")
    assert run_cli(["reduce", str(cnf), "--out", str(tmp_path / "reduced.json")]) == 0
    assert calls == {"load_instance": 0, "dumps_instance": 2}
    assert run_cli(["greedy", instance]) == 0
    assert calls == {"load_instance": 1, "dumps_instance": 2}


def test_package_has_no_assert():
    # python -O strips assert statements, and the package's invariants must
    # hold there too: each is a check that raises
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_market_sell_has_no_loop_per_price():
    # ``Market.sell`` filters a price list as a whole and sells a run of
    # rounds per scan; a ``for`` loop or a comprehension in it would bring
    # back a Python pass per price or per round
    tree = ast.parse((PACKAGE / "engine.py").read_text(encoding="utf-8"))
    sell = next(node for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "Market"
                for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == "sell")
    loops = (ast.For, ast.AsyncFor, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    assert [node.lineno for node in ast.walk(sell) if isinstance(node, loops)] == []


def _resolves(dotted):
    """Whether ``dotted`` names an attribute of a netprice module, of a name
    one of them defines (``Market.sell``), or of a standard module."""
    head, *rest = dotted.split(".")
    modules = [importlib.import_module(f"netprice.{path.stem}")
               for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"]
    owners = [module for module in modules if module.__name__ == f"netprice.{head}"]
    owners += [getattr(module, head) for module in modules if hasattr(module, head)]
    if not owners and importlib.util.find_spec(head) is not None:
        owners = [importlib.import_module(head)]
    return any(reduce(lambda owner, name: getattr(owner, name, None), rest, owner) is not None
               for owner in owners)


def test_readme_names_resolve():
    # every backticked dotted name in the README (`Market.sell`,
    # `cli.EXPERIMENTS`, `json.dumps`) must exist, so a name deleted from the
    # code cannot stay in the docs
    names = sorted(set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", README.read_text(encoding="utf-8"))))
    assert "Market.sell" in names and "cli.EXPERIMENTS" in names
    assert [name for name in names if not _resolves(name)] == []


def _unbound_checks(source):
    """The line of each ``_as_int`` or ``_as_real`` call on a bare name whose
    result neither rebinds that name (by assignment or ``:=``) nor is returned."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("_as_int", "_as_real") and node.args and isinstance(node.args[0], ast.Name)):
            continue
        name, parent = node.args[0].id, parents[node]
        targets = (parent.targets if isinstance(parent, ast.Assign)
                   else [parent.target] if isinstance(parent, ast.NamedExpr) else [])
        if not (isinstance(parent, ast.Return) or any(isinstance(t, ast.Name) and t.id == name for t in targets)):
            found.append(node.lineno)
    return sorted(found)


def test_checked_scalars_are_rebound():
    # _as_int and _as_real return the Python number a numpy scalar holds; a
    # call whose result is dropped (`if _as_int(n, "n") < 2:`) leaves n a
    # numpy scalar, whose products wrap silently in int64
    assert _unbound_checks('def f(n, k):\n    if _as_int(n, "n") < 2:\n        pass\n'
                           '    k = _as_int(k, "k")\n    if (n := _as_int(n, "n")) < 2:\n        pass\n'
                           '    m = _as_int(n, "n")\n    return _as_real(n, "n")\n') == [2, 7]
    modules = sorted(PACKAGE.glob("*.py"))
    found = [f"{path.name}:{line}" for path in modules for line in _unbound_checks(path.read_text(encoding="utf-8"))]
    assert found == []
