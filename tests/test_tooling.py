"""Benchmark tooling that the test suite can check without the benchmark harness."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from netprice.cli import _build_parser, experiment_tasks, run_cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
