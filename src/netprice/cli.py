"""Command-line front end and seeded batch experiments.

Subcommands compose through the instance file format on standard streams
("-" means stdin/stdout), so e.g. ``netprice gen --family spider --k 3 |
netprice oracle`` works. An instance on stdin is read as bytes, as from a
file, so both accept the same input and give the same errors under any
locale. The experiment runner emits plot-ready CSV whose rows are pure
functions of their seed: identical invocations produce byte-identical
output, and any row is re-derivable by running the matching
single-instance subcommand with the row's seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from typing import Callable, Iterable

# The package never calls BLAS, yet numpy's OpenBLAS starts a thread pool on
# import that spins on another core (about 0.1 s of CPU per command on a
# 2-vCPU host). Set before the first package import loads numpy, so only the
# command's process and its experiment workers run one BLAS thread; a value
# already set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .algorithms import (
    ba_single_price,
    best_single_price,
    degree_bound,
    er_single_price,
    forest_single_price,
    greedy_iterative,
    min_degree_independent,
    split_dp,
)
from .core import PncInstance, SaleTrace, _as_int, _check_params, _parse_instance, dumps_instance, load_instance
from .engine import simulate
from .generators import FAMILIES, gen_ba, gen_er, gen_forest, generate
from .oracle import STATE_BUDGET, OracleBudgetError, exact_opt
from .reduction import (
    artifact_metadata,
    build_reduction,
    parse_dimacs,
    verify_gadget_claims,
)


def _forest_ratio_trial(seed: int, params: dict) -> dict:
    n = params["n"]
    instance = gen_forest(n, params["trees"], seed)
    result = forest_single_price(instance)
    opt = exact_opt(instance).revenue
    return {
        "seed": seed, "n": n, "edges": instance.graph.edge_count, "price": int(result.prices[0]),
        "single_revenue": result.revenue, "oracle_revenue": opt,
        "opt_over_single": opt / result.revenue if result.revenue else None,
    }


def _er_ratio_trial(seed: int, params: dict) -> dict:
    n = params["n"]
    instance = gen_er(n, params["eta"], seed)
    result = er_single_price(instance, params["eta"], params["delta"])
    greedy = greedy_iterative(instance)
    edges = instance.graph.edge_count
    return {
        "seed": seed, "n": n, "edges": edges, "price": int(result.prices[0]),
        "single_revenue": result.revenue, "greedy_revenue": greedy.revenue,
        "edge_ratio": 2 * edges / result.revenue if result.revenue else None,
    }


def _ba_ratio_trial(seed: int, params: dict) -> dict:
    n = params["n"]
    beta = params["beta"]
    instance = gen_ba(n, beta, seed)
    single = ba_single_price(instance, beta)
    greedy = greedy_iterative(instance)
    return {
        "seed": seed, "n": n, "edges": instance.graph.edge_count, "price": beta,
        "single_revenue": single.revenue, "greedy_revenue": greedy.revenue,
        "min_degree_fraction": int((instance.graph.degrees == beta).sum()) / n,
        "gamma_independent": int(min_degree_independent(instance.graph)),
    }


def _bound_sweep_trial(seed: int, params: dict) -> dict:
    n = params["n"]
    instance = gen_er(n, params["eta"], seed)
    opt = exact_opt(instance).revenue
    bound = degree_bound(instance)
    cap = (1 + math.log(n)) * bound
    return {
        "seed": seed, "n": n, "edges": instance.graph.edge_count, "oracle_revenue": opt,
        "degree_bound": bound, "log_cap": cap, "cap_over_opt": cap / opt if opt else None,
    }


@dataclass(frozen=True)
class Experiment:
    """One batch experiment: ``trial(seed, params)`` returns a CSV row as a
    dict from column name to an int, a float or ``None`` (an empty cell), and
    ``defaults`` holds every parameter the trial takes."""

    trial: Callable[[int, dict], dict]
    defaults: dict


EXPERIMENTS: dict[str, Experiment] = {
    "forest_ratio": Experiment(_forest_ratio_trial, {"n": 12, "trees": 2}),
    "er_ratio": Experiment(_er_ratio_trial, {"n": 2000, "eta": 0.3, "delta": 0.1}),
    "ba_ratio": Experiment(_ba_ratio_trial, {"n": 5000, "beta": 3}),
    "bound_sweep": Experiment(_bound_sweep_trial, {"n_min": 6, "n_max": 14, "eta": 0.4}),
}


def experiment_tasks(name: str, params: dict, trials: int, master_seed: int) -> tuple[list[int], list[dict]]:
    """Each trial's seed and params for an ``EXPERIMENTS`` run, in order:
    ``params`` overrides the experiment's defaults, and trial t uses seed
    master_seed + t; bound_sweep numbers its (n, trial) grid in that order.

    The one check of a run's input: an unknown experiment or parameter, a
    trial count, seed or sweep bound that is not an int, params that are not
    a dict, fewer than one trial, a negative seed and n_min above n_max raise
    ValueError.
    """
    experiment = EXPERIMENTS.get(name)
    if experiment is None:
        raise ValueError(f"unknown experiment {name!r}")
    if _as_int(trials, "trials") < 1:
        raise ValueError("trials must be at least 1")
    if _as_int(master_seed, "master_seed") < 0:
        raise ValueError(f"master_seed must be nonnegative, got {master_seed}")
    _check_params(f"experiment {name!r}", params, experiment.defaults)
    params = {**experiment.defaults, **params}
    grid = [params]
    if "n_min" in params:  # a size sweep: every n in [n_min, n_max], trials per size
        n_min, n_max = _as_int(params["n_min"], "n_min"), _as_int(params["n_max"], "n_max")
        if n_min > n_max:
            raise ValueError(f"n_min ({n_min}) must not exceed n_max ({n_max})")
        grid = [{**params, "n": n} for n in range(n_min, n_max + 1)]
    rows = [row for row in grid for _ in range(trials)]
    return [master_seed + index for index in range(len(rows))], rows


def _cell(value: int | float | None) -> str:
    if value is None:
        return ""
    return f"{value:.6f}" if isinstance(value, float) else str(value)


def run_experiment(name: str, params: dict | None = None, trials: int = 20,
                   master_seed: int = 0, jobs: int = 1) -> str:
    """Run an experiment's trials (optionally in parallel) and return CSV text,
    headed by the first row's column names.

    At most ``min(jobs, trials, CPU count)`` worker processes start. Trials
    are pure functions of their seed, so parallel execution merges results
    in seed order and the output is byte-reproducible.
    """
    seeds, trial_params = experiment_tasks(name, params or {}, trials, master_seed)
    if _as_int(jobs, "jobs") < 1:
        raise ValueError("jobs must be at least 1")
    trial = EXPERIMENTS[name].trial
    workers = min(jobs, len(seeds), os.cpu_count() or 1)
    if workers == 1:
        rows = list(map(trial, seeds, trial_params))
    else:
        # imported here: it loads multiprocessing, which a one-worker run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(trial, seeds, trial_params))
    lines = [",".join(rows[0])]
    lines.extend(",".join(map(_cell, row.values())) for row in rows)
    return "\n".join(lines) + "\n"


def _read_instance(path: str) -> PncInstance:
    if path == "-":
        return _parse_instance(sys.stdin.buffer.read())
    return load_instance(path)


def _read_text(path: str) -> str:
    if path == "-":  # as strict UTF-8, as a file is, under any locale
        return sys.stdin.buffer.read().decode("utf-8")
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_text(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cmd_gen(args: argparse.Namespace) -> int:
    _write_text(dumps_instance(generate(args.family, args.params, args.seed)), args.out)
    return 0


def _trace_json(trace: SaleTrace) -> str:
    """The text ``json.dumps`` gives for the trace's dict of prices, rounds,
    total revenue and unsold consumers, written without the dict: building it
    raised ``greedy --json``'s peak RSS on a 10k-round trace 36.9 -> 39.5 MB."""
    def ints(values) -> str:
        return "[" + ", ".join(map(str, values)) + "]"

    prices, buyers, ends = trace.prices.tolist(), trace.buyers.tolist(), trace.ends.tolist()
    rounds = ", ".join(
        f'{{"price": {price}, "buyers": {ints(buyers[a:b])}, "revenue": {price * (b - a)}}}'
        for price, a, b in zip(prices, ends, ends[1:])
    )
    return (f'{{"prices": {ints(prices)}, "rounds": [{rounds}], '
            f'"total_revenue": {trace.revenue}, "unsold": {ints(sorted(trace.residual))}}}')


def _print_trace(trace: SaleTrace) -> None:
    print(f"{'round':>5} {'price':>14} {'buyers':>7} {'revenue':>14}")
    ends = trace.ends.tolist()
    for index, (price, a, b) in enumerate(zip(trace.prices.tolist(), ends, ends[1:])):
        print(f"{index:>5} {price:>14} {b - a:>7} {price * (b - a):>14}")
    print(f"total revenue: {trace.revenue}")
    print(f"unsold: {len(trace.residual)}")


def _cmd_simulate(args: argparse.Namespace) -> int:
    instance = _read_instance(args.instance)
    trace = simulate(instance, args.prices)
    if args.json:
        print(_trace_json(trace))
    else:
        _print_trace(trace)
    return 0


# Pricing subcommands: name -> (help, strategy). Each strategy looks its
# function up at call time, so a replaced module attribute (a tracing
# wrapper, say) is reached.
STRATEGIES: dict[str, tuple[str, Callable[[PncInstance], SaleTrace]]] = {
    "greedy": ("iterative argmax pricing (2-approximation)", lambda i: greedy_iterative(i)),
    "single": ("best single posted price", lambda i: best_single_price(i)),
    "forest-single": ("better of prices 1 and 2 on a forest (1.5-approximation)",
                      lambda i: forest_single_price(i)),
    "split-dp": ("exact optimum on a split graph", lambda i: split_dp(i)),
}


def _cmd_strategy(args: argparse.Namespace) -> int:
    trace = args.strategy(_read_instance(args.instance))
    if args.json:
        print(_trace_json(trace))
    else:
        print(f"prices: {' '.join(map(str, trace.prices.tolist()))}")
        print(f"revenue: {trace.revenue}")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    instance = _read_instance(args.instance)
    if args.node_limit is not None and instance.node_count > args.node_limit:
        raise ValueError(f"instance has {instance.node_count} nodes, above the oracle node limit {args.node_limit}")
    result = exact_opt(instance, args.state_budget)
    if args.json:
        print(json.dumps({
            "revenue": result.revenue,
            "prices": list(result.prices),
            "states": result.states_explored,
        }))
    else:
        print(f"prices: {' '.join(str(p) for p in result.prices)}")
        print(f"revenue: {result.revenue}")
        print(f"states: {result.states_explored}")
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    artifact = build_reduction(parse_dimacs(_read_text(args.cnf)))
    metadata = artifact_metadata(artifact)
    if args.json:
        combined = {"instance": json.loads(dumps_instance(artifact.instance)), "metadata": metadata}
        _write_text(json.dumps(combined) + "\n", args.out)
    else:
        _write_text(dumps_instance(artifact.instance), args.out)
    if args.meta is not None:
        _write_text(json.dumps(metadata, indent=2) + "\n", args.meta)
    return 0


def _cmd_verify_gadgets(args: argparse.Namespace) -> int:
    artifact = build_reduction(parse_dimacs(_read_text(args.cnf)))
    report = verify_gadget_claims(artifact)
    if args.json:
        checks = [{**asdict(check), "passed": check.passed} for check in report.checks]
        print(json.dumps({"ok": report.ok, "checks": checks}))
    else:
        print(report.describe())
    return 0 if report.ok else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    _write_text(run_experiment(args.family, args.params, args.trials, args.master_seed, args.jobs), args.out)
    return 0


class _Param(argparse.Action):
    """Adds a given parameter flag's value to ``args.params`` under its name."""

    def __call__(self, parser, namespace, value, option_string=None):
        # a new dict, so the empty default is never changed
        namespace.params = {**namespace.params, self.dest: value}


def _add_params(parser: argparse.ArgumentParser, tables: Iterable[dict]) -> None:
    """A ``--name-with-dashes`` flag for every parameter of the tables, typed
    by its default, or by the type a parameter without one maps to. Only the
    given flags reach ``args.params``, so the callee checks and fills in the rest."""
    kinds = {name: value if isinstance(value, type) else type(value)
             for table in tables for name, value in table.items()}
    for name, kind in kinds.items():
        parser.add_argument("--" + name.replace("_", "-"), dest=name, type=kind, action=_Param,
                            default=argparse.SUPPRESS)
    parser.set_defaults(params={})


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netprice",
        description="Iterative pricing under negative network externalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance from a graph family")
    gen.add_argument("--family", required=True, choices=list(FAMILIES))
    _add_params(gen, (family.params for family in FAMILIES.values()))
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default="-")
    gen.set_defaults(handler=_cmd_gen)

    sim = sub.add_parser("simulate", help="replay a price sequence on an instance")
    sim.add_argument("instance", nargs="?", default="-")
    sim.add_argument("--prices", type=int, nargs="+", required=True)
    sim.add_argument("--json", action="store_true")
    sim.set_defaults(handler=_cmd_simulate)

    for name, (help_text, strategy) in STRATEGIES.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("instance", nargs="?", default="-")
        cmd.add_argument("--json", action="store_true")
        cmd.set_defaults(handler=_cmd_strategy, strategy=strategy)

    orc = sub.add_parser("oracle", help="exact optimum by branch-and-bound search")
    orc.add_argument("instance", nargs="?", default="-")
    orc.add_argument("--state-budget", type=int, default=STATE_BUDGET)
    orc.add_argument("--node-limit", type=int, help="turn away instances with more nodes (default: no cap)")
    orc.add_argument("--json", action="store_true")
    orc.set_defaults(handler=_cmd_oracle)

    red = sub.add_parser("reduce", help="build the pricing instance for a CNF formula")
    red.add_argument("cnf", nargs="?", default="-")
    red.add_argument("--out", default="-")
    red.add_argument("--meta", default=None, help="also write sidecar metadata JSON here")
    red.add_argument("--json", action="store_true",
                     help="write one JSON object holding instance and metadata")
    red.set_defaults(handler=_cmd_reduce)

    ver = sub.add_parser("verify-gadgets", help="replay gadget sale patterns for a CNF formula")
    ver.add_argument("cnf", nargs="?", default="-")
    ver.add_argument("--json", action="store_true")
    ver.set_defaults(handler=_cmd_verify_gadgets)

    exp = sub.add_parser("experiment", help="seeded batch runs with CSV output")
    exp.add_argument("--family", required=True, choices=list(EXPERIMENTS))
    exp.add_argument("--trials", type=int, default=20)
    exp.add_argument("--master-seed", type=int, default=0)
    exp.add_argument("--jobs", type=int, default=1, help="parallel workers")
    _add_params(exp, (experiment.defaults for experiment in EXPERIMENTS.values()))
    exp.add_argument("--out", default="-")
    exp.set_defaults(handler=_cmd_experiment)

    return parser


def run_cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, OSError, OracleBudgetError) as exc:  # CnfError and JSONDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    status = run_cli(sys.argv[1:])
    # Exit without the interpreter's teardown, whose collections walk numpy's
    # objects to free what exit frees anyway: every file is closed by its
    # ``with`` and every pool shut down, so only the standard streams remain.
    try:
        sys.stdout.flush()
    except OSError as exc:  # the reader went away (BrokenPipeError)
        if status == 0:  # a failed write inside the command said so already
            print(f"error: {exc}", file=sys.stderr)
        status = 1
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    main()
