"""Traced pass: spans around calls into each layer of ``netprice``.

No span is recorded inside the package. ``Tracer.patch`` replaces public
functions in the module namespaces where callers look them up (for example
``netprice.cli.greedy_iterative`` and ``netprice.algorithms.simulate``) with
wrappers that record a span: name, start, end and parent. A layer's self
time is its spans' durations minus the part covered by their child spans.

Run as a script, this module is one traced CLI command in a fresh
interpreter, so every command starts cold (empty caches, nothing imported)
as it does end to end::

    python3 perfbench/tracing.py SPANS.json greedy sparse.json --json

It installs the wrappers, runs ``netprice.cli.run_cli`` on the remaining
arguments and writes the command's spans to ``SPANS.json``. Counts are taken
from the wrapped calls' arguments and results after the command, outside
every span, so counting adds no time to any layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time

# (module, attribute, span name): every public function the workloads' commands
# reach, once per namespace that calls it. Each wrapper calls the original, so
# nested calls nest spans.
_CLI = "netprice.cli"
TRACED = [
    (_CLI, "run_experiment", "cli.run_experiment"),
    (_CLI, "load_instance", "core.loads"),
    (_CLI, "dumps_instance", "core.dumps"),
    (_CLI, "gen_er", "generators.gen_er"),
    (_CLI, "gen_ba", "generators.gen_ba"),
    (_CLI, "gen_forest", "generators.gen_forest"),
    (_CLI, "greedy_iterative", "algorithms.greedy"),
    (_CLI, "best_single_price", "algorithms.single"),
    (_CLI, "forest_single_price", "algorithms.forest_single"),
    (_CLI, "split_dp", "algorithms.split_dp"),
    (_CLI, "ba_single_price", "algorithms.ba_single"),
    (_CLI, "min_degree_independent", "algorithms.min_degree_independent"),
    (_CLI, "degree_bound", "algorithms.degree_bound"),
    (_CLI, "exact_opt", "oracle.exact_opt"),
    (_CLI, "parse_dimacs", "reduction.parse"),
    (_CLI, "build_reduction", "reduction.build"),
    (_CLI, "artifact_metadata", "reduction.metadata"),
    (_CLI, "verify_gadget_claims", "reduction.verify_gadgets"),
    ("netprice.generators", "gen_er", "generators.gen_er"),
    ("netprice.generators", "gen_split", "generators.gen_split"),
    ("netprice.generators", "gen_forest", "generators.gen_forest"),
    ("netprice.algorithms", "simulate", "engine.simulate"),
    ("netprice.algorithms", "recognize_split", "algorithms.recognize_split"),
    ("netprice.oracle", "simulate", "engine.simulate"),
    ("netprice.reduction", "simulate", "engine.simulate"),
]

LAYERS = ("cli", "generators", "core", "engine", "algorithms", "oracle", "reduction")


def _edges(result) -> int:
    if isinstance(result, tuple):  # gen_split returns (instance, partition)
        result = result[0]
    return result.graph.edge_count


# Span name -> what to keep of (args, result) once the span has ended. Only
# O(1) work happens here, inside the parent's span; ``_count`` reduces what is
# kept to numbers after the command.
_KEEP = {
    "core.loads": lambda args, result: (result.graph.edge_count, os.path.getsize(args[0])),
    "engine.simulate": lambda args, result: (args[0].node_count, result),
    "algorithms.greedy": lambda args, result: len(result.prices),
    "oracle.exact_opt": lambda args, result: result.states_explored,
}
_KEEP.update((name, lambda args, result: _edges(result))
             for _, _, name in TRACED if name.startswith("generators.gen_"))


class Span:
    __slots__ = ("name", "start", "end", "child", "kept", "failed")

    def __init__(self, name: str):
        self.name = name
        self.child = 0.0
        self.kept = None
        self.failed: BaseException | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        keep = _KEEP.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name)
            self.spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.failed = exc
                raise
            finally:
                span.end = clock()
                stack.pop()
                if stack:
                    stack[-1].child += span.end - span.start
            if keep is not None:
                span.kept = keep(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def patch(self):
        """Install the wrappers for the duration of the block."""
        saved = []
        try:
            for module_name, attr, span_name in TRACED:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _count(span: Span):
    """The JSON-ready count kept for ``span``: what ``job_metrics`` reads."""
    if span.name == "engine.simulate" and span.kept is not None:
        remaining, trace = span.kept
        buyers = scanned = 0
        for sale in trace.rounds:
            scanned += remaining
            buyers += len(sale.buyers)
            remaining -= len(sale.buyers)
        return [len(trace.rounds), buyers, scanned]
    return span.kept


def span_records(spans: list[Span]) -> list[dict]:
    return [{"name": s.name, "duration": s.end - s.start, "self": s.self_time, "child": s.child,
             "count": _count(s), "failed": type(s.failed).__name__ if s.failed else None}
            for s in spans]


def job_metrics(spans: list[dict], job_s: float, startup_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced job from its commands' span records.

    ``trace.gap_s`` is the job time that neither the layers' self times nor
    one ``startup_s`` per command account for: tracing, writing the spans
    and interpreter exit.
    """
    total: dict[str, float] = {}
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    counts = dict.fromkeys(
        ("generators.edges", "core.edges", "core.input_bytes", "engine.simulate_rounds",
         "engine.buyers", "engine.scanned", "algorithms.greedy_rounds", "oracle.states",
         "oracle.budget_hits", "trace.commands"), 0)
    greedy_child = 0.0
    for span in spans:
        name, kept = span["name"], span["count"]
        total[name] = total.get(name, 0.0) + span["duration"]
        self_by_layer[name.split(".", 1)[0]] += span["self"]
        if name == "cli.command":
            counts["trace.commands"] += 1
        elif name == "oracle.exact_opt" and span["failed"] == "OracleBudgetError":
            counts["oracle.budget_hits"] += 1
        if kept is None:
            continue
        if name.startswith("generators.gen_"):
            counts["generators.edges"] += kept
        elif name == "core.loads":
            counts["core.edges"] += kept[0]
            counts["core.input_bytes"] += kept[1]
        elif name == "engine.simulate":
            counts["engine.simulate_rounds"] += kept[0]
            counts["engine.buyers"] += kept[1]
            counts["engine.scanned"] += kept[2]
        elif name == "algorithms.greedy":
            greedy_child += span["child"]
            counts["algorithms.greedy_rounds"] += kept
        elif name == "oracle.exact_opt":
            counts["oracle.states"] += kept

    def t(name: str) -> float:
        return total.get(name, 0.0)

    layer_sum = sum(self_by_layer.values())
    metrics = {
        "cli.run_experiment_s": t("cli.run_experiment"),
        "generators.gen_er_s": t("generators.gen_er"),
        "generators.gen_split_s": t("generators.gen_split"),
        "generators.gen_ba_s": t("generators.gen_ba"),
        "generators.gen_forest_s": t("generators.gen_forest"),
        "generators.edges": counts["generators.edges"],
        "core.loads_s": t("core.loads"),
        "core.dumps_s": t("core.dumps"),
        "core.input_mb": counts["core.input_bytes"] / 1e6,
        "core.edges": counts["core.edges"],
        "engine.simulate_s": t("engine.simulate"),
        "engine.simulate_rounds": counts["engine.simulate_rounds"],
        "engine.simulate_us_per_round": _ratio(t("engine.simulate") * 1e6, counts["engine.simulate_rounds"]),
        "engine.buyers_per_scanned": _ratio(counts["engine.buyers"], counts["engine.scanned"]),
        "algorithms.greedy_s": t("algorithms.greedy"),
        "algorithms.greedy_self_s": t("algorithms.greedy") - greedy_child,
        "algorithms.greedy_rounds": counts["algorithms.greedy_rounds"],
        "algorithms.single_s": t("algorithms.single"),
        "algorithms.recognize_split_s": t("algorithms.recognize_split"),
        "algorithms.split_dp_s": t("algorithms.split_dp"),
        "algorithms.forest_single_s": t("algorithms.forest_single"),
        "oracle.exact_opt_s": t("oracle.exact_opt"),
        "oracle.states": counts["oracle.states"],
        "oracle.us_per_state": _ratio(t("oracle.exact_opt") * 1e6, counts["oracle.states"]),
        "oracle.budget_hits": counts["oracle.budget_hits"],
        "reduction.build_s": t("reduction.build"),
        "reduction.verify_gadgets_s": t("reduction.verify_gadgets"),
        "trace.job_s": job_s,
        "trace.gap_s": job_s - layer_sum - counts["trace.commands"] * startup_s,
        "trace.commands": counts["trace.commands"],
    }
    for layer, value in self_by_layer.items():
        metrics[f"{layer}.self_s"] = value
    return metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def main(argv: list[str]) -> int:
    """Run one traced CLI command; write its spans to ``argv[0]``."""
    import netprice.cli

    tracer = Tracer()
    run_cli = tracer.wrap("cli.command", netprice.cli.run_cli)
    try:
        with tracer.patch():
            return run_cli(argv[1:])
    finally:
        with open(argv[0], "w", encoding="utf-8") as handle:
            json.dump(span_records(tracer.spans), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
