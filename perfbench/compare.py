"""Compare two benchmark result files written by ``run.py --out``.

Usage::

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

For every workload and metric it prints both medians with their quartiles,
the relative delta, how many paired runs the change won, and a verdict:

* ``improved``: at least 10 pairs, the change wins at least 9 in 10 of them
  (ties count for neither) and the medians differ by more than the distance
  between the base's quartiles.
* ``worse``: the change's median is worse than the base's by more than the
  metric's bound in ``BENCHMARK.json``.
* ``unresolved``: the base's own spread (quartile distance over median) is
  wider than the bound, and not every change run beats every base run.
* ``no worse``: none of the above.

Per-layer metrics have no bound, so they are only ever ``improved`` or left
without a verdict. Runs pair up by workload and seed, in file order. Exact
counters recorded by traced runs are compared for equality per seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def pair_up(base: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Pair runs with the same seed, the k-th base run with the k-th change run."""
    by_seed = defaultdict(list)
    for record in change:
        by_seed[record["env"]["seed"]].append(record)
    pairs = []
    for record in base:
        candidates = by_seed.get(record["env"]["seed"])
        if candidates:
            pairs.append((record, candidates.pop(0)))
    return pairs


def verdict(base: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float | None) -> tuple[str, int]:
    sign = 1 if better == "lower" else -1
    base_med, change_med = statistics.median(base), statistics.median(change)
    q1, q3 = quartiles(base)
    wins = sum(1 for b, c in pairs if sign * (b - c) > 0)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and sign * (base_med - change_med) > q3 - q1:
        return "improved", wins
    if bound is None or base_med == 0:
        return "-", wins
    every_better = all(sign * (b - c) > 0 for b in base for c in change)
    if (q3 - q1) / abs(base_med) > bound and not every_better:
        return "unresolved", wins
    if sign * (change_med - base_med) / abs(base_med) > bound:
        return "worse", wins
    return "no worse", wins


def compare(base_runs: list[dict], change_runs: list[dict], spec: dict, out=sys.stdout) -> dict:
    """Print the comparison table; return {(workload, metric): verdict}."""
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    metrics.update({m["name"]: {**m, "bound": None} for m in spec["per_layer"]})
    for side, runs in (("base", base_runs), ("change", change_runs)):
        envs = {(r["env"]["git_commit"][:12], r["env"]["python"], r["env"]["numpy"], r["env"]["cpu_model"])
                for r in runs}
        print(f"{side}: {len(runs)} runs; commit/python/numpy/cpu: {sorted(envs)}", file=out)
    verdicts = {}
    header = f"{'workload':<17} {'metric':<30} {'base p50 [q1, q3]':>32} {'change p50':>12} {'delta':>8} {'wins':>6}  verdict"
    print(header, file=out)
    workloads = sorted({r["env"]["workload"] for r in base_runs} & {r["env"]["workload"] for r in change_runs})
    for workload in workloads:
        for trace in (0, 1):
            base = [r for r in base_runs if r["env"]["workload"] == workload and r["env"]["trace"] == trace]
            change = [r for r in change_runs if r["env"]["workload"] == workload and r["env"]["trace"] == trace]
            if not base or not change:
                continue
            pairs = pair_up(base, change)
            for name in base[0]["metrics"]:
                if name not in metrics:
                    continue
                b = [r["metrics"][name]["value"] for r in base]
                c = [r["metrics"][name]["value"] for r in change]
                if not any(b) and not any(c):
                    continue
                p = [(x["metrics"][name]["value"], y["metrics"][name]["value"]) for x, y in pairs]
                spec_m = metrics[name]
                word, wins = verdict(b, c, p, spec_m["better"], spec_m["bound"])
                verdicts[(workload, name)] = word
                bm, cm = statistics.median(b), statistics.median(c)
                q1, q3 = quartiles(b)
                delta = f"{(cm - bm) / abs(bm):+.1%}" if bm else "n/a"
                print(f"{workload:<17} {name:<30} {bm:>12.5g} [{q1:>8.5g}, {q3:>8.5g}] {cm:>12.5g} "
                      f"{delta:>8} {wins:>2}/{len(p):<3}  {word}", file=out)
            for base_run, change_run in pairs:
                if "counters" in base_run and "counters" in change_run:
                    same = base_run["counters"] == change_run["counters"]
                    diff = {k: (v, change_run["counters"].get(k)) for k, v in base_run["counters"].items()
                            if change_run["counters"].get(k) != v}
                    print(f"{workload:<17} counters seed {base_run['env']['seed']}: "
                          f"{'same' if same else 'differ ' + json.dumps(diff)}", file=out)
        failed = [sum(r["failed"] for r in runs) for runs in (
            [r for r in base_runs if r["env"]["workload"] == workload],
            [r for r in change_runs if r["env"]["workload"] == workload])]
        print(f"{workload:<17} failed jobs: base {failed[0]}, change {failed[1]}", file=out)
    return verdicts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two run.py --out result files.")
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    compare(load(args.base), load(args.change), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
