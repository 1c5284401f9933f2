"""Workload definitions: the inputs a seed produces and the commands of one job.

A job is one seed's full list of ``netprice`` commands for a workload. Every
input is derived from the workload seed, either by the benchmark itself
(``write_inputs``) or by passing the seed to ``netprice gen`` and
``netprice experiment``. The program receives only those inputs.

Why each workload is in the set:

* ``dense_unweighted``: G(2000, 0.3) (about 600k edges) through ``greedy``
  and ``single``, plus a split graph through ``split-dp``. Dominated by JSON
  dump/load, graph validation and dense per-round edge updates. No oracle.
* ``sparse_weighted``: a 10,000-node graph with 3n random edges and weights
  and intrinsic values uniform in [1, 10^6]. Values are almost all distinct,
  so greedy sells about one consumer per round for about 10k rounds and the
  simulator's per-round scan of every remaining consumer dominates.
* ``oracle_search``: weighted G(n, 0.5) instances with w in [1, 9] and
  nu in [0, 9], one at n=50 and two at n=40, through the exact oracle, plus
  the 4-variable reduction round trip and the forest-ratio and bound-sweep
  experiments. Memoized search dominates, and the many short commands expose
  CLI start-up. The three graphs are fixed draws (base seeds 0, 1, 2) whose
  node labels the workload seed permutes: a fresh draw per seed would swing
  the search between about 0.3x and 3x of its typical state count, while a
  relabelled graph keeps the same reachable residual sets, so job time and
  ``oracle.states`` stay comparable from seed to seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# Each variable occurs exactly three times, each clause has three distinct
# variables; satisfiable (x1 = x2 = x3 = true), so the oracle must reach the
# reduction threshold.
CNF_4X4 = "p cnf 4 4\n1 2 3 0\n-1 2 4 0\n1 -3 -4 0\n-2 3 4 0\n"

WARMUP = ["gen", "--family", "spider", "--k", "3", "--out", "warmup.json"]


@dataclass(frozen=True)
class Step:
    """One CLI command of a job.

    ``check`` names how the step's output is checked (see ``checks.py``):
    ``file`` digests ``output``; ``trace`` projects a ``--json`` pricing
    trace; ``oracle`` keeps the revenue only; ``gadgets`` needs ``ok``;
    ``threshold`` also needs the reduction's threshold; ``csv`` digests an
    experiment table. ``outputs`` are the files the step writes: they are
    deleted before each job so a failed step cannot pass on stale output.
    When ``stdout`` is set, the command's standard output goes to
    ``outputs[0]``. ``input`` names the instance file a check may read for
    its invariants.
    """

    name: str
    argv: tuple[str, ...]
    check: str
    outputs: tuple[str, ...]
    stdout: bool = False
    input: str | None = None


SIZES = {
    "full": {
        "er_n": 2000, "er_eta": "0.3", "split_n": 1000,
        "sparse_n": 10_000, "sparse_edges_per_node": 3, "value_max": 1_000_000,
        "ba_n": 5000, "forest_n": 400,
        "oracle_sizes": (50, 40, 40),
        "forest_trials": 20, "sweep_trials": 3, "sweep_max": 14,
    },
    "tiny": {
        "er_n": 60, "er_eta": "0.3", "split_n": 40,
        "sparse_n": 200, "sparse_edges_per_node": 3, "value_max": 1_000_000,
        "ba_n": 200, "forest_n": 30,
        "oracle_sizes": (10, 9, 8),
        "forest_trials": 3, "sweep_trials": 1, "sweep_max": 8,
    },
}


def _write_instance(path: Path, n: int, edges: list[tuple[int, int, int]], nu: list[int]) -> None:
    edges.sort()
    payload: dict = {"n": n, "edges": [list(e) for e in edges]}
    if any(nu):
        payload["nu"] = nu
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")


def _sparse_weighted(n: int, m: int, top: int, rng: random.Random) -> tuple[list, list]:
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    edges = [(u, v, rng.randint(1, top)) for u, v in sorted(pairs)]
    return edges, [rng.randint(1, top) for _ in range(n)]


def _dense_weighted(n: int, rng: random.Random) -> tuple[list, list]:
    edges = [(u, v, rng.randint(1, 9)) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    return edges, [rng.randint(0, 9) for _ in range(n)]


class Workload:
    name = ""

    def __init__(self, size: str, seed: int):
        self.p = SIZES[size]
        self.seed = seed

    def write_inputs(self, workdir: Path) -> None:
        """Write the seed's input files into ``workdir``."""

    def steps(self) -> list[Step]:
        raise NotImplementedError


class DenseUnweighted(Workload):
    name = "dense_unweighted"

    def steps(self) -> list[Step]:
        p, s = self.p, str(self.seed)
        return [
            Step("gen_er", ("gen", "--family", "er", "--n", str(p["er_n"]), "--eta", p["er_eta"],
                            "--seed", s, "--out", "er.json"), "file", ("er.json",)),
            Step("greedy_er", ("greedy", "er.json", "--json"), "trace", ("greedy_er.out",), stdout=True, input="er.json"),
            Step("single_er", ("single", "er.json", "--json"), "trace", ("single_er.out",), stdout=True, input="er.json"),
            Step("gen_split", ("gen", "--family", "split", "--n", str(p["split_n"]),
                               "--seed", s, "--out", "split.json"), "file", ("split.json",)),
            Step("split_dp", ("split-dp", "split.json", "--json"), "trace", ("split_dp.out",), stdout=True, input="split.json"),
        ]


class SparseWeighted(Workload):
    name = "sparse_weighted"

    def write_inputs(self, workdir: Path) -> None:
        p = self.p
        n = p["sparse_n"]
        rng = random.Random(self.seed)
        edges, nu = _sparse_weighted(n, p["sparse_edges_per_node"] * n, p["value_max"], rng)
        _write_instance(workdir / "sparse.json", n, edges, nu)

    def steps(self) -> list[Step]:
        p, s = self.p, str(self.seed)
        return [
            Step("greedy_sparse", ("greedy", "sparse.json", "--json"), "trace", ("greedy_sparse.out",), stdout=True, input="sparse.json"),
            Step("ba_ratio", ("experiment", "--family", "ba_ratio", "--trials", "2", "--n", str(p["ba_n"]),
                              "--master-seed", s, "--jobs", "1"), "csv", ("ba_ratio.csv",), stdout=True),
            Step("gen_forest", ("gen", "--family", "forest", "--n", str(p["forest_n"]), "--trees", "3",
                                "--seed", s, "--out", "forest.json"), "file", ("forest.json",)),
            Step("forest_single", ("forest-single", "forest.json", "--json"), "trace", ("forest_single.out",), stdout=True, input="forest.json"),
        ]


class OracleSearch(Workload):
    name = "oracle_search"

    def write_inputs(self, workdir: Path) -> None:
        for i, n in enumerate(self.p["oracle_sizes"]):
            edges, nu = _dense_weighted(n, random.Random(i))
            label = list(range(n))
            random.Random(self.seed * 1000 + i).shuffle(label)
            relabelled = [(min(label[u], label[v]), max(label[u], label[v]), w) for u, v, w in edges]
            _write_instance(workdir / f"w{i}.json", n, relabelled, [nu[label.index(v)] for v in range(n)])
        (workdir / "f4.cnf").write_text(CNF_4X4, encoding="utf-8")

    def steps(self) -> list[Step]:
        p, s = self.p, str(self.seed)
        steps = [
            Step(f"oracle_w{i}", ("oracle", f"w{i}.json", "--node-limit", "50", "--json"), "oracle",
                 (f"oracle_w{i}.out",), stdout=True, input=f"w{i}.json")
            for i in range(len(p["oracle_sizes"]))
        ]
        steps += [
            Step("reduce", ("reduce", "f4.cnf", "--out", "red.json", "--meta", "red.meta.json"),
                 "file", ("red.json", "red.meta.json")),
            Step("oracle_red", ("oracle", "red.json", "--node-limit", "32", "--json"), "threshold",
                 ("oracle_red.out",), stdout=True),
            Step("verify_gadgets", ("verify-gadgets", "f4.cnf", "--json"), "gadgets", ("gadgets.out",), stdout=True),
            Step("forest_ratio", ("experiment", "--family", "forest_ratio", "--trials", str(p["forest_trials"]),
                                  "--master-seed", s, "--jobs", "1"), "csv", ("forest_ratio.csv",), stdout=True),
            Step("bound_sweep", ("experiment", "--family", "bound_sweep", "--trials", str(p["sweep_trials"]),
                                 "--n-min", "6", "--n-max", str(p["sweep_max"]), "--master-seed", s, "--jobs", "1"),
                 "csv", ("bound_sweep.csv",), stdout=True),
        ]
        return steps


WORKLOADS = {w.name: w for w in (DenseUnweighted, SparseWeighted, OracleSearch)}
