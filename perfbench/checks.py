"""Output checks for benchmark jobs, run outside the timed region.

Each step's output is reduced to one observation string:

* ``file`` / ``csv``: SHA-256 of the output files.
* ``trace``: SHA-256 of the prices, per-round buyers and revenues of a
  ``--json`` pricing trace, so a change of output layout alone is no failure.
* ``oracle`` / ``threshold``: the optimal revenue only; a correct search may
  realize the optimum with another sequence or state count.
* ``gadgets``: ``ok`` or the first failing gadget.

A job passes when every step exited 0 and every observation equals the one
recorded for this seed in ``expected.json`` (recorded from a reference
commit with ``run.py --record``). For a seed with no record, observations
must equal the first job's of the run, and the first job's outputs must pass
invariants that hold for any correct program: trace arithmetic, the greedy
guarantee revenue >= nu(V) + w(E), an independently computed best single
price, the forest 1.5 ratio, the (1 + ln n) degree bound and the reduction
threshold. The threshold check runs on every job, recorded or not.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import heapq
import io
import json
import os
from pathlib import Path


class CheckError(Exception):
    """A step's output is wrong."""


def _sha(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(len(chunk).to_bytes(8, "big"))
        digest.update(chunk)
    return digest.hexdigest()


def _load_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckError(f"{path.name}: unreadable output ({exc})") from None


def observe(step, workdir: Path) -> str:
    """The observation string for one finished step."""
    first = workdir / step.outputs[0]
    if step.check in ("file", "csv"):
        try:
            return _sha(*((workdir / name).read_bytes() for name in step.outputs))
        except OSError as exc:
            raise CheckError(f"{step.name}: missing output ({exc})") from None
    out = _load_json(first)
    if step.check == "trace":
        rounds = out["rounds"]
        projection = {
            "prices": out["prices"],
            "buyers": [sorted(r["buyers"]) for r in rounds],
            "revenues": [r["revenue"] for r in rounds],
            "total": out["total_revenue"],
        }
        return _sha(json.dumps(projection, separators=(",", ":")).encode())
    if step.check in ("oracle", "threshold"):
        revenue = out["revenue"]
        if step.check == "threshold":
            meta = _load_json(workdir / "red.meta.json")
            if revenue != meta["threshold"]:
                raise CheckError(f"{step.name}: revenue {revenue} != threshold {meta['threshold']}")
        return str(revenue)
    if step.check == "gadgets":
        failed = [c["gadget"] for c in out["checks"] if not c["passed"]]
        if not out["ok"] or failed:
            raise CheckError(f"{step.name}: gadget claims failed: {failed[:3]}")
        return "ok"
    raise ValueError(f"unknown check {step.check!r}")


# --- invariants for seeds without a record ----------------------------------


class _Instance:
    """An instance file's values, read independently of the package."""

    def __init__(self, path: Path):
        payload = _load_json(path)
        self.n = n = payload["n"]
        self.values = list(payload.get("nu", [0] * n))
        self.degrees = [0] * n
        self.weight = 0
        self.adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for u, v, w in payload["edges"]:
            self.values[u] += w
            self.values[v] += w
            self.degrees[u] += 1
            self.degrees[v] += 1
            self.weight += w
            self.adjacency[u].append((v, w))
            self.adjacency[v].append((u, w))

    def best_single(self) -> int:
        ranked = sorted(self.values, reverse=True)
        best = 0
        for index, price in enumerate(ranked, start=1):
            if index == len(ranked) or ranked[index] != price:
                best = max(best, price * index)
        return best

    def greedy(self) -> list[tuple[int, list[int]]]:
        """Reference greedy: each round posts the highest current value."""
        values = list(self.values)
        remaining = set(range(self.n))
        heap = [(-v, i) for i, v in enumerate(values)]
        heapq.heapify(heap)
        rounds = []
        while remaining:
            while heap[0][1] not in remaining or -heap[0][0] != values[heap[0][1]]:
                heapq.heappop(heap)  # stale: sold, or valued before a neighbour bought
            price = -heap[0][0]
            buyers = []
            while heap and -heap[0][0] >= price:
                negative, node = heapq.heappop(heap)
                if node in remaining and -negative == values[node]:
                    buyers.append(node)
            remaining.difference_update(buyers)
            for buyer in buyers:
                for neighbor, weight in self.adjacency[buyer]:
                    if neighbor in remaining:
                        values[neighbor] -= weight
                        heapq.heappush(heap, (-values[neighbor], neighbor))
            rounds.append((price, sorted(buyers)))
        return rounds


@functools.lru_cache(maxsize=1)
def _read_instance(path: Path) -> _Instance:
    return _Instance(path)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _trace_invariants(step, workdir: Path) -> None:
    out = _load_json(workdir / step.outputs[0])
    instance = _read_instance(workdir / step.input)
    seen: set[int] = set()
    total = 0
    for r in out["rounds"]:
        _require(r["revenue"] == r["price"] * len(r["buyers"]), f"{step.name}: round revenue != price x buyers")
        _require(seen.isdisjoint(r["buyers"]), f"{step.name}: a consumer buys twice")
        seen.update(r["buyers"])
        total += r["revenue"]
    _require(total == out["total_revenue"], f"{step.name}: total revenue != sum of rounds")
    _require(seen <= set(range(instance.n)), f"{step.name}: buyer out of range")
    prices = out["prices"]
    _require(all(a > b for a, b in zip(prices, prices[1:])), f"{step.name}: prices not decreasing")
    command = step.argv[0]
    if command == "greedy":
        observed = [(r["price"], sorted(r["buyers"])) for r in out["rounds"]]
        _require(observed == instance.greedy(), f"{step.name}: differs from the reference greedy")
        _require(total >= sum(instance.values) - instance.weight, f"{step.name}: revenue below nu(V) + w(E)")
    elif command == "single":
        _require(total == instance.best_single(), f"{step.name}: not the best single price")
    elif command == "forest-single":
        at_1 = sum(1 for d in instance.degrees if d >= 1)
        at_2 = 2 * sum(1 for d in instance.degrees if d >= 2)
        _require(total == max(at_1, at_2), f"{step.name}: not the better of prices 1 and 2")
    elif command == "split-dp":
        _require_optimum_range(step.name, total, instance)


def _require_optimum_range(name: str, revenue: int, instance: _Instance) -> None:
    """An optimum is at least any feasible revenue and at most the sum of values."""
    greedy_revenue = sum(price * len(buyers) for price, buyers in instance.greedy())
    _require(max(greedy_revenue, instance.best_single()) <= revenue <= sum(instance.values),
             f"{name}: optimum {revenue} below greedy/single or above the sum of values")


def _oracle_invariants(step, workdir: Path) -> None:
    revenue = _load_json(workdir / step.outputs[0])["revenue"]
    _require_optimum_range(step.name, revenue, _read_instance(workdir / step.input))


def _csv_invariants(step, workdir: Path) -> None:
    rows = list(csv.DictReader(io.StringIO((workdir / step.outputs[0]).read_text(encoding="utf-8"))))

    def arg(flag: str) -> str:
        return step.argv[step.argv.index(flag) + 1]

    family, trials = arg("--family"), int(arg("--trials"))
    if family == "bound_sweep":
        trials *= int(arg("--n-max")) - int(arg("--n-min")) + 1
    _require(len(rows) == trials, f"{step.name}: {len(rows)} rows, expected {trials}")
    for row in rows:
        if family == "forest_ratio" and row["oracle_revenue"]:
            single, opt = int(row["single_revenue"]), int(row["oracle_revenue"])
            _require(single <= opt and 2 * opt <= 3 * single, f"{step.name}: forest ratio above 1.5")
        elif family == "bound_sweep":
            _require(int(row["oracle_revenue"]) <= float(row["log_cap"]) + 1e-6, f"{step.name}: above degree bound")
        elif family == "ba_ratio":
            _require(int(row["single_revenue"]) == int(row["n"]) * int(row["price"]), f"{step.name}: single != n*beta")
            _require(int(row["greedy_revenue"]) >= int(row["edges"]), f"{step.name}: greedy below w(E)")


_INVARIANTS = {"trace": _trace_invariants, "oracle": _oracle_invariants, "csv": _csv_invariants}


def check_invariants(step, workdir: Path) -> None:
    """Raise CheckError if ``step``'s output breaks a property of any correct run."""
    checker = _INVARIANTS.get(step.check)
    if checker is not None:
        try:
            checker(step, workdir)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckError(f"{step.name}: malformed output ({exc!r})") from None


class JobChecker:
    """Checks every job of one run against the record or the run's first job."""

    def __init__(self, steps, workdir: Path, recorded: dict | None):
        self.steps = steps
        self.workdir = workdir
        self.recorded = recorded
        self.first: dict[str, str] | None = None

    def observe_all(self) -> dict[str, str]:
        return {step.name: observe(step, self.workdir) for step in self.steps}

    def check(self) -> list[str]:
        """Problems with the outputs now in the work directory (empty if none)."""
        try:
            seen = self.observe_all()
        except (CheckError, KeyError, TypeError) as exc:
            return [str(exc)]
        if self.recorded is not None:
            reference = self.recorded
        elif self.first is None:
            for step in self.steps:
                try:
                    check_invariants(step, self.workdir)
                except CheckError as exc:
                    return [str(exc)]
            self.first = reference = seen
        else:
            reference = self.first
        return [
            f"{name}: observed {seen.get(name)!r}, expected {want!r}"
            for name, want in reference.items()
            if seen.get(name) != want
        ]


def load_expected(path: Path) -> dict:
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def recorded_entry(expected: dict, size: str, workload: str, seed: int) -> dict | None:
    return expected.get(size, {}).get(workload, {}).get(str(seed))


def store_entry(path: Path, size: str, workload: str, seed: int, entry: dict) -> None:
    expected = load_expected(path)
    expected.setdefault(size, {}).setdefault(workload, {})[str(seed)] = entry
    for per_size in expected.values():
        for name, seeds in per_size.items():
            per_size[name] = dict(sorted(seeds.items(), key=lambda item: int(item[0])))
    partial = path.with_suffix(".tmp")
    partial.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(partial, path)
