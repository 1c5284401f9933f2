"""Smoke test of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench/test_smoke.py``.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import compare  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace, section, tmp_path):
    out = tmp_path / "results.jsonl"
    line = result(bench("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace),
                        "--size", "tiny", "--out", str(out)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[section]}
    record = json.loads(out.read_text(encoding="utf-8"))
    assert {"python", "numpy", "nproc", "cpu_model", "caches", "git_commit", "seed", "seconds"} <= set(record["env"])
    table = io.StringIO()
    verdicts = compare.compare([record], [record], SPEC, out=table)
    if trace == 0:
        assert {verdicts[(workload, m["name"])] for m in SPEC["end_to_end"]} == {"no worse"}
    else:
        assert "counters seed 3: same" in table.getvalue()


def test_corrupted_digest_fails_the_job(tmp_path):
    expected = tmp_path / "expected.json"
    common = ["--workload", "dense_unweighted", "--seed", "5", "--size", "tiny", "--expected", str(expected)]
    assert bench(*common, "--record").returncode == 0
    assert result(bench(*common, "--seconds", "0.2"))["correct"] is True

    data = json.loads(expected.read_text(encoding="utf-8"))
    checks = data["tiny"]["dense_unweighted"]["5"]["checks"]
    checks["greedy_er"] = "0" * 64
    expected.write_text(json.dumps(data), encoding="utf-8")
    line = result(bench(*common, "--seconds", "0.2"))
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] >= 1


def test_verdicts():
    base = [10.0 + 0.1 * i for i in range(10)]
    faster = [b * 0.7 for b in base]
    pairs = list(zip(base, faster))
    assert compare.verdict(base, faster, pairs, "lower", 0.1)[0] == "improved"
    assert compare.verdict(faster, base, list(zip(faster, base)), "lower", 0.1)[0] == "worse"
    assert compare.verdict(base, base, list(zip(base, base)), "lower", 0.1)[0] == "no worse"
    noisy = [1.0, 2.0, 3.0, 4.0]
    assert compare.verdict(noisy, noisy, list(zip(noisy, noisy)), "lower", 0.1)[0] == "unresolved"


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "oracle_search", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
