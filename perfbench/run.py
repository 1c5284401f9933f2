"""Benchmark runner for the ``netprice`` CLI.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dense_unweighted --seed 1 --seconds 42 --trace 0
    python3 perfbench/run.py --workload oracle_search --seed 1 --seconds 42 --trace 1 --out r.jsonl
    python3 perfbench/run.py --workload sparse_weighted --seed 1 --record

Workloads and the reason for each are in ``workloads.py``. The workload seed
makes every input. One benchmark process runs one ``netprice`` child at a time
(``experiment`` gets ``--jobs 1``), so a run uses at most two cores.

``--trace 0`` (end to end): set-up runs five times (write the inputs, then
one untimed warm-up command that fills the bytecode cache); ``setup_s`` is
their median. Then jobs run in a closed loop until ``--seconds`` have passed:
a job is the workload's full command list for the seed, each command a fresh
``python -m netprice.cli`` child. Reported: ``job_s.p50`` (median job wall
time), ``job_cpu_s.p50`` (median user+sys CPU of the job's children),
``peak_rss_mb`` (largest child resident set, from ``os.wait4``) and
``setup_s``. ``failed_ratio`` is ``failed / attempted``: a job fails on a
non-zero exit (an oracle budget hit exits 1) or on output that fails its
check (``checks.py``). Checks run outside the timed region.

``--trace 1`` (per layer): the same jobs, each command a fresh interpreter
that runs ``netprice.cli.run_cli`` with spans around each layer's public
functions (``tracing.py``), for ``--seconds``. Per-layer metrics are medians
over the traced jobs. ``trace.job_s`` is the traced job's wall time: the
layers' self times, ``trace.commands * cli.startup_s`` and ``trace.gap_s``
(tracing, writing the spans, interpreter exit) add up to it.
``engine.normalize_s`` and ``reduction.best_assignment_s`` are on no CLI
path: they are timed once per run, in this process, on the job's instances.

Both passes run jobs in a closed loop and start no job that the median job
so far says would end after ``--seconds``; every run has at least one job.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--out FILE`` appends the full
record (every job, counters, environment) to a JSON-lines file that
``compare.py`` reads. ``--record`` runs one traced job and stores its output
observations and exact counters in ``expected.json`` as the reference for
that seed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from checks import JobChecker, load_expected, recorded_entry, store_entry  # noqa: E402
from tracing import job_metrics  # noqa: E402
from workloads import CNF_4X4, SIZES, WARMUP, WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
STARTUP_REPEATS = 5
EXACT_COUNTERS = ("oracle.states", "algorithms.greedy_rounds", "engine.simulate_rounds",
                  "generators.edges", "core.edges")


def child_env() -> dict[str, str]:
    # Children keep their bytecode cache, as an installed program does; the
    # set-up's warm-up command fills it, so no job pays for compiling.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list[str], cwd: Path, stdout_path: Path | None) -> tuple[int, float, float, int, str]:
    """Run one child to completion: (exit code, wall s, cpu s, max rss KiB, stderr tail)."""
    err_path = cwd / "stderr.txt"
    with open(stdout_path or os.devnull, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    tail = err_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:] if code else []
    return code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, " ".join(tail)


def netprice(argv) -> list[str]:
    return [sys.executable, "-m", "netprice.cli", *argv]


def setup(workload, workdir: Path) -> float:
    """Fresh work directory, inputs and one warm-up command; returns its seconds."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    start = time.perf_counter()
    workload.write_inputs(workdir)
    code, *_, tail = run_child(netprice(WARMUP), workdir, None)
    elapsed = time.perf_counter() - start
    if code:
        raise SystemExit(f"warm-up command failed: {tail}")
    return elapsed


def clear_outputs(steps, workdir: Path) -> None:
    for step in steps:
        for name in step.outputs:
            (workdir / name).unlink(missing_ok=True)


def e2e_job(steps, workdir: Path) -> dict:
    clear_outputs(steps, workdir)
    walls, cpus = [], []
    rss = 0
    errors = []
    for step in steps:
        out = workdir / step.outputs[0] if step.stdout else None
        code, step_wall, step_cpu, step_rss, tail = run_child(netprice(step.argv), workdir, out)
        walls.append(step_wall)
        cpus.append(step_cpu)
        rss = max(rss, step_rss)
        if code:
            errors.append(f"{step.name}: exit {code}: {tail}")
    return {"wall_s": sum(walls), "cpu_s": sum(cpus), "rss_mb": rss / 1024, "errors": errors,
            "step_wall_s": walls, "step_cpu_s": cpus}


def traced_job(steps, workdir: Path) -> tuple[dict, list]:
    clear_outputs(steps, workdir)
    spans_path = workdir / "spans.json"
    wall = 0.0
    errors, spans = [], []
    for step in steps:
        out = workdir / step.outputs[0] if step.stdout else None
        spans_path.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "tracing.py"), str(spans_path), *step.argv]
        code, step_wall, *_, tail = run_child(argv, workdir, out)
        wall += step_wall
        if code:
            errors.append(f"{step.name}: exit {code}: {tail}")
        try:
            spans += json.loads(spans_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            errors.append(f"{step.name}: no spans ({exc})")
    return {"wall_s": wall, "errors": errors}, spans


def closed_loop(seconds: float, one_job) -> list:
    """Run ``one_job()`` until the next one would end after ``seconds``."""
    results, took = [], []
    start = time.perf_counter()
    while not results or time.perf_counter() - start + median(took) <= seconds:
        begin = time.perf_counter()
        results.append(one_job())
        took.append(time.perf_counter() - begin)
    return results


def untraced_layers(steps, workdir: Path) -> tuple[dict[str, float], list[str]]:
    """Time the per-layer calls no CLI command makes, once, on this job's inputs."""
    sys.path.insert(0, str(SRC))
    from netprice import (best_assignment_revenue, build_reduction, load_instance, normalize,
                          parse_dimacs)

    metrics = {"engine.normalize_s": 0.0, "reduction.best_assignment_s": 0.0}
    errors = []
    for step in steps:
        if step.argv[0] == "greedy":
            instance = load_instance(str(workdir / step.input))
            prices = json.loads((workdir / step.outputs[0]).read_text(encoding="utf-8"))["prices"]
            start = time.perf_counter()
            normalized = normalize(instance, prices)
            metrics["engine.normalize_s"] += time.perf_counter() - start
            if len(normalized) != len(prices):
                errors.append(f"normalize({step.name}): {len(normalized)} rounds, greedy has {len(prices)}")
        elif step.argv[0] == "reduce":
            artifact = build_reduction(parse_dimacs(CNF_4X4))
            start = time.perf_counter()
            revenue, _ = best_assignment_revenue(artifact)
            metrics["reduction.best_assignment_s"] += time.perf_counter() - start
            if revenue != artifact.threshold:
                errors.append(f"best_assignment_revenue {revenue} != threshold {artifact.threshold}")
    return metrics, errors


def startup_seconds(workdir: Path) -> float:
    """One fresh interpreter that imports ``netprice.cli`` and exits."""
    code, wall, *_ = run_child([sys.executable, "-c", "import netprice.cli"], workdir, None)
    if code:
        raise SystemExit("cannot import netprice.cli")
    return wall


def environment(args) -> dict:
    def read(path: Path) -> str:
        try:
            return path.read_text(encoding="utf-8").strip()
        except OSError:
            return ""

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "unknown"
    cpu_model = next((line.split(":", 1)[1].strip() for line in read(Path("/proc/cpuinfo")).splitlines()
                      if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (read(index / name) for name in ("level", "type", "size"))
        caches[f"L{level}{kind[0].lower() if kind in ('Data', 'Instruction') else ''}"] = size
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "git_commit": commit or "unknown",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_e2e(args, workload, steps, workdir: Path, checker) -> dict:
    setups = [setup(workload, workdir) for _ in range(SETUP_REPEATS)]

    def one_job() -> dict:
        job = e2e_job(steps, workdir)
        job["errors"] += [] if job["errors"] else checker.check()
        return job

    jobs = closed_loop(args.seconds, one_job)
    metrics = {
        "job_s.p50": (median([j["wall_s"] for j in jobs]), "s"),
        "job_cpu_s.p50": (median([j["cpu_s"] for j in jobs]), "s"),
        "peak_rss_mb": (max(j["rss_mb"] for j in jobs), "MB"),
        "setup_s": (median(setups), "s"),
    }
    return {"jobs": jobs, "metrics": metrics, "setup_samples": setups}


def run_traced(args, workload, steps, workdir: Path, checker, extras: bool = True) -> dict:
    setup(workload, workdir)
    # Start-up is sampled between the jobs too, so that it is measured in the
    # same stretch of time as the jobs whose gap it helps explain.
    startups = [startup_seconds(workdir) for _ in range(STARTUP_REPEATS)]

    def one_job() -> tuple[dict, list]:
        job, spans = traced_job(steps, workdir)
        job["errors"] += [] if job["errors"] else checker.check()
        startups.append(startup_seconds(workdir))
        return job, spans

    jobs, spans = map(list, zip(*closed_loop(args.seconds, one_job)))
    startup = median(startups)
    per_job = [job_metrics(job_spans, job["wall_s"], startup) for job, job_spans in zip(jobs, spans)]
    counters = {name: per_job[0][name] for name in EXACT_COUNTERS}
    stable = all(all(m[name] == counters[name] for name in EXACT_COUNTERS) for m in per_job)
    result = {"jobs": jobs, "counters": counters, "counters_stable": stable}
    if extras:
        extra, extra_errors = untraced_layers(steps, workdir)
        jobs[-1]["errors"] += extra_errors
        extra["cli.startup_s"] = startup
        values = {name: median([m[name] for m in per_job]) for name in per_job[0]}
        values.update(extra)
        result["metrics"] = {name: (values[name], unit) for name, unit in per_layer_units().items()}
    return result


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def record(args, workload, steps, workdir: Path) -> int:
    """Store one traced job's observations and counters as the seed's reference."""
    checker = JobChecker(steps, workdir, None)
    args.seconds = 0
    result = run_traced(args, workload, steps, workdir, checker, extras=False)
    errors = result["jobs"][0]["errors"]
    if errors or not result["counters_stable"]:
        print("not recorded: " + "; ".join(errors or ["counters differ between jobs"]), file=sys.stderr)
        return 1
    entry = {"checks": checker.first, "counters": result["counters"]}
    store_entry(Path(args.expected), args.size, workload.name, args.seed, entry)
    print(json.dumps({"recorded": f"{args.size}/{workload.name}/{args.seed}", **entry}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=42)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    parser.add_argument("--out", help="append the full result record to this JSON-lines file")
    parser.add_argument("--expected", default=str(HERE / "expected.json"),
                        help="recorded observations and counters per seed")
    parser.add_argument("--record", action="store_true",
                        help="store this seed's observations and counters instead of measuring")
    args = parser.parse_args(argv)
    # Termination unwinds like an exception, so children are killed and the
    # work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "netprice" / "cli.py").is_file():
        print(f"error: no netprice sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.size, args.seed)
    steps = workload.steps()
    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.size}-{args.seed}"
    try:
        if args.record:
            return record(args, workload, steps, workdir)
        expected = recorded_entry(load_expected(Path(args.expected)), args.size, args.workload, args.seed)
        checker = JobChecker(steps, workdir, expected["checks"] if expected else None)
        run = (run_traced if args.trace else run_e2e)(args, workload, steps, workdir, checker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            workdir.parent.rmdir()

    jobs = run["jobs"]
    failed = sum(1 for job in jobs if job["errors"])
    for index, job in enumerate(jobs):
        for error in job["errors"]:
            print(f"job {index} failed: {error}", file=sys.stderr)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in run["metrics"].items()}
    for name, (value, unit) in run["metrics"].items():
        print(f"{args.workload:>17} {name:<32} {value:>14.6g} {unit}")
    print(f"{args.workload:>17} {'failed_ratio':<32} {failed / len(jobs):>14.6g} ratio "
          f"({failed} of {len(jobs)} jobs)")
    if "counters" in run:
        match = None if expected is None else expected["counters"] == run["counters"]
        run["counters_match_record"] = match
        print(f"{args.workload:>17} counters {json.dumps(run['counters'])} "
              f"stable={run['counters_stable']} match_record={match}")
    if args.out:
        line = {"env": environment(args), "attempted": len(jobs), "failed": failed,
                "failed_ratio": failed / len(jobs), "recorded_seed": expected is not None,
                **{k: v for k, v in run.items() if k != "metrics"}, "metrics": metrics}
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(line) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
