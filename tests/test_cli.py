"""Command-line interface: subcommands, streams, exit codes, experiments."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netprice
from netprice import (PncInstance, dumps_instance, gen_er, gen_forest, gen_spider, gen_split,
                      greedy_iterative, loads_instance, simulate)
from netprice.cli import (
    EXPERIMENTS,
    _build_parser,
    _trace_json,
    experiment_tasks,
    run_cli,
    run_experiment,
)
from references import weighted_instances

SAMPLE_CNF = """\
p cnf 3 3
1 2 3 0
-1 -2 3 0
1 -2 -3 0
"""

# The 4-variable formula of the benchmark's reduction round trip (32 nodes).
CNF_4X4 = "p cnf 4 4\n1 2 3 0\n-1 2 4 0\n1 -3 -4 0\n-2 3 4 0\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _spider_file(tmp_path, k=3):
    return _write(tmp_path, f"spider{k}.json", dumps_instance(gen_spider(k)))


# --- gen -----------------------------------------------------------------------


def test_gen_writes_canonical_instance(tmp_path, capsys):
    out = str(tmp_path / "er.json")
    assert run_cli(["gen", "--family", "er", "--n", "12", "--eta", "0.5",
                    "--seed", "3", "--out", out]) == 0
    text = open(out, encoding="utf-8").read()
    assert text == dumps_instance(gen_er(12, 0.5, seed=3))
    assert run_cli(["gen", "--family", "er", "--n", "12", "--eta", "0.5",
                    "--seed", "3"]) == 0
    assert capsys.readouterr().out == text


def test_gen_is_byte_reproducible(tmp_path):
    paths = [str(tmp_path / f"ba{i}.json") for i in range(2)]
    for path in paths:
        assert run_cli(["gen", "--family", "ba", "--n", "25", "--beta", "2",
                        "--seed", "9", "--out", path]) == 0
    assert open(paths[0], "rb").read() == open(paths[1], "rb").read()


def test_gen_missing_parameter(capsys):
    assert run_cli(["gen", "--family", "er", "--n", "10"]) == 1
    assert capsys.readouterr().err == "error: family 'er' needs parameter 'eta'\n"


def test_gen_untaken_flag_is_one_error_line(capsys):
    assert run_cli(["gen", "--family", "er", "--n", "10", "--eta", "0.5", "--k", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: family 'er' takes no parameter 'k'\n"


@pytest.mark.parametrize("argv, direct", [
    (["--family", "split", "--n", "14", "--seed", "6"], lambda: gen_split(14, 0.3, 0.5, 6)),
    (["--family", "forest", "--n", "10", "--seed", "5"], lambda: gen_forest(10, 1, 5)),
], ids=["split", "forest"])
def test_gen_flag_defaults(argv, direct, capsys):
    # the defaults come from FAMILIES: clique fraction 0.3, edge probability 0.5, one tree
    assert run_cli(["gen", *argv]) == 0
    assert capsys.readouterr().out == dumps_instance(direct())


def test_gen_forest_with_many_trees(capsys):
    assert run_cli(["gen", "--family", "forest", "--n", "1000", "--trees", "995"]) == 0
    instance = loads_instance(capsys.readouterr().out)
    assert instance.node_count - instance.graph.edge_count == 995


def test_gen_over_the_size_limit_is_one_error_line(capsys):
    assert run_cli(["gen", "--family", "split", "--n", "10000000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "over 30,000,000" in err and err.count("\n") == 1


def test_gen_negative_seed_is_one_error_line(capsys):
    # an unseeded family checks the seed as a seeded one does
    assert run_cli(["gen", "--family", "spider", "--k", "3", "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be nonnegative, got -1\n"


def test_gen_unknown_family_is_usage_error(capsys):
    assert run_cli(["gen", "--family", "smallworld", "--n", "5"]) == 2
    capsys.readouterr()


# --- simulate -------------------------------------------------------------------


def test_simulate_human_output(tmp_path, capsys):
    path = _write(tmp_path, "p3.json", '{"n":3,"edges":[[0,1,1],[1,2,1]]}\n')
    assert run_cli(["simulate", path, "--prices", "2", "1"]) == 0
    out = capsys.readouterr().out
    assert "total revenue: 2" in out
    assert "unsold: 2" in out


def test_simulate_json_output(tmp_path, capsys):
    path = _write(tmp_path, "p3.json", '{"n":3,"edges":[[0,1,1],[1,2,1]]}\n')
    assert run_cli(["simulate", path, "--prices", "2", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "prices": [2, 1],
        "rounds": [
            {"price": 2, "buyers": [1], "revenue": 2},
            {"price": 1, "buyers": [], "revenue": 0},
        ],
        "total_revenue": 2,
        "unsold": [0, 2],
    }


def test_simulate_rejects_negative_price(tmp_path, capsys):
    path = _write(tmp_path, "p3.json", '{"n":3,"edges":[[0,1,1],[1,2,1]]}\n')
    assert run_cli(["simulate", path, "--prices", "3", "-1"]) == 1
    assert "error:" in capsys.readouterr().err


# --- strategies and the oracle ----------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(weighted_instances(), st.lists(st.integers(0, 50), max_size=12), st.sampled_from([1, 2**62]))
def test_trace_json_is_json_dumps_of_the_rounds(instance, prices, scale):
    # greedy's trace, and a random price list's, with empty rounds and price
    # 0; every number times 2**62 in some draws, past int64 (values reach 48)
    if scale > 1:
        graph = instance.graph
        instance = PncInstance.from_edges(graph.node_count, [(u, v, w * scale) for u, v, w in graph.edges],
                                          [x * scale for x in instance.intrinsic.tolist()])
    for trace in (greedy_iterative(instance), simulate(instance, [p * scale for p in prices])):
        rounds = [{"price": sale.price, "buyers": sorted(sale.buyers), "revenue": sale.revenue}
                  for sale in trace.rounds]
        assert _trace_json(trace) == json.dumps({"prices": trace.prices.tolist(), "rounds": rounds,
                                                 "total_revenue": trace.revenue,
                                                 "unsold": sorted(trace.residual)})


def _stdin(data, encoding="utf-8"):
    # a text stream over bytes, as sys.stdin is
    return io.TextIOWrapper(io.BytesIO(data), encoding=encoding)


def test_strategy_pipeline_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", _stdin(dumps_instance(gen_spider(3)).encode()))
    assert run_cli(["greedy"]) == 0
    assert "revenue: 9" in capsys.readouterr().out


@pytest.mark.parametrize("text", [
    "[" * 100_000 + "\n",
    '{"n":2,"edges":[],"nu":' + "[" * 100_000,
])
def test_deeply_nested_input_is_one_error_line(monkeypatch, capsys, text):
    monkeypatch.setattr("sys.stdin", _stdin(text.encode()))
    assert run_cli(["greedy", "-"]) == 1
    err = capsys.readouterr().err
    assert err == "error: instance JSON nests too deeply\n"


def test_node_count_above_the_limit_is_one_error_line(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", _stdin(b'{"n": 10000000000000, "edges": []}'))
    assert run_cli(["greedy", "-"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "node limit" in err and err.count("\n") == 1


def test_stdin_is_read_as_the_file_bytes(monkeypatch, capsys):
    # under a latin-1 locale, a decoded stdin would name the field 'Ã©dges'
    monkeypatch.setattr("sys.stdin", _stdin('{"n":2,"édges":[[0,1,1]]}'.encode(), "latin-1"))
    assert run_cli(["greedy", "-"]) == 1
    assert capsys.readouterr().err == "error: unknown instance fields: ['édges']\n"


def test_oracle_on_file(tmp_path, capsys):
    assert run_cli(["oracle", _spider_file(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "revenue: 9" in out
    assert "states:" in out


def test_single_price_on_hub_of_cliques(tmp_path, capsys):
    out = str(tmp_path / "ex1.json")
    assert run_cli(["gen", "--family", "example1", "--k", "3", "--out", out]) == 0
    assert run_cli(["single", out]) == 0
    text = capsys.readouterr().out
    assert "prices: 6" in text
    assert "revenue: 42" in text


def test_forest_single_on_spider(tmp_path, capsys):
    assert run_cli(["forest-single", _spider_file(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "prices: 2" in out
    assert "revenue: 8" in out


def test_split_dp_matches_oracle(tmp_path, capsys):
    path = str(tmp_path / "split.json")
    assert run_cli(["gen", "--family", "split", "--n", "10", "--seed", "4",
                    "--out", path]) == 0
    assert run_cli(["split-dp", path, "--json"]) == 0
    dp = json.loads(capsys.readouterr().out)
    assert run_cli(["oracle", path, "--json"]) == 0
    oracle = json.loads(capsys.readouterr().out)
    assert dp["total_revenue"] == oracle["revenue"]


def test_strategy_json_shape(tmp_path, capsys):
    assert run_cli(["greedy", _spider_file(tmp_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"prices", "rounds", "total_revenue", "unsold"}
    assert payload["total_revenue"] == 9


def test_greedy_json_bytes_are_pinned(tmp_path, capsys):
    # recorded from the heap-based greedy and the rescan simulator
    text = '{"n":6,"edges":[[0,1,4],[0,4,3],[1,2,2],[1,5,6],[2,3,7],[3,4,1],[4,5,2]],"nu":[0,1,3,2,5,0]}\n'
    assert run_cli(["greedy", _write(tmp_path, "six.json", text), "--json"]) == 0
    assert capsys.readouterr().out == (
        '{"prices": [13, 11, 10, 2, 0], "rounds": [{"price": 13, "buyers": [1], "revenue": 13}, '
        '{"price": 11, "buyers": [4], "revenue": 11}, {"price": 10, "buyers": [2], "revenue": 10}, '
        '{"price": 2, "buyers": [3], "revenue": 2}, {"price": 0, "buyers": [0, 5], "revenue": 0}], '
        '"total_revenue": 36, "unsold": []}\n'
    )


def _cli_env():
    # block-buffered stdout, as a user's shell pipeline has it
    env = dict(os.environ, PYTHONPATH=str(Path(netprice.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _cli_process(*argv, stdin=None):
    # stdin, if given, is bytes; the output reads as text
    done = subprocess.run([sys.executable, "-m", "netprice.cli", *argv], env=_cli_env(), input=stdin,
                          capture_output=True, timeout=60)
    return subprocess.CompletedProcess(done.args, done.returncode, done.stdout.decode(), done.stderr.decode())


def test_cli_process_output_is_whole(tmp_path, capsys):
    # main() flushes and leaves by os._exit, skipping the interpreter's
    # teardown; a piped process must still write all of its output, and its
    # errors as one line
    path = _write(tmp_path, "er.json", dumps_instance(gen_er(300, 0.1, seed=4)))
    done = _cli_process("greedy", path, "--json")
    assert (done.returncode, done.stderr) == (0, "")
    assert run_cli(["greedy", path, "--json"]) == 0
    assert done.stdout == capsys.readouterr().out
    assert json.loads(done.stdout)["total_revenue"] > 0
    bad = _cli_process("greedy", _write(tmp_path, "bad.json", "not json at all\n"), "--json")
    assert (bad.returncode, bad.stdout) == (1, "")
    assert bad.stderr.startswith("error: ") and bad.stderr.count("\n") == 1


def test_cli_process_reads_a_pipe_as_it_reads_the_file(tmp_path):
    gen = _cli_process("gen", "--family", "er", "--n", "60", "--eta", "0.3", "--seed", "1")
    assert (gen.returncode, gen.stderr) == (0, "")
    piped = _cli_process("greedy", "--json", stdin=gen.stdout.encode())
    from_file = _cli_process("greedy", _write(tmp_path, "er.json", gen.stdout), "--json")
    assert (piped.returncode, piped.stderr) == (0, "")
    assert piped.stdout == from_file.stdout and json.loads(piped.stdout)["total_revenue"] > 0
    data = b'{"n":2,\r\n"edges":[[0,1,1]],\xff}'
    bad_file = tmp_path / "bad.json"
    bad_file.write_bytes(data)
    bad = [_cli_process("greedy", "-", stdin=data), _cli_process("greedy", str(bad_file))]
    assert [(done.returncode, done.stdout) for done in bad] == [(1, "")] * 2
    assert bad[0].stderr == bad[1].stderr
    assert bad[0].stderr.startswith("error: ") and bad[0].stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["greedy", "path3.json", "--json"],  # fits the buffer: main()'s flush fails
    ["gen", "--family", "ba", "--n", "20000", "--beta", "1"],  # a write inside the command fails
])
def test_cli_process_with_its_reader_gone(tmp_path, argv):
    text = '{"n":3,"edges":[[0,1,1],[1,2,1]],"nu":[0,0,0]}\n'
    _write(tmp_path, "path3.json", text)
    child = subprocess.Popen([sys.executable, "-m", "netprice.cli", *argv], cwd=tmp_path, env=_cli_env(),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    child.stdout.close()  # long before the child, still importing numpy, writes
    try:
        assert child.wait(timeout=60) == 1
        assert child.stderr.read() == "error: [Errno 32] Broken pipe\n"
    finally:
        child.kill()
        child.stderr.close()


def test_oracle_json_and_budget(tmp_path, capsys):
    path = _write(
        tmp_path, "er.json", dumps_instance(gen_er(12, 0.4, seed=1))
    )
    assert run_cli(["oracle", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"revenue", "prices", "states"}
    assert run_cli(["oracle", path, "--state-budget", "2"]) == 1
    assert "state budget exhausted" in capsys.readouterr().err


def test_oracle_above_depth_limit_is_an_error(tmp_path, capsys):
    # Distinct weights and values: one buyer per round, so searching would
    # recurse once per node, past the interpreter's recursion limit.
    n = 1200
    edges = [(v, v + 1, v + 1) for v in range(n - 1)]
    path = _write(tmp_path, "sparse1200.json", json.dumps({"n": n, "edges": edges, "nu": list(range(n, 2 * n))}))
    assert run_cli(["oracle", path, "--node-limit", "2000", "--state-budget", "5000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "depth limit" in err
    assert "Traceback" not in err


def test_oracle_node_limit_is_a_plain_cap(tmp_path, capsys):
    red = str(tmp_path / "red.json")
    assert run_cli(["reduce", _write(tmp_path, "red.cnf", CNF_4X4), "--out", red]) == 0
    assert run_cli(["oracle", red, "--node-limit", "31"]) == 1
    err = capsys.readouterr().err
    assert err == "error: instance has 32 nodes, above the oracle node limit 31\n"
    assert run_cli(["oracle", red, "--node-limit", "32", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["revenue"] == 1522932
    assert _build_parser().parse_args(["oracle", red]).node_limit is None


def test_oracle_missing_file(tmp_path, capsys):
    assert run_cli(["oracle", str(tmp_path / "absent.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_instance_file(tmp_path, capsys):
    path = _write(tmp_path, "bad.json", "not json at all\n")
    assert run_cli(["greedy", path]) == 1
    assert "not valid JSON" in capsys.readouterr().err


# --- reduce and verify-gadgets ------------------------------------------------------


def test_reduce_writes_instance_and_meta(tmp_path):
    cnf = _write(tmp_path, "sample.cnf", SAMPLE_CNF)
    out = str(tmp_path / "reduced.json")
    meta_path = str(tmp_path / "meta.json")
    assert run_cli(["reduce", cnf, "--out", out, "--meta", meta_path]) == 0
    instance = loads_instance(open(out, encoding="utf-8").read())
    assert instance.node_count == 24
    meta = json.loads(open(meta_path, encoding="utf-8").read())
    assert meta["threshold"] == 172869
    assert meta["node_count"] == 24


def test_reduce_json_combined(tmp_path, capsys):
    cnf = _write(tmp_path, "sample.cnf", SAMPLE_CNF)
    assert run_cli(["reduce", cnf, "--json"]) == 0
    combined = json.loads(capsys.readouterr().out)
    assert combined["instance"]["n"] == 24
    assert combined["metadata"]["variable_scales"] == [5781, 1156, 231]


def test_reduce_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", _stdin(SAMPLE_CNF.encode()))
    assert run_cli(["reduce"]) == 0
    assert loads_instance(capsys.readouterr().out).node_count == 24


@pytest.mark.parametrize("command", ["reduce", "verify-gadgets"])
def test_cnf_stdin_is_read_as_the_file_bytes(tmp_path, monkeypatch, capsys, command):
    # a byte that is not UTF-8 in a comment line: a file is refused, and so
    # is stdin, though a latin-1 locale would decode it
    data = b"c bad\xff comment\n" + SAMPLE_CNF.encode()
    cnf = tmp_path / "bad.cnf"
    cnf.write_bytes(data)
    assert run_cli([command, str(cnf)]) == 1
    from_file = capsys.readouterr().err
    assert from_file == "error: 'utf-8' codec can't decode byte 0xff in position 5: invalid start byte\n"
    monkeypatch.setattr("sys.stdin", _stdin(data, "latin-1"))
    assert run_cli([command, "-"]) == 1
    assert capsys.readouterr().err == from_file


def test_reduce_rejects_bad_cnf(tmp_path, capsys):
    cnf = _write(tmp_path, "bad.cnf", "p cnf 3 3\n1 2 0\n")
    assert run_cli(["reduce", cnf]) == 1
    assert "clause 1 has 2 literals" in capsys.readouterr().err


def test_verify_gadgets(tmp_path, capsys):
    cnf = _write(tmp_path, "sample.cnf", SAMPLE_CNF)
    assert run_cli(["verify-gadgets", cnf]) == 0
    assert "42/42 gadget checks passed" in capsys.readouterr().out
    assert run_cli(["verify-gadgets", cnf, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert len(payload["checks"]) == 42
    assert all(check["passed"] for check in payload["checks"])


# --- experiments ---------------------------------------------------------------------

# Each trial names its own columns, so a header is pinned only here.
HEADERS = {
    "forest_ratio": "seed,n,edges,price,single_revenue,oracle_revenue,opt_over_single",
    "er_ratio": "seed,n,edges,price,single_revenue,greedy_revenue,edge_ratio",
    "ba_ratio": "seed,n,edges,price,single_revenue,greedy_revenue,min_degree_fraction,gamma_independent",
    "bound_sweep": "seed,n,edges,oracle_revenue,degree_bound,log_cap,cap_over_opt",
}


@pytest.mark.parametrize("name, params", [
    ("forest_ratio", {"n": 8}),
    ("er_ratio", {"n": 40}),
    ("ba_ratio", {"n": 60, "beta": 2}),
    ("bound_sweep", {"n_min": 5, "n_max": 5}),
])
def test_experiment_headers(name, params):
    lines = run_experiment(name, params, trials=2).splitlines()
    assert lines[0] == HEADERS[name]
    assert len(lines) == 3
    assert all(line.count(",") == HEADERS[name].count(",") for line in lines[1:])


def test_forest_experiment_csv(tmp_path):
    out = str(tmp_path / "forest.csv")
    assert run_cli(["experiment", "--family", "forest_ratio", "--trials", "3",
                    "--n", "8", "--trees", "2", "--out", out]) == 0
    lines = open(out, encoding="utf-8").read().splitlines()
    assert lines[0] == HEADERS["forest_ratio"]
    assert len(lines) == 4
    for seed, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert cells[0] == str(seed)
        assert cells[1] == "8"
        assert float(cells[6]) >= 1.0  # optimum at least the 1.5-approx revenue


def test_forest_experiment_carries_opt_past_800_nodes(capsys):
    assert EXPERIMENTS["forest_ratio"].defaults == {"n": 12, "trees": 2}
    assert run_cli(["experiment", "--family", "forest_ratio", "--trials", "2",
                    "--n", "1000", "--trees", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        single, opt = int(cells[4]), int(cells[5])
        assert single <= opt <= 1.5 * single  # the 1.5-approximation on forests
    assert run_cli(["experiment", "--family", "forest_ratio", "--oracle-limit", "20"]) == 2
    assert "--oracle-limit" in capsys.readouterr().err


def test_er_experiment_row_content(capsys):
    assert run_cli(["experiment", "--family", "er_ratio", "--trials", "2",
                    "--n", "40", "--eta", "0.3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == HEADERS["er_ratio"]
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[3] == "10"  # floor(0.9 * 39 * 0.3)
        assert int(cells[4]) % 10 == 0


def test_ba_experiment_row_content(capsys):
    assert run_cli(["experiment", "--family", "ba_ratio", "--trials", "2",
                    "--n", "60", "--beta", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[4] == "120"  # single price beta sells to everyone: n * beta
        assert cells[7] in {"0", "1"}


def test_bound_sweep_grid_order(capsys):
    assert run_cli(["experiment", "--family", "bound_sweep", "--trials", "2",
                    "--n-min", "5", "--n-max", "7", "--eta", "0.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == [str(i) for i in range(6)]
    assert [r[1] for r in rows] == ["5", "5", "6", "6", "7", "7"]


def test_parallel_experiment_is_byte_identical():
    params = {"n": 8}
    assert run_experiment("forest_ratio", params, 4, 2, jobs=2) == run_experiment("forest_ratio", params, 4, 2)


def test_experiment_spec_validation():
    with pytest.raises(ValueError, match="unknown experiment"):
        experiment_tasks("volume_sweep", {}, 20, 0)
    with pytest.raises(ValueError, match="at least 1"):
        experiment_tasks("er_ratio", {}, 0, 0)
    with pytest.raises(ValueError, match="experiment 'er_ratio' takes no parameter 'trees'"):
        experiment_tasks("er_ratio", {"n": 40, "trees": 9}, 20, 0)
    with pytest.raises(ValueError, match="experiment 'bound_sweep' takes no parameter 'n'"):
        experiment_tasks("bound_sweep", {"n": 40}, 20, 0)


@pytest.mark.parametrize("argv, message", [
    (["--family", "er_ratio", "--n", "40", "--trials", "1", "--trees", "9"],
     "experiment 'er_ratio' takes no parameter 'trees'"),
    (["--family", "bound_sweep", "--n", "40"], "experiment 'bound_sweep' takes no parameter 'n'"),
    (["--family", "bound_sweep", "--n-min", "10", "--n-max", "5"], "n_min (10) must not exceed n_max (5)"),
])
def test_experiment_flag_errors(argv, message, capsys):
    assert run_cli(["experiment", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_experiment_tasks_respect_overrides():
    seeds, rows = experiment_tasks("er_ratio", {"n": 50, "eta": 0.2}, 2, 0)
    assert seeds == [0, 1]
    assert rows == [{"n": 50, "eta": 0.2, "delta": 0.1}] * 2


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    created = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_experiment_workers_are_capped(monkeypatch):
    import netprice.cli

    # run_experiment imports the pool class only when it starts a pool
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(netprice.cli.os, "cpu_count", lambda: 3)
    _SerialPool.created.clear()

    def run(trials, jobs):
        return run_experiment("forest_ratio", {"n": 8}, trials, master_seed=2, jobs=jobs)

    serial = run(5, 1)
    assert _SerialPool.created == []
    assert run(5, 64) == serial
    assert _SerialPool.created == [3]  # the CPU count
    run(2, 64)
    assert _SerialPool.created == [3, 2]  # the task count
    monkeypatch.setattr(netprice.cli.os, "cpu_count", lambda: None)
    run(5, 64)
    assert _SerialPool.created == [3, 2]  # unknown CPU count: one worker, in-process


def test_run_experiment_rejects_bad_jobs():
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        run_experiment("er_ratio", {"n": 30}, trials=1, jobs=0)


# --- top-level dispatch ---------------------------------------------------------------


def test_no_command_is_usage_error(capsys):
    assert run_cli([]) == 2
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert run_cli(["--help"]) == 0
    assert "netprice" in capsys.readouterr().out
