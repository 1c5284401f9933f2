"""Traced peak memory of instance loading, dumping and generation on
G(2000, 0.3), of dumping on G(1000, 0.3), and of generating a split graph
with about as many edges.

numpy reports its buffers to tracemalloc, so these peaks are byte counts of
every Python object and array a step holds at once: deterministic, unlike a
resident set size. Each bound is the measured peak with about 10% headroom.
Before edge lists were read and written in blocks, the peaks were 73 MiB
(loads), 73 MiB (dumps) and 106 MiB (gen_er) on G(2000, 0.3), and the
dumper's was 17.1 MiB on G(1000, 0.3). Before the split generator laid its
edges out in canonical order, which the graph then had to sort, its peak
was 45.5 MiB. Before a sale trace kept the engine's buyer array, with a
frozenset of Python ints per round, greedy's peaks were 109 MiB (edgeless)
and 52 MiB (matching). Before a process's last round, sold alone in a run,
only marked its buyers, greedy's last round on the edgeless instance built
the CSR and gathered every buyer's row: its peak was 53.4 MiB, now 22.9.
Before ``dump_instance`` wrote each block of text as it was made, it joined
the whole text first: its peak on G(2000, 0.3) was 14.7 MiB. Before
per-node and per-round numbers were kept only as arrays (intrinsic and
initial values, degrees, and a trace's prices and round offsets, where
tuples and lists of Python ints stood beside them), loading and
greedy-pricing an edgeless 1,000,000-node instance with values uniform in
[0, 10^6) peaked at 196.7 MiB, then 90.4, and greedy's peak on the matching
was 20.7 MiB, now 15.4. Before a buyer without an edge read no CSR row,
greedy built the graph's ``indptr`` for that edgeless instance, one
settled buyer at a time: its peak was 90.4 MiB, now 81.7.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from netprice import (PncInstance, dump_instance, dumps_instance, gen_er, gen_split, greedy_iterative, load_instance,
                      loads_instance)

MIB = 1 << 20


def _traced(step):
    """``step()``'s result, and the peak and the kept bytes it traced above
    what was held before it."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = step()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before, kept - before


@pytest.fixture(scope="module")
def dense():
    """G(2000, 0.3): about 600k edges and 7.4 MB of instance text."""
    instance = gen_er(2000, 0.3, seed=3)
    return instance, dumps_instance(instance)


def test_gen_er_peak():
    instance, peak, _ = _traced(lambda: gen_er(2000, 0.3, seed=3))
    assert instance.graph.edge_count > 590_000
    assert peak < 23.5 * MIB, peak / MIB  # measured 21.4 MiB


def test_gen_split_peak():
    instance, peak, _ = _traced(lambda: gen_split(2000, 0.3, 0.5, seed=3))
    assert instance.graph.edge_count > 590_000
    assert peak < 31.5 * MIB, peak / MIB  # measured 28.6 MiB


def test_dumps_peak():
    # tracemalloc traces every Python int the dumper formats, about 1.6 us
    # each, so this graph has a quarter of the others' edges
    instance = gen_er(1000, 0.3, seed=3)
    text, peak, _ = _traced(lambda: dumps_instance(instance))
    assert loads_instance(text) == instance
    # the text, 1.8 MB, and one block's temporaries
    assert peak < 3.85 * MIB, peak / MIB  # measured 3.50 MiB


def test_loads_peak(dense):
    instance, text = dense
    again, peak, kept = _traced(lambda: loads_instance(text))
    assert again == instance
    assert peak < 20 * MIB, peak / MIB  # measured 18.3 MiB
    # the (m, 3) edge table, which the graph keeps without a copy
    assert kept < 15 * MIB, kept / MIB  # measured 13.7 MiB


def test_dumps_peak_dense(dense):
    # the dumper formats a block at a time in numpy and traces no Python int
    # per number, so the dense graph is cheap to dump here
    instance, text = dense
    again, peak, _ = _traced(lambda: dumps_instance(instance))
    assert again == text
    # the blocks' text and the joined text, 7.4 MB each
    assert peak < 16.2 * MIB, peak / MIB  # measured 14.7 MiB


def test_dump_file_peak(dense, tmp_path):
    instance, text = dense
    path = tmp_path / "dense.json"
    _, peak, _ = _traced(lambda: dump_instance(instance, str(path)))
    assert path.read_text(encoding="utf-8") == text
    # one block's text and temporaries, written before the next is made
    assert peak < 0.32 * MIB, peak / MIB  # measured 0.29 MiB


def test_load_file_peak(dense, tmp_path):
    instance, text = dense
    path = tmp_path / "dense.json"
    path.write_text(text, encoding="utf-8")
    again, peak, kept = _traced(lambda: load_instance(str(path)))
    assert again == instance
    # the file's bytes, 7.4 MB, where loads_instance is handed the text
    assert peak < 28.3 * MIB, peak / MIB  # measured 25.7 MiB
    assert kept < 15 * MIB, kept / MIB  # measured 13.7 MiB


def test_greedy_trace_peak_edgeless():
    # one round sells all 1,000,001 consumers at price 0: the trace keeps
    # them as one int64 array, and the round only marks them as owners, so
    # the peak is the values, the candidates and their values, and no CSR
    instance = PncInstance.from_edges(1_000_001, [])
    instance.initial_values  # built before the step, as any strategy's input
    trace, peak, _ = _traced(lambda: greedy_iterative(instance))
    assert trace.prices.tolist() == [0] and not trace.residual
    assert peak < 25.2 * MIB, peak / MIB  # measured 22.9 MiB


def test_greedy_trace_peak_matching():
    # 100,000 edges (2i, 2i + 1) of distinct weights: greedy sells one edge's
    # two ends per round, 100,000 rounds
    n = 200_000
    edges = np.column_stack((np.arange(n).reshape(-1, 2), np.arange(1, n // 2 + 1)))
    instance = PncInstance.from_edges(n, edges)
    instance.initial_values
    trace, peak, _ = _traced(lambda: greedy_iterative(instance))
    assert len(trace.prices) == n // 2 and trace.revenue == (n // 2) * (n // 2 + 1)
    assert peak < 17.0 * MIB, peak / MIB  # measured 15.4 MiB


def test_load_and_greedy_peak_with_values(tmp_path):
    # an edgeless 1,000,000-node file with values uniform in [0, 10^6): greedy
    # sells each distinct value in its own round, 632,093 rounds. The loader
    # decodes the values once as Python ints; after that the peak is the
    # per-node and per-round arrays, and no CSR: about 86 B per node in all
    # (about 2.8 GiB at the node limit, 2^25, by extrapolation)
    n = 1_000_000
    nu = np.random.default_rng(0).integers(0, 10**6, n)
    path = tmp_path / "values.json"
    dump_instance(PncInstance.from_edges(n, [], nu), str(path))
    trace, peak, _ = _traced(lambda: greedy_iterative(load_instance(str(path))))
    assert len(trace.prices) == len(np.unique(nu)) == 632_093
    assert trace.revenue == int(nu.sum()) and not trace.residual
    assert peak < 90.0 * MIB, peak / MIB  # measured 81.7 MiB
