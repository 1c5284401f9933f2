"""Core data model: weighted graphs, pricing instances, and sale traces.

Nodes are dense 0-based integer ids. A graph holds its canonical edges as
numpy arrays ``u, v, w`` and, from their first use, as compressed sparse
rows ``indptr, indices, weights``; all are read-only. Every quantity is an
exact integer: an array of weights or values is int64 when its largest
possible sum fits, else an object array of Python ints, and the same numpy
code runs on either. Per-node and per-round numbers are only read-only
arrays, which ``_int_array`` makes of every integer sequence given in; sums
are Python ints, and an integer given in (Python or numpy, never a bool) is
read as a Python int, so no product is taken in int64.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

# A posted price sequence is a plain tuple of nonnegative ints, price per round.
PriceSequence = tuple[int, ...]

INT64_MAX = int(np.iinfo(np.int64).max)

# The most nodes a graph may have: 2**25, above the largest graph any
# generator builds (30,000,001 nodes). A larger count raises ValueError
# before anything is allocated.
NODE_LIMIT = 1 << 25


def _all_ints(values: Iterable) -> bool:
    """Whether every value is an integer, tested once per type: a Python or
    numpy integer, never a bool (JSON's true and false) or ``np.bool_``,
    which is no numpy integer. The one test of what counts as an integer."""
    return all(issubclass(t, (int, np.integer)) and t is not bool for t in set(map(type, values)))


def _as_int(value: object, what: str) -> int:
    if not _all_ints((value,)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)  # a numpy integer as the Python int it holds


def _as_real(value: object, what: str) -> int | float:
    # comparing a str or None with a number raises TypeError
    if not (_all_ints((value,)) or isinstance(value, (float, np.floating))):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return value.item() if isinstance(value, np.generic) else value


def _as_tuple(value: object, what: str, error: type[ValueError] = ValueError) -> tuple:
    # tuple() of a non-iterable raises TypeError; an error raised while
    # iterating is the iterable's own, so only iter() is guarded. An array
    # is read as Python numbers, as a trace's prices are passed back in.
    if isinstance(value, np.ndarray):
        value = value.tolist()
    try:
        items = iter(value)
    except TypeError:
        raise error(f"{what} must be a sequence, got {value!r}") from None
    return tuple(items)


def _as_type(value: object, kind: type, what: str):
    """``value`` if it is a ``kind``, else ValueError: the check of every
    instance, graph, formula, artifact or trace a public function takes."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a {kind.__name__}, got {type(value).__name__}")
    return value


def _check_params(owner: str, params: object, table: dict) -> None:
    """Raise ValueError unless ``params`` is a dict of names in ``table`` and
    gives every name that ``table`` maps to a type (one without a default);
    ``owner`` (``family 'er'``, say) heads the messages."""
    if not isinstance(params, dict):
        raise ValueError(f"params must be a dict, got {params!r}")
    unknown = [name for name in params if name not in table]
    if unknown:
        raise ValueError(f"{owner} takes no parameter {', '.join(map(repr, unknown))}")
    for name, default in table.items():
        if isinstance(default, type) and name not in params:
            raise ValueError(f"{owner} needs parameter {name!r}")


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _exact_dtype(top: int) -> np.dtype:
    """int64 when every number up to ``top`` fits in it, else object (Python ints)."""
    return np.dtype(np.int64 if top <= INT64_MAX else object)


def _int_row(index: int, row: object, what: str, fields: tuple[tuple[str, str], ...]) -> int | tuple[int, ...]:
    """Entry ``index`` of ``what`` as Python ints, or a ValueError naming it."""
    if not fields:
        return _as_int(row, f"{what}[{index}]")
    if not hasattr(row, "__len__") or len(row) != len(fields):
        raise ValueError(f"{what}[{index}]: expected ({', '.join(name for name, _ in fields)}), got {row!r}")
    return tuple(map(_as_int, row, [f"{what}[{index}]: {label}" for _, label in fields]))


def _int_array(values, what: str, fields: tuple[tuple[str, str], ...] = ()) -> np.ndarray:
    """``values`` as a read-only exact array, int64 or object past int64: an
    int per entry, or with ``fields`` (each column's name and label, as
    ``("w", "weight")``) a row of ``len(fields)`` ints per entry.

    A sequence of Python ints is checked in bulk, once per type; any other
    is read entry by entry, each integer as the Python int it holds, up to a
    ValueError naming the first bad entry. An int64 array that is read-only
    and owns its data is kept as it is; any other is copied. So the result
    does not change under its caller's writes as long as the caller keeps a
    kept array read-only: its owner could make it writable again.
    """
    width = len(fields)
    if (isinstance(values, np.ndarray) and values.dtype.kind in "iu" and values.ndim
            and values.shape[1:] == ((width,) if width else ())):
        if values.dtype == np.int64 and not values.flags.writeable and values.base is None:
            return values
        past = values.dtype == np.uint64 and values.size and values.max() > INT64_MAX
        return _read_only(values.astype(object if past else np.int64))
    rows = _as_tuple(values, what)
    try:
        fit = not width or set(map(len, rows)) <= {width}
    except TypeError:  # an entry without a length
        fit = False
    if not fit or set(map(type, chain.from_iterable(rows) if width else rows)) - {int}:
        rows = [_int_row(index, row, what, fields) for index, row in enumerate(rows)]
    try:
        array = np.fromiter(chain.from_iterable(rows) if width else rows, np.int64, len(rows) * max(width, 1))
    except OverflowError:
        array = np.array(rows, object)
    return _read_only(array.reshape(-1, width) if width else array)


class WeightedGraph:
    """Undirected graph with positive integer edge weights, in read-only arrays.

    ``edges`` holds ``(u, v, w)`` triples (or is an (m, 3) integer array) in
    any orientation and order. ``u, v, w`` are canonical: ``u < v``, sorted
    by endpoint pair, no duplicates, no self loops. Node ``x``'s neighbours
    are ``indices[indptr[x]:indptr[x + 1]]``, ascending, weighed by
    ``weights``; those three are built on first use. There are 1 to
    ``NODE_LIMIT`` nodes.

    An edge array is kept as it is when it is read-only and owns its data,
    as the loader's and the generators' tables are; any other is copied
    first. So a graph does not change under its caller's writes as long as
    the caller keeps a kept array read-only.
    """

    def __init__(self, node_count: int, edges: Iterable | np.ndarray) -> None:
        n = node_count = _as_int(node_count, "node_count")
        if n < 1:
            raise ValueError(f"node_count must be >= 1, got {n}")
        if n > NODE_LIMIT:
            raise ValueError(f"node_count {n:,} is above the node limit {NODE_LIMIT:,}")
        # The only edge validator in the package: every loaded or generated
        # graph passes through here once, in bulk.
        table = _int_array(edges, "edges", (("u", "endpoint"), ("v", "endpoint"), ("w", "weight")))
        u, v, w = table.T
        forward = bool((u < v).all())
        lo, hi = (u, v) if forward else (np.minimum(u, v), np.maximum(u, v))
        valid = bool((forward or (u != v).all()) and (lo >= 0).all() and (hi < n).all() and (w >= 1).all())
        if valid and not ((lo[1:] > lo[:-1]) | ((lo[1:] == lo[:-1]) & (hi[1:] > hi[:-1]))).all():
            order = np.lexsort((hi, lo))
            lo, hi, w = lo[order], hi[order], w[order]
            twice = np.flatnonzero((lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1]))
            if len(twice):  # every edge is fine on its own, so this is the error
                raise ValueError(f"duplicate edge ({lo[twice[0]]}, {hi[twice[0]]})")
        if not valid:  # name the first bad edge in input order
            idx = int(np.flatnonzero((lo == hi) | (lo < 0) | (hi >= n) | (w < 1))[0])
            a, b = lo[idx], hi[idx]
            fault = (f"self loop at node {a}" if a == b else f"endpoints ({a}, {b}) out of range for n={n}"
                     if a < 0 or b >= n else f"weight must be >= 1, got {w[idx]}")
            raise ValueError(f"edges[{idx}]: {fault}")
        self.node_count = n
        self.u, self.v = u, v = lo.astype(np.int64, copy=False), hi.astype(np.int64, copy=False)
        # u is sorted: its counts are the gaps between where each node starts
        self.degrees = np.diff(np.searchsorted(u, np.arange(n + 1))) + np.bincount(v, minlength=n)
        # no weighted degree exceeds the top weight times the top degree
        top = int(w.max()) * int(self.degrees.max()) if len(w) else 0
        self.w = w.astype(_exact_dtype(top), copy=False)
        for array in (self.u, self.v, self.w, self.degrees):
            array.setflags(write=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        pairs = ((self.u, other.u), (self.v, other.v), (self.w, other.w))
        return self.node_count == other.node_count and all(np.array_equal(a, b) for a, b in pairs)

    def __hash__(self) -> int:
        return hash((self.node_count, self.u.tobytes(), self.v.tobytes()))

    @property
    def edge_count(self) -> int:
        return len(self.u)

    @cached_property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """The canonical ``(u, v, w)`` tuples, built on first use."""
        return tuple(zip(self.u.tolist(), self.v.tolist(), self.w.tolist()))

    @cached_property
    def total_edge_weight(self) -> int:
        return sum(self.w.tolist())

    @cached_property
    def indptr(self) -> np.ndarray:
        return _read_only(np.concatenate(([0], np.cumsum(self.degrees))))

    @cached_property
    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        """``indices`` and ``weights``. Row x holds the neighbours below x,
        then those above, each ascending: a stable sort by the other end."""
        u, v, n = self.u, self.v, self.node_count
        # in the smallest unsigned type that holds every node, numpy's stable
        # sort is a radix sort up to 65,536 nodes; ids are in range, so the
        # cast is exact
        ends = np.concatenate((v, u), dtype=np.min_scalar_type(n - 1), casting="unsafe")
        order = np.argsort(ends, kind="stable")
        indices = np.concatenate((u, v))[order]
        return _read_only(indices), _read_only(np.concatenate((self.w, self.w))[order])

    @property
    def indices(self) -> np.ndarray:
        return self._rows[0]

    @property
    def weights(self) -> np.ndarray:
        return self._rows[1]

    @cached_property
    def weighted_degrees(self) -> np.ndarray:
        wdeg = np.zeros(self.node_count, self.w.dtype)
        np.add.at(wdeg, self.u, self.w)
        np.add.at(wdeg, self.v, self.w)
        return _read_only(wdeg)

    def is_unweighted(self) -> bool:
        return bool((self.w == 1).all())


@dataclass(frozen=True, eq=False)
class PncInstance:
    """A selling instance: a weighted graph plus per-node intrinsic values.

    A consumer who has not bought yet values the good at their intrinsic value
    plus the total weight of edges to other consumers who have not bought
    either; purchases by neighbors only ever lower their value. ``intrinsic``,
    any sequence of integers or an integer array, is kept as a read-only
    array as ``_int_array`` reads it: an int64 array that is read-only and
    owns its data as it is, any other as a copy. So ``intrinsic`` does not
    change under its caller's writes while the caller keeps a kept array
    read-only.
    """

    graph: WeightedGraph
    intrinsic: np.ndarray

    def __post_init__(self) -> None:
        n = _as_type(self.graph, WeightedGraph, "graph").node_count
        values = _int_array(self.intrinsic, "intrinsic")
        if len(values) != n:
            raise ValueError(f"intrinsic has {len(values)} entries for {n} nodes")
        if values.min() < 0:
            raise ValueError("intrinsic values must be nonnegative")
        object.__setattr__(self, "intrinsic", values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PncInstance):
            return NotImplemented
        return self.graph == other.graph and np.array_equal(self.intrinsic, other.intrinsic)

    def __hash__(self) -> int:
        return hash(self.graph)

    @classmethod
    def from_edges(
        cls,
        node_count: int,
        edges: Iterable[tuple[int, int, int]] | np.ndarray,
        intrinsic: Sequence[int] | None = None,
    ) -> "PncInstance":
        graph = WeightedGraph(node_count, edges)
        return cls(graph, _read_only(np.zeros(graph.node_count, np.int64)) if intrinsic is None else intrinsic)

    @classmethod
    def unweighted(
        cls,
        node_count: int,
        pairs: Iterable[tuple[int, int]],
        intrinsic: Sequence[int] | None = None,
    ) -> "PncInstance":
        pairs = _int_array(pairs, "pairs", (("u", "endpoint"), ("v", "endpoint")))
        return cls.from_edges(node_count, _read_only(np.column_stack((pairs, np.ones(len(pairs), pairs.dtype)))),
                              intrinsic)

    @property
    def node_count(self) -> int:
        return self.graph.node_count

    @cached_property
    def initial_values(self) -> np.ndarray:
        """Total value of every consumer before anyone has bought, read-only:
        int64 when the largest fits, else object. Values only fall, so the
        dtype holds for a whole selling process."""
        weighted = self.graph.weighted_degrees
        top = int(self.intrinsic.max()) + int(weighted.max())
        # every sum is at most top, so each cast into its dtype is exact
        return _read_only(np.add(self.intrinsic, weighted, dtype=_exact_dtype(top), casting="unsafe"))


@dataclass(frozen=True, slots=True)
class SaleRound:
    price: int
    buyers: frozenset[int]
    revenue: int


@dataclass(frozen=True, eq=False)
class SaleTrace:
    """Outcome of posting a price sequence: each round's price, every buyer
    (round ``i``'s are ``buyers[ends[i]:ends[i + 1]]``, increasing), the
    consumers who never bought and the revenue. Rounds posted after everyone
    has bought sell nobody. ``prices``, ``buyers`` and ``ends`` are read-only
    arrays; ``prices`` is int64, or object if a price is past it.
    """

    prices: np.ndarray
    buyers: np.ndarray
    ends: np.ndarray
    residual: frozenset[int]
    revenue: int

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SaleTrace)
                and all(map(np.array_equal, (self.prices, self.buyers, self.ends),
                            (other.prices, other.buyers, other.ends)))
                and (self.residual, self.revenue) == (other.residual, other.revenue))

    @property
    def rounds(self) -> tuple[SaleRound, ...]:
        """Each round's price, buyer set and revenue, built on each call."""
        buyers, ends = self.buyers.tolist(), self.ends.tolist()
        return tuple(SaleRound(price, frozenset(buyers[a:b]), price * (b - a))
                     for price, a, b in zip(self.prices.tolist(), ends, ends[1:]))


def _price_array(prices: Sequence[int]) -> np.ndarray:
    """``prices`` as ``_int_array`` reads them, each checked nonnegative."""
    array = _int_array(prices, "prices")
    if len(array) and array.min() < 0:
        raise ValueError("prices must be nonnegative")
    return array


def validate_prices(prices: Sequence[int]) -> PriceSequence:
    return tuple(_price_array(prices).tolist())


# ---------------------------------------------------------------------------
# Instance file format.
#
# One JSON object per file:
#
#   {"n": <int >= 1>,
#    "edges": [[u, v, w], ...],     0-based, u < v, w >= 1, no duplicates
#    "nu": [<int >= 0> x n]}        omitted entirely when all zero
#
# dumps_instance emits the canonical form: compact separators, edges sorted by
# endpoint pair, "nu" omitted iff all intrinsic values are zero, trailing
# newline. load/dump round-trips are lossless.
#
# loads_instance takes any JSON whitespace and key order, and a later
# duplicate key wins, as with json.loads. json's decoder reads the keys and
# every value but "edges"; the edge list is read by numpy and never becomes
# Python lists. Numbers past int64 stay exact (object arrays). A file the
# readers turn down goes to json.loads, which only names the error.
# load_instance runs the same readers on the file's bytes; only to name an
# error does it decode the whole file, as text mode reads it (UTF-8, with
# "\r\n" and "\r" read as "\n").
#
# Both directions run through an edge list in blocks of a fixed size, so a
# large instance passes through cache-sized temporaries rather than fresh
# whole-list arrays, and dump_instance holds one block of text at a time.
# A small file is one block.
# Neither direction handles one number at a time: the writer lays a block out
# as a matrix of digit bytes, one row per edge, and the reader finds a block's
# numbers from the positions of its non-digit bytes and reads each from the
# eight bytes that end it. The reader cuts blocks after the "]" of a "]," and
# reads the list's "[" as a ",", so every block is a run of ",[u,v,w]" triples.
# ---------------------------------------------------------------------------

# bytes of edge list read per block, which ends at the "]" of a "],"
_READ_BLOCK = 1 << 16
# edges formatted per block
_WRITE_ROWS = 1 << 12


def _edge_rows(columns: tuple[np.ndarray, np.ndarray, np.ndarray]) -> str:
    """",[u,v,w]" for each row of the columns, in json.dumps's digits.

    Each column's numbers are right-aligned in its widest one's width, in a
    matrix of bytes with a row per edge; a number's leading zeros stay 0 and
    one boolean mask drops them.
    """
    widths = [len(str(column.max())) for column in columns]
    text = np.zeros((len(columns[0]), sum(widths) + 5), np.uint8)
    text[:, :2] = np.frombuffer(b",[", np.uint8)
    at = 2
    for x, width, punct in zip(columns, widths, b",,]"):
        last = at + width - 1
        for j in range(last, at - 1, -1):
            high = x // 10
            digit = x - high * 10 + ord("0")
            text[:, j] = digit if j == last else np.where(x > 0, digit, 0)
            x = high
        text[:, last + 1] = punct
        at = last + 2
    return text[text != 0].tobytes().decode("ascii")


def _instance_blocks(instance: PncInstance) -> Iterator[str]:
    """The text of ``dumps_instance``, made and handed out a block at a time."""
    graph = instance.graph
    yield f'{{"n":{instance.node_count},"edges":['
    for start in range(0, graph.edge_count, _WRITE_ROWS):
        rows = slice(start, start + _WRITE_ROWS)
        text = _edge_rows((graph.u[rows], graph.v[rows], graph.w[rows]))
        # each edge is led by a comma, as are all but the first in the list
        yield text[1:] if start == 0 else text
    yield "]"
    if instance.intrinsic.any():
        yield ',"nu":' + json.dumps(instance.intrinsic.tolist(), separators=(",", ":"))
    yield "}\n"


def dumps_instance(instance: PncInstance) -> str:
    return "".join(_instance_blocks(_as_type(instance, PncInstance, "instance")))


_DECODER = json.JSONDecoder()
# JSON whitespace, and the punctuation the readers look for, in a text and in
# a file's bytes. A text is read as it is, and a block at a time encoded:
# encoding it whole would copy it, 7.4 MB for a G(2000, 0.3) instance.
_SPACE = {str: re.compile(r"[ \t\n\r]*"), bytes: re.compile(rb"[ \t\n\r]*")}
_PUNCT = {str: {c: c for c in "{}[]:,"}, bytes: {c: c.encode() for c in "{}[]:,"}}
# a window of a file's bytes ends just after one of these: no number or
# literal runs past it and no multi-byte character holds it, so a value read
# whole from the window reads as it would from the whole file
_VALUE_STOP = re.compile(rb"[,}]")
# the five bytes of each triple in a list that are not a number's, in order
_TRIPLE = b",[,,]"
# the ASCII digits "00000000" as one little-endian word, and at 16 + c, the
# mask of a word's c high bytes, which holds none for c <= 0 and all for c >= 8
_ZEROS = int.from_bytes(b"0" * 8, "little")
_HIGH_BYTES = np.array([(-1 << 8 * (8 - min(max(c, 0), 8))) & (1 << 64) - 1 for c in range(-16, 19)],
                       np.uint64)


def _skip_space(source: str | bytes, at: int) -> int:
    return _SPACE[type(source)].match(source, at).end()


def _decode_value(source: str | bytes, at: int) -> tuple[object, int]:
    """The JSON value at ``source[at]`` and the index just past it, read by
    json's decoder; a file's bytes are decoded a window at a time, each
    ending after a "," or "}", from 64 bytes up to the whole rest."""
    if isinstance(source, str):
        return _DECODER.raw_decode(source, at)
    size = 64
    while True:
        found = _VALUE_STOP.search(source, at + size)
        stop = found.end() if found else len(source)
        text = source[at:stop].decode("utf-8")
        try:
            value, end = _DECODER.raw_decode(text)
        except json.JSONDecodeError:
            if stop == len(source):
                raise
            size = 4 * (stop - at)
            continue
        return value, at + len(text[:end].encode("utf-8"))


def _numbers(body: bytes, ends: np.ndarray, lengths: np.ndarray, signed: bool) -> np.ndarray:
    """The JSON integers of ``lengths`` bytes that end just before ``ends``
    in ``body``, some with a minus sign if ``signed``: int64, or Python ints
    in an object array past 18 digits.

    The digits are read eight at a time as one little-endian word, its bytes
    before the number masked off; multiply-shift steps add up pairs, then
    fours, then eights of digits, as far as the widest number needs.
    """
    negative = np.frombuffer(body, np.uint8)[ends - lengths] == ord("-") if signed else False
    digits = lengths - negative if signed else lengths
    widest = int(digits.max())
    if widest > 18:  # past int64 once above 10**18 - 1
        starts = (ends - lengths).ravel().tolist()
        tokens = [int(body[s:e]) for s, e in zip(starts, ends.ravel().tolist())]
        return np.array(tokens, dtype=object).reshape(ends.shape)
    # the bytes each word keeps of its digits: a power of two
    span = 8 if widest > 4 else 4 if widest > 2 else 2
    padded = bytes(24) + body
    value = None
    for chunk in range(-(-widest // 8)):
        # the words that end 8 * chunk bytes before each number's end
        words = np.ndarray((len(body),), "<u8", padded, 16 - 8 * chunk, (1,))
        x = (words.take(ends) ^ _ZEROS) & _HIGH_BYTES.take(digits + (16 - 8 * chunk))
        x >>= 8 * (8 - span)
        for step, mask in ((1, 0x00FF00FF00FF00FF), (2, 0x0000FFFF0000FFFF), (4, 0xFFFFFFFF)):
            if step < span:
                x = (x * 10 ** step + (x >> 8 * step)) & mask
        value = x if value is None else value + x * 10 ** (8 * chunk)
    value = value.view(np.int64)
    return np.where(negative, -value, value) if signed else value


def _triples(body: bytes) -> tuple[np.ndarray, bool] | None:
    """The triples of a whitespace-free piece of an edge list, as a (3, k)
    array of u, v and w rows, and whether the piece closes the list; None
    unless it is ``,[t,t,t]`` k >= 1 times, then "]" if it closes the list,
    with JSON integers ``t``."""
    if b"." in body or b"/" in body:  # the bytes between "-" and "0"
        return None
    chars = np.frombuffer(body, np.uint8)
    apart = chars - ord("-") > 12  # not "-" or a digit; wraps around below "-"
    at = np.flatnonzero(apart)
    k, closed = divmod(len(at), 5)
    if (not k or closed > 1 or chars[at].tobytes() != _TRIPLE * k + b"]" * closed
            or at[0] != 0 or at[-1] != len(chars) - 1):
        return None
    # the bytes from each of a triple's ",", "[", ",", "," and "]" to the
    # next: ",[" and "]," (or a closing "]]") are adjacent, and every number
    # has a byte
    gaps = at[1:] - at[:-1]
    lengths = np.stack((gaps[1::5], gaps[2::5], gaps[3::5])) - 1
    if not ((gaps[::5] == 1).all() and (gaps[4::5] == 1).all() and (lengths > 0).all()):
        return None
    # -?(0|[1-9][0-9]*): a minus sign only opens a number, before a digit,
    # and no digit follows a number's opening 0
    signed = b"-" in body
    opening = apart
    if signed:
        minus = chars == ord("-")
        if (minus[1:] & ~apart[:-1]).any() or (minus[:-1] & apart[1:]).any():
            return None
        opening = apart | minus
    if ((chars[1:-1] == ord("0")) & opening[:-2] & ~apart[2:]).any():
        return None
    ends = np.stack((at[2::5], at[3::5], at[4::5]))
    return _numbers(body, ends, lengths, signed), bool(closed)


def _read_block(block: bytes) -> tuple[np.ndarray, int | None] | None:
    """The triples of one block of an edge list, as ``_triples`` gives them,
    and the length of the block's part up to the list's closing "]" if the
    list closes in it; None unless the block is whole triples, with
    whitespace only between tokens."""
    found = _triples(block)
    if found is not None:
        values, closed = found
        return values, len(block) if closed else None
    chars = np.frombuffer(block, np.uint8)
    kept = np.flatnonzero((chars != 32) & (chars != 10) & (chars != 13) & (chars != 9))
    if len(kept) == len(chars):
        return None
    stripped = chars[kept]
    number = stripped - ord("-") < 13  # "-", "." or "/", or a digit
    if (number[:-1] & number[1:] & (kept[1:] - kept[:-1] > 1)).any():  # a number split by a blank
        return None
    body = stripped.tobytes()
    # without its blanks the list closes at its first "]]"
    close = body.index(b"]]") + 2 if b"]]" in body else len(body)
    found = _triples(body[:close])
    if found is None:
        return None
    values, closed = found
    return values, int(kept[close - 1]) + 1 if closed else None


def _read_edges(source: str | bytes, at: int) -> tuple[np.ndarray, int] | None:
    """The edge list at ``source[at]`` as an (m, 3) table, and the index just
    past it; None unless it is ``[[t,t,t],...]`` with JSON integers ``t``.

    The list is checked and parsed in blocks of about ``_READ_BLOCK``
    characters, each cut between the "]" and "," of a "],", into one table
    sized from the count of "[" up to the last "]]", where a list that
    closes its last triple at once ends.
    """
    punct = _PUNCT[type(source)]
    if not source.startswith(punct["["], at):
        return None
    after = _skip_space(source, at + 1)
    if source.startswith(punct["]"], after):  # "[]", the one list without a triple
        return np.zeros((0, 3), np.int64), after + 1
    last = source.rfind(punct["]"] * 2, at)
    end = last + 2 if last >= 0 else len(source)
    m = source.count(punct["["], at, end) - 1  # the triples, if the list ends at `end`
    if 8 * m + 1 > end - at:  # each triple takes 8 characters or more
        return None
    # column-major: a block's (3, k) rows are copied in as three runs, and
    # the graph's u, v and w are contiguous
    table = np.empty((m, 3), np.int64, order="F")
    row, start = 0, at
    cut_at = punct["]"] + punct[","]
    while start < end:
        cut = min(start + _READ_BLOCK, end)
        # cut after the "]" of a "],", so the next block opens with its ","; a
        # "]" with blanks before its "," is no cut, and its block runs on
        stop = source.rfind(cut_at, start, cut + 1) + 1 or source.find(cut_at, cut, end) + 1 or end
        block = source[start:stop]
        if start == at:  # the list's "[" stands where every later triple has its ","
            block = punct[","] + block[1:]
        found = _read_block(block.encode() if isinstance(block, str) else block)
        if found is None:
            return None
        values, used = found
        count = values.shape[1]
        if values.dtype == object:
            table = table.astype(object, copy=False)
        table[row:row + count] = values.T
        row += count
        if used is not None:
            if row < m:  # the list closed before `end`; the graph copies the view
                table = table[:row]
            table.setflags(write=False)
            return table, start + used
        start = stop
    return None


def _read_object(source: str | bytes) -> dict | None:
    """``source``'s top-level JSON object, or None unless it is one.

    json's decoder reads each key and value, and a later duplicate key wins,
    as in ``json.loads``; only an "edges" value goes to ``_read_edges`` first.
    """
    punct = _PUNCT[type(source)]
    at = _skip_space(source, 0)
    if not source.startswith(punct["{"], at):
        return None
    payload = {}
    at = _skip_space(source, at + 1)
    more = not source.startswith(punct["}"], at)
    try:
        while more:
            key, at = _decode_value(source, at)
            at = _skip_space(source, at)
            if not (isinstance(key, str) and source.startswith(punct[":"], at)):
                return None
            at = _skip_space(source, at + 1)
            edges = _read_edges(source, at) if key == "edges" else None
            payload[key], at = edges or _decode_value(source, at)
            at = _skip_space(source, at)
            more = source.startswith(punct[","], at)
            if more:
                at = _skip_space(source, at + 1)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    if source.startswith(punct["}"], at) and _skip_space(source, at + 1) == len(source):
        return payload
    return None


def loads_instance(text: str) -> PncInstance:
    if not isinstance(text, str):
        raise ValueError(f"instance text must be a str, got {type(text).__name__}")
    return _parse_instance(str(text))  # a subclass as a str


def _parse_instance(source: str | bytes) -> PncInstance:
    try:
        payload = _read_object(source)
        if payload is None:
            if isinstance(source, bytes):  # as text mode reads the file
                source = source.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
            payload = json.loads(source)
            if isinstance(payload, dict):
                raise RuntimeError("the object reader turned down a JSON object")
            raise ValueError("instance file must contain a JSON object")
    except json.JSONDecodeError as exc:
        raise ValueError(f"instance file is not valid JSON: {exc}") from exc
    except RecursionError:
        # json's scanner recurses once per nesting level
        raise ValueError("instance JSON nests too deeply") from None
    unknown = set(payload) - {"n", "edges", "nu"}
    if unknown:
        raise ValueError(f"unknown instance fields: {sorted(unknown)}")
    if "n" not in payload:
        raise ValueError("instance file is missing field 'n'")
    n = _as_int(payload["n"], "n")
    edges = payload.get("edges", np.zeros((0, 3), np.int64))
    if not isinstance(edges, (list, np.ndarray)):
        raise ValueError("'edges' must be a list of [u, v, w] triples")
    nu = payload.get("nu")
    if "nu" in payload:
        if not isinstance(nu, list):
            raise ValueError("'nu' must be a list of integers")
        if len(nu) != n:
            raise ValueError(f"'nu' has {len(nu)} entries for n={n}")
    # A list here is one the edge reader turned down: the graph rejects it.
    instance = PncInstance.from_edges(n, edges, nu)
    if isinstance(edges, list):
        raise RuntimeError("the graph accepted an edge list that the edge reader turned down")
    # the file format also fixes each edge's orientation
    backwards = np.flatnonzero(edges[:, 0] >= edges[:, 1])
    if len(backwards):
        raise ValueError(f"edges[{backwards[0]}]: endpoints must satisfy u < v")
    return instance


def load_instance(path: str) -> PncInstance:
    with open(path, "rb") as fh:
        return _parse_instance(fh.read())


def dump_instance(instance: PncInstance, path: str) -> None:
    _as_type(instance, PncInstance, "instance")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_instance_blocks(instance))
