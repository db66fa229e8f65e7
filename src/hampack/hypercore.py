"""Core k-uniform hypergraph representation, degree statistics, serialization.

Vertices are dense integers 0..n-1.  The edge store is `codes`, one sorted,
read-only int64 array: an edge's code is its sorted vertex tuple read as k
base-n digits, so code order is the lexicographic order of the edges and a
position in `codes` names an edge.  Codes must fit in int64, so n^k < 2^63.
The tuple view `edges` is decoded from the codes on first use.  Hypergraph
values are immutable after construction.

Membership is one query: `locate` answers a batch of vertex rows.  When
n^k <= 2^24 it gathers from a dense position table over the code space
(`Hypergraph.position_table`); nothing else reads the table.

A file is read as bytes.  Its edge list, JSON whitespace removed, is checked
and decoded by a chunked numpy scan that accepts rows of k unsigned integers
of at most 18 digits with no leading zero; the rest of the file goes through
`json.loads`.  Any other file is read by `util.read_json` into a list, and
the list constructor walks it edge by edge (`_edge_codes`), naming the first
bad edge.  The scan builds its codes through `_vertex_codes`.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable

import numpy as np

from .errors import InvalidQueryError, ParseError, SizeLimitError
from .util import integer, read_json


def row_codes(rows: np.ndarray, n: int) -> np.ndarray:
    """Base-n codes of the rows of a 2-d int64 array (rows sorted by the caller)."""
    codes = np.zeros(len(rows), dtype=np.int64)
    for j in range(rows.shape[1]):
        codes = codes * n + rows[:, j]
    return codes


def _vertex_codes(n: int, k: int, flat: np.ndarray):
    """Sorted codes of the rows of k vertices that the non-empty, non-negative
    int64 array `flat` of `_scan_vertices` lists one after another; None when
    a vertex is n or more, a row repeats a vertex or two rows hold the same
    vertex set.  Rows and codes are sorted only when they do not already
    ascend."""
    if flat.max() >= n:
        return None
    rows = flat.reshape(-1, k)
    if not (rows[:, 1:] > rows[:, :-1]).all():
        rows.sort(axis=1)
        if not (rows[:, 1:] > rows[:, :-1]).all():
            return None
    codes = row_codes(rows, n)
    if not (codes[1:] > codes[:-1]).all():
        codes.sort()
    return None if (codes[1:] == codes[:-1]).any() else codes


def _edge_codes(n: int, k: int, edges: Iterable[Iterable[int]]) -> np.ndarray:
    """Sorted codes of an edge list, walked one edge at a time; ParseError
    naming the first bad edge."""
    seen = set()
    for idx, e in enumerate(edges):
        try:
            ce = tuple(sorted(map(integer, e)))
        except TypeError:
            raise ParseError(f"edge {idx}: must be a list of integers") from None
        if len(ce) != k or len(set(ce)) != k:
            raise ParseError(f"edge {idx} {list(e)}: not {k} distinct vertices")
        if ce[0] < 0 or ce[-1] >= n:
            raise ParseError(f"edge {idx} {list(e)}: vertex out of range 0..{n - 1}")
        if ce in seen:
            raise ParseError(f"edge {idx} {list(e)}: duplicate edge")
        seen.add(ce)
    return np.sort(row_codes(np.array(list(seen), dtype=np.int64).reshape(-1, k), n))


POSITION_TABLE_MAX_CODES = 2 ** 24  # int32 holds every position; at most 64 MB


def check_dimensions(n: int, k: int) -> None:
    """1 <= k <= n, and every k-subset of 0..n-1 has an int64 code."""
    if not (1 <= k <= n):
        raise ParseError(f"need 1 <= k <= n, got k={k}, n={n}")
    if n ** k >= 2 ** 63:
        raise SizeLimitError(f"n^k = {n}^{k} >= 2^63: edge codes do not fit in int64")


class Hypergraph:
    """A k-uniform hypergraph on vertices 0..n-1 with a set of k-edges."""

    __slots__ = ("n", "k", "codes", "_edges", "_table")

    def __init__(self, n: int, k: int, edges: Iterable[Iterable[int]]):
        check_dimensions(n, k)
        self._store(n, k, _edge_codes(n, k, edges))

    @classmethod
    def _from_codes(cls, n: int, k: int, codes: np.ndarray) -> Hypergraph:
        """A hypergraph of an already sorted, duplicate-free int64 code array
        whose shape (n, k) passed `check_dimensions`."""
        h = object.__new__(cls)
        h._store(n, k, codes)
        return h

    def _store(self, n: int, k: int, codes: np.ndarray) -> None:
        codes.flags.writeable = False
        for name, value in (("n", n), ("k", k), ("codes", codes), ("_edges", None),
                            ("_table", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Hypergraph is immutable")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Hypergraph)
                and self.n == other.n and self.k == other.k
                and np.array_equal(self.codes, other.codes))

    def __hash__(self) -> int:
        return hash((self.n, self.k, self.codes.tobytes()))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, k={self.k}, |E|={len(self.codes)})"

    @property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        """The edges as sorted vertex tuples, in ascending (code) order."""
        if self._edges is None:
            object.__setattr__(self, "_edges", tuple(map(tuple, self.rows().tolist())))
        return self._edges

    def rows(self) -> np.ndarray:
        """The edges as an |E| x k int64 array of ascending vertex rows, in code order."""
        rows = np.empty((len(self.codes), self.k), dtype=np.int64)
        self._decode(rows.T)
        return rows

    def columns(self) -> np.ndarray:
        """`rows()` transposed, as a k x |E| C-ordered array: row j is the
        contiguous column of every edge's j-th vertex."""
        columns = np.empty((self.k, len(self.codes)), dtype=np.int64)
        self._decode(columns)
        return columns

    def _decode(self, out: np.ndarray) -> None:
        """Write every edge's j-th vertex, the j-th most significant base-n
        digit of its code, into out[j] in out's dtype.  A remainder is taken as
        rest - quotient·n: floor division by a scalar is several times faster
        than `np.divmod`."""
        rest = self.codes.astype(out.dtype, copy=False)
        for j in range(self.k - 1, 0, -1):
            quotient = rest // self.n
            np.subtract(rest, quotient * self.n, out=out[j])
            rest = quotient
        out[0] = rest

    def position_table(self) -> np.ndarray | None:
        """The read-only int32 array over the n^k codes holding each edge's
        position + 1 at its code and 0 elsewhere, built on first use; None
        when n^k > POSITION_TABLE_MAX_CODES.  `np.zeros` leaves the pages
        that hold no edge code unmapped."""
        if self._table is None and self.n ** self.k <= POSITION_TABLE_MAX_CODES:
            table = np.zeros(self.n ** self.k, dtype=np.int32)
            table[self.codes] = np.arange(1, len(self.codes) + 1, dtype=np.int32)
            table.flags.writeable = False
            object.__setattr__(self, "_table", table)
        return self._table

    def locate(self, rows) -> np.ndarray:
        """Position in `codes` of the edge each k-vertex row names, -1 where
        the row is not an edge.  Rows may list their vertices in any order;
        the last axis of `rows` must have length k.  With a position table
        the codes are one gather, where a repeated vertex reads 0 and rows
        outside 0..n-1 are masked; otherwise a binary search of `codes`."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return np.empty(0, dtype=np.int64)
        if rows.shape[-1:] != (self.k,):
            raise InvalidQueryError(f"rows of shape {rows.shape} do not end in k = {self.k} "
                                    "vertices")
        rows = np.sort(rows.reshape(-1, self.k), axis=1)
        codes = row_codes(rows, self.n)
        inside = (rows[:, 0] >= 0) & (rows[:, -1] < self.n)
        table = self.position_table()
        if table is not None:
            pos = table[np.where(inside, codes, 0)].astype(np.int64) - 1
            pos[~inside] = -1
            return pos
        pos = np.searchsorted(self.codes, codes)
        found = inside & (pos < len(self.codes))
        found[found] = self.codes[pos[found]] == codes[found]
        return np.where(found, pos, -1)

    def num_edges(self) -> int:
        return len(self.codes)


@dataclass(frozen=True)
class DegreeReport:
    """Exact minimum/maximum degree over all d-subsets, with attaining witnesses."""
    d: int
    min_degree: int
    max_degree: int
    witness_min: tuple[int, ...]
    witness_max: tuple[int, ...]


def _binomials(n: int, d: int) -> np.ndarray:
    """The (d + 1) x n int64 table B[j, x] = C(x, j), one row per j by the
    hockey-stick identity C(x, j) = sum_{y < x} C(y, j - 1).  Every entry is
    at most C(n, d) <= n^d, which fits in int64 for d <= k since n^k < 2^63."""
    table = np.zeros((d + 1, n), dtype=np.int64)
    table[0] = 1
    for j in range(1, d + 1):
        np.cumsum(table[j - 1, :-1], out=table[j, 1:])
    return table


def lex_unrank(ranks: np.ndarray, n: int, d: int) -> np.ndarray:
    """The d-subsets of 0..n-1 at positions `ranks` in lexicographic order, as
    a len(ranks) x d int64 array of ascending rows.

    Subset c has rank C(n, d) - 1 - sum_i C(n - 1 - c_i, d - i), so C(n, d) - 1
    - rank is written greedily in the combinatorial number system: each
    x_i = n - 1 - c_i is the largest x with C(x, d - i) <= what remains.
    """
    rest = math.comb(n, d) - 1 - np.asarray(ranks, dtype=np.int64)
    rows = np.empty((len(rest), d), dtype=np.int64)
    binomials = _binomials(n, d)
    for i in range(d):
        table = binomials[d - i]
        x = np.searchsorted(table, rest, side="right") - 1
        rest = rest - table[x]
        rows[:, i] = n - 1 - x
    return rows


def subset_ranks(h: Hypergraph, d: int) -> np.ndarray:
    """The lexicographic ranks of every edge's d-subsets, as an |E| x C(k, d)
    int64 array: column j holds the rank of the subset at the j-th position
    combination of combinations(range(k), d), where
    rank(c) = C(n, d) - 1 - sum_i C(n - 1 - c_i, d - i).

    Each term is a gather from the 1-D table v -> C(n - 1 - v, d - i), a
    reversed row of `_binomials`, over one contiguous vertex column."""
    n = h.n
    tables = _binomials(n, d)[:, ::-1]
    columns = h.columns()
    positions = list(combinations(range(h.k), d))
    ranks = np.empty((len(h.codes), len(positions)), dtype=np.int64)
    for j, cols in enumerate(positions):
        ranks[:, j] = math.comb(n, d) - 1 - sum(tables[d - i][columns[c]]
                                                for i, c in enumerate(cols))
    return ranks


def _facet_degrees(h: Hypergraph) -> np.ndarray:
    """The degree of every (k-1)-subset, in lexicographic order: for each j,
    one bincount of the facet codes (an edge's digits without its j-th),
    read at the increasing (k-1)-tuples, whose C order is lexicographic."""
    n, k = h.n, h.k
    digits = np.empty((k, len(h.codes)), dtype=np.int32 if n ** k < 2 ** 31 else np.int64)
    h._decode(digits)
    counts = 0
    for j in range(k):
        facet = 0
        for i in chain(range(j), range(j + 1, k)):
            facet = facet * n + digits[i]
        counts = counts + np.bincount(facet, minlength=n ** (k - 1))
    increasing = (np.diff(np.indices((n,) * (k - 1)), axis=0) > 0).all(axis=0)
    return counts[increasing.ravel()]


def degree_report(h: Hypergraph, d: int) -> DegreeReport:
    """Exact extremes over all d-subsets, with the first attaining subset in
    lexicographic order as witness.

    Every d-subset's degree is counted, and the first extremes are the argmin
    and argmax of the counts, in two cases.  For d = k - 1 and n^(k-1) <=
    k·|E|, the count array over the (k-1)-subset codes is no larger than the
    list of the edges' k·|E| facets, and `_facet_degrees` counts the facets.
    When C(n, d) <= |E|·C(k, d), the count array is no larger than the rank
    array, and `np.bincount` counts the ranks.  Otherwise some d-subset lies
    in no edge, so the minimum is 0; the distinct ranks are then sorted with
    `np.unique`, which keeps the memory at O(|E|·C(k, d)), and the first
    subset of degree 0 is the first rank missing from them.
    """
    if not (1 <= d <= h.k - 1):
        raise InvalidQueryError(f"d must satisfy 1 <= d <= k-1 = {h.k - 1}, got {d}")
    n, k = h.n, h.k
    total = math.comb(n, d)
    facets = d == k - 1 and n ** d <= k * len(h.codes)
    if facets or total <= len(h.codes) * math.comb(k, d):
        counts = (_facet_degrees(h) if facets
                  else np.bincount(subset_ranks(h, d).ravel(), minlength=total))
        r_min, r_max = int(np.argmin(counts)), int(np.argmax(counts))
        d_min, d_max = int(counts[r_min]), int(counts[r_max])
    else:
        present, counts = np.unique(subset_ranks(h, d), return_counts=True)
        gaps = np.flatnonzero(present != np.arange(len(present)))
        d_min, r_min = 0, int(gaps[0]) if len(gaps) else len(present)
        if len(present):
            i = int(np.argmax(counts))
            d_max, r_max = int(counts[i]), int(present[i])
        else:
            d_max, r_max = 0, 0
    witness_min, witness_max = map(tuple, lex_unrank([r_min, r_max], n, d).tolist())
    return DegreeReport(d=d, min_degree=d_min, max_degree=d_max,
                        witness_min=witness_min, witness_max=witness_max)


def to_json_dict(h: Hypergraph) -> dict:
    """The file document; `edges` is the `rows()` array, which `canonical_json` writes."""
    return {"n": h.n, "k": h.k, "edges": h.rows()}


def from_json_dict(obj) -> Hypergraph:
    if not isinstance(obj, dict) or set(obj.keys()) != {"n", "k", "edges"}:
        raise ParseError('expected an object with exactly the keys "n", "k", "edges"')
    n, k, edges = obj["n"], obj["k"], obj["edges"]
    if type(n) is not int or type(k) is not int or not isinstance(edges, list):
        raise ParseError('"n" and "k" must be integers and "edges" a list')
    return Hypergraph(n, k, edges)


_SCAN_CHUNK = 1 << 18   # bytes of edge list per numpy pass: bounds the int64 temporaries
_JSON_WHITESPACE = b" \t\n\r"
_DIGITS_AS_ZERO = bytes.maketrans(b"0123456789", b"0" * 10)


def _scan_hypergraph(data: bytes) -> Hypergraph | None:
    """The hypergraph of the JSON document `data` when its edge list is
    plain; None otherwise.

    The edge list runs from the first `[` to the last `]`.  The rest, with
    `[]` standing for the list, must be ASCII and pass `json.loads` and
    `from_json_dict`.  Such a header holds exactly the keys "n", "k" and
    "edges", whose values are two integers and a list, so no string holds a
    bracket and `[]` is its only list: the value of "edges".  The list itself
    goes through `_scan_vertices`, and its vertices through `_vertex_codes`.
    """
    start, stop = data.find(b"["), data.rfind(b"]") + 1
    if not 0 <= start < stop:
        return None
    try:
        shape = from_json_dict(json.loads((data[:start] + b"[]" + data[stop:]).decode("ascii")))
    except (ValueError, RecursionError):   # JSONDecodeError, UnicodeDecodeError, ParseError
        return None
    n, k = shape.n, shape.k
    flat = _scan_vertices(data, start, stop, k)
    if flat is None:
        return None
    codes = _vertex_codes(n, k, flat) if len(flat) else flat
    return None if codes is None else Hypergraph._from_codes(n, k, codes)


def _scan_vertices(data: bytes, start: int, stop: int, k: int) -> np.ndarray | None:
    """The vertices of the JSON edge list data[start:stop], row after row, as
    an int64 array; None unless, with its JSON whitespace removed, it is
    exactly `[`, rows `[d,...,d]` of k unsigned integers joined by `,`, and
    `]`, each integer of at most 18 digits with no leading zero, and no
    whitespace splits an integer: the list holds as many digit runs as the
    rows hold integers.

    The list without whitespace is read in pieces of about `_SCAN_CHUNK`
    bytes cut after a `],`, where a row ends in any list this accepts.  In a
    piece, each non-digit byte and each digit that follows one starts a
    token; with every digit written as 0, the tokens must spell `[0,...,0],`
    once per row, the last piece ending in the list's `]`.  Digits are told
    apart by uint8 arithmetic: a byte below "0" minus 48 wraps past 9."""
    raw = np.frombuffer(data, dtype=np.uint8, count=stop - start, offset=start)
    runs = 0
    for lo in range(1, len(raw), _SCAN_CHUNK):
        digit = (raw[lo - 1:lo + _SCAN_CHUNK] - 48) < 10
        runs += int(np.count_nonzero(digit[1:] > digit[:-1]))
    packed = data.translate(None, _JSON_WHITESPACE)
    lo, end = packed.find(b"[") + 1, packed.rfind(b"]") + 1
    row = b"[" + b",".join([b"0"] * k) + b"],"
    if lo == end - 1:   # the list is []
        lo = end
    parts = [np.empty(0, dtype=np.int64)]
    while lo < end:
        hi = packed.find(b"],", lo + _SCAN_CHUNK, end)
        hi = end if hi < 0 else hi + 2
        piece = np.frombuffer(packed, dtype=np.uint8, count=hi - lo, offset=lo)
        first = (piece - 48) >= 10
        first[1:] |= first[:-1]
        pos = np.flatnonzero(first)
        rows = len(pos) // len(row)
        spelled = row * rows
        if hi == end:
            spelled = spelled[:-1] + b"]"
        if not rows or piece[pos].tobytes().translate(_DIGITS_AS_ZERO) != spelled:
            return None
        pos = pos.reshape(rows, len(row))
        starts = pos[:, 1:-2:2].ravel()
        digits = pos[:, 2:-1:2].ravel() - starts
        vertices = piece.take(starts).astype(np.int64) - 48
        most = int(digits.max())
        if most > 18 or ((vertices == 0) & (digits > 1)).any():
            return None
        for j in range(1, most):
            vertices = np.where(digits > j,
                                vertices * 10 + piece.take(starts + j, mode="clip") - 48,
                                vertices)
        parts.append(vertices)
        lo = hi
    flat = np.concatenate(parts)
    return flat if len(flat) == runs else None


def read_hypergraph(path: str) -> Hypergraph:
    """Read a hypergraph from JSON; validates the exact schema.  A file that
    `_scan_hypergraph` refuses goes to `read_json(path, from_json_dict)`,
    which names its fault or reads the rare valid file the scan refuses (a
    `-0` vertex, a vertex of 19 digits, non-ASCII bytes)."""
    with open(path, "rb") as fh:
        data = fh.read()
    h = _scan_hypergraph(data)
    return read_json(path, from_json_dict) if h is None else h
