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

A file is read as bytes, block by block.  The header, the bytes before the
edge list and after it, is read from the file's two ends and goes through
`json.loads`.  The edge list, JSON whitespace removed, is checked and decoded
one block at a time by a numpy scan that accepts rows of k unsigned integers
of at most 18 digits with no leading zero, and each block's rows become codes
at once, so a read holds the codes and one block, never the whole file.  Any
other file is read again by `util.load_json` into a list, and the list
constructor walks it edge by edge (`_edge_codes`), naming the first bad edge.
A file that cannot seek, such as a pipe, is read whole once.
"""
from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from .errors import InvalidQueryError, ParseError, SizeLimitError
from .util import integer, load_json


def row_codes(rows: np.ndarray, n: int) -> np.ndarray:
    """Base-n codes of the rows of a 2-d int64 array (rows sorted by the caller)."""
    codes = np.zeros(len(rows), dtype=np.int64)
    for j in range(rows.shape[1]):
        codes = codes * n + rows[:, j]
    return codes


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
    hockey-stick identity C(x, j) = sum_{y < x} C(y, j - 1), which
    `lex_unrank` searches.  Every entry is at most C(n, d) <= n^d, which fits
    in int64 for d <= k since n^k < 2^63."""
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


@lru_cache(maxsize=4)
def _lex_codes(n: int, d: int, count: int) -> np.ndarray:
    """The codes of the first `count` d-subsets of 0..n-1 in lexicographic
    order, read-only and cached: each trial of a partition sweep asks again."""
    codes = row_codes(lex_unrank(np.arange(count), n, d), n)
    codes.flags.writeable = False
    return codes


def subset_codes(h: Hypergraph, d: int) -> Iterator[np.ndarray]:
    """The codes of the edges' d-subsets, one array per position set of
    combinations(range(k), d), in that order: the subset at positions c_1 <
    ... < c_d of an edge is its code's digits c_1, ..., c_d read in base n.
    The digits are decoded once, as int32 when n^k < 2^31."""
    n, k = h.n, h.k
    digits = np.empty((k, len(h.codes)), dtype=np.int32 if n ** k < 2 ** 31 else np.int64)
    h._decode(digits)
    for positions in combinations(range(k), d):
        code = digits[positions[0]].copy() if d else np.zeros_like(digits[0])
        for c in positions[1:]:
            code *= n
            code += digits[c]
        yield code


def _count_codes(columns: Iterable[np.ndarray], space: int) -> np.ndarray:
    """How often each code in 0..space-1 occurs in `columns`: one bincount per column."""
    return sum(np.bincount(code, minlength=space) for code in columns)


def subset_degrees(columns: Iterable[np.ndarray], size: int, n: int,
                   d: int) -> tuple[int, int, int, int]:
    """(min degree, code of the first d-subset attaining it, max degree, code
    of the first d-subset attaining it) over the C(n, d) d-subsets of 0..n-1,
    where a subset's degree is how often its code occurs among the `size`
    codes of `columns`.  Code order is lexicographic order.

    When n^d <= size, the counts over the whole code space are no more than
    the codes: `_count_codes` counts them, read at the codes of the subsets
    in lexicographic order.  Otherwise `np.unique` sorts and counts the
    distinct codes, which keeps the memory at O(size).  The first place
    where they leave the lexicographic code sequence is the first subset of
    degree 0, and a count 0 is put in there, so both branches end in the
    same argmin and argmax.
    """
    total = math.comb(n, d)
    if n ** d <= size:
        counts = _count_codes(columns, n ** d)
        codes = _lex_codes(n, d, total)
        counts = counts[codes]
    else:
        codes, counts = np.unique(np.concatenate(list(columns)), return_counts=True)
        lex = _lex_codes(n, d, min(len(codes) + 1, total))
        gaps = np.flatnonzero(lex[:len(codes)] != codes)
        at = int(gaps[0]) if len(gaps) else len(codes)
        if at < total:
            codes, counts = np.insert(codes, at, lex[at]), np.insert(counts, at, 0)
    low, high = int(np.argmin(counts)), int(np.argmax(counts))
    return int(counts[low]), int(codes[low]), int(counts[high]), int(codes[high])


def degree_report(h: Hypergraph, d: int) -> DegreeReport:
    """Exact extremes over all d-subsets, with the first attaining subset in
    lexicographic order as witness: `subset_degrees` over every edge's
    d-subset codes, `subset_codes`."""
    if not (1 <= d <= h.k - 1):
        raise InvalidQueryError(f"d must satisfy 1 <= d <= k-1 = {h.k - 1}, got {d}")
    n = h.n
    d_min, c_min, d_max, c_max = subset_degrees(subset_codes(h, d),
                                                math.comb(h.k, d) * len(h.codes), n, d)
    witness_min, witness_max = (tuple(c // n ** i % n for i in range(d - 1, -1, -1))
                                for c in (c_min, c_max))
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


_SCAN_CHUNK = 1 << 18   # bytes per read of a file: bounds each block's int64 temporaries
_JSON_WHITESPACE = b" \t\n\r"
_DIGITS_AS_ZERO = bytes.maketrans(b"0123456789", b"0" * 10)


def _scan_hypergraph(fh: BinaryIO) -> Hypergraph | None:
    """The hypergraph of the JSON document that the seekable binary file
    `fh`, positioned at its start, holds when its edge list is plain; None
    otherwise.

    The edge list runs from the first `[` to the last `]`, which
    `_list_bounds` finds from the two ends of the file.  The rest, with `[]`
    standing for the list, must be ASCII and pass `json.loads` and
    `from_json_dict`.  Such a header holds exactly the keys "n", "k" and
    "edges", whose values are two integers and a list, so no string holds a
    bracket and `[]` is its only list: the value of "edges".

    The list is then read in blocks of `_SCAN_CHUNK` bytes.  A block's digit
    runs are counted, a run that the previous block ended in carried over;
    its JSON whitespace is removed, and its complete rows, up to its last
    `],`, go through `_piece_codes`; the rest carries over to the next block.
    With its whitespace removed, the list must be `[`, rows joined by `,`,
    and `]`, and no whitespace may split an integer: the list holds as many
    digit runs as the rows hold integers.  Last, the codes of all the rows
    are sorted, when they do not already ascend, and must hold no duplicate.
    """
    bounds = _list_bounds(fh)
    if bounds is None:
        return None
    head, start, tail, stop = bounds
    try:
        shape = from_json_dict(json.loads((head + b"[]" + tail).decode("ascii")))
    except (ValueError, RecursionError):   # JSONDecodeError, UnicodeDecodeError, ParseError
        return None
    n, k = shape.n, shape.k
    runs, digit_before, rest, parts = 0, False, b"", []
    fh.seek(start + 1)
    left = stop - start - 1
    while left:
        block = fh.read(min(_SCAN_CHUNK, left))
        if not block:
            return None
        left -= len(block)
        count, digit_before = _digit_runs(block, digit_before)
        runs += count
        rest += block.translate(None, _JSON_WHITESPACE)
        del block   # the rows below need only `rest`
        cut = rest.rfind(b"],") + 2
        if cut > 1:
            codes = _piece_codes(rest, cut, n, k, last=False)
            if codes is None:
                return None
            parts.append(codes)
            rest = rest[cut:]
    if parts or rest != b"]":   # b"]" alone: the list is []
        codes = _piece_codes(rest, len(rest), n, k, last=True)
        if codes is None:
            return None
        parts.append(codes)
    codes = np.concatenate([np.empty(0, dtype=np.int64)] + parts)
    del parts   # the checks and the sort below hold the codes once
    if len(codes) * k != runs:
        return None
    if not (codes[1:] > codes[:-1]).all():
        codes.sort()
        if (codes[1:] == codes[:-1]).any():
            return None
    return Hypergraph._from_codes(n, k, codes)


def _list_bounds(fh: BinaryIO) -> tuple[bytes, int, bytes, int] | None:
    """(the bytes before the first `[`, its offset, the bytes after the last
    `]` behind it, the offset past that `]`) of the seekable file `fh`,
    positioned at its start; None when there is no such pair.  The head is
    read forward and the tail backward, `_SCAN_CHUNK` bytes at a time, so a
    plain file takes one read at each end."""
    blocks = []
    while True:
        block = fh.read(_SCAN_CHUNK)
        if not block:
            return None
        at = block.find(b"[")
        if at >= 0:
            break
        blocks.append(block)
    head = b"".join(blocks) + block[:at]
    start, hi, blocks = len(head), fh.seek(0, io.SEEK_END), []
    while True:
        lo = max(start + 1, hi - _SCAN_CHUNK)
        if lo >= hi:
            return None
        fh.seek(lo)
        block = fh.read(hi - lo)
        at = block.rfind(b"]")
        if at >= 0:
            break
        blocks.append(block)
        hi = lo
    return head, start, block[at + 1:] + b"".join(reversed(blocks)), lo + at + 1


def _digit_runs(block: bytes, digit_before: bool) -> tuple[int, bool]:
    """The number of digit runs that start in `block`, where `digit_before`
    tells whether the byte before it is a digit, and whether its last byte
    is one."""
    digit = (np.frombuffer(block, dtype=np.uint8) - 48) < 10
    return (int(np.count_nonzero(digit[1:] > digit[:-1])) + int(digit[0] > digit_before),
            bool(digit[-1]))


def _piece_codes(text: bytes, size: int, n: int, k: int, last: bool) -> np.ndarray | None:
    """The codes, in row order, of the rows that text[:size] lists; None
    unless, with every digit written as 0, it spells `[0,...,0],` once per
    row, at least once, with the list's closing `]` for the last `,` when
    `last`, and each row holds k distinct vertices below n of at most 18
    digits with no leading zero.

    Digits are told apart by uint8 arithmetic: a byte below "0" minus 48
    wraps past 9.  Rows are sorted only when they do not already ascend."""
    piece = np.frombuffer(text, dtype=np.uint8, count=size)
    digit = (piece - 48) < 10
    if not _spells_rows(piece, digit, k, last):
        return None
    starts = np.flatnonzero(digit[1:] > digit[:-1])
    starts += 1
    lengths = np.flatnonzero(digit[:-1] > digit[1:])
    lengths += 1
    lengths -= starts
    vertices = piece.take(starts).astype(np.int64)
    vertices -= 48
    most = int(lengths.max())
    if most > 18 or ((vertices == 0) & (lengths > 1)).any():
        return None
    for j in range(1, most):
        vertices = np.where(lengths > j,
                            vertices * 10 + piece.take(starts + j, mode="clip") - 48,
                            vertices)
    if vertices.max() >= n:
        return None
    rows = vertices.reshape(-1, k)
    if not (rows[:, 1:] > rows[:, :-1]).all():
        rows.sort(axis=1)
        if not (rows[:, 1:] > rows[:, :-1]).all():
            return None
    return row_codes(rows, n)


def _spells_rows(piece: np.ndarray, digit: np.ndarray, k: int, last: bool) -> bool:
    """Whether the tokens of `piece`, its digits written as 0, spell
    `[0,...,0],` (k zeros) once per row, at least once, with `]` for the
    last `,` when `last`.  A token starts at the first byte and at each byte
    that is not a digit following a digit."""
    first = np.concatenate(([True], ~(digit[1:] & digit[:-1])))
    tokens = piece[first].tobytes().translate(_DIGITS_AS_ZERO)
    row = b"[" + b",".join([b"0"] * k) + b"],"
    count = len(tokens) // len(row)
    spelled = row * count
    if last:
        spelled = spelled[:-1] + b"]"
    return count > 0 and tokens == spelled


def read_hypergraph(path: str) -> Hypergraph:
    """Read a hypergraph from JSON; validates the exact schema.  A file that
    `_scan_hypergraph` refuses is read again from its start by
    `load_json(path, fh, from_json_dict)`, which names its fault or reads the
    rare valid file the scan refuses (a `-0` vertex, a vertex of 19 digits,
    non-ASCII bytes).  A file that cannot seek, such as a pipe, is read
    whole once, and both paths read those bytes."""
    with open(path, "rb") as fh:
        source = fh if fh.seekable() else io.BytesIO(fh.read())
        h = _scan_hypergraph(source)
        if h is None:
            source.seek(0)
            h = load_json(path, source, from_json_dict)
        return h
