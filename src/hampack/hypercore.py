"""Core k-uniform hypergraph representation, degree statistics, serialization.

Vertices are dense integers 0..n-1; edges are stored canonically as sorted
tuples.  Hypergraph values are immutable after construction and safe to share
across threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .errors import InvalidQueryError, ParseError
from .util import read_json, write_json


def canon_edge(edge: Iterable[int]) -> tuple[int, ...]:
    """Canonical form of an edge: strictly increasing vertex tuple."""
    return tuple(sorted(edge))


class Hypergraph:
    """A k-uniform hypergraph on vertices 0..n-1 with a set of k-edges."""

    __slots__ = ("n", "k", "edges", "_edge_set", "_completions")

    def __init__(self, n: int, k: int, edges: Iterable[Iterable[int]]):
        if not (1 <= k <= n):
            raise ParseError(f"need 1 <= k <= n, got k={k}, n={n}")
        canon = []
        seen = set()
        for idx, e in enumerate(edges):
            ce = canon_edge(e)
            if len(set(ce)) != k:
                raise ParseError(f"edge {idx} {list(e)}: not {k} distinct vertices")
            if ce[0] < 0 or ce[-1] >= n:
                raise ParseError(f"edge {idx} {list(e)}: vertex out of range 0..{n - 1}")
            if ce in seen:
                raise ParseError(f"edge {idx} {list(e)}: duplicate edge")
            seen.add(ce)
            canon.append(ce)
        canon.sort()
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "edges", tuple(canon))
        object.__setattr__(self, "_edge_set", frozenset(canon))
        object.__setattr__(self, "_completions", None)

    def __setattr__(self, name, value):
        raise AttributeError("Hypergraph is immutable")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Hypergraph)
                and self.n == other.n and self.k == other.k
                and self._edge_set == other._edge_set)

    def __hash__(self) -> int:
        return hash((self.n, self.k, self._edge_set))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, k={self.k}, |E|={len(self.edges)})"

    def num_edges(self) -> int:
        return len(self.edges)

    def has_edge(self, vertices: Iterable[int]) -> bool:
        return canon_edge(vertices) in self._edge_set

    def completion_index(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Map each (k-1)-subset of an edge to the sorted tuple of completing vertices.

        Built lazily once; (k-1)-subsets contained in no edge are absent (degree 0).
        """
        if self._completions is None:
            idx: dict[tuple[int, ...], list[int]] = {}
            for e in self.edges:
                for drop in range(self.k):
                    sub = e[:drop] + e[drop + 1:]
                    idx.setdefault(sub, []).append(e[drop])
            frozen = {sub: tuple(sorted(vs)) for sub, vs in idx.items()}
            object.__setattr__(self, "_completions", frozen)
        return self._completions


@dataclass(frozen=True)
class DegreeReport:
    """Exact minimum/maximum degree over all d-subsets, with attaining witnesses."""
    d: int
    min_degree: int
    max_degree: int
    witness_min: tuple[int, ...]
    witness_max: tuple[int, ...]


def degree_of(h: Hypergraph, subset: Iterable[int]) -> int:
    """Number of edges containing every vertex of `subset`."""
    a = frozenset(subset)
    if len(a) > h.k:
        raise InvalidQueryError(f"subset size {len(a)} exceeds k={h.k}")
    if not a:
        return h.num_edges()
    if len(a) == h.k:
        return 1 if h.has_edge(a) else 0
    return sum(1 for e in h.edges if a.issubset(e))


def degree_report(h: Hypergraph, d: int) -> DegreeReport:
    """Exhaustive scan over all d-subsets of the vertex set; exact extremes."""
    if not (1 <= d <= h.k - 1):
        raise InvalidQueryError(f"d must satisfy 1 <= d <= k-1 = {h.k - 1}, got {d}")
    counts: dict[tuple[int, ...], int] = {}
    for e in h.edges:
        for sub in combinations(e, d):
            counts[sub] = counts.get(sub, 0) + 1
    w_min = w_max = None
    d_min = d_max = None
    for sub in combinations(range(h.n), d):
        c = counts.get(sub, 0)
        if d_min is None or c < d_min:
            d_min, w_min = c, sub
        if d_max is None or c > d_max:
            d_max, w_max = c, sub
    return DegreeReport(d=d, min_degree=d_min, max_degree=d_max,
                        witness_min=w_min, witness_max=w_max)


def relative_degree(h: Hypergraph, x: Iterable[int], y: Iterable[int]) -> int:
    """Number of subsets Z of `y` with x ∪ Z an edge (|Z| = k - |x|)."""
    xs = frozenset(x)
    ys = frozenset(y)
    if xs & ys:
        raise InvalidQueryError(f"X and Y overlap: {sorted(xs & ys)}")
    if len(xs) >= h.k:
        raise InvalidQueryError(f"|X| = {len(xs)} must be < k = {h.k}")
    need = h.k - len(xs)
    count = 0
    for e in h.edges:
        if xs.issubset(e):
            rest = [v for v in e if v not in xs]
            if len(rest) == need and all(v in ys for v in rest):
                count += 1
    return count


def to_json_dict(h: Hypergraph) -> dict:
    return {"n": h.n, "k": h.k, "edges": [list(e) for e in h.edges]}


def from_json_dict(obj) -> Hypergraph:
    if not isinstance(obj, dict) or set(obj.keys()) != {"n", "k", "edges"}:
        raise ParseError('expected an object with exactly the keys "n", "k", "edges"')
    n, k, edges = obj["n"], obj["k"], obj["edges"]
    if not isinstance(n, int) or not isinstance(k, int) or not isinstance(edges, list):
        raise ParseError('"n" and "k" must be integers and "edges" a list')
    for idx, e in enumerate(edges):
        if not isinstance(e, list) or not all(isinstance(v, int) for v in e):
            raise ParseError(f"edge {idx}: must be a list of integers")
    return Hypergraph(n, k, edges)


def read_hypergraph(path: str) -> Hypergraph:
    """Read a hypergraph from JSON; validates the exact schema."""
    return from_json_dict(read_json(path))


def write_hypergraph(h: Hypergraph, path: str) -> None:
    """Write JSON with edges in ascending canonical order; read(write(h)) == h."""
    write_json(to_json_dict(h), path)
