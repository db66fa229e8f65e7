"""Bipartite graph algorithms: Gale-Ryser r-factor certification, flow-based
constructive factor finding, and decomposition of regular subgraphs into
perfect matchings.

Both parts have size m and are indexed 0..m-1; edges are (s, t) pairs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (InvalidInputError, InvariantViolation, ParseError,
                     SizeLimitError)
from .util import check_nonnegative, integer, read_json, write_json

GALE_RYSER_MAX_M = 14
DENSE_MAX_ENTRIES = 2 ** 27  # one int64 array of this many entries is 1 GiB


def _check_size(m: int) -> None:
    """m >= 0, every pair code s·m + t over 0..m-1 fits in int64, and each
    per-vertex degree array of m int64 entries stays within 1 GiB."""
    check_nonnegative(m, "m")
    if m * m >= 2 ** 63:
        raise SizeLimitError(f"m^2 = {m}^2 >= 2^63: pair codes do not fit in int64")
    if m > DENSE_MAX_ENTRIES:
        raise SizeLimitError(f"m = {m} > 2^27: each degree array would exceed 1 GiB")


def _split(codes: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The (s, t) columns of the pair codes s·m + t; m = 0 only with no codes."""
    s = codes // m
    return s, codes - s * m


class BipartiteGraph:
    """Bipartite graph with parts S and T of equal size m, no parallel edges.

    The edge store is `codes`, the sorted, read-only int64 array of s·m + t
    with one entry per edge, fixed when the graph is built; it is the only
    edge store.  The degrees are derived from it at once and `edges` (a
    frozenset of (s, t) pairs) on first use.  The constructor checks its
    pairs in one pass, in input order: each must be two integers (bools
    refused, see `util.integer`) in 0..m-1, and none may repeat an earlier
    one.  `_from_codes` takes an already sorted subset of a valid graph's
    codes.  Both go through `_store`.
    """

    __slots__ = ("m", "codes", "_deg_s", "_deg_t", "_edges")

    def __init__(self, m: int, edges: Iterable[tuple[int, int]]):
        _check_size(m)
        codes = set()
        for idx, e in enumerate(edges):
            try:
                s, t = map(integer, e)
            except (TypeError, ValueError):  # not iterable, not integers, not two of them
                raise InvalidInputError(f"edge {idx}: must be a pair of integers") from None
            if not (0 <= s < m and 0 <= t < m):
                raise InvalidInputError(f"edge ({s},{t}) out of range for m={m}")
            if s * m + t in codes:
                raise InvalidInputError(f"edge {idx} ({s},{t}): duplicate edge")
            codes.add(s * m + t)
        self._store(m, np.sort(np.array(list(codes), dtype=np.int64)))

    @classmethod
    def _from_codes(cls, m: int, codes: np.ndarray) -> BipartiteGraph:
        g = object.__new__(cls)
        g._store(m, codes)
        return g

    def _store(self, m: int, codes: np.ndarray) -> None:
        codes.flags.writeable = False
        s, t = _split(codes, m)
        for name, value in (("m", m), ("codes", codes),
                            ("_deg_s", np.bincount(s, minlength=m)),
                            ("_deg_t", np.bincount(t, minlength=m)),
                            ("_edges", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("BipartiteGraph is immutable")

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        if self._edges is None:
            s, t = _split(self.codes, self.m)
            object.__setattr__(self, "_edges", frozenset(zip(s.tolist(), t.tolist())))
        return self._edges

    def pairs(self) -> np.ndarray:
        """The edges as an |E| x 2 int64 array of (s, t) rows, in code order."""
        return np.column_stack(_split(self.codes, self.m))

    def __eq__(self, other) -> bool:
        return (isinstance(other, BipartiteGraph)
                and self.m == other.m and np.array_equal(self.codes, other.codes))

    def __hash__(self) -> int:
        return hash((self.m, self.codes.tobytes()))

    def __repr__(self) -> str:
        return f"BipartiteGraph(m={self.m}, |E|={len(self.codes)})"

    def min_degree(self) -> int:
        if self.m == 0:
            return 0
        return int(min(self._deg_s.min(), self._deg_t.min()))

    def max_degree(self) -> int:
        if self.m == 0:
            return 0
        return int(max(self._deg_s.max(), self._deg_t.max()))


def complete_bipartite(m: int) -> BipartiteGraph:
    _check_size(m)
    if m * m > DENSE_MAX_ENTRIES:
        raise SizeLimitError(f"m^2 = {m}^2 > 2^27: the edge codes would exceed 1 GiB")
    return BipartiteGraph._from_codes(m, np.arange(m * m, dtype=np.int64))


@dataclass(frozen=True)
class Factor:
    """An r-regular spanning subgraph of a host bipartite graph, held as a
    `BipartiteGraph` on the host's m vertices."""
    r: int
    graph: BipartiteGraph

    def check_against(self, host: BipartiteGraph) -> None:
        g = self.graph
        if g.m != host.m:
            raise InvariantViolation(f"factor has m={g.m} but the host graph has m={host.m}")
        if not np.isin(g.codes, host.codes).all():
            raise InvariantViolation("factor uses edges not present in the host graph")
        self.check_regular()

    def check_regular(self) -> None:
        g = self.graph
        if (g._deg_s != self.r).any() or (g._deg_t != self.r).any():
            raise InvariantViolation(f"not every vertex has degree exactly {self.r}")


@dataclass(frozen=True)
class GaleRyserWitness:
    """Outcome of the subset-pair inequality test for r-factor existence.

    When violated, (subset_s, subset_t) is a concrete pair with
    r·|X| > e(X,Y) + r·(m - |Y|).
    """
    holds: bool
    r: int
    m: int
    subset_s: Optional[tuple[int, ...]] = None
    subset_t: Optional[tuple[int, ...]] = None
    lhs: Optional[int] = None
    rhs: Optional[int] = None


def gale_ryser_check(g: BipartiteGraph, r: int) -> GaleRyserWitness:
    """Decide r-factor existence by the subset-pair degree inequality.

    Scans every X ⊆ S; for fixed X the right side e(X,Y) + r(m-|Y|) is a sum
    of independent per-vertex terms, so its minimum over all Y ⊆ T is attained
    at Y* = {t : deg_X(t) < r} with value Σ_t min(deg_X(t), r).  Checking X
    against Y* is therefore equivalent to checking all 2^m × 2^m pairs, and a
    violation yields the concrete pair (X, Y*).

    The subsets X are the rows of one 2^m x m 0/1 `members` array in Gray-code
    order, and `members` times the biadjacency matrix gives every deg_X at
    once; the witness is the first violated row in that order.
    """
    if g.m > GALE_RYSER_MAX_M:
        raise SizeLimitError(
            f"m={g.m} > {GALE_RYSER_MAX_M}: subset scan infeasible; use find_factor")
    check_nonnegative(r, "r")
    m = g.m
    index = np.arange(1 << m)
    members = ((index ^ (index >> 1))[:, None] >> np.arange(m)) & 1
    biadjacency = np.zeros(m * m, dtype=np.int64)
    biadjacency[g.codes] = 1
    deg_x = members @ biadjacency.reshape(m, m)
    rhs = np.minimum(deg_x, r).sum(axis=1)
    violated = np.flatnonzero(r * members.sum(axis=1) > rhs)
    if not len(violated):
        return GaleRyserWitness(holds=True, r=r, m=m)
    x = violated[0]
    subset_s = tuple(np.flatnonzero(members[x]).tolist())
    return GaleRyserWitness(holds=False, r=r, m=m, subset_s=subset_s,
                            subset_t=tuple(np.flatnonzero(deg_x[x] < r).tolist()),
                            lhs=r * len(subset_s), rhs=int(rhs[x]))


class _FactorNetwork:
    """The complement flow network of the disjoint union of graphs, built once
    for every choice of r per graph: it routes the deg - r edges that an
    r-factor leaves out at each vertex, not the r it keeps, since G has an
    r-factor iff it has a (deg - r)-factor.  When δ > m/2 and r = δ that is
    |E| - r·m < r·m flow units.

    Graph i's vertices are offset by off[i] (`_disjoint_union`), and
    M = off[-1].  Nodes: source 0, s of graph i as
    1 + off[i] + s, t as 1 + M + off[i] + t, sink 2M + 1.  The CSR holds the
    source row (arcs to every s), each s row with unit arcs to its t
    neighbours in ascending order, then the t -> sink rows.  Solving for
    r_0, r_1, ... only writes the first M and the last M capacities,
    deg(s) - r_i and deg(t) - r_i; a graph at r = 0 gets capacity 0 and
    carries no flow.  No probe exceeds δ, so no capacity is negative.

    scipy is imported here and in `peel_factors`, on first use, so that the
    commands that never solve a flow or a matching do not load it.
    """

    def __init__(self, graphs: Sequence[BipartiteGraph]):
        from scipy.sparse import csr_matrix
        self.hosts = graphs
        self.off, _, t = _disjoint_union(graphs)
        self.ms = np.diff(self.off)
        self.deg_s = np.concatenate([g._deg_s for g in graphs])
        self.deg_t = np.concatenate([g._deg_t for g in graphs])
        size = self.size = int(self.off[-1])
        row_len = np.concatenate(([size], self.deg_s, np.ones(size, np.int64), [0]))
        indptr = np.concatenate(([0], np.cumsum(row_len))).astype(np.int32)
        indices = np.concatenate((np.arange(1, size + 1), 1 + size + t,
                                  np.full(size, 2 * size + 1))).astype(np.int32)
        data = np.ones(len(indices), dtype=np.int32)
        self.graph = csr_matrix((data, indices, indptr), shape=(2 * size + 2, 2 * size + 2))

    def witnesses(self, rs: np.ndarray) -> list[Optional[Factor]]:
        """Entry i is an rs[i]-factor of graph i, or None if there is none or
        rs[i] = 0, all from one flow.

        Graph i has an rs[i]-factor iff its own source arcs carry
        |E_i| - rs[i]·m_i, that is, iff none of them has capacity unsent.  Its
        witness is its host edges whose s -> t arcs carry no flow, read from
        the flow's CSR (which keeps the network's row and column order, with
        a non-positive reverse arc added beside each arc, and keeps each
        s -> t arc explicit even at zero flow), and is checked against graph
        i before it is returned.
        """
        from scipy.sparse.csgraph import maximum_flow
        size, off, data = self.size, self.off, self.graph.data
        row_r = np.repeat(rs, self.ms)
        data[:size] = np.where(row_r > 0, self.deg_s - row_r, 0)
        data[-size:] = np.where(row_r > 0, self.deg_t - row_r, 0)
        flow = maximum_flow(self.graph, 0, 2 * size + 1).flow
        unsent = np.concatenate(([0], data[:size])).astype(np.int64)
        unsent[flow.indices[:flow.indptr[1]]] -= flow.data[:flow.indptr[1]]
        unsent = np.cumsum(unsent)
        feasible = (rs > 0) & (unsent[off[1:]] == unsent[off[:-1]])
        lo, hi = flow.indptr[1], flow.indptr[size + 1]
        s = np.repeat(np.arange(size), np.diff(flow.indptr[1:size + 2]))
        left_in = (flow.indices[lo:hi] > size) & (flow.data[lo:hi] == 0)
        s, t = s[left_in], flow.indices[lo:hi][left_in].astype(np.int64) - 1 - size
        bounds = np.searchsorted(s, off)
        found: list[Optional[Factor]] = [None] * len(rs)
        for i in np.flatnonzero(feasible).tolist():
            m, a, b = int(self.ms[i]), bounds[i], bounds[i + 1]
            codes = (s[a:b] - off[i]) * m + (t[a:b] - off[i])
            found[i] = Factor(int(rs[i]), BipartiteGraph._from_codes(m, codes))
            found[i].check_against(self.hosts[i])
        return found


def _disjoint_union(graphs: Sequence[BipartiteGraph]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The offsets off (off[i] is the sum of the m of the graphs before graph
    i, off[-1] the total) and the (s, t) columns of every graph's edges, in
    code order, with graph i's vertices offset by off[i]."""
    off = np.concatenate(([0], np.cumsum([g.m for g in graphs], dtype=np.int64)))
    s, t = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for g, o in zip(graphs, off.tolist()):
        gs, gt = _split(g.codes, g.m)
        s.append(gs + o)
        t.append(gt + o)
    return off, np.concatenate(s), np.concatenate(t)


def find_factor(g: BipartiteGraph, r: int) -> Optional[Factor]:
    """Constructive r-factor search via max flow on the complement network:
    source -> each s with capacity deg(s) - r, unit arcs across the edges,
    each t -> sink with capacity deg(t) - r; an r-factor exists iff max flow
    = |E| - r·m, and it is the edges without flow.  One `_FactorNetwork` is
    built and solved once; its witness is checked there against the host
    graph.
    """
    if not (0 <= r <= g.m):
        raise InvalidInputError(f"r must be in 0..m={g.m}, got {r}")
    if r == 0:
        return Factor(0, BipartiteGraph._from_codes(g.m, np.empty(0, np.int64)))
    if g.min_degree() < r:
        return None
    return _FactorNetwork([g]).witnesses(np.array([r]))[0]


def max_factor(g: BipartiteGraph) -> tuple[int, Factor]:
    """Largest r with an r-factor, plus a witness: `max_factors` of one graph."""
    factor = max_factors([g])[0]
    return factor.r, factor


def max_factors(graphs: Sequence[BipartiteGraph]) -> list[Factor]:
    """A witness of the largest r with an r-factor, for each graph.

    No r-factor exceeds the minimum degree δ, and on dense graphs r* = δ is
    the common case, so r = δ is probed first.  If it is infeasible, binary
    search runs over [0, δ - 1]: feasibility is monotone in r (the subset
    inequality r(|X|+|Y|-m) <= e(X,Y) only tightens as r grows).  Every
    graph's searches share one complement flow network over the disjoint
    union of the graphs (`_FactorNetwork`), which routes the deg - r edges
    each vertex leaves out: the first flow probes each graph at its δ, and
    each further flow probes each graph whose search is still open at its
    midpoint, the others at capacity 0.  No probe exceeds δ, so every
    capacity is >= 0.  Each feasible probe's witness is checked against its
    graph.
    """
    delta = np.array([g.min_degree() for g in graphs], dtype=np.int64)
    best: list[Optional[Factor]] = [None] * len(graphs)
    lo, hi, probe = np.zeros_like(delta), delta.copy(), delta
    network = _FactorNetwork(graphs) if probe.any() else None
    while probe.any():
        for i, found in enumerate(network.witnesses(probe)):
            if found is not None:
                lo[i], best[i] = probe[i], found
            elif probe[i]:
                hi[i] = probe[i] - 1
        probe = np.where(lo < hi, (lo + hi + 1) // 2, 0)
    return [f if f is not None
            else Factor(0, BipartiteGraph._from_codes(g.m, np.empty(0, np.int64)))
            for f, g in zip(best, graphs)]


def peel_matchings(factor: Factor, host: BipartiteGraph) -> np.ndarray:
    """Decompose an r-factor, checked against its host, into exactly r
    edge-disjoint perfect matchings, the rows of an r x m int64 array (row j
    maps each s to its t): `peel_factors` of one factor."""
    factor.check_against(host)
    return peel_factors([factor])[0]


def peel_factors(factors: Sequence[Factor]) -> list[np.ndarray]:
    """Decompose each r-regular factor into exactly r edge-disjoint perfect
    matchings: entry i is an r_i x m_i int64 array whose row j maps each s
    to its t.  Each factor's degrees are checked against its r first; its
    edges are not checked against a host (`peel_matchings` does that).

    Round j runs Hopcroft-Karp (`maximum_bipartite_matching`) once on the
    disjoint union of the remaining edges of every factor
    (`_disjoint_union`).  Factor i's remainder is still
    (r_i - j)-regular and so has a perfect matching, and the round removes
    the edges (s, match[s]) it picked.  The edges are held as the columns `t`
    of the sorted codes with their rows `s`; masking keeps `s` sorted, so
    before round j every row of factor i is one contiguous run of
    max(r_i - j, 0) columns.  A round that leaves an active row (one with
    edges left) unmatched, or removes other than one edge per active row,
    would break that, so it raises.
    """
    for factor in factors:
        factor.check_regular()
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching
    rs = np.array([f.r for f in factors], dtype=np.int64)
    off, s, t = _disjoint_union([f.graph for f in factors])
    ms, size, t = np.diff(off), int(off[-1]), t.astype(np.int32)
    row_r = np.repeat(rs, ms)
    matchings = np.empty((int(rs.max(initial=0)), size), dtype=np.int64)
    for j in range(len(matchings)):
        run = np.maximum(row_r - j, 0)
        indptr = np.concatenate(([0], np.cumsum(run))).astype(np.int32)
        remainder = csr_matrix((np.ones(len(t), dtype=np.int8), t, indptr), shape=(size, size))
        match = maximum_bipartite_matching(remainder, perm_type="column")
        active = run > 0
        if (match[active] < 0).any():
            raise InvariantViolation(
                "no perfect matching in a supposedly regular remainder; corrupt factor")
        matchings[j] = match
        keep = t != match[s]
        if len(t) - np.count_nonzero(keep) != np.count_nonzero(active):
            raise InvariantViolation("a matching is not a set of m edges of the remainder")
        s, t = s[keep], t[keep]
    if len(t):
        raise InvariantViolation("matchings did not exhaust the factor")
    return [matchings[:r, o:o + m] - o
            for r, o, m in zip(rs.tolist(), off.tolist(), ms.tolist())]


def to_json_dict(g: BipartiteGraph) -> dict:
    """The file document; `edges` is the `pairs()` array, which `canonical_json` writes."""
    return {"m": g.m, "edges": g.pairs()}


def from_json_dict(obj) -> BipartiteGraph:
    if not isinstance(obj, dict) or set(obj.keys()) != {"m", "edges"}:
        raise ParseError('expected an object with exactly the keys "m", "edges"')
    m, edges = obj["m"], obj["edges"]
    if type(m) is not int or not isinstance(edges, list):
        raise ParseError('"m" must be an integer and "edges" a list')
    try:
        return BipartiteGraph(m, edges)
    except InvalidInputError as exc:
        raise ParseError(str(exc)) from exc


def read_bipartite(path: str) -> BipartiteGraph:
    return read_json(path, from_json_dict)


def write_bipartite(g: BipartiteGraph, path: str) -> None:
    write_json(to_json_dict(g), path)
