"""Bipartite graph algorithms: Gale-Ryser r-factor certification, flow-based
constructive factor finding, decomposition of regular subgraphs into perfect
matchings, and exact perfect-matching counting.

Both parts have size m and are indexed 0..m-1; edges are (s, t) pairs.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from .errors import (InvalidInputError, InvariantViolation, ParseError,
                     SizeLimitError)

GALE_RYSER_MAX_M = 14
PERMANENT_MAX_M = 24


class BipartiteGraph:
    """Bipartite graph with parts S and T of equal size m, no parallel edges.

    The edge store is `codes`, the sorted, read-only int64 array of s·m + t
    with one entry per edge, fixed when the graph is built.  The degrees are
    derived from it at once; `edges` (a frozenset of (s, t) pairs) and the
    neighbour sets are derived from it on first use.  The constructor
    validates its pairs; `_from_codes` takes an already sorted subset of a
    valid graph's codes.  Both go through `_store`.
    """

    __slots__ = ("m", "codes", "_deg_s", "_deg_t", "_edges", "_adj")

    def __init__(self, m: int, edges: Iterable[tuple[int, int]]):
        if m < 0:
            raise InvalidInputError(f"m must be >= 0, got {m}")
        codes = []
        for s, t in edges:
            if not (0 <= s < m and 0 <= t < m):
                raise InvalidInputError(f"edge ({s},{t}) out of range for m={m}")
            codes.append(s * m + t)
        self._store(m, np.unique(np.array(codes, dtype=np.int64)))

    @classmethod
    def _from_codes(cls, m: int, codes: np.ndarray) -> BipartiteGraph:
        g = object.__new__(cls)
        g._store(m, codes)
        return g

    def _store(self, m: int, codes: np.ndarray) -> None:
        codes.flags.writeable = False
        s, t = np.divmod(codes, m)
        for name, value in (("m", m), ("codes", codes),
                            ("_deg_s", np.bincount(s, minlength=m)),
                            ("_deg_t", np.bincount(t, minlength=m)),
                            ("_edges", None), ("_adj", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("BipartiteGraph is immutable")

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        if self._edges is None:
            s, t = np.divmod(self.codes, self.m)
            object.__setattr__(self, "_edges", frozenset(zip(s.tolist(), t.tolist())))
        return self._edges

    def _adjacency(self) -> tuple[tuple[frozenset[int], ...], tuple[frozenset[int], ...]]:
        if self._adj is None:
            adj_s = [[] for _ in range(self.m)]
            adj_t = [[] for _ in range(self.m)]
            s, t = np.divmod(self.codes, self.m)
            for a, b in zip(s.tolist(), t.tolist()):
                adj_s[a].append(b)
                adj_t[b].append(a)
            object.__setattr__(self, "_adj", (tuple(map(frozenset, adj_s)),
                                              tuple(map(frozenset, adj_t))))
        return self._adj

    def __eq__(self, other) -> bool:
        return (isinstance(other, BipartiteGraph)
                and self.m == other.m and np.array_equal(self.codes, other.codes))

    def __hash__(self) -> int:
        return hash((self.m, self.edges))

    def __repr__(self) -> str:
        return f"BipartiteGraph(m={self.m}, |E|={len(self.codes)})"

    def neighbors_s(self, s: int) -> frozenset[int]:
        return self._adjacency()[0][s]

    def neighbors_t(self, t: int) -> frozenset[int]:
        return self._adjacency()[1][t]

    def min_degree(self) -> int:
        if self.m == 0:
            return 0
        return int(min(self._deg_s.min(), self._deg_t.min()))

    def max_degree(self) -> int:
        if self.m == 0:
            return 0
        return int(max(self._deg_s.max(), self._deg_t.max()))


def complete_bipartite(m: int) -> BipartiteGraph:
    return BipartiteGraph(m, ((s, t) for s in range(m) for t in range(m)))


@dataclass(frozen=True)
class Factor:
    """An r-regular spanning subgraph of a host bipartite graph."""
    r: int
    edges: frozenset[tuple[int, int]]

    def check_against(self, host: BipartiteGraph) -> None:
        if not self.edges <= host.edges:
            raise InvariantViolation("factor uses edges not present in the host graph")
        deg_s = [0] * host.m
        deg_t = [0] * host.m
        for s, t in self.edges:
            deg_s[s] += 1
            deg_t[t] += 1
        if any(d != self.r for d in deg_s) or any(d != self.r for d in deg_t):
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
    """
    if g.m > GALE_RYSER_MAX_M:
        raise SizeLimitError(
            f"m={g.m} > {GALE_RYSER_MAX_M}: subset scan infeasible; use find_factor")
    if r < 0:
        raise InvalidInputError(f"r must be >= 0, got {r}")
    m = g.m
    deg_x = [0] * m
    members: list[int] = []

    # Gray-code walk over subsets X so deg_x updates are O(m) per step.
    prev = 0
    for code in range(1 << m):
        gray = code ^ (code >> 1)
        diff = gray ^ prev
        if diff:
            bit = diff.bit_length() - 1
            if gray & diff:
                members.append(bit)
                for t in g.neighbors_s(bit):
                    deg_x[t] += 1
            else:
                members.remove(bit)
                for t in g.neighbors_s(bit):
                    deg_x[t] -= 1
            prev = gray
        lhs = r * len(members)
        rhs = sum(d if d < r else r for d in deg_x)
        if lhs > rhs:
            y_star = tuple(t for t in range(m) if deg_x[t] < r)
            return GaleRyserWitness(holds=False, r=r, m=m,
                                    subset_s=tuple(sorted(members)),
                                    subset_t=y_star, lhs=lhs,
                                    rhs=sum(deg_x[t] for t in y_star) + r * (m - len(y_star)))
    return GaleRyserWitness(holds=True, r=r, m=m)


class _FactorNetwork:
    """The r-factor flow network of a graph, built once for every r.

    Nodes: source 0, s as 1 + s, t as 1 + m + t, sink 2m + 1.  The CSR holds
    the source row (arcs to every s), each s row with unit arcs to its t
    neighbours in ascending order, then the t -> sink rows.  Solving for r
    only writes the first m and the last m capacities.
    """

    def __init__(self, g: BipartiteGraph):
        m = self.m = g.m
        self.codes = g.codes
        s, t = np.divmod(self.codes, m)
        row_len = np.concatenate(([m], np.bincount(s, minlength=m), np.ones(m, np.int64), [0]))
        indptr = np.concatenate(([0], np.cumsum(row_len))).astype(np.int32)
        indices = np.concatenate((np.arange(1, m + 1), 1 + m + t,
                                  np.full(m, 2 * m + 1))).astype(np.int32)
        data = np.ones(len(indices), dtype=np.int32)
        self.graph = csr_matrix((data, indices, indptr), shape=(2 * m + 2, 2 * m + 2))

    def witness(self, r: int) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """The (s, t) arrays of an r-factor, or None if there is none.

        An r-factor exists iff the max flow is r·m.  The witness is checked
        before it is returned: every pair is a host edge and every vertex has
        degree exactly r.
        """
        m, data = self.m, self.graph.data
        data[:m] = r
        data[-m:] = r
        result = maximum_flow(self.graph, 0, 2 * m + 1)
        if result.flow_value < r * m:
            return None
        block = result.flow[1:m + 1, m + 1:2 * m + 1].tocoo()
        positive = block.data > 0
        s, t = block.row[positive], block.col[positive]
        if not np.isin(s * m + t, self.codes).all():
            raise InvariantViolation("factor uses edges not present in the host graph")
        if ((np.bincount(s, minlength=m) != r).any()
                or (np.bincount(t, minlength=m) != r).any()):
            raise InvariantViolation(f"not every vertex has degree exactly {r}")
        return s, t


def _checked_factor(g: BipartiteGraph, r: int, witness: tuple[np.ndarray, np.ndarray]) -> Factor:
    s, t = witness
    factor = Factor(r=r, edges=frozenset(zip(s.tolist(), t.tolist())))
    factor.check_against(g)
    return factor


def find_factor(g: BipartiteGraph, r: int) -> Optional[Factor]:
    """Constructive r-factor search via max flow.

    Network: source -> each s with capacity r, unit arcs across the edges,
    each t -> sink with capacity r; an r-factor exists iff max flow = r·m.
    One `_FactorNetwork` is built and solved once; its witness is checked
    there and again, as a `Factor`, against the host graph.
    """
    if not (0 <= r <= g.m):
        raise InvalidInputError(f"r must be in 0..m={g.m}, got {r}")
    if r == 0:
        return Factor(r=0, edges=frozenset())
    if g.min_degree() < r:
        return None
    witness = _FactorNetwork(g).witness(r)
    return None if witness is None else _checked_factor(g, r, witness)


def max_factor(g: BipartiteGraph) -> tuple[int, Factor]:
    """Largest r with an r-factor, plus a witness.

    No r-factor exceeds the minimum degree δ, and on dense graphs r* = δ is
    the common case, so r = δ is probed first.  If it is infeasible, binary
    search runs over [0, δ - 1]: feasibility is monotone in r (the subset
    inequality r(|X|+|Y|-m) <= e(X,Y) only tightens as r grows).  The flow
    network is built once; each probe changes only the source and sink
    capacities, and each feasible probe's witness gets the degree and
    host-edge check.  Only the witness for the final r becomes a `Factor`.
    """
    delta = g.min_degree()
    network = _FactorNetwork(g) if delta > 0 else None
    best = network.witness(delta) if network else None
    lo, hi = (delta, delta) if best is not None else (0, delta - 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        found = network.witness(mid)
        if found is not None:
            lo, best = mid, found
        else:
            hi = mid - 1
    if best is None:
        return 0, Factor(r=0, edges=frozenset())
    return lo, _checked_factor(g, lo, best)


def csaba_rho(delta: float) -> float:
    """Factor-density guarantee (delta + sqrt(2*delta - 1)) / 2 for delta in [1/2, 1]."""
    if delta < 0.5:
        raise InvalidInputError(f"delta must be >= 1/2, got {delta}")
    if delta > 1.0:
        raise InvalidInputError(f"delta must be <= 1, got {delta}")
    return (delta + math.sqrt(2.0 * delta - 1.0)) / 2.0


def almost_regular_bound(alpha: float, epsilon: float) -> float:
    """Factor-density target alpha - 10*sqrt(epsilon) for near-regular graphs, clamped at 0."""
    if alpha <= 0.5:
        raise InvalidInputError(f"alpha must be > 1/2, got {alpha}")
    if epsilon < 0:
        raise InvalidInputError(f"epsilon must be >= 0, got {epsilon}")
    return max(0.0, alpha - 10.0 * math.sqrt(epsilon))


def _perfect_matching(m: int, adj: list[set[int]]) -> Optional[list[int]]:
    """Perfect matching on adjacency lists via augmenting paths; None if absent.

    Kuhn's depth-first search runs on an explicit stack, so the length of an
    augmenting path is not bounded by the recursion limit.
    """
    match_s = [-1] * m
    match_t = [-1] * m
    for root in sorted(range(m), key=lambda s: len(adj[s])):
        seen = [False] * m
        frames = [iter(adj[root])]
        path_t: list[int] = []      # path_t[i] leads from frame i to frame i + 1
        while frames:
            for t in frames[-1]:
                if not seen[t]:
                    seen[t] = True
                    path_t.append(t)
                    if match_t[t] == -1:
                        frames.clear()      # path_t ends at a free t: augment
                    else:
                        frames.append(iter(adj[match_t[t]]))
                    break
            else:
                frames.pop()
                if path_t:
                    path_t.pop()
        if not path_t:
            return None
        s = root
        for t in path_t:
            s_next = match_t[t]
            match_t[t] = s
            match_s[s] = t
            s = s_next
    return match_s


def peel_matchings(factor: Factor, host: BipartiteGraph) -> list[frozenset[tuple[int, int]]]:
    """Decompose an r-factor into exactly r edge-disjoint perfect matchings.

    Repeatedly extracts one perfect matching of the remaining regular graph
    (always possible while it is regular) and removes it.
    """
    factor.check_against(host)
    m = host.m
    adj = [set() for _ in range(m)]
    for s, t in factor.edges:
        adj[s].add(t)
    matchings: list[frozenset[tuple[int, int]]] = []
    for _ in range(factor.r):
        match_s = _perfect_matching(m, adj)
        if match_s is None:
            raise InvariantViolation(
                "no perfect matching in a supposedly regular remainder; corrupt factor")
        pairs = frozenset((s, match_s[s]) for s in range(m))
        matchings.append(pairs)
        for s, t in pairs:
            adj[s].discard(t)
    if any(adj[s] for s in range(m)):
        raise InvariantViolation("matchings did not exhaust the factor")
    return matchings


def count_perfect_matchings(g: BipartiteGraph) -> int:
    """Exact number of perfect matchings (the permanent of the biadjacency
    matrix) by inclusion-exclusion over column subsets with a Gray-code walk.

    Exact integer arithmetic throughout; cost O(2^m · m).
    """
    m = g.m
    if m > PERMANENT_MAX_M:
        raise SizeLimitError(f"m={m} > {PERMANENT_MAX_M}: permanent computation infeasible")
    if m == 0:
        return 1
    if g.min_degree() == 0:
        return 0
    cols = [g.neighbors_t(t) for t in range(m)]
    row_sums = [0] * m
    total = 0
    prev = 0
    for code in range(1, 1 << m):
        gray = code ^ (code >> 1)
        diff = gray ^ prev
        bit = diff.bit_length() - 1
        if gray & diff:
            for s in cols[bit]:
                row_sums[s] += 1
        else:
            for s in cols[bit]:
                row_sums[s] -= 1
        prev = gray
        prod = 1
        for v in row_sums:
            if v == 0:
                prod = 0
                break
            prod *= v
        if prod:
            bits = gray.bit_count()
            total += prod if (m - bits) % 2 == 0 else -prod
    return total


def to_json_dict(g: BipartiteGraph) -> dict:
    return {"m": g.m, "edges": [list(e) for e in sorted(g.edges)]}


def from_json_dict(obj) -> BipartiteGraph:
    if not isinstance(obj, dict) or set(obj.keys()) != {"m", "edges"}:
        raise ParseError('expected an object with exactly the keys "m", "edges"')
    m, edges = obj["m"], obj["edges"]
    if not isinstance(m, int) or not isinstance(edges, list):
        raise ParseError('"m" must be an integer and "edges" a list')
    pairs = []
    for idx, e in enumerate(edges):
        if (not isinstance(e, list) or len(e) != 2
                or not all(isinstance(v, int) for v in e)):
            raise ParseError(f"edge {idx}: must be a pair of integers")
        pairs.append((e[0], e[1]))
    try:
        return BipartiteGraph(m, pairs)
    except InvalidInputError as exc:
        raise ParseError(str(exc)) from exc


def read_bipartite(path: str) -> BipartiteGraph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    return from_json_dict(obj)


def write_bipartite(g: BipartiteGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(g), fh, sort_keys=True, separators=(",", ": "), indent=1)
        fh.write("\n")
