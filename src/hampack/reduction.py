"""Partition schemes, the auxiliary bipartite graph, and lifting its perfect
matchings to Hamilton cycles with overlap ell.

For 1 <= ell < k/2 a scheme splits V into A (holding an ordered sequence of m
disjoint ell-tuples, indices cyclic mod m) and B (holding an unordered family
of m disjoint (k-2*ell)-blocks).  Side S of the auxiliary graph stands for the
consecutive junction pairs F_i ∪ F_{i+1}, side T for the blocks, and (s_i, t)
is an edge exactly when t ∪ F_i ∪ F_{i+1} is a hypergraph edge.  For ell = 0
both sides are unordered families (floor(k/2)- and ceil(k/2)-sets) and (s, t)
is an edge exactly when s ∪ t is a hypergraph edge.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union

from .bifactor import BipartiteGraph
from .errors import InvalidInputError, ParseError
from .hypercore import Hypergraph, canon_edge


def check_shape(n: int, k: int, ell: int) -> int:
    """Check 0 <= ell < k/2 and (k - ell) | n; return m = n / (k - ell)."""
    if not (0 <= ell < k / 2):
        raise InvalidInputError(f"need 0 <= ell < k/2, got ell={ell}, k={k}")
    if n % (k - ell) != 0:
        raise InvalidInputError(f"(k - ell) = {k - ell} does not divide n = {n}")
    return n // (k - ell)


@dataclass(frozen=True)
class PartitionScheme:
    """A sampled (A, B) split with its tuple sequence and block family."""
    n: int
    k: int
    ell: int
    part_a: tuple[int, ...]
    part_b: tuple[int, ...]
    tuples_a: tuple[tuple[int, ...], ...]   # ordered sequence for ell >= 1; sorted family for ell = 0
    blocks_b: tuple[tuple[int, ...], ...]   # unordered family, stored sorted
    m: int

    def __post_init__(self):
        n, k, ell, m = self.n, self.k, self.ell, self.m
        if m != check_shape(n, k, ell):
            raise InvalidInputError(f"m must be n/(k-ell) = {n // (k - ell)}, got {m}")
        tuple_size = ell if ell >= 1 else k // 2
        block_size = (k - 2 * ell) if ell >= 1 else k - k // 2
        if len(self.tuples_a) != m or len(self.blocks_b) != m:
            raise InvalidInputError("tuple sequence and block family must both have m members")
        seen_a: set[int] = set()
        for f in self.tuples_a:
            if len(f) != tuple_size or seen_a.intersection(f):
                raise InvalidInputError("tuples must be disjoint subsets of A of the right size")
            seen_a.update(f)
        if seen_a != set(self.part_a):
            raise InvalidInputError("tuples must partition A")
        seen_b: set[int] = set()
        for b in self.blocks_b:
            if len(b) != block_size or seen_b.intersection(b):
                raise InvalidInputError("blocks must be disjoint subsets of B of the right size")
            seen_b.update(b)
        if seen_b != set(self.part_b):
            raise InvalidInputError("blocks must partition B")
        if set(self.part_a) & set(self.part_b):
            raise InvalidInputError("A and B overlap")
        if set(self.part_a) | set(self.part_b) != set(range(n)):
            raise InvalidInputError("A and B must partition the vertex set")


@dataclass(frozen=True)
class AuxGraph:
    """The bipartite reduction graph for one partition scheme."""
    scheme: PartitionScheme
    graph: BipartiteGraph
    s_labels: tuple[tuple[int, ...], ...]   # ell >= 1: sorted F_i ∪ F_{i+1}; ell = 0: the tuples
    t_labels: tuple[tuple[int, ...], ...]   # the blocks


@dataclass(frozen=True)
class HamiltonCycle:
    """A cyclic vertex arrangement read as m segments of length k with
    consecutive overlap ell."""
    k: int
    ell: int
    arrangement: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.arrangement)

    @property
    def m(self) -> int:
        return self.n // (self.k - self.ell)

    def segments(self) -> tuple[tuple[int, ...], ...]:
        """The m length-k windows at positions i*(k-ell), wrapping cyclically."""
        n, k, ell = self.n, self.k, self.ell
        if n % (k - ell) != 0:
            raise InvalidInputError(f"(k - ell) = {k - ell} does not divide n = {n}")
        arr = self.arrangement
        step = k - ell
        segs = []
        for i in range(n // step):
            start = i * step
            seg = tuple(arr[(start + j) % n] for j in range(k))
            segs.append(seg)
        return tuple(segs)


@dataclass(frozen=True)
class CycleCheck:
    """Verdict of verify_cycle: first violated condition plus its witness."""
    ok: bool
    failure: Optional[str] = None
    witness: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.ok


Matching = Union[Mapping[int, int], Iterable[tuple[int, int]]]


def _as_perfect_matching(matching: Matching, aux: AuxGraph) -> list[int]:
    """Normalize to a list mapping s-index -> t-index; validate perfectness."""
    m = aux.scheme.m
    pairs = list(matching.items()) if isinstance(matching, Mapping) else list(matching)
    sigma = [-1] * m
    used_t: set[int] = set()
    for s, t in pairs:
        if not (0 <= s < m and 0 <= t < m):
            raise InvalidInputError(f"matching pair ({s},{t}) out of range for m={m}")
        if sigma[s] != -1 or t in used_t:
            raise InvalidInputError("matching repeats a vertex; not a perfect matching")
        if (s, t) not in aux.graph.edges:
            raise InvalidInputError(f"matching pair ({s},{t}) is not an edge of the aux graph")
        sigma[s] = t
        used_t.add(t)
    if any(t == -1 for t in sigma):
        raise InvalidInputError("matching does not cover side S; not a perfect matching")
    return sigma


def sample_scheme(h: Hypergraph, ell: int, seed: int) -> PartitionScheme:
    """Uniform random scheme: random A, random enumeration of A cut into
    consecutive ell-tuples, random enumeration of B cut into consecutive
    blocks.  Deterministic given the seed."""
    n, k = h.n, h.k
    m = check_shape(n, k, ell)
    rng = random.Random(seed)
    tuple_size = ell if ell >= 1 else k // 2
    block_size = (k - 2 * ell) if ell >= 1 else k - k // 2
    size_a = tuple_size * m
    part_a = sorted(rng.sample(range(n), size_a))
    part_b = sorted(set(range(n)) - set(part_a))
    enum_a = list(part_a)
    rng.shuffle(enum_a)
    tuples_a = tuple(tuple(sorted(enum_a[i * tuple_size:(i + 1) * tuple_size]))
                     for i in range(m))
    if ell == 0:
        tuples_a = tuple(sorted(tuples_a))
    enum_b = list(part_b)
    rng.shuffle(enum_b)
    blocks = [tuple(sorted(enum_b[i * block_size:(i + 1) * block_size])) for i in range(m)]
    return PartitionScheme(n=n, k=k, ell=ell,
                           part_a=tuple(part_a), part_b=tuple(part_b),
                           tuples_a=tuples_a, blocks_b=tuple(sorted(blocks)), m=m)


def build_aux_graph(h: Hypergraph, scheme: PartitionScheme) -> AuxGraph:
    """Exact membership test of every junction-pair/block union against E(H)."""
    if scheme.n != h.n or scheme.k != h.k:
        raise InvalidInputError("scheme does not match the hypergraph's n and k")
    m = scheme.m
    edges = []
    if scheme.ell >= 1:
        s_labels = tuple(tuple(sorted(scheme.tuples_a[i] + scheme.tuples_a[(i + 1) % m]))
                         for i in range(m))
        for i in range(m):
            junction = s_labels[i]
            for j, block in enumerate(scheme.blocks_b):
                if h.has_edge(junction + block):
                    edges.append((i, j))
    else:
        s_labels = scheme.tuples_a
        for i, half in enumerate(scheme.tuples_a):
            for j, block in enumerate(scheme.blocks_b):
                if h.has_edge(half + block):
                    edges.append((i, j))
    return AuxGraph(scheme=scheme, graph=BipartiteGraph(m, edges),
                    s_labels=s_labels, t_labels=scheme.blocks_b)


def lift_matching(aux: AuxGraph, matching: Matching) -> HamiltonCycle:
    """Turn a perfect matching of the aux graph into a Hamilton cycle.

    For ell >= 1 the arrangement interleaves the tuple sequence with the
    matched blocks: F_0, B_{sigma(0)}, F_1, B_{sigma(1)}, ...; every segment of
    the result is then a hypergraph edge by the aux-graph edge condition.  For
    ell = 0 the segments are the sorted unions of the matched pairs.
    """
    scheme = aux.scheme
    sigma = _as_perfect_matching(matching, aux)
    arrangement: list[int] = []
    if scheme.ell >= 1:
        for i in range(scheme.m):
            arrangement.extend(sorted(scheme.tuples_a[i]))
            arrangement.extend(sorted(scheme.blocks_b[sigma[i]]))
    else:
        for i in range(scheme.m):
            arrangement.extend(sorted(scheme.tuples_a[i] + scheme.blocks_b[sigma[i]]))
    return HamiltonCycle(k=scheme.k, ell=scheme.ell, arrangement=tuple(arrangement))


def lift_matching_pm(aux: AuxGraph, matching: Matching) -> frozenset[tuple[int, ...]]:
    """ell = 0 only: the matched pair unions, i.e. a perfect matching of H."""
    scheme = aux.scheme
    if scheme.ell != 0:
        raise InvalidInputError(f"scheme has ell={scheme.ell}; only ell=0 lifts to a matching")
    sigma = _as_perfect_matching(matching, aux)
    return frozenset(canon_edge(scheme.tuples_a[i] + scheme.blocks_b[sigma[i]])
                     for i in range(scheme.m))


def verify_cycle(h: Hypergraph, cycle: HamiltonCycle) -> CycleCheck:
    """Total check: permutation, (k, ell) segment structure, membership in E(H)."""
    k, ell = cycle.k, cycle.ell
    if k != h.k:
        return CycleCheck(False, "uniformity-mismatch", (k, h.k))
    if not (0 <= ell < k / 2):
        return CycleCheck(False, "ell-out-of-range", (ell, k))
    arr = cycle.arrangement
    if len(arr) != h.n or set(arr) != set(range(h.n)):
        counts: dict[int, int] = {}
        for v in arr:
            counts[v] = counts.get(v, 0) + 1
        bad = tuple(sorted(v for v, c in counts.items() if c > 1 or not 0 <= v < h.n))
        if not bad:
            bad = tuple(sorted(set(range(h.n)) - set(arr)))
        return CycleCheck(False, "not-a-permutation", bad)
    if h.n % (k - ell) != 0:
        return CycleCheck(False, "length-not-divisible", (h.n, k - ell))
    segs = cycle.segments()
    m = len(segs)
    step = k - ell
    # For a permutation the window overlaps are forced, but re-check explicitly:
    # consecutive segments must share exactly the junction between them (for
    # m = 2 both junctions are shared, since the two segments are mutually
    # consecutive in both cyclic directions).
    for i in range(m if m >= 2 else 0):
        nxt_start = ((i + 1) % m) * step
        junction = {cycle.arrangement[(nxt_start + j) % h.n] for j in range(ell)}
        if m == 2:
            junction |= {cycle.arrangement[(i * step + j) % h.n] for j in range(ell)}
        shared = set(segs[i]) & set(segs[(i + 1) % m])
        if shared != junction:
            return CycleCheck(False, "wrong-consecutive-overlap",
                              (segs[i], segs[(i + 1) % m]))
    for seg in segs:
        if not h.has_edge(seg):
            return CycleCheck(False, "segment-not-an-edge", canon_edge(seg))
    return CycleCheck(True)


def canonicalize(cycle: HamiltonCycle) -> HamiltonCycle:
    """Least representative under rotation by (k-ell), reflection, and
    within-block ascending sort; idempotent.

    Works on the block decomposition of the arrangement: alternating
    junction and interior blocks for ell >= 1, whole segments for ell = 0.
    A representative starts at a junction (a segment for ell = 0) and walks
    the blocks cyclically in one direction.  The blocks are disjoint and
    non-empty, so the lexicographic minimum starts at the starting block
    with the smallest first vertex, and walks towards the neighbouring block
    with the smaller first vertex.  When both neighbours are the same block
    (small m), both directions give the same arrangement.
    """
    k, ell = cycle.k, cycle.ell
    arr = cycle.arrangement
    n = len(arr)
    m = check_shape(n, k, ell)
    if set(arr) != set(range(n)):
        raise InvalidInputError("arrangement is not a permutation of 0..n-1")
    step = k - ell
    if ell >= 1:
        # alternating junction/interior blocks: J_0 I_0 J_1 I_1 ...
        blocks = []
        for i in range(m):
            blocks.append(tuple(sorted(arr[i * step:i * step + ell])))
            blocks.append(tuple(sorted(arr[i * step + ell:(i + 1) * step])))
        starts = range(0, 2 * m, 2)
    else:
        blocks = [tuple(sorted(arr[i * step:(i + 1) * step])) for i in range(m)]
        starts = range(m)
    total = len(blocks)
    start = min(starts, key=lambda i: blocks[i][0])
    direction = 1 if blocks[(start + 1) % total][0] <= blocks[(start - 1) % total][0] else -1
    best = tuple(v for j in range(total) for v in blocks[(start + direction * j) % total])
    return HamiltonCycle(k=k, ell=ell, arrangement=best)


def cycle_to_json_dict(cycle: HamiltonCycle) -> dict:
    return {"ell": cycle.ell, "arrangement": list(cycle.arrangement)}


def cycle_from_json_dict(obj, k: int) -> HamiltonCycle:
    if not isinstance(obj, dict) or set(obj.keys()) != {"ell", "arrangement"}:
        raise ParseError('expected an object with exactly the keys "ell", "arrangement"')
    ell, arrangement = obj["ell"], obj["arrangement"]
    if not isinstance(ell, int) or not isinstance(arrangement, list) \
            or not all(isinstance(v, int) for v in arrangement):
        raise ParseError('"ell" must be an integer and "arrangement" a list of integers')
    return HamiltonCycle(k=k, ell=ell, arrangement=tuple(arrangement))


def read_cycle(path: str, k: int) -> HamiltonCycle:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    return cycle_from_json_dict(obj, k)


def write_cycle(cycle: HamiltonCycle, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cycle_to_json_dict(cycle), fh, sort_keys=True,
                  separators=(",", ": "), indent=1)
        fh.write("\n")
