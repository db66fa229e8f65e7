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

import random
from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping, Optional, Sequence

import numpy as np

from .bifactor import BipartiteGraph
from .errors import InvalidInputError, ParseError
from .hypercore import Hypergraph
from .util import read_json

AUX_BATCH_ROWS = 1 << 13  # junction-pair/block unions per `locate` in `build_aux_graphs`


def check_shape(n: int, k: int, ell: int) -> int:
    """Check 0 <= ell < k/2 and (k - ell) | n; return m = n / (k - ell)."""
    if not (0 <= ell < k / 2):
        raise InvalidInputError(f"need 0 <= ell < k/2, got ell={ell}, k={k}")
    if n % (k - ell) != 0:
        raise InvalidInputError(f"(k - ell) = {k - ell} does not divide n = {n}")
    return n // (k - ell)


def _part_sizes(k: int, ell: int) -> tuple[int, int]:
    """Sizes of a scheme's A-tuples and B-blocks: ell and k - 2*ell, or
    floor(k/2) and ceil(k/2) for ell = 0."""
    return (ell, k - 2 * ell) if ell >= 1 else (k // 2, k - k // 2)


@dataclass(frozen=True)
class PartitionScheme:
    """A scheme is its tuple sequence on A and its block family on B; n, the
    sorted parts A and B, and m are derived from them."""
    k: int
    ell: int
    tuples_a: tuple[tuple[int, ...], ...]   # ordered sequence for ell >= 1; sorted family for ell = 0
    blocks_b: tuple[tuple[int, ...], ...]   # unordered family, stored sorted
    n: int = field(init=False)
    part_a: tuple[int, ...] = field(init=False)
    part_b: tuple[int, ...] = field(init=False)
    m: int = field(init=False)

    def __post_init__(self):
        k, ell, tuples_a, blocks_b = self.k, self.ell, self.tuples_a, self.blocks_b
        part_a = tuple(sorted(v for f in tuples_a for v in f))
        part_b = tuple(sorted(v for b in blocks_b for v in b))
        n, m = len(part_a) + len(part_b), len(tuples_a)
        tuple_size, block_size = _part_sizes(k, ell)
        if not (0 <= ell < k / 2 and len(blocks_b) == m
                and all(len(f) == tuple_size for f in tuples_a)
                and all(len(b) == block_size for b in blocks_b)
                and sorted(part_a + part_b) == list(range(n))):
            raise InvalidInputError(
                f"a (k={k}, ell={ell}) scheme needs m tuples of size {tuple_size} and "
                f"m blocks of size {block_size} whose vertices are exactly 0..n-1")
        for name, value in (("n", n), ("part_a", part_a), ("part_b", part_b), ("m", m)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
class AuxGraph:
    """The bipartite reduction graph for one partition scheme; `edge_pos[j]`
    is the position in `h.codes` of the hyperedge that aux edge
    `graph.codes[j]` realizes."""
    scheme: PartitionScheme
    graph: BipartiteGraph
    edge_pos: np.ndarray


def segment_windows(n: int, k: int, ell: int) -> np.ndarray:
    """Positions of the m length-k windows starting at i*(k-ell), wrapping
    cyclically, as an m x k array."""
    return (np.arange(check_shape(n, k, ell))[:, None] * (k - ell) + np.arange(k)) % n


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

    def segments(self) -> tuple[tuple[int, ...], ...]:
        """The m length-k windows of the arrangement, see `segment_windows`."""
        arr = self.arrangement
        return tuple(tuple(arr[j] for j in window)
                     for window in segment_windows(self.n, self.k, self.ell).tolist())


@dataclass(frozen=True)
class CycleCheck:
    """Verdict of verify_cycle: first violated condition plus its witness."""
    ok: bool
    failure: Optional[str] = None
    witness: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.ok


def sample_scheme(h: Hypergraph, ell: int, seed: int) -> PartitionScheme:
    """Uniform random scheme: random A, random enumeration of A cut into
    consecutive ell-tuples, random enumeration of B cut into consecutive
    blocks.  Deterministic given the seed."""
    n, k = h.n, h.k
    m = check_shape(n, k, ell)
    rng = random.Random(seed)
    tuple_size, block_size = _part_sizes(k, ell)
    enum_a = sorted(rng.sample(range(n), tuple_size * m))
    enum_b = sorted(set(range(n)) - set(enum_a))
    rng.shuffle(enum_a)
    tuples_a = tuple(tuple(sorted(enum_a[i * tuple_size:(i + 1) * tuple_size]))
                     for i in range(m))
    if ell == 0:
        tuples_a = tuple(sorted(tuples_a))
    rng.shuffle(enum_b)
    blocks = [tuple(sorted(enum_b[i * block_size:(i + 1) * block_size])) for i in range(m)]
    return PartitionScheme(k=k, ell=ell, tuples_a=tuples_a, blocks_b=tuple(sorted(blocks)))


def _scheme_arrays(schemes: Sequence[PartitionScheme]) -> tuple[int, int, np.ndarray, np.ndarray]:
    """k, ell, and the g x m x |tuple| tuple and g x m x |block| block arrays,
    each tuple and block sorted, of g >= 1 schemes that share n, k and ell."""
    if len({(s.n, s.k, s.ell) for s in schemes}) != 1:
        raise InvalidInputError("the schemes of one batch must share n, k and ell")
    k, ell, m = schemes[0].k, schemes[0].ell, schemes[0].m
    parts = ([s.tuples_a for s in schemes], [s.blocks_b for s in schemes])
    return k, ell, *(np.sort(np.fromiter(chain.from_iterable(chain.from_iterable(part)),
                                         dtype=np.int64).reshape(len(schemes), m, size), axis=2)
                     for part, size in zip(parts, _part_sizes(k, ell)))


def build_aux_graphs(h: Hypergraph, schemes: Sequence[PartitionScheme]) -> list[AuxGraph]:
    """Exact membership test of every junction-pair/block union against E(H)
    for schemes that share ell.  S vertex s stands for F_s ∪ F_{s+1} (ell >=
    1) or the tuple F_s (ell = 0); its union with block t is row s·m + t of
    the scheme's m² x k slab, so the rows found in E(H) are, in order, the
    aux edge codes.  The slabs of up to AUX_BATCH_ROWS // m² schemes go to
    one `locate`, which bounds the memory a batch holds."""
    if not schemes:
        return []
    k, ell, left, right = _scheme_arrays(schemes)
    if schemes[0].n != h.n or k != h.k:
        raise InvalidInputError("scheme does not match the hypergraph's n and k")
    if ell >= 1:
        left = np.concatenate((left, np.roll(left, -1, axis=1)), axis=2)
    g, m, auxes = len(schemes), schemes[0].m, []
    step = max(1, AUX_BATCH_ROWS // (m * m))
    for lo in range(0, g, step):
        pos = h.locate(np.concatenate(
            [np.broadcast_to(part, (min(step, g - lo), m, m, part.shape[-1]))
             for part in (left[lo:lo + step, :, None], right[lo:lo + step, None])], axis=3))
        for scheme, row in zip(schemes[lo:lo + step], pos.reshape(-1, m * m)):
            realized = row >= 0
            auxes.append(AuxGraph(scheme=scheme,
                                  graph=BipartiteGraph._from_codes(m, np.flatnonzero(realized)),
                                  edge_pos=row[realized]))
    return auxes


def build_aux_graph(h: Hypergraph, scheme: PartitionScheme) -> AuxGraph:
    """The one-scheme case of `build_aux_graphs`."""
    return build_aux_graphs(h, [scheme])[0]


def _lift_rows(auxes: Sequence[AuxGraph], matchings: Sequence[np.ndarray]) -> np.ndarray:
    """The lifts of the rows of each partition's r_i x m matching array,
    stacked in partition order (`auxes` not empty).  A row must be a perfect
    matching of its partition's aux graph: a permutation of 0..m-1 whose pairs
    (s, row[s]) are aux edges, checked on pair codes j·m² + s·m + row[s] of
    partition j.  For ell >= 1 it lifts to F_0, B_{sigma(0)}, F_1, ..., each
    sorted, whose segments are edges by the aux edge condition; for ell = 0
    chunk i is the sorted union of F_i and B_{sigma(i)}."""
    n, m = auxes[0].scheme.n, auxes[0].scheme.m
    if not all(rows.ndim == 2 and rows.shape[1] == m and rows.dtype.kind == "i"
               for rows in matchings):
        raise InvalidInputError("a row is not a perfect matching of the aux graph")
    used = [(aux, rows) for aux, rows in zip(auxes, matchings) if len(rows)]
    if not used:
        return np.empty((0, n), dtype=np.int64)
    part = np.repeat(np.arange(len(used)), [len(rows) for _, rows in used])
    flat = np.concatenate([rows for _, rows in used])
    codes = np.concatenate([j * m * m + aux.graph.codes for j, (aux, _) in enumerate(used)])
    if not ((np.sort(flat, axis=1) == np.arange(m)).all()
            and np.isin(part[:, None] * m * m + np.arange(m) * m + flat, codes).all()):
        raise InvalidInputError("a row is not a perfect matching of the aux graph")
    _, ell, tuples, blocks = _scheme_arrays([aux.scheme for aux, _ in used])
    chunks = np.concatenate((tuples[part], blocks[part[:, None], flat]), axis=2)
    if ell == 0:
        chunks = np.sort(chunks, axis=2)
    return chunks.reshape(len(flat), n)


def lift_matching(aux: AuxGraph, matching: Mapping[int, int]) -> HamiltonCycle:
    """Turn a perfect matching s -> t of the aux graph into a Hamilton cycle:
    the one-row case of `_lift_rows`."""
    # a missing s reads -1, a wrong size gives a wrong width and a non-integer
    # value a non-integer dtype: each fails the check
    row = np.array([[matching.get(s, -1) for s in range(len(matching))]])
    return HamiltonCycle(k=aux.scheme.k, ell=aux.scheme.ell,
                         arrangement=tuple(_lift_rows([aux], [row])[0].tolist()))


def verify_cycle(h: Hypergraph, cycle: HamiltonCycle) -> CycleCheck:
    """Total check: permutation, (k, ell) segment structure, membership in E(H).

    Consecutive windows of a permutation share exactly their ell junction
    vertices (both junctions when m = 2), since (k - ell) | n and ell < k/2,
    so the overlaps need no check of their own.
    """
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
    missing = np.flatnonzero(h.locate(segs) < 0)
    if missing.size:
        return CycleCheck(False, "segment-not-an-edge", tuple(sorted(segs[missing[0]])))
    return CycleCheck(True)


def canonical_rows(rows: np.ndarray, k: int, ell: int) -> np.ndarray:
    """Least representative of each row of an r x n array of arrangements
    (permutations of 0..n-1) under rotation by (k-ell), reflection, and
    within-block ascending sort.

    Works on the block decomposition of the arrangement: alternating
    junction and interior blocks J_0 I_0 J_1 I_1 ... for ell >= 1, whole
    segments for ell = 0.  A representative starts at a junction (a segment
    for ell = 0) and walks the blocks cyclically in one direction.  The
    blocks are disjoint and non-empty, so the lexicographic minimum starts at
    the starting block with the smallest first vertex, and walks towards the
    neighbouring block with the smaller first vertex, forwards on a tie (when
    both neighbours are the same block, both directions give the same
    arrangement).  Walking backwards pairs J_i with I_{i-1}.
    """
    r, n = rows.shape
    m = check_shape(n, k, ell)
    chunks = rows.reshape(r, m, k - ell)
    each, steps = np.arange(r)[:, None], np.arange(m)
    if ell >= 1:
        junctions = np.sort(chunks[:, :, :ell], axis=2)
        interiors = np.sort(chunks[:, :, ell:], axis=2)
        start = np.argmin(junctions[:, :, 0], axis=1)
        back = interiors[each[:, 0], start, 0] > interiors[each[:, 0], start - 1, 0]
        chunks = np.concatenate(
            (junctions, interiors[each, (steps - back[:, None]) % m]), axis=2)
    else:
        chunks = np.sort(chunks, axis=2)
        first = chunks[:, :, 0]
        start = np.argmin(first, axis=1)
        back = first[each[:, 0], (start + 1) % m] > first[each[:, 0], start - 1]
    order = (start[:, None] + np.where(back, -1, 1)[:, None] * steps) % m
    return chunks[each, order].reshape(r, n)


def canonicalize(cycle: HamiltonCycle) -> HamiltonCycle:
    """The one-row case of `canonical_rows`, for a checked arrangement;
    idempotent."""
    k, ell, arr = cycle.k, cycle.ell, cycle.arrangement
    check_shape(len(arr), k, ell)
    if set(arr) != set(range(len(arr))):
        raise InvalidInputError("arrangement is not a permutation of 0..n-1")
    row = canonical_rows(np.array([arr], dtype=np.int64), k, ell)[0]
    return HamiltonCycle(k=k, ell=ell, arrangement=tuple(row.tolist()))


def lift_partitions(auxes: Sequence[AuxGraph], matchings: Sequence[np.ndarray]) -> np.ndarray:
    """Row j of the result is `canonicalize(lift_matching(aux, row))` for the
    j-th row of the stacked per-partition r_i x m matching arrays."""
    return canonical_rows(_lift_rows(auxes, matchings), auxes[0].scheme.k, auxes[0].scheme.ell)


def lift_canonical(aux: AuxGraph, matchings: np.ndarray) -> np.ndarray:
    """The one-partition case of `lift_partitions`."""
    return lift_partitions([aux], [matchings])


def cycle_to_json_dict(cycle: HamiltonCycle) -> dict:
    return {"ell": cycle.ell, "arrangement": list(cycle.arrangement)}


def cycle_records(ell: int, rows: np.ndarray) -> np.ndarray:
    """The cycles whose arrangements are the rows of the r x n array `rows`,
    as one structured array of (arrangement, ell) records, both fields int64
    as `canonical_json` requires of a record's fields: it writes the array as
    the list of their `cycle_to_json_dict` documents."""
    records = np.empty(len(rows), dtype=[("arrangement", np.int64, (rows.shape[1],)),
                                         ("ell", np.int64)])
    records["arrangement"] = rows
    records["ell"] = ell
    return records


def cycle_from_json_dict(obj, k: int) -> HamiltonCycle:
    if not isinstance(obj, dict) or set(obj.keys()) != {"ell", "arrangement"}:
        raise ParseError('expected an object with exactly the keys "ell", "arrangement"')
    ell, arrangement = obj["ell"], obj["arrangement"]
    if type(ell) is not int or not isinstance(arrangement, list) \
            or not all(type(v) is int for v in arrangement):
        raise ParseError('"ell" must be an integer and "arrangement" a list of integers')
    return HamiltonCycle(k=k, ell=ell, arrangement=tuple(arrangement))


def read_cycle(path: str, k: int) -> HamiltonCycle:
    return read_json(path, lambda obj: cycle_from_json_dict(obj, k))
