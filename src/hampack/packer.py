"""Randomized edge-disjoint Hamilton cycle packing.

Both pipelines run one loop, `_pack`: sample partition schemes and build
their aux graphs in one `build_aux_graphs` call; let every hypergraph edge
that fits some scheme (is realized by an edge of its aux graph) pick one
uniformly at random, which makes the per-scheme edge sets disjoint
(`assign_edges`, one numpy draw per candidate, seeded by the label
"assign"); then extract a maximum regular subgraph of each aux graph
restricted to its assigned edges, peel it into perfect matchings, and lift
every partition's matchings in one `lift_partitions` call.  The cycles stay
one r x n integer table from there on: `PackingResult.arrangements` holds
it, and `PackingResult.cycles` builds `HamiltonCycle` values from it only
when a caller asks.
Both keep their schemes as drawn (the paper's aux-degree conditions hold only
with high probability) and count the aux graphs with a degree outside a band
in one warning.  `pack_min_degree` needs only a codegree lower bound, above
`ALPHA_PRIME`, and its band is a min-degree mark up to m; `pack_near_regular`
needs nearly uniform codegrees, its band is two-sided, and it reports
coverage against an uncovered-edge budget.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import bifactor
from .bifactor import BipartiteGraph
from .errors import InvalidInputError, InvariantViolation
from .hypercore import Hypergraph, degree_report
# build_aux_graph stays bound for the benchmark's layer trace, which wraps it here
from .reduction import (AuxGraph, HamiltonCycle, build_aux_graph, build_aux_graphs,  # noqa: F401
                        canonicalize, check_shape, lift_matching, lift_partitions,
                        sample_scheme, segment_windows, verify_cycle)
from .util import check_nonnegative, check_probability, derive_seed

ALPHA_PRIME = 0.6  # min-degree pipeline: the hypothesis' alpha', between 1/2 and alpha


@dataclass(frozen=True)
class PartitionStats:
    index: int
    retries: int  # always 0, since schemes are kept as drawn; the benchmark's pack check reads it
    aux_min_degree: int
    aux_edges: int
    assigned_edges: int
    sub_aux_edges: int
    factor_size: int
    matchings: int  # equal to factor_size; the benchmark's pack check reads it
    cycles: int


@dataclass(frozen=True, eq=False)
class PackingResult:
    """`arrangements` is the read-only r x n int64 table of the packed
    cycles' canonical arrangements, one row per cycle; equal results have
    equal tables and equal other fields."""
    k: int
    ell: int
    arrangements: np.ndarray
    partitions_used: int
    per_partition: tuple[PartitionStats, ...]
    psi_histogram: dict[int, int]
    unassigned: int
    covered_edges: int
    coverage_ratio: float
    warnings: tuple[str, ...]
    uncovered_budget: Optional[float] = None   # near-regular pipeline only
    goal_met: Optional[bool] = None

    @property
    def cycles(self) -> tuple[HamiltonCycle, ...]:
        """The packed cycles, built from `arrangements` on each access."""
        return tuple(HamiltonCycle(k=self.k, ell=self.ell, arrangement=tuple(row))
                     for row in self.arrangements.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, PackingResult):
            return NotImplemented
        return (np.array_equal(self.arrangements, other.arrangements)
                and {**vars(self), "arrangements": None} == {**vars(other), "arrangements": None})


@dataclass(frozen=True, eq=False)
class Assignment:
    """Outcome of the random edge-to-scheme assignment.  Both arrays are
    indexed by edge position, the order of `h.codes` and `h.edges`."""
    psi: np.ndarray      # number of schemes realizing the edge
    choice: np.ndarray   # the scheme the edge picked; -1 when psi is 0

    def assigned_counts(self, num_schemes: int) -> list[int]:
        """Number of edges that picked each of the `num_schemes` schemes."""
        return np.bincount(self.choice + 1, minlength=num_schemes + 1)[1:].tolist()


def assign_edges(h: Hypergraph, auxes: Sequence[AuxGraph], seed: int) -> Assignment:
    """Every edge realized by at least one scheme's aux graph picks one of those
    schemes uniformly at random; the per-scheme edge sets are disjoint by
    construction.  psi counts each scheme once, although for m = 2 two aux
    edges realize the same hyperedge.

    The pick is a reservoir of size one, filled scheme by scheme from one
    `numpy.random.default_rng(seed)`: scheme i draws a uniform u in [0, 1)
    for each edge it realizes (in aux-edge order, at the edge's first aux
    edge), counts itself into the edge's psi and takes the edge when
    u·psi < 1.  Each of an edge's psi candidates ends up holding it with
    probability 1/psi."""
    rng = np.random.default_rng(seed)
    psi = np.zeros(h.num_edges(), dtype=np.int64)
    choice = np.full(h.num_edges(), -1, dtype=np.int64)
    for i, aux in enumerate(auxes):
        pos = aux.edge_pos
        if aux.scheme.m == 2:
            pos = pos[np.sort(np.unique(pos, return_index=True)[1])]
        psi[pos] += 1
        choice[pos[rng.random(len(pos)) * psi[pos] < 1]] = i
    return Assignment(psi=psi, choice=choice)


def _clamp_partitions(h: Hypergraph, ell: int, raw: float) -> int:
    """round(raw) clamped to the desk-scale range [1, |E|·(k-ell)/n]."""
    return max(1, min(round(raw), max(1, (h.num_edges() * (h.k - ell)) // h.n)))


def default_num_partitions(h: Hypergraph, ell: int) -> int:
    """Asymptotic partition count |E|·((k-ell)·ln n / n)^2, clamped."""
    n, k = h.n, h.k
    num_edges = h.num_edges()
    if num_edges == 0:
        return 1
    return _clamp_partitions(h, ell, num_edges * ((k - ell) * math.log(n) / n) ** 2)


def _extract_cycles(h: Hypergraph, auxes: Sequence[AuxGraph], subs: Sequence[BipartiteGraph],
                    windows: np.ndarray) -> tuple[list[int], list[int], np.ndarray, np.ndarray]:
    """Partition i's cycles lift the perfect matchings peeled from the maximum
    factor of `subs[i]` ⊆ `auxes[i].graph`: one `max_factors`, one
    `peel_factors` (no second host check of the witnesses), one
    `lift_partitions`, one permutation check and one `locate` of all segments.
    The first rejected row is re-derived through the per-cycle path with its
    own partition's aux graph, which names the failure.  Returns the factor
    sizes, cycle counts, cycle rows and segment positions (m per cycle)."""
    factors = bifactor.max_factors(subs)
    peeled = bifactor.peel_factors(factors)
    part = np.repeat(np.arange(len(peeled)), [len(rows) for rows in peeled])
    matchings = np.concatenate([np.empty((0, len(windows)), dtype=np.int64), *peeled])
    rows = lift_partitions(auxes, peeled) if auxes else np.empty((0, h.n), dtype=np.int64)
    if len(windows) == 2:
        # a matching and its reflection lift to one cycle; for m >= 3 distinct
        # matchings lift to distinct cycles (the shared-edge check backs this)
        keep = np.sort(np.unique(np.column_stack((part, rows)), axis=0, return_index=True)[1])
        part, matchings, rows = part[keep], matchings[keep], rows[keep]
    pos = h.locate(rows[:, windows]).reshape(len(rows), len(windows))
    bad = (np.sort(rows, axis=1) != np.arange(h.n)).any(axis=1) | (pos < 0).any(axis=1)
    if bad.any():
        j = int(np.argmax(bad))
        check = verify_cycle(h, canonicalize(lift_matching(
            auxes[part[j]], dict(enumerate(matchings[j].tolist())))))
        raise InvariantViolation(
            "reduction.lift_canonical rejected a cycle verify_cycle accepts" if check
            else f"lifted cycle failed verification: {check.failure}")
    return [f.r for f in factors], np.bincount(part, minlength=len(auxes)).tolist(), rows, pos


def _pack(h: Hypergraph, ell: int, count: int, seed: int, warnings: list[str],
          band: tuple[str, float, float], uncovered_budget: Optional[float] = None
          ) -> PackingResult:
    """The shared packing loop over `count` >= 0 schemes.  `band` is (name,
    lo, hi); one warning counts the aux graphs with a degree outside [lo, hi].
    Edge-disjointness and edge conservation are re-verified."""
    check_nonnegative(count, "number of partitions")
    auxes = build_aux_graphs(h, [sample_scheme(h, ell, derive_seed(seed, f"scheme:{i}:0"))
                                 for i in range(count)])
    name, lo, hi = band
    outside = sum(not lo <= aux.graph.min_degree() <= aux.graph.max_degree() <= hi
                  for aux in auxes)
    if outside:
        warnings.append(f"aux degree outside the {name} = [{lo:.4f}, {hi:.4f}] "
                        f"in {outside} of {count} partitions")
    assignment = assign_edges(h, auxes, derive_seed(seed, "assign"))
    assigned = assignment.assigned_counts(len(auxes))
    subs = [BipartiteGraph._from_codes(aux.scheme.m,
                                       aux.graph.codes[assignment.choice[aux.edge_pos] == i])
            for i, aux in enumerate(auxes)]
    sizes, cycles, rows, pos = _extract_cycles(h, auxes, subs, segment_windows(h.n, h.k, ell))
    stats = [PartitionStats(
        index=i, retries=0, aux_min_degree=aux.graph.min_degree(),
        aux_edges=len(aux.graph.codes), assigned_edges=assigned[i],
        sub_aux_edges=len(subs[i].codes), factor_size=sizes[i], matchings=sizes[i],
        cycles=cycles[i]) for i, aux in enumerate(auxes)]
    used, uses = np.unique(pos, return_counts=True)
    if (uses > 1).any():
        raise InvariantViolation(
            f"edge {h.edges[used[uses > 1][0]]} appears in two packed cycles")
    unassigned = assignment.choice < 0
    if len(unassigned) != h.num_edges() or (unassigned != (assignment.psi == 0)).any():
        raise InvariantViolation(
            "edge conservation failed: not every edge picks a scheme exactly when one realizes it")
    covered = len(used)
    ratio = covered / h.num_edges() if h.num_edges() else 0.0
    goal = (h.num_edges() - covered) <= uncovered_budget if uncovered_budget is not None else None
    rows.flags.writeable = False
    return PackingResult(
        k=h.k, ell=ell, arrangements=rows, partitions_used=len(auxes), per_partition=tuple(stats),
        psi_histogram={v: c for v, c in enumerate(np.bincount(assignment.psi).tolist()) if c},
        unassigned=int(unassigned.sum()), covered_edges=covered, coverage_ratio=ratio,
        warnings=tuple(warnings), uncovered_budget=uncovered_budget, goal_met=goal)


def _check_packable(h: Hypergraph, ell: int) -> int:
    """`check_shape`, also refusing k < 2: every Hamilton cycle of a 1-graph
    is all n singleton edges, so no two cycles are edge-disjoint."""
    if h.k < 2:
        raise InvalidInputError(
            f"packing needs k >= 2, got k={h.k}: every Hamilton cycle of a 1-graph "
            f"uses all {h.n} singleton edges, so no two cycles are edge-disjoint")
    return check_shape(h.n, h.k, ell)


def pack_min_degree(h: Hypergraph, ell: int, *, num_partitions: Optional[int] = None,
                    seed: int = 0) -> PackingResult:
    """Packing pipeline under a codegree lower-bound hypothesis: alpha >
    `ALPHA_PRIME` > 1/2 for the measured min codegree density alpha.  With
    eps = max(alpha - ALPHA_PRIME, 0) the aux graphs reach the min degree
    (ALPHA_PRIME + eps/2)·m only with high probability; one warning counts
    those below it.  The partition count defaults to `default_num_partitions`;
    each partition takes the flow-certified maximum factor.  k >= 2.
    """
    m = _check_packable(h, ell)
    warnings: list[str] = []
    alpha = degree_report(h, h.k - 1).min_degree / h.n
    if not alpha > ALPHA_PRIME:
        warnings.append(
            f"degree hypothesis unmet: measured alpha={alpha:.4f}, "
            f"alpha'={ALPHA_PRIME}; running best-effort")
    mark = (ALPHA_PRIME + max(alpha - ALPHA_PRIME, 0.0) / 2.0) * m
    count = num_partitions if num_partitions is not None else default_num_partitions(h, ell)
    return _pack(h, ell, count, seed, warnings,
                 ("min-degree band [(alpha' + eps/2)*m, m]", mark, m))


def pack_near_regular(h: Hypergraph, ell: int, *, delta_target: float, epsilon: float,
                      seed: int, num_partitions: Optional[int] = None) -> PackingResult:
    """Packing pipeline under a two-sided codegree hypothesis, aimed at
    covering all but a delta_target fraction of the possible edges.  Requires
    max - min codegree <= 2*epsilon*n, tested as the integer spread / 2n <=
    epsilon (one correctly rounded division, so epsilon = spread / 2n
    passes).  One warning counts the aux graphs with a degree outside
    (alpha ± 2*epsilon)·m.  The partition count follows |E|·((k-ell)/n)^2 / q
    with q = (alpha-epsilon)·m^2/|E|, clamped, unless given; each partition
    takes the flow-certified maximum factor.  epsilon >= 0, delta_target in
    [0, 1], k >= 2.
    """
    check_nonnegative(epsilon, "epsilon")
    check_probability(delta_target, "delta_target")
    n, k = h.n, h.k
    m = _check_packable(h, ell)
    codegrees = degree_report(h, k - 1)
    lo, hi = codegrees.min_degree / n, codegrees.max_degree / n
    if (codegrees.max_degree - codegrees.min_degree) / (2 * n) > epsilon:
        raise InvalidInputError(
            f"codegree spread too wide for the near-regular hypothesis: "
            f"min={lo:.4f}n, max={hi:.4f}n, allowed spread 2*eps*n with eps={epsilon}")
    alpha = (lo + hi) / 2.0
    warnings: list[str] = []
    if alpha <= 0.5:
        warnings.append(f"measured alpha={alpha:.4f} <= 1/2; running best-effort")
    num_edges = h.num_edges()
    if num_partitions is None:
        if num_edges and alpha - epsilon > 0:
            q = (alpha - epsilon) * m * m / num_edges
            num_partitions = _clamp_partitions(h, ell, num_edges * ((k - ell) / n) ** 2 / q)
        else:
            num_partitions = 1
    return _pack(h, ell, num_partitions, seed, warnings,
                 ("near-regular band (alpha +/- 2*eps)*m",
                  (alpha - 2.0 * epsilon) * m, (alpha + 2.0 * epsilon) * m),
                 uncovered_budget=delta_target * math.comb(n, k))
