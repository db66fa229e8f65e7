"""Randomized edge-disjoint Hamilton cycle packing.

Both pipelines run one loop, `_pack`: sample partition schemes, let every
hypergraph edge that fits some scheme pick one uniformly at random (making the
per-scheme sub-hypergraphs edge-disjoint by construction; `assign_edges` makes
one numpy draw per candidate, seeded by the label "assign"), then extract a
maximum regular subgraph of each scheme's auxiliary graph restricted to its
assigned edges, peel it into perfect matchings, and lift each matching to a
cycle.  The cycles stay one r x n integer table from `lift_canonical` on:
`PackingResult.arrangements` holds it, and `PackingResult.cycles` builds
`HamiltonCycle` values from it only when a caller asks.  An edge fits a
scheme exactly when it is realized by an edge of that scheme's auxiliary
graph, so the candidates are read off the aux graphs.
Both keep their schemes as drawn (the paper's aux-degree conditions hold only
with high probability) and count the aux graphs with a degree outside a band
in one warning.  Each pipeline sets only what differs: `pack_min_degree` needs
only a codegree lower bound, above `ALPHA_PRIME`, and its band is a
min-degree mark up to m; `pack_near_regular` needs nearly uniform codegrees,
its band is two-sided, and it reports coverage against an uncovered-edge
budget.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NoReturn, Optional, Sequence

import numpy as np

from . import bifactor
from .bifactor import BipartiteGraph
from .errors import InvalidInputError, InvariantViolation
from .hypercore import Hypergraph, degree_report
from .reduction import (AuxGraph, HamiltonCycle, build_aux_graph, canonicalize, check_shape,
                        lift_canonical, lift_matching, sample_scheme, segment_windows,
                        verify_cycle)
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
        return np.bincount(self.choice[self.choice >= 0], minlength=num_schemes).tolist()


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


def _explain_rejected(h: Hypergraph, aux: AuxGraph, matching: np.ndarray) -> NoReturn:
    """Name the failure of a rejected row through the per-cycle reference path."""
    check = verify_cycle(h, canonicalize(lift_matching(aux, dict(enumerate(matching.tolist())))))
    if check:
        raise InvariantViolation("reduction.lift_canonical rejected a cycle verify_cycle accepts")
    raise InvariantViolation(f"lifted cycle failed verification: {check.failure}")


def _extract_cycles(h: Hypergraph, auxes: Sequence[AuxGraph], subs: Sequence[BipartiteGraph],
                    windows: np.ndarray) -> tuple[list[int], list[int], np.ndarray, np.ndarray]:
    """Partition i's cycles are the lifts of the perfect matchings peeled from
    the maximum factor of `subs[i]`, a subgraph of `auxes[i].graph`.

    Every partition's factor search and peel run together (`max_factors`,
    then `peel_factors`, which leaves out the host check `max_factors` has
    already made on each witness); each partition's matchings are lifted
    and canonicalized in one `lift_canonical` call, and all cycles are
    verified together: one permutation check and one `locate` of every
    segment.  A rejected cycle is re-derived through the per-cycle path with
    its own partition's aux graph.
    Returns the factor sizes, the cycle counts, the cycle rows and the
    located segment positions (one row of len(windows) per cycle).
    """
    factors = bifactor.max_factors(subs)
    peeled = bifactor.peel_factors(factors)
    blocks, kept = [np.empty((0, h.n), dtype=np.int64)], []
    for aux, matchings in zip(auxes, peeled):
        rows = lift_canonical(aux, matchings)
        if aux.scheme.m == 2:
            # reflected matchings lift to one cycle; for m >= 3 distinct
            # matchings lift to distinct cycles, and the shared-edge check
            # in `_pack` would still catch a repeated one
            keep = np.sort(np.unique(rows, axis=0, return_index=True)[1])
            rows, matchings = rows[keep], matchings[keep]
        blocks.append(rows)
        kept.append(matchings)
    rows = np.concatenate(blocks)
    pos = h.locate(rows[:, windows]).reshape(len(rows), len(windows))
    bad = (np.sort(rows, axis=1) != np.arange(h.n)).any(axis=1) | (pos < 0).any(axis=1)
    counts = [len(matchings) for matchings in kept]
    if bad.any():
        first = np.cumsum([0] + counts)
        j = int(np.argmax(bad))
        i = int(np.searchsorted(first, j, side="right")) - 1
        _explain_rejected(h, auxes[i], kept[i][j - first[i]])
    return [f.r for f in factors], counts, rows, pos


def _pack(h: Hypergraph, ell: int, count: int, seed: int, warnings: list[str],
          band: tuple[str, float, float], uncovered_budget: Optional[float] = None
          ) -> PackingResult:
    """The shared packing loop: draw `count` >= 0 schemes, assign the edges,
    and extract the cycles of every partition from the aux edges whose
    hyperedge chose it (`_extract_cycles`).  `band` is (name, lo, hi); one
    warning counts the aux graphs with a degree outside [lo, hi].
    Edge-disjointness (over all located segments at once) and edge
    conservation are re-verified."""
    check_nonnegative(count, "number of partitions")
    auxes = [build_aux_graph(h, sample_scheme(h, ell, derive_seed(seed, f"scheme:{i}:0")))
             for i in range(count)]
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
    """Packing pipeline under a codegree lower-bound hypothesis.

    The hypothesis is alpha > `ALPHA_PRIME` > 1/2 for the measured min
    codegree density alpha; with eps = max(alpha - ALPHA_PRIME, 0), the
    paper's auxiliary graphs reach the min degree (ALPHA_PRIME + eps/2)·m
    only with high probability, so schemes are kept as drawn and one warning
    counts those below it.  The partition count defaults to
    `default_num_partitions`.  The factor extracted per partition is the
    flow-certified maximum.  Invariants (cycle validity, pairwise
    edge-disjointness, edge conservation) are re-verified on the assembled
    result.  k must be at least 2.
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
    covering all but a delta_target fraction of the possible edges.

    Requires max codegree - min codegree <= 2*epsilon*n, tested as the
    integer spread / 2n <= epsilon: one correctly rounded division, so
    epsilon = spread / 2n itself passes.  Schemes are kept as drawn (the
    paper's auxiliary graphs are near-regular only with high probability);
    one warning counts those with a degree outside (alpha ± 2*epsilon)·m.
    The partition count follows |E|·((k-ell)/n)^2 / q with
    q = (alpha-epsilon)·m^2/|E| (clamped to the desk-scale range,
    overridable); each partition takes the flow-certified maximum factor.
    epsilon must be >= 0, delta_target in [0, 1] and k at least 2.
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
