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
Each scheme is resampled up to `RESAMPLE_LIMIT` times until its aux graph
passes the pipeline's acceptance test.  Each pipeline sets only what differs:
`pack_min_degree` needs only a codegree lower bound, above `ALPHA_PRIME`;
`pack_near_regular` additionally needs the codegrees to be nearly uniform and
reports coverage against an uncovered-edge budget.
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

RESAMPLE_LIMIT = 5  # resamples per scheme before a failing one is kept anyway
ALPHA_PRIME = 0.6  # min-degree pipeline: the hypothesis' alpha', between 1/2 and alpha


@dataclass(frozen=True)
class PartitionStats:
    index: int
    retries: int
    aux_min_degree: int
    aux_edges: int
    assigned_edges: int
    sub_aux_edges: int
    factor_size: int
    matchings: int
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


def _sample_accepted_schemes(h: Hypergraph, ell: int, count: int, seed: int,
                             accept) -> tuple[list, list[int], bool]:
    """Sample `count` schemes, retrying each until `accept(aux)` or `RESAMPLE_LIMIT`."""
    auxes = []
    retries = []
    exhausted = False
    for i in range(count):
        tries = 0
        while True:
            s = sample_scheme(h, ell, derive_seed(seed, f"scheme:{i}:{tries}"))
            aux = build_aux_graph(h, s)
            ok = accept(aux)
            if ok or tries >= RESAMPLE_LIMIT:
                if not ok:
                    exhausted = True
                auxes.append(aux)
                retries.append(tries)
                break
            tries += 1
    return auxes, retries, exhausted


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


def _pack(h: Hypergraph, ell: int, count: int, seed: int, accept, warnings: list[str],
          uncovered_budget: Optional[float] = None) -> PackingResult:
    """The shared packing loop: sample and accept `count` >= 0 schemes, assign
    the edges, and extract the cycles of every partition from the aux edges
    whose hyperedge chose it (`_extract_cycles`).  Edge-disjointness (over all
    located segments at once) and edge conservation are re-verified.
    """
    check_nonnegative(count, "number of partitions")
    auxes, retries, exhausted = _sample_accepted_schemes(h, ell, count, seed, accept)
    if exhausted:
        warnings.append("resample limit exhausted for at least one partition; partial result")
    assignment = assign_edges(h, auxes, derive_seed(seed, "assign"))
    assigned = assignment.assigned_counts(len(auxes))
    subs = [BipartiteGraph._from_codes(aux.scheme.m,
                                       aux.graph.codes[assignment.choice[aux.edge_pos] == i])
            for i, aux in enumerate(auxes)]
    sizes, cycles, rows, pos = _extract_cycles(h, auxes, subs, segment_windows(h.n, h.k, ell))
    stats = [PartitionStats(
        index=i, retries=retries[i], aux_min_degree=aux.graph.min_degree(),
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
        k=h.k, ell=ell, arrangements=rows,
        partitions_used=len(auxes),
        per_partition=tuple(stats),
        psi_histogram={v: c for v, c in enumerate(np.bincount(assignment.psi).tolist()) if c},
        unassigned=int(unassigned.sum()),
        covered_edges=covered, coverage_ratio=ratio,
        warnings=tuple(warnings), uncovered_budget=uncovered_budget, goal_met=goal)


def pack_min_degree(h: Hypergraph, ell: int, *, num_partitions: Optional[int] = None,
                    seed: int = 0) -> PackingResult:
    """Packing pipeline under a codegree lower-bound hypothesis.

    The hypothesis is alpha > `ALPHA_PRIME` > 1/2 for the measured min
    codegree density alpha; with eps = max(alpha - ALPHA_PRIME, 0), schemes
    whose auxiliary graph misses the (ALPHA_PRIME + eps/2)·m min-degree mark
    are resampled up to `RESAMPLE_LIMIT` times.  The partition count defaults
    to `default_num_partitions`.  The factor extracted per partition is the
    flow-certified maximum.  Invariants (cycle validity, pairwise
    edge-disjointness, edge conservation) are re-verified on the assembled
    result.
    """
    n, k = h.n, h.k
    m = check_shape(n, k, ell)
    warnings: list[str] = []
    alpha = degree_report(h, k - 1).min_degree / n
    if not alpha > ALPHA_PRIME:
        warnings.append(
            f"degree hypothesis unmet: measured alpha={alpha:.4f}, "
            f"alpha'={ALPHA_PRIME}; running best-effort")
    threshold = (ALPHA_PRIME + max(alpha - ALPHA_PRIME, 0.0) / 2.0) * m
    count = num_partitions if num_partitions is not None else default_num_partitions(h, ell)
    return _pack(h, ell, count, seed, lambda aux: aux.graph.min_degree() >= threshold,
                 warnings)


def pack_near_regular(h: Hypergraph, ell: int, *, delta_target: float, epsilon: float,
                      seed: int, num_partitions: Optional[int] = None) -> PackingResult:
    """Packing pipeline under a two-sided codegree hypothesis, aimed at
    covering all but a delta_target fraction of the possible edges.

    Requires max codegree - min codegree <= 2*epsilon*n, tested as the
    integer spread / 2n <= epsilon: one correctly rounded division, so
    epsilon = spread / 2n itself passes.  Schemes whose
    auxiliary graph has a degree outside the band (alpha ± 2*epsilon)·m are
    resampled up to `RESAMPLE_LIMIT` times.  The partition count follows
    |E|·((k-ell)/n)^2 / q with q = (alpha-epsilon)·m^2/|E| (clamped to the
    desk-scale range, overridable); each partition takes the flow-certified
    maximum factor.  epsilon must be >= 0 and delta_target in [0, 1].
    """
    check_nonnegative(epsilon, "epsilon")
    check_probability(delta_target, "delta_target")
    n, k = h.n, h.k
    m = check_shape(n, k, ell)
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
    band_lo = (alpha - 2.0 * epsilon) * m
    band_hi = (alpha + 2.0 * epsilon) * m
    return _pack(h, ell, num_partitions, seed,
                 lambda aux: band_lo <= aux.graph.min_degree()
                 and aux.graph.max_degree() <= band_hi,
                 warnings, uncovered_budget=delta_target * math.comb(n, k))
