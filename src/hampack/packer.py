"""Randomized edge-disjoint Hamilton cycle packing.

Both pipelines share one skeleton: sample partition schemes, let every
hypergraph edge that fits some scheme pick one uniformly at random (making the
per-scheme sub-hypergraphs edge-disjoint by construction), then extract a
maximal regular subgraph of each scheme's auxiliary graph restricted to its
assigned edges, peel it into perfect matchings, and lift each matching to a
cycle.  An edge fits a scheme exactly when it is realized by an edge of that
scheme's auxiliary graph, so the candidates are read off the aux graphs.
`pack_min_degree` needs only a codegree lower bound; `pack_near_regular`
additionally needs the codegrees to be nearly uniform and reports coverage
against an uncovered-edge budget.
"""
from __future__ import annotations

import math
import random
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from . import bifactor
from .bifactor import BipartiteGraph
from .errors import InvalidInputError, InvariantViolation
from .hypercore import Hypergraph, degree_report
from .reduction import (AuxGraph, HamiltonCycle, PartitionScheme,
                        build_aux_graph, canonicalize, check_shape,
                        lift_matching, sample_scheme, verify_cycle)
from .util import derive_seed


@dataclass(frozen=True)
class PackingConfig:
    """Knobs for the min-degree packing pipeline."""
    ell: int
    alpha_prime: float = 0.6
    epsilon: Optional[float] = None          # default: measured alpha - alpha_prime
    num_partitions: Optional[int] = None     # default: asymptotic formula, clamped
    factor_target: Union[str, int] = "max"   # "max" (flow maximum) or a fixed r
    resample_limit: int = 5
    seed: int = 0
    threads: int = 1


@dataclass(frozen=True)
class PartitionStats:
    index: int
    retries: int
    aux_min_degree: int
    aux_edges: int
    assigned_edges: int
    sub_aux_edges: int
    factor_target: Optional[int]
    factor_size: int
    matchings: int
    cycles: int


@dataclass(frozen=True)
class PackingResult:
    cycles: tuple[HamiltonCycle, ...]
    partitions_used: int
    per_partition: tuple[PartitionStats, ...]
    psi_histogram: dict[int, int]
    unassigned: int
    covered_edges: int
    coverage_ratio: float
    warnings: tuple[str, ...]
    resample_exhausted: bool
    uncovered_budget: Optional[float] = None   # near-regular pipeline only
    goal_met: Optional[bool] = None


@dataclass(frozen=True)
class Assignment:
    """Outcome of the random edge-to-scheme assignment."""
    schemes: tuple[PartitionScheme, ...]
    psi: dict[tuple[int, ...], int]
    choice: dict[tuple[int, ...], Optional[int]]
    per_index: tuple[tuple[tuple[int, ...], ...], ...]
    unassigned: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class PsiStats:
    histogram: dict[int, int]
    num_edges: int
    sum_psi: int
    mean_psi: float
    q_upper_bound: float       # m^2 / |E(H)|
    expected_mean: float       # num_schemes * q_upper_bound


def _realized_edges(aux: AuxGraph):
    """(aux edge, hyperedge s_label ∪ t_label) for every edge of the aux graph."""
    for a, b in aux.graph.edges:
        yield (a, b), tuple(sorted(aux.s_labels[a] + aux.t_labels[b]))


def candidate_partitions(edge: Sequence[int], schemes: Sequence[PartitionScheme]) -> list[int]:
    """Indices of the schemes under which `edge` splits as junction-pair ∪ block
    (or tuple ∪ block for ell = 0), i.e. realizes an edge of their aux graph."""
    return [i for i, s in enumerate(schemes)
            if build_aux_graph(Hypergraph(s.n, s.k, [edge]), s).graph.edges]


def assign_edges(h: Hypergraph, auxes: Sequence[AuxGraph], seed: int) -> Assignment:
    """Every edge realized by at least one scheme's aux graph picks one of those
    schemes uniformly at random; the per-scheme edge lists are disjoint by
    construction.  Candidate lists are ascending and each scheme appears once,
    although for m = 2 two aux edges realize the same hyperedge."""
    candidates: dict[tuple[int, ...], list[int]] = {}
    for i, aux in enumerate(auxes):
        for _, e in _realized_edges(aux):
            cands = candidates.setdefault(e, [])
            if not cands or cands[-1] != i:
                cands.append(i)
    rng = random.Random(seed)
    psi: dict[tuple[int, ...], int] = {}
    choice: dict[tuple[int, ...], Optional[int]] = {}
    per_index: list[list[tuple[int, ...]]] = [[] for _ in auxes]
    unassigned: list[tuple[int, ...]] = []
    for e in h.edges:
        cands = candidates.get(e, [])
        psi[e] = len(cands)
        if cands:
            pick = cands[rng.randrange(len(cands))]
            choice[e] = pick
            per_index[pick].append(e)
        else:
            choice[e] = None
            unassigned.append(e)
    return Assignment(schemes=tuple(aux.scheme for aux in auxes), psi=psi, choice=choice,
                      per_index=tuple(tuple(x) for x in per_index),
                      unassigned=tuple(unassigned))


def psi_statistics(assignment: Assignment) -> PsiStats:
    """Histogram of candidate counts, against the per-scheme ceiling m^2/|E|."""
    hist = Counter(assignment.psi.values())
    num_edges = len(assignment.psi)
    total = sum(v * c for v, c in hist.items())
    if assignment.schemes:
        m = assignment.schemes[0].m
        q_bound = (m * m / num_edges) if num_edges else 0.0
    else:
        q_bound = 0.0
    r = len(assignment.schemes)
    return PsiStats(histogram=dict(sorted(hist.items())), num_edges=num_edges,
                    sum_psi=total, mean_psi=(total / num_edges) if num_edges else 0.0,
                    q_upper_bound=q_bound, expected_mean=r * q_bound)


def default_num_partitions(h: Hypergraph, ell: int) -> int:
    """Asymptotic partition count |E|·((k-ell)·ln n / n)^2, clamped to the
    desk-scale range [1, |E|·(k-ell)/n]."""
    n, k = h.n, h.k
    num_edges = h.num_edges()
    if num_edges == 0:
        return 1
    raw = num_edges * ((k - ell) * math.log(n) / n) ** 2
    upper = max(1, (num_edges * (k - ell)) // n)
    return max(1, min(round(raw), upper))


def _measured_alpha(h: Hypergraph) -> tuple[float, float]:
    """(min, max) codegree over n."""
    rep = degree_report(h, h.k - 1)
    return rep.min_degree / h.n, rep.max_degree / h.n


def _sample_accepted_schemes(h: Hypergraph, ell: int, count: int, seed: int,
                             resample_limit: int, accept) -> tuple[list, list[int], bool]:
    """Sample `count` schemes, retrying each until `accept(aux)` or the limit."""
    auxes = []
    retries = []
    exhausted = False
    for i in range(count):
        tries = 0
        while True:
            s = sample_scheme(h, ell, derive_seed(seed, f"scheme:{i}:{tries}"))
            aux = build_aux_graph(h, s)
            ok = accept(aux)
            if ok or tries >= resample_limit:
                if not ok:
                    exhausted = True
                auxes.append(aux)
                retries.append(tries)
                break
            tries += 1
    return auxes, retries, exhausted


def _extract_cycles(h: Hypergraph, aux: AuxGraph, index: int, assignment: Assignment,
                    mode: str, fixed_r: Optional[int]):
    """Factor extraction, peeling, and lifting for partition `index`, on the aux
    edges whose hyperedge chose it.

    mode "max": flow-certified maximum factor; "fixed": exactly fixed_r or
    nothing; "report": maximum factor, with fixed_r recorded as the
    guaranteed target (which the maximum dominates whenever feasible).
    """
    m = aux.scheme.m
    sub = BipartiteGraph(m, (ab for ab, e in _realized_edges(aux)
                             if assignment.choice[e] == index))
    factor_target = None
    if mode == "fixed":
        factor_target = max(0, fixed_r)
        factor = bifactor.find_factor(sub, factor_target) if factor_target <= m else None
        if factor is None:
            r_i, factor = 0, bifactor.Factor(r=0, edges=frozenset())
        else:
            r_i = factor_target
    else:
        if mode == "report":
            factor_target = max(0, fixed_r)
        r_i, factor = bifactor.max_factor(sub)
    matchings = bifactor.peel_matchings(factor, sub) if r_i > 0 else []
    cycles = []
    seen = set()
    for matching in matchings:
        cycle = canonicalize(lift_matching(aux, matching))
        if cycle in seen:
            continue  # m = 2 degeneracy: reflected matchings lift to one cycle
        seen.add(cycle)
        check = verify_cycle(h, cycle)
        if not check:
            raise InvariantViolation(f"lifted cycle failed verification: {check.failure}")
        cycles.append(cycle)
    return sub, factor_target, r_i, len(matchings), cycles


def _assemble(h: Hypergraph, auxes, retries, assignment, extraction,
              warnings: list[str], exhausted: bool,
              uncovered_budget: Optional[float] = None) -> PackingResult:
    all_cycles: list[HamiltonCycle] = []
    stats: list[PartitionStats] = []
    for i, aux in enumerate(auxes):
        sub, target, r_i, n_matchings, cycles = extraction[i]
        all_cycles.extend(cycles)
        stats.append(PartitionStats(
            index=i, retries=retries[i],
            aux_min_degree=aux.graph.min_degree(), aux_edges=len(aux.graph.edges),
            assigned_edges=len(assignment.per_index[i]),
            sub_aux_edges=len(sub.edges), factor_target=target,
            factor_size=r_i, matchings=n_matchings, cycles=len(cycles)))
    used: set[tuple[int, ...]] = set()
    for cycle in all_cycles:
        for seg in cycle.segments():
            ce = tuple(sorted(seg))
            if ce in used:
                raise InvariantViolation(f"edge {ce} appears in two packed cycles")
            used.add(ce)
    assigned_total = sum(len(x) for x in assignment.per_index)
    if assigned_total + len(assignment.unassigned) != h.num_edges():
        raise InvariantViolation("edge conservation failed: assigned + unassigned != |E|")
    covered = len(used)
    ratio = covered / h.num_edges() if h.num_edges() else 0.0
    goal = (h.num_edges() - covered) <= uncovered_budget if uncovered_budget is not None else None
    return PackingResult(
        cycles=tuple(all_cycles), partitions_used=len(auxes),
        per_partition=tuple(stats),
        psi_histogram=psi_statistics(assignment).histogram,
        unassigned=len(assignment.unassigned),
        covered_edges=covered, coverage_ratio=ratio,
        warnings=tuple(warnings), resample_exhausted=exhausted,
        uncovered_budget=uncovered_budget, goal_met=goal)


def _run_extraction(h, auxes, assignment, modes, threads: int):
    def work(i: int):
        mode, fixed_r = modes[i]
        return _extract_cycles(h, auxes[i], i, assignment, mode, fixed_r)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(work, range(len(auxes))))
    return [work(i) for i in range(len(auxes))]


def pack_min_degree(h: Hypergraph, cfg: PackingConfig) -> PackingResult:
    """Packing pipeline under a codegree lower-bound hypothesis.

    Schemes whose auxiliary graph misses the (alpha' + eps/2)·m min-degree mark
    are resampled up to cfg.resample_limit.  The factor extracted per partition
    is the flow-certified maximum by default, which dominates the guaranteed
    size.  Invariants (cycle validity, pairwise edge-disjointness, edge
    conservation) are re-verified on the assembled result.
    """
    n, k, ell = h.n, h.k, cfg.ell
    m = check_shape(n, k, ell)
    warnings: list[str] = []
    alpha, _ = _measured_alpha(h)
    if not (alpha > cfg.alpha_prime > 0.5):
        warnings.append(
            f"degree hypothesis unmet: measured alpha={alpha:.4f}, "
            f"alpha'={cfg.alpha_prime}; running best-effort")
    eps = cfg.epsilon if cfg.epsilon is not None else max(alpha - cfg.alpha_prime, 0.0)
    threshold = (cfg.alpha_prime + eps / 2.0) * m
    count = cfg.num_partitions if cfg.num_partitions is not None else default_num_partitions(h, ell)
    auxes, retries, exhausted = _sample_accepted_schemes(
        h, ell, count, cfg.seed, cfg.resample_limit,
        accept=lambda aux: aux.graph.min_degree() >= threshold)
    if exhausted:
        warnings.append("resample limit exhausted for at least one partition; partial result")
    assignment = assign_edges(h, auxes, derive_seed(cfg.seed, "assign"))
    if cfg.factor_target == "max":
        modes = [("max", None)] * len(auxes)
    else:
        modes = [("fixed", int(cfg.factor_target))] * len(auxes)
    extraction = _run_extraction(h, auxes, assignment, modes, cfg.threads)
    return _assemble(h, auxes, retries, assignment, extraction, warnings, exhausted)


def pack_near_regular(h: Hypergraph, ell: int, delta_target: float, epsilon: float,
                      seed: int, num_partitions: Optional[int] = None,
                      resample_limit: int = 5, threads: int = 1) -> PackingResult:
    """Packing pipeline under a two-sided codegree hypothesis, aimed at
    covering all but a delta_target fraction of the possible edges.

    Requires max codegree - min codegree <= 2*epsilon*n.  The partition count
    follows |E|·((k-ell)/n)^2 / q with q = (alpha-epsilon)·m^2/|E| (clamped to
    the desk-scale range, overridable); the per-partition factor target comes
    from the near-regular density guarantee scaled by each partition's edge
    retention, with the flow maximum as fallback.
    """
    n, k = h.n, h.k
    m = check_shape(n, k, ell)
    lo, hi = _measured_alpha(h)
    if (hi - lo) * n > 2.0 * epsilon * n:
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
            raw = num_edges * ((k - ell) / n) ** 2 / q
            upper = max(1, (num_edges * (k - ell)) // n)
            num_partitions = max(1, min(round(raw), upper))
        else:
            num_partitions = 1
    band_lo = (alpha - 2.0 * epsilon) * m
    band_hi = (alpha + 2.0 * epsilon) * m
    auxes, retries, exhausted = _sample_accepted_schemes(
        h, ell, num_partitions, seed, resample_limit,
        accept=lambda aux: band_lo <= aux.graph.min_degree()
        and aux.graph.max_degree() <= band_hi)
    if exhausted:
        warnings.append("resample limit exhausted for at least one partition; partial result")
    assignment = assign_edges(h, auxes, derive_seed(seed, "assign"))
    try:
        density = bifactor.almost_regular_bound(alpha, 2.0 * epsilon)
    except InvalidInputError:
        density = 0.0
    modes = []
    for i, aux in enumerate(auxes):
        full = len(aux.graph.edges)
        retention = (len(assignment.per_index[i]) / full) if full else 0.0
        modes.append(("report", int(density * m * retention)))
    extraction = _run_extraction(h, auxes, assignment, modes, threads)
    budget = delta_target * math.comb(n, k)
    return _assemble(h, auxes, retries, assignment, extraction, warnings,
                     exhausted, uncovered_budget=budget)
