"""Monte Carlo experiments on random subgraphs and random vertex partitions.

Three harnesses:
  * factor robustness: keep each edge of a bipartite graph independently with
    probability p and measure the largest factor of the result against the
    target floor((1-eps) * rho * m * p);
  * partition degrees: split the hypergraph's vertices into parts of fixed
    sizes uniformly at random and compare every (k-1)-subset's degree into
    each part against (delta + 2*eps/3) * |part|;
  * auxiliary min degree: sample a partition scheme, build its auxiliary
    graph, and compare the minimum degree against (delta + eps/2) * m.

Sweeps run their trials in order; trial i runs on the seed derived from
(master_seed, trial index), so a sweep of t trials is a prefix of any longer
one and each trial can be rerun on its own.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from . import bifactor
from .bifactor import BipartiteGraph, Factor
from .errors import InvalidInputError
from .hypercore import Hypergraph, degree_report, subset_codes, subset_degrees
from .reduction import build_aux_graph, sample_scheme
from .util import bernoulli_ranks, check_nonnegative, check_probability, derive_seed

MIN_PART_FRACTION = 0.05   # partition_degree_sweep refuses parts below this share of n


def _sweep(run: Callable[[int], Any], trials: int, master_seed: int) -> list:
    """run(seed) for i = 0..trials-1, in order, on derive_seed(master_seed, f"trial:{i}")."""
    check_nonnegative(trials, "number of trials")
    return [run(derive_seed(master_seed, f"trial:{i}")) for i in range(trials)]


def _check_degree_thresholds(delta: float, epsilon: float) -> None:
    """Reject a delta outside [0, 1] or a negative epsilon, NaN included."""
    check_probability(delta, "delta")
    check_nonnegative(epsilon, "epsilon")


def _codegree_hypothesis(h: Hypergraph, delta: float, epsilon: float) -> bool:
    """min codegree >= (delta + epsilon) * n, after `_check_degree_thresholds`.
    For k = 1 the one (k-1)-subset is the empty set, which lies in every edge."""
    _check_degree_thresholds(delta, epsilon)
    codegree = degree_report(h, h.k - 1).min_degree if h.k > 1 else h.num_edges()
    return codegree >= (delta + epsilon) * h.n


def random_subgraph(g: BipartiteGraph, p: float, seed: int) -> BipartiteGraph:
    """Keep each edge independently with probability p; deterministic per seed.

    The edge of rank i in sorted order is kept iff the i-th `random()` of
    `random.Random(seed)` is below p.  The uniform draw for an edge depends
    only on (seed, edge-rank), never on p, so runs with the same seed are
    coupled: raising p can only grow the kept edge set.

    The kept ranks are `util.bernoulli_ranks(seed, |E|, p)`, and the kept
    codes are gathered by them.
    """
    return BipartiteGraph._from_codes(g.m, g.codes[bernoulli_ranks(seed, len(g.codes), p)])


@dataclass(frozen=True)
class FactorTrial:
    seed: int
    r_star: int
    target: int
    success: bool
    factor: Optional[Factor]


@dataclass(frozen=True)
class SubgraphTrialReport:
    n: int
    p: float
    rho: float
    epsilon: float
    target: int
    trials: int
    successes: int
    r_stars: tuple[int, ...]
    trial_seeds: tuple[int, ...]


def _check_robustness_hypotheses(g: BipartiteGraph, rho: float) -> None:
    m = g.m
    if not (0.0 < rho <= 1.0):
        raise InvalidInputError(f"rho must be in (0, 1], got {rho}")
    if g.min_degree() * 2 <= m:
        raise InvalidInputError(
            f"min degree {g.min_degree()} is not above m/2 = {m / 2}; "
            "the density hypothesis fails")
    r = _tolerant_floor(rho * m)
    if bifactor.find_factor(g, r) is None:
        raise InvalidInputError(f"host graph has no {r}-factor; the rho hypothesis fails")


def _tolerant_floor(x: float) -> int:
    """floor(x) with a 1e-9 tolerance, so that a product that is an integer in
    exact arithmetic (0.29 * 100 = 28.999999999999996) is not rounded down by
    float error."""
    return math.floor(x + 1e-9)


def _robustness_target(rho: float, m: int, p: float, epsilon: float) -> int:
    """floor((1 - epsilon) * rho * m * p), through `_tolerant_floor`.
    epsilon must lie in [0, 1): outside it the target is negative or above m·p."""
    if not (0.0 <= epsilon < 1.0):
        raise InvalidInputError(f"epsilon must be in [0, 1), got {epsilon}")
    return _tolerant_floor((1.0 - epsilon) * rho * m * p)


def factor_robustness_trial(g: BipartiteGraph, rho: float, p: float, epsilon: float,
                            seed: int, skip_checks: bool = False) -> FactorTrial:
    """One trial: subsample with probability p, take the maximum factor, and
    compare against floor((1 - epsilon) * rho * m * p).

    The factor is the witness that `max_factor` checked against the subsample.
    """
    if not skip_checks:
        _check_robustness_hypotheses(g, rho)
    target = _robustness_target(rho, g.m, p, epsilon)
    sub = random_subgraph(g, p, seed)
    r_star, factor = bifactor.max_factor(sub)
    return FactorTrial(seed=seed, r_star=r_star, target=target,
                       success=r_star >= target, factor=factor)


def factor_robustness_sweep(g: BipartiteGraph, rho: float, p: float, epsilon: float,
                            trials: int, master_seed: int) -> SubgraphTrialReport:
    """Run `trials` independent subsample trials; hypotheses, p and epsilon
    are checked once, before any trial."""
    _check_robustness_hypotheses(g, rho)
    check_probability(p)
    target = _robustness_target(rho, g.m, p, epsilon)
    results = _sweep(lambda seed: factor_robustness_trial(g, rho, p, epsilon, seed,
                                                          skip_checks=True),
                     trials, master_seed)
    return SubgraphTrialReport(
        n=g.m, p=p, rho=rho, epsilon=epsilon, target=target, trials=trials,
        successes=sum(1 for t in results if t.success),
        r_stars=tuple(t.r_star for t in results),
        trial_seeds=tuple(t.seed for t in results))


@dataclass(frozen=True)
class PartitionTrial:
    seed: int
    minima: tuple[int, ...]        # per part: min over (k-1)-subsets of the degree into it
    thresholds: tuple[float, ...]  # per part: (delta + 2*eps/3) * m_i
    success: bool


@dataclass(frozen=True)
class SweepReport:
    """A partition-degree or aux-degree sweep.  Whether the codegree
    hypothesis holds depends on (h, delta, eps) only, so it is the sweep's,
    not a trial's."""
    trials: int
    successes: int
    per_trial: tuple           # PartitionTrial or AuxDegreeTrial, in trial order
    hypothesis_met: bool       # min codegree >= (delta + eps) * n


def _sweep_report(run: Callable[[int], Any], trials: int, master_seed: int,
                  hypothesis_met: bool) -> SweepReport:
    results = _sweep(run, trials, master_seed)
    return SweepReport(trials=trials, successes=sum(1 for t in results if t.success),
                       per_trial=tuple(results), hypothesis_met=hypothesis_met)


def _check_part_sizes(n: int, sizes: tuple[int, ...]) -> None:
    if sum(sizes) != n:
        raise InvalidInputError(f"part sizes sum to {sum(sizes)}, need n = {n}")
    if any(s < MIN_PART_FRACTION * n for s in sizes):
        raise InvalidInputError(
            f"every part must have at least {MIN_PART_FRACTION} * n vertices")


def _partition_degree_trial(h: Hypergraph, sizes: tuple[int, ...], delta: float,
                            epsilon: float, seed: int, codes: np.ndarray,
                            left_out: np.ndarray) -> PartitionTrial:
    """One trial of `partition_degree_sweep`, on already checked `sizes` and
    on the k x |E| arrays `codes = subset_codes(h, k - 1)` and `left_out`,
    which do not depend on the seed: a uniform random partition with exact
    part sizes, a success iff every part meets its (delta + 2*eps/3) * m_i
    degree threshold for every (k-1)-subset.

    codes[j] leaves out the edge's vertex left_out[j], so each
    (k-1)-subset's degree into a part is `subset_degrees` over the codes
    whose left-out vertex lies in it; when there are fewer codes than
    (k-1)-subsets, some subset lies in no edge and every minimum is 0.  For
    k = 1 the one 0-subset, the empty set, has code 0 in every edge.
    """
    n, k = h.n, h.k
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    part_of = np.empty(n, dtype=np.int64)
    part_of[perm] = np.repeat(np.arange(len(sizes)), sizes)
    if math.comb(n, k - 1) > codes.size:   # some subset lies in no edge
        minima = (0,) * len(sizes)
    else:
        parts = part_of[left_out]
        minima = tuple(subset_degrees([kept], len(kept), n, k - 1)[0]
                       for kept in (codes[parts == i] for i in range(len(sizes))))
    thresholds = tuple((delta + 2.0 * epsilon / 3.0) * s for s in sizes)
    success = all(mn >= th for mn, th in zip(minima, thresholds))
    return PartitionTrial(seed=seed, minima=minima, thresholds=thresholds, success=success)


def partition_degree_sweep(h: Hypergraph, sizes: tuple[int, ...], delta: float,
                           epsilon: float, trials: int, master_seed: int) -> SweepReport:
    _check_part_sizes(h.n, sizes)
    hypothesis = _codegree_hypothesis(h, delta, epsilon)
    # position set j of combinations(range(k), k - 1) leaves out position k - 1 - j
    codes, left_out = np.array(list(subset_codes(h, h.k - 1))), h.rows()[:, ::-1].T
    return _sweep_report(lambda seed: _partition_degree_trial(h, sizes, delta, epsilon, seed,
                                                              codes, left_out),
                         trials, master_seed, hypothesis)


@dataclass(frozen=True)
class AuxDegreeTrial:
    seed: int
    min_degree: int
    threshold: float               # (delta + eps/2) * m
    success: bool


def aux_degree_trial(h: Hypergraph, ell: int, delta: float, epsilon: float,
                     seed: int) -> AuxDegreeTrial:
    """Sample a scheme, build the auxiliary graph, report its minimum degree
    against (delta + eps/2) * m.

    Divisibility violations raise; whether the codegree hypothesis holds is
    reported by `aux_degree_sweep`, which needs no trial to tell.
    """
    _check_degree_thresholds(delta, epsilon)
    scheme = sample_scheme(h, ell, seed)
    mindeg = build_aux_graph(h, scheme).graph.min_degree()
    threshold = (delta + epsilon / 2.0) * scheme.m
    return AuxDegreeTrial(seed=seed, min_degree=mindeg, threshold=threshold,
                          success=mindeg >= threshold)


def aux_degree_sweep(h: Hypergraph, ell: int, delta: float, epsilon: float,
                     trials: int, master_seed: int) -> SweepReport:
    hypothesis = _codegree_hypothesis(h, delta, epsilon)
    return _sweep_report(lambda seed: aux_degree_trial(h, ell, delta, epsilon, seed),
                         trials, master_seed, hypothesis)
