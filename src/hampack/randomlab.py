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

Per-trial seeds are derived as hash(master_seed, trial index), so sweeps are
order-independent and reproducible under any parallel schedule.
"""
from __future__ import annotations

import math
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Optional, Union

import numpy as np

from . import bifactor
from .bifactor import BipartiteGraph, Factor
from .errors import InvalidInputError
from .hypercore import Hypergraph
from .reduction import build_aux_graph, sample_scheme
from .util import derive_seed

Probabilities = Union[float, Mapping[tuple[int, int], float]]


def random_subgraph(g: BipartiteGraph, p: Probabilities, seed: int) -> BipartiteGraph:
    """Keep each edge independently with its probability; deterministic per seed.

    The edge of rank i in sorted order is kept iff the i-th `random()` of
    `random.Random(seed)` is below its probability.  The uniform draw for an
    edge depends only on (seed, edge-rank), never on the probabilities, so
    runs with the same seed are coupled: raising any probability can only
    grow the kept edge set.

    All draws come from one call to numpy's `RandomState`, loaded with the
    Mersenne Twister state of `random.Random(seed)`.  Both generators turn two
    32-bit outputs into a double by the same formula (genrand_res53), so the
    array equals the per-edge `random()` calls bit for bit, and NEP 19 freezes
    the `RandomState` stream.
    """
    codes = g.codes
    if isinstance(p, (int, float)):
        if not (0.0 <= p <= 1.0):
            raise InvalidInputError(f"probability {p} not in [0, 1]")
        threshold = p
    else:
        s, t = np.divmod(codes, g.m)
        edges = list(zip(s.tolist(), t.tolist()))
        threshold = np.array([p[e] for e in edges], dtype=float)
        bad = np.flatnonzero(~((threshold >= 0.0) & (threshold <= 1.0)))
        if len(bad):
            e = edges[bad[0]]
            raise InvalidInputError(f"probability {p[e]} for edge {e} not in [0, 1]")
    state = random.Random(seed).getstate()[1]      # 624 key words, then the position
    draws = np.random.RandomState()
    draws.set_state(("MT19937", np.array(state[:624], dtype=np.uint32), state[624]))
    return BipartiteGraph._from_codes(g.m, codes[draws.random_sample(len(codes)) < threshold])


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
    if bifactor.find_factor(g, math.floor(rho * m)) is None:
        raise InvalidInputError(
            f"host graph has no {math.floor(rho * m)}-factor; the rho hypothesis fails")


def _factor_target(rho: float, m: int, p: float, epsilon: float) -> int:
    """floor((1 - epsilon) * rho * m * p), with a 1e-9 tolerance so that a product
    that is an integer in exact arithmetic is not rounded down by float error."""
    return math.floor((1.0 - epsilon) * rho * m * p + 1e-9)


def factor_robustness_trial(g: BipartiteGraph, rho: float, p: float, epsilon: float,
                            seed: int, skip_checks: bool = False) -> FactorTrial:
    """One trial: subsample with probability p, take the maximum factor, and
    compare against floor((1 - epsilon) * rho * m * p).

    On success the factor witness is re-verified against the subsample.
    """
    if not skip_checks:
        _check_robustness_hypotheses(g, rho)
    if not (0.0 <= p <= 1.0):
        raise InvalidInputError(f"p must be in [0, 1], got {p}")
    sub = random_subgraph(g, p, seed)
    r_star, factor = bifactor.max_factor(sub)
    target = _factor_target(rho, g.m, p, epsilon)
    success = r_star >= target
    if success:
        factor.check_against(sub)
    return FactorTrial(seed=seed, r_star=r_star, target=target,
                       success=success, factor=factor)


def factor_robustness_sweep(g: BipartiteGraph, rho: float, p: float, epsilon: float,
                            trials: int, master_seed: int,
                            threads: int = 1) -> SubgraphTrialReport:
    """Run `trials` independent subsample trials; hypotheses are checked once."""
    _check_robustness_hypotheses(g, rho)
    seeds = [derive_seed(master_seed, f"trial:{i}") for i in range(trials)]

    def run(seed: int) -> FactorTrial:
        return factor_robustness_trial(g, rho, p, epsilon, seed, skip_checks=True)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, seeds))
    else:
        results = [run(s) for s in seeds]
    target = _factor_target(rho, g.m, p, epsilon)
    return SubgraphTrialReport(
        n=g.m, p=p, rho=rho, epsilon=epsilon, target=target, trials=trials,
        successes=sum(1 for t in results if t.success),
        r_stars=tuple(t.r_star for t in results),
        trial_seeds=tuple(seeds))


@dataclass(frozen=True)
class PartitionTrial:
    seed: int
    minima: tuple[int, ...]        # per part: min over (k-1)-subsets of the degree into it
    thresholds: tuple[float, ...]  # per part: (delta + 2*eps/3) * m_i
    success: bool


@dataclass(frozen=True)
class PartitionTrialReport:
    trials: int
    successes: int
    per_trial: tuple[PartitionTrial, ...]
    hypothesis_met: bool           # min codegree >= (delta + eps) * n


def _min_codegree(h: Hypergraph) -> int:
    idx = h.completion_index()
    if len(idx) < math.comb(h.n, h.k - 1):
        return 0
    return min(len(v) for v in idx.values())


def partition_degree_trial(h: Hypergraph, sizes: tuple[int, ...], delta: float,
                           epsilon: float, seed: int,
                           min_part_fraction: float = 0.05) -> PartitionTrial:
    """Uniform random partition with exact part sizes; success iff every part
    meets its (delta + 2*eps/3) * m_i degree threshold for every (k-1)-subset."""
    if sum(sizes) != h.n:
        raise InvalidInputError(f"part sizes sum to {sum(sizes)}, need n = {h.n}")
    if any(s < min_part_fraction * h.n for s in sizes):
        raise InvalidInputError(
            f"every part must have at least {min_part_fraction} * n vertices")
    rng = random.Random(seed)
    perm = list(range(h.n))
    rng.shuffle(perm)
    parts = []
    at = 0
    for s in sizes:
        parts.append(frozenset(perm[at:at + s]))
        at += s
    idx = h.completion_index()
    full_cover = len(idx) == math.comb(h.n, h.k - 1)
    minima = []
    for part in parts:
        if not full_cover:
            minima.append(0)
            continue
        best = None
        for completions in idx.values():
            c = sum(1 for v in completions if v in part)
            if best is None or c < best:
                best = c
                if best == 0:
                    break
        minima.append(best)
    thresholds = tuple((delta + 2.0 * epsilon / 3.0) * s for s in sizes)
    success = all(mn >= th for mn, th in zip(minima, thresholds))
    return PartitionTrial(seed=seed, minima=tuple(minima),
                          thresholds=thresholds, success=success)


def partition_degree_sweep(h: Hypergraph, sizes: tuple[int, ...], delta: float,
                           epsilon: float, trials: int, master_seed: int,
                           min_part_fraction: float = 0.05,
                           threads: int = 1) -> PartitionTrialReport:
    seeds = [derive_seed(master_seed, f"trial:{i}") for i in range(trials)]

    def run(seed: int) -> PartitionTrial:
        return partition_degree_trial(h, sizes, delta, epsilon, seed, min_part_fraction)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, seeds))
    else:
        results = [run(s) for s in seeds]
    hypothesis = _min_codegree(h) >= (delta + epsilon) * h.n
    return PartitionTrialReport(trials=trials,
                                successes=sum(1 for t in results if t.success),
                                per_trial=tuple(results),
                                hypothesis_met=hypothesis)


@dataclass(frozen=True)
class AuxDegreeTrial:
    seed: int
    min_degree: int
    threshold: float               # (delta + eps/2) * m
    success: bool
    hypothesis_met: bool           # min codegree >= (delta + eps) * n


@dataclass(frozen=True)
class AuxDegreeReport:
    trials: int
    successes: int
    per_trial: tuple[AuxDegreeTrial, ...]
    hypothesis_met: bool


def aux_degree_trial(h: Hypergraph, ell: int, delta: float, epsilon: float,
                     seed: int, hypothesis_met: Optional[bool] = None) -> AuxDegreeTrial:
    """Sample a scheme, build the auxiliary graph, report its minimum degree
    against (delta + eps/2) * m.

    Divisibility violations raise; a codegree-hypothesis shortfall is reported
    in the result instead of refusing to run.
    """
    scheme = sample_scheme(h, ell, seed)
    aux = build_aux_graph(h, scheme)
    threshold = (delta + epsilon / 2.0) * scheme.m
    if hypothesis_met is None:
        hypothesis_met = _min_codegree(h) >= (delta + epsilon) * h.n
    mindeg = aux.graph.min_degree()
    return AuxDegreeTrial(seed=seed, min_degree=mindeg, threshold=threshold,
                          success=mindeg >= threshold, hypothesis_met=hypothesis_met)


def aux_degree_sweep(h: Hypergraph, ell: int, delta: float, epsilon: float,
                     trials: int, master_seed: int, threads: int = 1) -> AuxDegreeReport:
    hypothesis = _min_codegree(h) >= (delta + epsilon) * h.n
    seeds = [derive_seed(master_seed, f"trial:{i}") for i in range(trials)]

    def run(seed: int) -> AuxDegreeTrial:
        return aux_degree_trial(h, ell, delta, epsilon, seed, hypothesis_met=hypothesis)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, seeds))
    else:
        results = [run(s) for s in seeds]
    return AuxDegreeReport(trials=trials,
                           successes=sum(1 for t in results if t.success),
                           per_trial=tuple(results),
                           hypothesis_met=hypothesis)
