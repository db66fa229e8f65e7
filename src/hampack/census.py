"""Exact Hamilton cycle enumeration (brute-force oracle) and the closed-form
counting bounds, evaluated in natural-log space.

Exact counts are big integers from exhaustive enumeration; formula values are
floats computed via log-gamma.  The two never mix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import InvalidInputError, SizeLimitError
from .hypercore import Hypergraph, degree_report
from .reduction import HamiltonCycle, canonicalize, check_shape

ENUMERATION_MAX_N = 10


@dataclass(frozen=True)
class CountReport:
    """Exact counts next to the two formula values (natural logs)."""
    n: int
    k: int
    ell: int
    exact_count: int
    edge_set_count: int
    alpha: float                # measured min (k-1)-degree over n
    log_lower_bound: float      # guaranteed-count formula at alpha, slack excluded
    log_expected: float         # expected-count formula at p = alpha
    slack_per_vertex: float
    hypothesis_met: bool        # alpha > 1/2
    bound_met: Optional[bool]   # ln(exact) >= log_lower_bound - n*slack; None if hypothesis unmet


def _log_guaranteed(n: int, k: int, ell: int, x: float) -> float:
    """ln(n!) + m*ln(x / (ell! (k-2*ell)!)); -inf at x = 0."""
    m = check_shape(n, k, ell)
    if x <= 0.0:
        return float("-inf")
    per_edge = x / (math.factorial(ell) * math.factorial(k - 2 * ell))
    return math.lgamma(n + 1) + m * math.log(per_edge)


def count_lower_bound(n: int, k: int, ell: int, alpha: float) -> float:
    """Log of the guaranteed cycle count at codegree density alpha.

    The sub-exponential slack factor is excluded; callers subtract their own
    per-vertex slack (see empirical_vs_bound).
    """
    if not (0.5 < alpha <= 1.0):
        raise InvalidInputError(f"alpha must be in (1/2, 1], got {alpha}")
    return _log_guaranteed(n, k, ell, alpha)


def expected_count(n: int, k: int, ell: int, p: float) -> float:
    """Log of the expected number of Hamilton cycles with overlap ell in a
    random hypergraph with edge probability p; -inf when p = 0."""
    m = check_shape(n, k, ell)
    if not (0.0 <= p <= 1.0):
        raise InvalidInputError(f"p must be in [0, 1], got {p}")
    if p == 0.0:
        return float("-inf")
    per_edge = p / (math.factorial(ell) * math.factorial(k - 2 * ell))
    return math.lgamma(n) + math.log((k - ell) / 2.0) + m * math.log(per_edge)


def enumerate_cycles(h: Hypergraph, ell: int) -> set[HamiltonCycle]:
    """All Hamilton cycles with overlap ell, as canonical arrangements.

    Backtracks over vertex placements, testing each length-k segment as soon
    as its last position is filled; every surviving arrangement is
    canonicalized and deduplicated.  Exact but factorial: n <= 10 enforced.
    """
    n, k = h.n, h.k
    if n > ENUMERATION_MAX_N:
        raise SizeLimitError(
            f"n={n} > {ENUMERATION_MAX_N}: use the matching-based sampler instead")
    m = check_shape(n, k, ell)
    step = k - ell
    segments = []
    for i in range(m):
        segments.append(tuple((i * step + j) % n for j in range(k)))
    by_depth: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for seg in segments:
        by_depth[max(seg)].append(seg)

    found: set[HamiltonCycle] = set()
    arr = [-1] * n
    used = [False] * n

    def place(depth: int) -> None:
        if depth == n:
            found.add(canonicalize(HamiltonCycle(k=k, ell=ell, arrangement=tuple(arr))))
            return
        for v in range(n):
            if used[v]:
                continue
            arr[depth] = v
            ok = True
            for seg in by_depth[depth]:
                if not h.has_edge(arr[p] for p in seg):
                    ok = False
                    break
            if ok:
                used[v] = True
                place(depth + 1)
                used[v] = False
        arr[depth] = -1

    place(0)
    return found


def edge_set_count(cycles: set[HamiltonCycle]) -> int:
    """Distinct segment sets among the cycles (can differ from the arrangement
    count only for ell = 0)."""
    return len({frozenset(c.segments()) for c in cycles})


def empirical_vs_bound(h: Hypergraph, ell: int, slack_per_vertex: float = 0.1) -> CountReport:
    """Exact count against both formulas evaluated at the measured codegree density."""
    cycles = enumerate_cycles(h, ell)
    exact = len(cycles)
    distinct_edge_sets = edge_set_count(cycles)
    if h.k >= 2:
        alpha = degree_report(h, h.k - 1).min_degree / h.n
    else:
        alpha = h.num_edges() / h.n
    log_bound = _log_guaranteed(h.n, h.k, ell, alpha)
    log_exp = expected_count(h.n, h.k, ell, alpha) if alpha > 0 else float("-inf")
    hypothesis = alpha > 0.5
    if hypothesis:
        log_exact = math.log(exact) if exact > 0 else float("-inf")
        met = log_exact >= log_bound - h.n * slack_per_vertex
    else:
        met = None
    return CountReport(n=h.n, k=h.k, ell=ell,
                       exact_count=exact, edge_set_count=distinct_edge_sets,
                       alpha=alpha, log_lower_bound=log_bound, log_expected=log_exp,
                       slack_per_vertex=slack_per_vertex,
                       hypothesis_met=hypothesis, bound_met=met)
