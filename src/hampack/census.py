"""Exact Hamilton cycle enumeration (brute-force oracle) and the closed-form
counting bounds, evaluated in natural-log space.

Exact counts are big integers from exhaustive enumeration; formula values are
floats computed via log-gamma.  The two never mix.  The enumerator holds its
own set of the edge tuples: at n <= 10 there are at most C(10, 5) = 252.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from .errors import InvalidInputError, SizeLimitError
from .hypercore import Hypergraph, degree_report
from .reduction import HamiltonCycle, canonical_above, check_shape, segment_windows
from .util import check_probability

ENUMERATION_MAX_N = 10
SLACK_PER_VERTEX = 0.1  # per-vertex log slack standing in for the count's (1 - o(1))^n


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


def _formula_shape(n: int, k: int, ell: int) -> int:
    """`check_shape`, also refusing n < k, where no Hamilton cycle exists."""
    m = check_shape(n, k, ell)
    if n < k:
        raise InvalidInputError(f"the counting formulas need n >= k, got n={n}, k={k}")
    return m


def _log_guaranteed(n: int, k: int, ell: int, x: float) -> float:
    """ln(n!) + m*ln(x / (ell! (k-2*ell)!)); -inf at x = 0."""
    m = _formula_shape(n, k, ell)
    if x <= 0.0:
        return float("-inf")
    per_edge = x / (math.factorial(ell) * math.factorial(k - 2 * ell))
    return math.lgamma(n + 1) + m * math.log(per_edge)


def count_lower_bound(n: int, k: int, ell: int, alpha: float) -> float:
    """Log of the guaranteed cycle count at codegree density alpha.

    The sub-exponential slack factor is excluded; `empirical_vs_bound`
    subtracts n·`SLACK_PER_VERTEX` in its place.
    """
    if not (0.5 < alpha <= 1.0):
        raise InvalidInputError(f"alpha must be in (1/2, 1], got {alpha}")
    return _log_guaranteed(n, k, ell, alpha)


def expected_count(n: int, k: int, ell: int, p: float) -> float:
    """Log of the expected number of Hamilton cycles with overlap ell in a
    random hypergraph with edge probability p; -inf when p = 0."""
    m = _formula_shape(n, k, ell)
    check_probability(p)
    if p == 0.0:
        return float("-inf")
    per_edge = p / (math.factorial(ell) * math.factorial(k - 2 * ell))
    log_count = math.lgamma(n) + math.log((k - ell) / 2.0) + m * math.log(per_edge)
    # for ell = 0 and m <= 2 reversing the block order is also a rotation, so
    # the cycles' symmetry group has m elements, not the 2m divided out above
    return log_count + math.log(2.0) if ell == 0 and m <= 2 else log_count


def enumerate_cycles(h: Hypergraph, ell: int) -> set[HamiltonCycle]:
    """All Hamilton cycles with overlap ell, as canonical arrangements.

    Backtracks over vertex placements, placing at each position only vertices
    above the one at position `canonical_above(n, k, ell)[depth]`, so that
    each leaf is a distinct cycle, and testing each length-k segment as soon
    as its last position is filled.  Exact but factorial: n <= 10 enforced.
    """
    n, k = h.n, h.k
    if n > ENUMERATION_MAX_N:
        raise SizeLimitError(
            f"n={n} > {ENUMERATION_MAX_N}: exhaustive enumeration stops at "
            f"n <= {ENUMERATION_MAX_N}; `hampack bound` evaluates the formulas at any n")
    by_depth: list[list[list[int]]] = [[] for _ in range(n)]
    for window in segment_windows(n, k, ell).tolist():
        by_depth[max(window)].append(window)
    above = canonical_above(n, k, ell)
    edges = set(h.edges)

    found: set[HamiltonCycle] = set()
    arr = [-1] * n
    used = [False] * n

    def place(depth: int) -> None:
        if depth == n:
            found.add(HamiltonCycle(k=k, ell=ell, arrangement=tuple(arr)))
            return
        q = above[depth]
        for v in range(arr[q] + 1 if q >= 0 else 0, n):
            if used[v]:
                continue
            arr[depth] = v
            ok = True
            for seg in by_depth[depth]:
                if tuple(sorted([arr[p] for p in seg])) not in edges:
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
    """Distinct segment sets among cycles of one shape (can differ from the
    arrangement count only for ell = 0), read by one getter per window; for
    k = 1 a getter returns the vertex itself, which keeps the count."""
    c = next(iter(cycles), None)
    windows = segment_windows(c.n, c.k, c.ell).tolist() if c is not None else []
    getters = [itemgetter(*window) for window in windows]
    return len({frozenset(get(c.arrangement) for get in getters) for c in cycles})


def empirical_vs_bound(h: Hypergraph, ell: int) -> CountReport:
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
        met = log_exact >= log_bound - h.n * SLACK_PER_VERTEX
    else:
        met = None
    return CountReport(n=h.n, k=h.k, ell=ell,
                       exact_count=exact, edge_set_count=distinct_edge_sets,
                       alpha=alpha, log_lower_bound=log_bound, log_expected=log_exp,
                       slack_per_vertex=SLACK_PER_VERTEX,
                       hypothesis_met=hypothesis, bound_met=met)
