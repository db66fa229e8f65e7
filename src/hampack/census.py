"""Exact Hamilton cycle counts by a subset DP, and the closed-form counting
bounds, evaluated in natural-log space.

Exact counts are big integers from dynamic programming over sets of used
vertices, with vertex sets as bitmasks; formula values are floats computed
via log-gamma.  The two never mix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Optional

from .errors import InvalidInputError, SizeLimitError
from .hypercore import Hypergraph, degree_report
from .reduction import check_shape
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


def perfect_matchings(h: Hypergraph) -> int:
    """The number of perfect matchings of h, by exact cover of the lowest
    uncovered vertex, memoised on the set of covered vertices."""
    full = (1 << h.n) - 1
    by_low: dict[int, list[int]] = {}   # lowest vertex -> edges, as bitmasks
    for e in h.edges:
        mask = sum(1 << v for v in e)
        by_low.setdefault(mask & -mask, []).append(mask)

    @cache
    def cover(used: int) -> int:
        if used == full:
            return 1
        return sum(cover(used | e) for e in by_low.get(~used & (used + 1), ()) if not e & used)

    return cover(0)


def cycle_counts(h: Hypergraph, ell: int) -> tuple[int, int]:
    """(Hamilton cycles with overlap ell, distinct edge sets among them); n <= 10.

    For ell >= 1 a subset DP over (used vertices, current junction) counts the
    closed block sequences J_0 I_0 ... J_{m-1} I_{m-1} with every J_i ∪ I_i ∪
    J_{i+1} an edge and the least junction vertex in J_0: two per cycle, one
    per direction.  An edge set is one cycle for m >= 3 and C(2ell, ell)/2 for
    m = 2.  For ell = 0 a perfect matching is (m - 1)!/2 cycles, one for m <= 2.
    """
    n, k = h.n, h.k
    if n > ENUMERATION_MAX_N:
        raise SizeLimitError(
            f"n={n} > {ENUMERATION_MAX_N}: the exact count's subset DP is capped at "
            f"n <= {ENUMERATION_MAX_N}; `hampack bound` evaluates the formulas at any n")
    m = check_shape(n, k, ell)
    if ell == 0:
        matchings = perfect_matchings(h)
        return matchings * (math.factorial(m - 1) // 2 if m >= 3 else 1), matchings
    full, interior = (1 << n) - 1, k - 2 * ell
    edges: set[int] = set()
    onward: dict[int, list[tuple[int, int]]] = {}   # junction -> [(rest of edge, next junction)]
    for e in h.edges:
        bits = [1 << v for v in e]
        edges.add(sum(bits))
        for junction in map(sum, combinations(bits, ell)):
            rest = [b for b in bits if not b & junction]
            onward.setdefault(junction, []).extend(
                (sum(rest), after) for after in map(sum, combinations(rest, ell)))

    @cache
    def walk(used: int, junction: int, first: int) -> int:
        if used.bit_count() == n - interior:   # the last interior is what is left
            return int((junction | (full ^ used) | first) in edges)
        # every later junction starts above the least vertex of the first
        return sum(walk(used | rest, after, first) for rest, after in onward[junction]
                   if not rest & used and after & -after > first & -first)

    cycles = sum(walk(first, first, first) for first in onward) // 2
    return cycles, cycles if m >= 3 else cycles // (math.comb(2 * ell, ell) // 2)


def empirical_vs_bound(h: Hypergraph, ell: int) -> CountReport:
    """Exact count against both formulas evaluated at the measured codegree density."""
    exact, distinct_edge_sets = cycle_counts(h, ell)
    if h.k >= 2:
        alpha = degree_report(h, h.k - 1).min_degree / h.n
    else:
        alpha = h.num_edges() / h.n
    log_bound = _log_guaranteed(h.n, h.k, ell, alpha)
    log_exp = expected_count(h.n, h.k, ell, alpha)
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
