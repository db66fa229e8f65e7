"""Generators for test-subject hypergraphs: complete, random, and the
parity-based extremal construction that admits no odd-degree factor.  All
three unrank lexicographic ranks into edge codes with `lex_unrank`."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bifactor import DENSE_MAX_ENTRIES
from .census import perfect_matchings
from .errors import InvalidQueryError, SizeLimitError
from .hypercore import Hypergraph, check_dimensions, lex_unrank, row_codes
from .util import bernoulli_ranks


def _all_rows(n: int, k: int) -> np.ndarray:
    """Every k-subset of 0..n-1 as a C(n, k) x k array of ascending rows in
    lexicographic order; refused before any allocation past 1 GiB of rows."""
    check_dimensions(n, k)
    if math.comb(n, k) * k > DENSE_MAX_ENTRIES:
        raise SizeLimitError(f"C({n}, {k})·{k} > 2^27: the edge rows would exceed 1 GiB")
    return lex_unrank(np.arange(math.comb(n, k)), n, k)


def complete_hypergraph(n: int, k: int) -> Hypergraph:
    """All C(n, k) edges."""
    return Hypergraph._from_codes(n, k, row_codes(_all_rows(n, k), n))


def random_hypergraph(n: int, k: int, p: float, seed: int) -> Hypergraph:
    """Include each k-subset independently with probability p; deterministic per seed.

    The k-subset of lexicographic rank i is kept iff the i-th `random()` of
    `random.Random(seed)` is below p: the ranks are `util.bernoulli_ranks(seed,
    C(n, k), p)`, and only they are turned into edge codes, so memory stays
    O(|E|) plus one chunk of draws.
    """
    check_dimensions(n, k)
    ranks = bernoulli_ranks(seed, math.comb(n, k), p)
    return Hypergraph._from_codes(n, k, row_codes(lex_unrank(ranks, n, k), n))


@dataclass(frozen=True)
class ParityConstruction:
    """Hypergraph of all k-sets meeting a fixed odd-size part in an even count."""
    hypergraph: Hypergraph
    part_a: tuple[int, ...]


@dataclass(frozen=True)
class ParityCertificate:
    """Record of the parity obstruction to an r-factor for odd r.

    Any candidate r-factor would have an even sum of |part_a ∩ f| over its
    edges (every term is even), yet that sum equals the degree sum r·|part_a|,
    which is odd — the two parities cannot match.
    """
    r: int
    part_a_size: int
    part_a_size_odd: bool
    all_intersections_even: bool
    degree_sum_parity: int      # r * |part_a| mod 2
    edge_sum_parity: int        # parity forced on sum of |A ∩ f| over any factor
    no_factor: bool
    exhaustive_pm_count: Optional[int]  # r=1, n <= 12 cross-check; None otherwise


def parity_hypergraph(n: int, k: int) -> ParityConstruction:
    """Take part A = {0..a-1} with a the smallest odd integer >= n/2 - 1; the
    edge set is every k-subset with an even intersection with A."""
    rows = _all_rows(n, k)
    a = ((n - 1) // 2) | 1  # (n - 1) // 2 = ceil(n/2 - 1); | 1 rounds up to odd
    rows = rows[(rows < a).sum(axis=1) % 2 == 0]
    return ParityConstruction(Hypergraph._from_codes(n, k, row_codes(rows, n)), tuple(range(a)))


def verify_no_odd_factor(construction: ParityConstruction, r: int) -> ParityCertificate:
    """Certify that the parity construction has no r-factor for odd r.

    For r = 1 and n <= 12 the certificate is cross-checked by an exact
    perfect-matching count, `census.perfect_matchings`, which must be 0.
    """
    if r % 2 == 0:
        raise InvalidQueryError(f"r must be odd, got {r}")
    h = construction.hypergraph
    if h.n % h.k != 0:
        raise InvalidQueryError(
            f"k={h.k} does not divide n={h.n}; factors are impossible for trivial reasons")
    a = set(construction.part_a)
    all_even = bool((np.isin(h.rows(), construction.part_a).sum(axis=1) % 2 == 0).all())
    size_odd = len(a) % 2 == 1
    pm_count = None
    if r == 1 and h.n <= 12:
        pm_count = perfect_matchings(h)
    return ParityCertificate(
        r=r,
        part_a_size=len(a),
        part_a_size_odd=size_odd,
        all_intersections_even=all_even,
        degree_sum_parity=(r * len(a)) % 2,
        edge_sum_parity=0 if all_even else 1,
        no_factor=size_odd and all_even,
        exhaustive_pm_count=pm_count,
    )
