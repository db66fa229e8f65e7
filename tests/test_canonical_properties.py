"""Orbit-invariance properties of the canonical cycle form, and enumeration
cross-checks at overlap/uniformity combinations with non-singleton blocks."""
import math
import random

import pytest

from hampack.census import enumerate_cycles, expected_count
from hampack.constructions import complete_hypergraph
from hampack.reduction import HamiltonCycle, canonicalize


def random_orbit_image(cycle: HamiltonCycle, rng: random.Random) -> HamiltonCycle:
    """A uniformly scrambled representative of the same cycle: random rotation,
    random direction, random order inside every block."""
    k, ell = cycle.k, cycle.ell
    arr = list(cycle.arrangement)
    n = len(arr)
    step = k - ell
    m = n // step
    out: list[int] = []
    if ell >= 1:
        blocks = []
        for i in range(m):
            blocks.append(arr[i * step:i * step + ell])
            blocks.append(arr[i * step + ell:(i + 1) * step])
        pos = 2 * rng.randrange(m)
        direction = rng.choice((1, -1))
        for _ in range(2 * m):
            b = list(blocks[pos % (2 * m)])
            rng.shuffle(b)
            out.extend(b)
            pos += direction
    else:
        blocks = [arr[i * step:(i + 1) * step] for i in range(m)]
        start = rng.randrange(m)
        direction = rng.choice((1, -1))
        for j in range(m):
            b = list(blocks[(start + direction * j) % m])
            rng.shuffle(b)
            out.extend(b)
    return HamiltonCycle(k=k, ell=ell, arrangement=tuple(out))


def canonicalize_all_candidates(cycle: HamiltonCycle) -> HamiltonCycle:
    """Oracle: the lexicographic minimum over all 2m starting points and
    directions of the block walk, O(n·m)."""
    k, ell = cycle.k, cycle.ell
    arr = cycle.arrangement
    step = k - ell
    m = len(arr) // step
    if ell >= 1:
        blocks = []
        for i in range(m):
            blocks.append(tuple(sorted(arr[i * step:i * step + ell])))
            blocks.append(tuple(sorted(arr[i * step + ell:(i + 1) * step])))
        starts = [2 * i for i in range(m)]
    else:
        blocks = [tuple(sorted(arr[i * step:(i + 1) * step])) for i in range(m)]
        starts = list(range(m))
    total = len(blocks)
    best = min(tuple(v for j in range(total) for v in blocks[(start + d * j) % total])
               for start in starts for d in (1, -1))
    return HamiltonCycle(k=k, ell=ell, arrangement=best)


def test_canonical_form_equals_the_all_candidates_minimum():
    rng = random.Random(2024)
    checked = 0
    for k in range(2, 8):
        for ell in range(0, (k + 1) // 2):
            for m in range(1, 9):
                n = m * (k - ell)
                for _ in range(20):
                    arr = list(range(n))
                    rng.shuffle(arr)
                    cycle = HamiltonCycle(k=k, ell=ell, arrangement=tuple(arr))
                    assert canonicalize(cycle) == canonicalize_all_candidates(cycle)
                    checked += 1
    assert checked == 15 * 8 * 20


@pytest.mark.parametrize("n,k,ell", [(8, 3, 1), (9, 4, 1), (9, 5, 2), (12, 4, 1), (9, 3, 0), (8, 2, 0)])
def test_canonical_form_constant_on_orbit(n, k, ell):
    rng = random.Random(1234)
    for _ in range(40):
        arr = list(range(n))
        rng.shuffle(arr)
        cycle = HamiltonCycle(k=k, ell=ell, arrangement=tuple(arr))
        canon = canonicalize(cycle)
        # canonicalization never changes the cycle itself
        assert {frozenset(s) for s in canon.segments()} == \
            {frozenset(s) for s in cycle.segments()}
        for _ in range(6):
            image = random_orbit_image(cycle, rng)
            assert {frozenset(s) for s in image.segments()} == \
                {frozenset(s) for s in cycle.segments()}
            assert canonicalize(image) == canon


@pytest.mark.parametrize("n,k,ell,expected", [
    (6, 4, 1, 45),    # junction size 1, interior size 2, m = 2
    (6, 5, 2, 45),    # junction size 2, interior size 1, m = 2
])
def test_enumeration_matches_formula_other_shapes(n, k, ell, expected):
    got = len(enumerate_cycles(complete_hypergraph(n, k), ell))
    assert got == expected
    assert got == pytest.approx(math.exp(expected_count(n, k, ell, 1.0)))


def test_enumeration_matches_formula_k4_m3():
    # m = 3 with two-vertex interior blocks: 9!/(2m * (1! 2!)^3) = 7560
    got = len(enumerate_cycles(complete_hypergraph(9, 4), 1))
    assert got == 7560
    assert got == pytest.approx(math.exp(expected_count(9, 4, 1, 1.0)))
