"""Orbit-invariance properties of the canonical cycle form, the overlap
structure that `verify_cycle` relies on, and exact-count cross-checks at
overlap/uniformity combinations with non-singleton blocks."""
import math
import random

import numpy as np
import pytest

from hampack.census import cycle_counts, expected_count
from hampack.constructions import complete_hypergraph
from hampack.hypercore import Hypergraph
from hampack.reduction import HamiltonCycle, canonical_rows, canonicalize, verify_cycle

from helpers import canonical_above, canonicalize_all_candidates


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


def test_canonical_form_equals_the_all_candidates_minimum():
    rng = random.Random(2024)
    checked = 0
    for k in range(2, 8):
        for ell in range(0, (k + 1) // 2):
            for m in range(1, 9):
                n = m * (k - ell)
                cycles = []
                for _ in range(20):
                    arr = list(range(n))
                    rng.shuffle(arr)
                    cycles.append(HamiltonCycle(k=k, ell=ell, arrangement=tuple(arr)))
                expected = [canonicalize_all_candidates(c) for c in cycles]
                assert [canonicalize(c) for c in cycles] == expected
                batch = canonical_rows(np.array([c.arrangement for c in cycles]), k, ell)
                assert [tuple(row) for row in batch.tolist()] == [c.arrangement for c in expected]
                assert canonical_rows(np.empty((0, n), dtype=np.int64), k, ell).shape == (0, n)
                checked += len(cycles)
    assert checked == 15 * 8 * 20


def test_consecutive_segments_share_exactly_their_junctions():
    # For m >= 2, segment i ends with the ell positions that start segment
    # i + 1; for m = 2 the two segments also meet at segment i's own start.
    rng = random.Random(77)
    checked = 0
    for k in range(2, 8):
        for ell in range(0, (k + 1) // 2):
            for m in range(1, 9):
                n = m * (k - ell)
                step = k - ell
                for _ in range(10):
                    arr = list(range(n))
                    rng.shuffle(arr)
                    cycle = HamiltonCycle(k=k, ell=ell, arrangement=tuple(arr))
                    segs = cycle.segments()
                    if m >= 2:
                        for i in range(m):
                            junction = {arr[((i + 1) * step + j) % n] for j in range(ell)}
                            if m == 2:
                                junction |= {arr[i * step + j] for j in range(ell)}
                            assert set(segs[i]) & set(segs[(i + 1) % m]) == junction
                    if m == 1 and ell > 0:
                        continue    # n < k: the one window repeats vertices
                    h = Hypergraph(n, k, [sorted(seg) for seg in segs])
                    assert verify_cycle(h, cycle).ok
                    checked += 1
    assert checked == (15 * 8 - 9) * 10


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


@pytest.mark.parametrize("n,k,ell", [
    (8, 3, 1), (9, 4, 1), (9, 5, 2), (12, 4, 1), (6, 4, 1), (4, 3, 1), (2, 3, 1),
    (9, 3, 0), (8, 2, 0), (8, 4, 0), (6, 3, 0), (5, 1, 0), (4, 4, 0),
])
def test_canonical_above_holds_exactly_on_representatives(n, k, ell):
    rng = np.random.default_rng(n * 100 + k * 10 + ell)
    rows = np.array([rng.permutation(n) for _ in range(400)], dtype=np.int64)
    rows = np.concatenate((rows, canonical_rows(rows, k, ell)))
    above = canonical_above(n, k, ell)
    is_rep = (canonical_rows(rows, k, ell) == rows).all(axis=1)
    meets = np.ones(len(rows), dtype=bool)
    for d, q in enumerate(above):
        if q >= 0:
            meets &= rows[:, d] > rows[:, q]
    assert is_rep[400:].all()
    assert (is_rep == meets).all()


@pytest.mark.parametrize("n,k,ell,expected", [
    (6, 4, 1, 45),    # junction size 1, interior size 2, m = 2
    (6, 5, 2, 45),    # junction size 2, interior size 1, m = 2
    # ell = 0 with m <= 2: reversing the block order is a rotation
    (3, 3, 0, 1),
    (4, 2, 0, 3),
    (6, 3, 0, 10),
    (8, 4, 0, 35),
    (10, 5, 0, 126),
    # m = 3 with two-vertex junctions; m = 5 matchings of K_10
    (9, 5, 2, 7560),
    (10, 2, 0, 11340),
])
def test_enumeration_matches_formula_other_shapes(n, k, ell, expected):
    got = cycle_counts(complete_hypergraph(n, k), ell)[0]
    assert got == expected
    assert got == pytest.approx(math.exp(expected_count(n, k, ell, 1.0)))


def test_enumeration_matches_formula_k4_m3():
    # m = 3 with two-vertex interior blocks: 9!/(2m * (1! 2!)^3) = 7560
    got = cycle_counts(complete_hypergraph(9, 4), 1)[0]
    assert got == 7560
    assert got == pytest.approx(math.exp(expected_count(9, 4, 1, 1.0)))
