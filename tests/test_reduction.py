import random
from itertools import combinations, permutations

import numpy as np
import pytest

from hampack.bifactor import max_factor, peel_matchings
from hampack.constructions import complete_hypergraph, random_hypergraph
from hampack.errors import InvalidInputError
from hampack.hypercore import Hypergraph
from hampack.reduction import (HamiltonCycle, PartitionScheme, build_aux_graph,
                               canonicalize, cycle_from_json_dict,
                               cycle_to_json_dict, lift_canonical,
                               lift_matching, sample_scheme, segment_windows,
                               verify_cycle)

from helpers import canonicalize_all_candidates, lift_reference


class TestSampleScheme:
    def test_shape_ell1(self):
        s = sample_scheme(complete_hypergraph(8, 3), 1, 1)
        assert len(s.part_a) == 4 and s.m == 4
        assert all(len(f) == 1 for f in s.tuples_a)
        assert all(len(b) == 1 for b in s.blocks_b)

    def test_shape_ell0(self):
        s = sample_scheme(complete_hypergraph(6, 3), 0, 1)
        assert len(s.part_a) == 2 and s.m == 2
        assert all(len(f) == 1 for f in s.tuples_a)
        assert all(len(b) == 2 for b in s.blocks_b)

    def test_divisibility_error(self):
        with pytest.raises(InvalidInputError):
            sample_scheme(complete_hypergraph(7, 3), 1, 1)

    def test_ell_range(self):
        with pytest.raises(InvalidInputError):
            sample_scheme(complete_hypergraph(8, 4), 2, 1)

    def test_deterministic(self):
        h = complete_hypergraph(10, 3)
        assert sample_scheme(h, 1, 5) == sample_scheme(h, 1, 5)
        assert sample_scheme(h, 1, 5) != sample_scheme(h, 1, 6)

    def test_partitions_are_partitions(self):
        for seed in range(10):
            s = sample_scheme(complete_hypergraph(12, 4), 1, seed)
            covered = [v for f in s.tuples_a for v in f]
            assert sorted(covered) == list(s.part_a)
            covered_b = [v for b in s.blocks_b for v in b]
            assert sorted(covered_b) == list(s.part_b)

    @pytest.mark.parametrize("n, k, ell", [(12, 4, 1), (12, 3, 0), (12, 5, 2)])
    def test_derived_fields_are_the_unions(self, n, k, ell):
        for seed in range(5):
            s = sample_scheme(Hypergraph(n, k, []), ell, seed)
            assert s.part_a == tuple(sorted(v for f in s.tuples_a for v in f))
            assert s.part_b == tuple(sorted(v for b in s.blocks_b for v in b))
            assert (s.n, s.m) == (n, n // (k - ell))
            assert PartitionScheme(k, ell, s.tuples_a, s.blocks_b) == s


@pytest.mark.parametrize("k, ell, tuples_a, blocks_b", [
    (3, 1, ((0,), (1,)), ((1,), (2,))),            # vertex 1 in a tuple and a block
    (3, 1, ((0,), (1,)), ((2,), (4,))),            # vertex 3 missing
    (3, 1, ((0, 1), (2,)), ((3,), (4,))),          # a 2-tuple where ell = 1
    (3, 1, ((0,), (1,)), ((2,), (3,), (4,))),      # m + 1 blocks
    (3, 0, ((0, 1), (2, 3)), ((4, 5), (6, 7))),    # ell = 0, k = 3 takes 1-tuples
], ids=["shared", "missing", "tuple-size", "extra-block", "ell0-tuple-size"])
def test_malformed_scheme_rejected(k, ell, tuples_a, blocks_b):
    with pytest.raises(InvalidInputError, match="scheme needs m tuples"):
        PartitionScheme(k, ell, tuples_a, blocks_b)


class TestAuxGraph:
    def test_complete_gives_complete(self):
        h = complete_hypergraph(8, 3)
        aux = build_aux_graph(h, sample_scheme(h, 1, 3))
        assert len(aux.graph.edges) == 16

    def test_empty_gives_empty(self):
        h = Hypergraph(8, 3, [])
        aux = build_aux_graph(h, sample_scheme(h, 1, 3))
        assert not aux.graph.edges

    def test_single_missing_edge(self):
        h = complete_hypergraph(8, 3)
        s = sample_scheme(h, 1, 9)
        removed = tuple(sorted(s.tuples_a[0] + s.tuples_a[1] + s.blocks_b[2]))
        h2 = Hypergraph(8, 3, [e for e in h.edges if e != removed])
        aux = build_aux_graph(h2, s)
        missing = set(build_aux_graph(h, s).graph.edges) - set(aux.graph.edges)
        assert missing == {(0, 2)}


class TestLift:
    def test_lifts_verify_on_complete(self):
        h = complete_hypergraph(8, 3)
        aux = build_aux_graph(h, sample_scheme(h, 1, 2))
        cycle = lift_matching(aux, {0: 2, 1: 0, 2: 3, 3: 1})
        assert verify_cycle(h, cycle)

    def test_injection_m4(self):
        h = complete_hypergraph(8, 3)
        aux = build_aux_graph(h, sample_scheme(h, 1, 4))
        lifted = {canonicalize(lift_matching(aux, dict(enumerate(p))))
                  for p in permutations(range(4))}
        assert len(lifted) == 24

    def test_injection_m3(self):
        h = complete_hypergraph(6, 3)
        aux = build_aux_graph(h, sample_scheme(h, 1, 4))
        lifted = {canonicalize(lift_matching(aux, dict(enumerate(p))))
                  for p in permutations(range(3))}
        assert len(lifted) == 6

    def test_m2_reflection_degeneracy(self):
        # at m = 2 the two matchings are reflections of one another: one cycle
        h = complete_hypergraph(4, 3)
        aux = build_aux_graph(h, sample_scheme(h, 1, 0))
        c1 = canonicalize(lift_matching(aux, {0: 0, 1: 1}))
        c2 = canonicalize(lift_matching(aux, {0: 1, 1: 0}))
        assert c1 == c2
        assert frozenset(c1.segments()) == frozenset(c2.segments())

    def test_rejects_non_perfect_and_non_edges(self):
        h = complete_hypergraph(8, 3)
        aux = build_aux_graph(h, sample_scheme(h, 1, 2))
        with pytest.raises(InvalidInputError):
            lift_matching(aux, {0: 0, 1: 1})
        with pytest.raises(InvalidInputError):
            lift_matching(aux, {0: 0, 1: 0, 2: 1, 3: 2})
        for bad in ({0: 0, 1: 1, 2: 2, 7: 3}, {0: 0, 1: 1.5, 2: 2, 3: 3},
                    {0: 0, 1: 2**64, 2: 2, 3: 3}):
            with pytest.raises(InvalidInputError):
                lift_matching(aux, bad)
        h_sparse = Hypergraph(8, 3, [])
        aux_sparse = build_aux_graph(h_sparse, sample_scheme(h_sparse, 1, 2))
        with pytest.raises(InvalidInputError):
            lift_matching(aux_sparse, {0: 0, 1: 1, 2: 2, 3: 3})

    def test_lift_pm_both_matchings_of_k22(self):
        # for ell = 0 the lifted segments are a perfect matching of H
        h = complete_hypergraph(6, 3)
        aux = build_aux_graph(h, sample_scheme(h, 0, 8))
        pm1 = frozenset(lift_matching(aux, {0: 0, 1: 1}).segments())
        pm2 = frozenset(lift_matching(aux, {0: 1, 1: 0}).segments())
        assert pm1 != pm2
        for pm in (pm1, pm2):
            assert len(pm) == 2
            assert set().union(*pm) == set(range(6))
            assert (h.locate(list(pm)) >= 0).all()


class TestVerify:
    def test_detects_missing_edge(self):
        h = complete_hypergraph(8, 3)
        aux = build_aux_graph(h, sample_scheme(h, 1, 6))
        cycle = lift_matching(aux, {0: 0, 1: 1, 2: 2, 3: 3})
        victim = cycle.segments()[1]
        h2 = Hypergraph(8, 3, [e for e in h.edges if e != tuple(sorted(victim))])
        check = verify_cycle(h2, cycle)
        assert not check.ok
        assert check.failure == "segment-not-an-edge"
        assert check.witness == tuple(sorted(victim))

    def test_detects_repeated_vertex(self):
        h = complete_hypergraph(8, 3)
        bad = HamiltonCycle(k=3, ell=1, arrangement=(0, 1, 2, 3, 4, 5, 6, 0))
        check = verify_cycle(h, bad)
        assert not check.ok and check.failure == "not-a-permutation"
        assert 0 in check.witness

    def test_detects_divisibility(self):
        h = complete_hypergraph(7, 3)
        bad = HamiltonCycle(k=3, ell=1, arrangement=tuple(range(7)))
        assert verify_cycle(h, bad).failure == "length-not-divisible"


class TestCanonicalize:
    def test_idempotent(self):
        h = complete_hypergraph(8, 3)
        aux = build_aux_graph(h, sample_scheme(h, 1, 10))
        c = lift_matching(aux, {0: 1, 1: 3, 2: 0, 3: 2})
        assert canonicalize(canonicalize(c)) == canonicalize(c)

    def test_reflection_invariant(self):
        # reversing the walk keeps block boundaries only after re-aligning by
        # the interior width (raw string reversal changes the edge set)
        c = HamiltonCycle(k=3, ell=1, arrangement=(0, 1, 2, 3, 4, 5, 6, 7))
        rev = tuple(reversed(c.arrangement))
        realigned = rev[1:] + rev[:1]
        reflected = HamiltonCycle(k=3, ell=1, arrangement=realigned)
        assert frozenset(map(frozenset, reflected.segments())) == \
            frozenset(map(frozenset, c.segments()))
        assert canonicalize(c) == canonicalize(reflected)

    def test_reflection_invariant_ell0(self):
        c = HamiltonCycle(k=3, ell=0, arrangement=(0, 1, 2, 3, 4, 5, 6, 7, 8))
        reflected = HamiltonCycle(k=3, ell=0, arrangement=tuple(reversed(c.arrangement)))
        assert canonicalize(c) == canonicalize(reflected)

    def test_rotation_invariant(self):
        arr = (0, 1, 2, 3, 4, 5, 6, 7)
        c = HamiltonCycle(k=3, ell=1, arrangement=arr)
        rotated = HamiltonCycle(k=3, ell=1, arrangement=arr[2:] + arr[:2])
        assert canonicalize(c) == canonicalize(rotated)

    def test_within_block_sort(self):
        c = HamiltonCycle(k=4, ell=1, arrangement=(0, 2, 1, 3, 5, 4, 6, 7, 9, 8, 11, 10))
        canon = canonicalize(c)
        segs_before = {frozenset(s) for s in c.segments()}
        segs_after = {frozenset(s) for s in canon.segments()}
        assert segs_before == segs_after

    def test_rejects_non_permutation(self):
        with pytest.raises(InvalidInputError):
            canonicalize(HamiltonCycle(k=3, ell=1, arrangement=(0, 0, 1, 2)))


def test_windows_need_a_valid_shape():
    with pytest.raises(InvalidInputError, match="need 0 <= ell < k/2"):
        segment_windows(4, 2, 2)
    with pytest.raises(InvalidInputError, match="need 0 <= ell < k/2"):
        HamiltonCycle(k=3, ell=2, arrangement=(0, 1, 2, 3)).segments()


def test_cycle_json_roundtrip():
    c = HamiltonCycle(k=3, ell=1, arrangement=(0, 1, 2, 3, 4, 5))
    assert cycle_from_json_dict(cycle_to_json_dict(c), k=3) == c


def test_all_matchings_of_all_small_schemes_lift_and_verify():
    """Roundtrip over every matching of sampled aux graphs on random inputs."""
    for seed in range(6):
        h = random_hypergraph(6, 3, 0.8, seed)
        aux = build_aux_graph(h, sample_scheme(h, 1, seed))
        m = aux.scheme.m
        for perm in permutations(range(m)):
            if all((i, perm[i]) in aux.graph.edges for i in range(m)):
                cycle = lift_matching(aux, dict(enumerate(perm)))
                assert cycle == lift_reference(aux, perm)
                assert verify_cycle(h, cycle)


# (n, k, ell) for k in 2..5 and every valid ell <= 2, plus the three m = 2 shapes
LIFT_SHAPES = [(10, 2, 0), (9, 3, 0), (10, 3, 1), (12, 4, 0), (12, 4, 1), (15, 5, 0),
               (12, 5, 1), (12, 5, 2), (4, 3, 1), (8, 4, 0), (6, 5, 2)]


def reference_rows(aux, matchings):
    """The canonical arrangements of the rows' lifts, by the plain-Python
    oracles, which share no code with `lift_canonical`."""
    return [canonicalize_all_candidates(lift_reference(aux, row)).arrangement
            for row in matchings.tolist()]


class TestLiftCanonical:
    @pytest.mark.parametrize("n, k, ell", LIFT_SHAPES)
    def test_peeled_rows_match_the_per_cycle_lift(self, n, k, ell):
        rows = 0
        for seed in range(8):
            h = random_hypergraph(n, k, 0.85, seed) if n > 6 else complete_hypergraph(n, k)
            aux = build_aux_graph(h, sample_scheme(h, ell, seed))
            _, factor = max_factor(aux.graph)
            matchings = peel_matchings(factor, aux.graph)
            lifted = lift_canonical(aux, matchings)
            assert lifted.shape == (len(matchings), n) and lifted.dtype == np.int64
            assert [tuple(row) for row in lifted.tolist()] == reference_rows(aux, matchings)
            rows += len(matchings)
        assert rows > 0

    @pytest.mark.parametrize("n, k, ell", [(10, 2, 0), (8, 3, 1), (9, 4, 1), (8, 4, 0),
                                           (9, 5, 2), (4, 3, 1), (6, 5, 2)])
    def test_every_matching_of_a_complete_aux_graph(self, n, k, ell):
        # both walking directions and every start, not only the peel's rows
        for seed in range(3):
            h = complete_hypergraph(n, k)
            aux = build_aux_graph(h, sample_scheme(h, ell, seed))
            m = aux.scheme.m
            matchings = np.array(list(permutations(range(m))), dtype=np.int64)
            assert [tuple(row) for row in lift_canonical(aux, matchings).tolist()] \
                == reference_rows(aux, matchings)

    @pytest.mark.parametrize("n, k, ell", [(8, 3, 1), (9, 3, 0), (9, 4, 1), (9, 5, 2),
                                           (10, 2, 0), (12, 3, 1)])
    def test_a_full_peel_lifts_to_distinct_cycles_when_m_is_at_least_3(self, n, k, ell):
        # why the packer drops duplicate lifts only at m = 2 (next test)
        for seed in range(4):
            h = random_hypergraph(n, k, 0.85, seed) if seed else complete_hypergraph(n, k)
            aux = build_aux_graph(h, sample_scheme(h, ell, seed))
            r_star, factor = max_factor(aux.graph)
            rows = lift_canonical(aux, peel_matchings(factor, aux.graph))
            assert aux.scheme.m >= 3 and len(rows) == r_star > 0
            assert len(np.unique(rows, axis=0)) == len(rows)

    def test_at_m_2_a_matching_and_its_reflection_lift_to_one_cycle(self):
        h = complete_hypergraph(4, 3)
        aux = build_aux_graph(h, sample_scheme(h, 1, 0))
        _, factor = max_factor(aux.graph)
        rows = lift_canonical(aux, peel_matchings(factor, aux.graph))
        assert aux.scheme.m == 2 and len(rows) == 2
        assert len(np.unique(rows, axis=0)) == 1

    def test_no_rows(self):
        h = complete_hypergraph(8, 3)
        aux = build_aux_graph(h, sample_scheme(h, 1, 1))
        assert lift_canonical(aux, np.empty((0, 4), dtype=np.int64)).shape == (0, 8)
        h = complete_hypergraph(9, 3)
        aux = build_aux_graph(h, sample_scheme(h, 0, 1))
        assert lift_canonical(aux, np.empty((0, 3), dtype=np.int64)).shape == (0, 9)

    def test_rejects_rows_that_are_not_perfect_matchings(self):
        h = complete_hypergraph(8, 3)
        aux = build_aux_graph(h, sample_scheme(h, 1, 1))
        for bad in ([[0, 1, 2, 2]], [[0, 1, 2, 4]], [[-1, 0, 1, 2]]):
            with pytest.raises(InvalidInputError, match="not a perfect matching"):
                lift_canonical(aux, np.array(bad, dtype=np.int64))
        h = random_hypergraph(8, 3, 0.5, 2)
        aux = build_aux_graph(h, sample_scheme(h, 1, 2))
        off = next(p for p in permutations(range(4))
                   if any((s, t) not in aux.graph.edges for s, t in enumerate(p)))
        with pytest.raises(InvalidInputError, match="not a perfect matching"):
            lift_canonical(aux, np.array([off], dtype=np.int64))
