import dataclasses
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chisquare

from hampack import bifactor, packer
from hampack.bifactor import complete_bipartite
from hampack.constructions import complete_hypergraph, random_hypergraph
from hampack.errors import InvalidInputError, InvariantViolation
from hampack.hypercore import Hypergraph, degree_report
from hampack.packer import (assign_edges, default_num_partitions, pack_min_degree,
                            pack_near_regular)
from hampack.reduction import build_aux_graph, sample_scheme, verify_cycle
from hampack.util import derive_seed

from helpers import (assign_edges_reference, aux_graphs, candidate_partitions,
                     edge_position, one_uncovered_pair, optimal_packing,
                     scheme_labels)


def scheme_for(h, ell, seed):
    return sample_scheme(h, ell, seed)


def assigned_psi(h, s, edge):
    """The candidate count `assign_edges` gives `edge` under the one scheme `s`."""
    return assign_edges(h, aux_graphs(h, [s]), 0).psi[edge_position(h, edge)]


class TestCandidates:
    def test_junction_block_edge_is_candidate(self):
        h = complete_hypergraph(12, 3)
        s = scheme_for(h, 1, 3)
        edge = tuple(sorted(s.tuples_a[0] + s.tuples_a[1] + s.blocks_b[2]))
        assert candidate_partitions(edge, [s]) == [0]
        assert assigned_psi(h, s, edge) == 1

    def test_non_consecutive_junction_excluded(self):
        h = complete_hypergraph(12, 3)
        s = scheme_for(h, 1, 3)  # m = 6
        edge = tuple(sorted(s.tuples_a[0] + s.tuples_a[2] + s.blocks_b[0]))
        assert candidate_partitions(edge, [s]) == []
        assert assigned_psi(h, s, edge) == 0

    def test_edge_missing_part_a_excluded(self):
        h = complete_hypergraph(12, 3)
        s = scheme_for(h, 1, 3)
        edge = tuple(sorted(s.blocks_b[0] + s.blocks_b[1] + s.blocks_b[2]))
        assert candidate_partitions(edge, [s]) == []
        assert assigned_psi(h, s, edge) == 0

    def test_block_straddle_excluded(self):
        h = complete_hypergraph(12, 3)
        s = scheme_for(h, 0, 3)  # m = 4: 1-tuples in A, 2-blocks in B
        edge = tuple(sorted(s.tuples_a[0] + (s.blocks_b[0][0], s.blocks_b[1][0])))
        assert candidate_partitions(edge, [s]) == []
        assert assigned_psi(h, s, edge) == 0

    def test_ell0_candidate(self):
        h = complete_hypergraph(12, 3)
        s = scheme_for(h, 0, 3)
        edge = tuple(sorted(s.tuples_a[1] + s.blocks_b[2]))
        assert candidate_partitions(edge, [s]) == [0]
        assert assigned_psi(h, s, edge) == 1


class TestAssign:
    def test_psi1_always_assigned(self):
        h = complete_hypergraph(12, 3)
        s = scheme_for(h, 1, 5)
        a = assign_edges(h, aux_graphs(h, [s]), seed=0)
        assert len(a.psi) == len(a.choice) == h.num_edges()
        for pos, psi in enumerate(a.psi):
            if psi >= 1:
                assert a.choice[pos] >= 0
            else:
                assert a.choice[pos] == -1

    def test_conservation(self):
        h = random_hypergraph(12, 3, 0.7, 9)
        schemes = [scheme_for(h, 1, s) for s in range(3)]
        a = assign_edges(h, aux_graphs(h, schemes), seed=1)
        assert sum(a.assigned_counts(len(schemes))) + np.count_nonzero(a.choice == -1) == h.num_edges()

    def test_psi_sum_equals_total_aux_edges(self):
        # each aux edge of each scheme names exactly one hypergraph edge (m >= 3)
        from hampack.reduction import build_aux_graph
        h = random_hypergraph(12, 3, 0.8, 4)
        schemes = [scheme_for(h, 1, s) for s in range(4)]
        a = assign_edges(h, aux_graphs(h, schemes), seed=2)
        assert a.psi.sum() == sum(
            len(build_aux_graph(h, s).graph.edges) for s in schemes)

    def test_complete_psi_sum_is_r_m_squared(self):
        h = complete_hypergraph(12, 3)
        schemes = [scheme_for(h, 1, s) for s in range(3)]
        a = assign_edges(h, aux_graphs(h, schemes), seed=2)
        assert a.psi.sum() == 3 * 6 * 6

    def test_uniform_choice_frequency(self):
        # two identical schemes give every realized edge psi = 2; each gets
        # picked roughly half the time across master seeds
        h = complete_hypergraph(12, 3)
        s = scheme_for(h, 1, 5)
        edge = tuple(sorted(s.tuples_a[0] + s.tuples_a[1] + s.blocks_b[0]))
        pos = edge_position(h, edge)
        picks = Counter()
        for seed in range(200):
            a = assign_edges(h, aux_graphs(h, [s, s]), seed=seed)
            assert a.psi[pos] == 2
            picks[int(a.choice[pos])] += 1
        assert abs(picks[0] / 200 - 0.5) <= 0.1

    def test_deterministic(self):
        h = random_hypergraph(12, 3, 0.8, 0)
        schemes = [scheme_for(h, 1, s) for s in range(2)]
        a, b = (assign_edges(h, aux_graphs(h, schemes), 7) for _ in range(2))
        assert np.array_equal(a.psi, b.psi) and np.array_equal(a.choice, b.choice)


def oracle_psi(edge, schemes):
    """Number of schemes with some label i and block j whose union is `edge`."""
    return sum(1 for s in schemes
               if any(tuple(sorted(lab + blk)) == edge
                      for lab in scheme_labels(s) for blk in s.blocks_b))


ORACLE_CASES = [
    pytest.param(complete_hypergraph(12, 3), 0, id="ell0"),
    pytest.param(complete_hypergraph(4, 3), 1, id="ell1-m2"),
    pytest.param(random_hypergraph(12, 3, 0.8, 4), 1, id="ell1-m6"),
    pytest.param(complete_hypergraph(6, 5), 2, id="ell2-m2"),
]


class TestAssignOracle:
    @pytest.mark.parametrize("h,ell", ORACLE_CASES)
    def test_psi_matches_brute_force(self, h, ell):
        schemes = [scheme_for(h, ell, s) for s in range(4)]
        a = assign_edges(h, aux_graphs(h, schemes), seed=3)
        assert len(a.psi) == h.num_edges()
        for pos, e in enumerate(h.edges):
            assert a.psi[pos] == oracle_psi(e, schemes)

    @pytest.mark.parametrize("h,ell", ORACLE_CASES)
    def test_sub_aux_edges_are_the_chosen_aux_edges(self, h, ell):
        # rebuild the pipeline's schemes and assignment from its seed labels
        seed = 11
        res = pack_min_degree(h, ell, num_partitions=4, seed=seed)
        schemes = [sample_scheme(h, ell, derive_seed(seed, f"scheme:{p.index}:{p.retries}"))
                   for p in res.per_partition]
        a = assign_edges(h, aux_graphs(h, schemes), derive_seed(seed, "assign"))
        for i, (scheme, stats) in enumerate(zip(schemes, res.per_partition)):
            labels = scheme_labels(scheme)
            unions = [lab + blk for lab in labels for blk in scheme.blocks_b]
            pos = h.locate(unions)
            chosen = [p for p in pos.tolist() if p >= 0 and a.choice[p] == i]
            assert stats.sub_aux_edges == len(chosen)
            assert stats.assigned_edges == a.assigned_counts(len(schemes))[i] \
                == np.count_nonzero(a.choice == i)


REFERENCE_CASES = [
    pytest.param(random_hypergraph(12, 3, 0.7, 1), 1, 5, id="n12-k3-ell1"),
    pytest.param(random_hypergraph(15, 4, 0.5, 5), 1, 4, id="n15-k4-ell1"),
    pytest.param(random_hypergraph(12, 3, 0.8, 2), 0, 4, id="n12-k3-ell0"),
    pytest.param(random_hypergraph(8, 4, 0.5, 6), 0, 3, id="n8-k4-ell0-m2"),
    pytest.param(random_hypergraph(9, 5, 0.7, 4), 2, 4, id="n9-k5-ell2"),
    pytest.param(complete_hypergraph(6, 5), 2, 3, id="n6-k5-ell2-m2"),
    # psi reaches 13, past the other cases' 5
    pytest.param(complete_hypergraph(8, 3), 1, 24, id="n8-k3-ell1-psi13"),
    pytest.param(Hypergraph(12, 3, []), 1, 2, id="empty"),
]


class TestAssignMatchesReference:
    @pytest.mark.parametrize("h,ell,count", REFERENCE_CASES)
    def test_arrays_equal_the_tuple_keyed_walk(self, h, ell, count):
        for seed in (0, 7):
            schemes = [scheme_for(h, ell, seed * 100 + s) for s in range(count)]
            auxes = aux_graphs(h, schemes)
            a = assign_edges(h, auxes, seed)
            psi, choice, per_scheme, unassigned = assign_edges_reference(h, auxes, seed)
            assert a.psi.tolist() == [psi[e] for e in h.edges]
            assert a.choice.tolist() == [-1 if choice[e] is None else choice[e]
                                         for e in h.edges]
            for i in range(count):
                assert [h.edges[p] for p in np.flatnonzero(a.choice == i)] == per_scheme[i]
            assert [h.edges[p] for p in np.flatnonzero(a.choice == -1)] == unassigned
            assert a.assigned_counts(count) == [len(x) for x in per_scheme]

    @pytest.mark.parametrize("h,ell,count", REFERENCE_CASES)
    def test_psi_and_assigned_edges_do_not_depend_on_the_seed(self, h, ell, count):
        auxes = aux_graphs(h, [scheme_for(h, ell, s) for s in range(count)])
        first = assign_edges(h, auxes, 0)
        for seed in (1, 7, 2 ** 64 - 1):
            a = assign_edges(h, auxes, seed)
            assert np.array_equal(a.psi, first.psi)
            assert np.array_equal(a.choice >= 0, first.choice >= 0)

    def test_each_of_13_candidates_is_picked_uniformly(self):
        """Chi-squared over 2600 seeds: the rank of the picked scheme among
        the edge's 13 candidates is uniform."""
        h = complete_hypergraph(8, 3)
        auxes = aux_graphs(h, [scheme_for(h, 1, s) for s in range(24)])
        realizes = np.zeros((len(auxes), h.num_edges()), dtype=np.int64)
        for i, aux in enumerate(auxes):
            realizes[i, aux.edge_pos] = 1
        pos = int(np.flatnonzero(realizes.sum(axis=0) == 13)[0])
        rank = np.cumsum(realizes[:, pos]) - 1
        picks = np.bincount([rank[assign_edges(h, auxes, seed).choice[pos]]
                             for seed in range(2600)], minlength=13)
        assert len(picks) == 13
        assert chisquare(picks).pvalue > 1e-3, picks.tolist()


def reference_psi_histogram(h, ell, seed, res):
    """Counts of the reference walk's psi over the pipeline's own aux graphs,
    rebuilt from its seed labels."""
    schemes = [sample_scheme(h, ell, derive_seed(seed, f"scheme:{p.index}:{p.retries}"))
               for p in res.per_partition]
    psi, _, _, _ = assign_edges_reference(h, aux_graphs(h, schemes),
                                          derive_seed(seed, "assign"))
    return dict(Counter(psi.values()))


class TestPsiHistogram:
    def test_no_partitions(self):
        h = complete_hypergraph(12, 3)
        res = pack_min_degree(h, 1, num_partitions=0, seed=0)
        assert res.psi_histogram == {0: h.num_edges()} == {0: 220}

    def test_min_degree_matches_reference(self):
        h = random_hypergraph(24, 3, 0.9, 101)
        res = pack_min_degree(h, 1, num_partitions=4, seed=3)
        assert res.psi_histogram == reference_psi_histogram(h, 1, 3, res)
        assert sum(res.psi_histogram.values()) == h.num_edges()
        assert len(res.psi_histogram) > 1

    def test_near_regular_matches_reference(self):
        h = random_hypergraph(24, 3, 0.85, 77)
        res = pack_near_regular(h, ell=1, delta_target=0.5, epsilon=0.25,
                                seed=5, num_partitions=4)
        assert res.psi_histogram == reference_psi_histogram(h, 1, 5, res)
        assert sum(res.psi_histogram.values()) == h.num_edges()
        assert len(res.psi_histogram) > 1


class TestPackMinDegree:
    def test_complete_k12(self):
        h = complete_hypergraph(12, 3)
        res = pack_min_degree(h, 1, num_partitions=2, seed=5)
        assert res.cycles
        for c in res.cycles:
            assert verify_cycle(h, c)
        assert not res.warnings

    def test_empty_hypergraph(self):
        h = Hypergraph(12, 3, [])
        res = pack_min_degree(h, 1, num_partitions=2, seed=1)
        assert not res.cycles and res.coverage_ratio == 0.0
        assert res.warnings  # degree hypothesis unmet

    def test_leaves_the_edge_tuples_unbuilt(self):
        # the pipeline runs on the code array; the tuple view stays lazy
        h = random_hypergraph(24, 3, 0.9, 101)
        res = pack_min_degree(h, 1, num_partitions=4, seed=3)
        assert res.cycles and h._edges is None

    def test_one_uncovered_pair_measures_alpha_zero(self):
        h = one_uncovered_pair()
        res = pack_min_degree(h, 1, num_partitions=2, seed=1)
        assert res.warnings[0].startswith("degree hypothesis unmet: measured alpha=0.0000,")

    def test_invariants_over_seeds(self):
        h = random_hypergraph(24, 3, 0.9, 101)
        for seed in (3, 11):
            res = pack_min_degree(h, 1, num_partitions=4, seed=seed)
            used = set()
            for c in res.cycles:
                assert verify_cycle(h, c)
                for seg in c.segments():
                    key = tuple(sorted(seg))
                    assert key not in used
                    used.add(key)
            assert len(used) == res.covered_edges
            assigned = sum(s.assigned_edges for s in res.per_partition)
            assert assigned + res.unassigned == h.num_edges()

    def test_deterministic(self):
        h = random_hypergraph(24, 3, 0.9, 77)
        assert (pack_min_degree(h, 1, num_partitions=3, seed=42)
                == pack_min_degree(h, 1, num_partitions=3, seed=42))

    def test_divisibility_rejected(self):
        with pytest.raises(InvalidInputError):
            pack_min_degree(complete_hypergraph(13, 3), 1, seed=0)

    def test_ell0_pipeline(self):
        h = complete_hypergraph(12, 3)
        res = pack_min_degree(h, 0, num_partitions=2, seed=9)
        for c in res.cycles:
            assert c.ell == 0
            assert verify_cycle(h, c)

    def test_default_partition_count_clamped(self):
        h = random_hypergraph(24, 3, 0.9, 101)
        r = default_num_partitions(h, 1)
        assert 1 <= r <= h.num_edges() * 2 // 24

    @pytest.mark.parametrize("n,ell,optimum", [(8, 1, 11), (9, 0, 22)])
    def test_at_most_the_exact_optimum(self, n, ell, optimum):
        # the exact packing number grades the pipeline; the gap is printed
        # (run with -s): at seed 0 the best of these partition counts packs
        # 5 of 11 and 7 of 22
        h = random_hypergraph(n, 3, 0.8, 1)
        assert optimal_packing(h, ell) == optimum <= h.num_edges() // (n // (3 - ell))
        counts = {r: len(pack_min_degree(h, ell, num_partitions=r, seed=0).cycles)
                  for r in (1, 2, 3, 4, 8)}
        assert max(counts.values()) <= optimum
        print(f"\npack_min_degree on random_hypergraph({n}, 3, 0.8, 1), ell={ell}: "
              f"cycles by partition count {counts}, exact optimum {optimum}, "
              f"best gap {optimum - max(counts.values())}")


class TestPackNearRegular:
    @pytest.mark.parametrize("n,k,ell,expected", [
        (10, 2, 0, 4),    # |E|·((k-ell)/n)^2 / q rounds to 4, below the clamp of 9
        (12, 3, 1, 36),   # the formula gives 48; the clamp |E|·(k-ell)/n = 36 wins
    ])
    def test_default_partition_count(self, n, k, ell, expected):
        res = pack_near_regular(complete_hypergraph(n, k), ell=ell, delta_target=0.5,
                                epsilon=0.05, seed=3)
        assert res.partitions_used == expected == len(res.per_partition)

    def test_parameters_after_ell_are_keyword_only(self):
        # both pipelines take one call form: (h, ell, ...) with keyword parameters
        h = complete_hypergraph(12, 3)
        with pytest.raises(TypeError, match="positional"):
            pack_near_regular(h, 1, 0.5, 0.05, 3)
        with pytest.raises(TypeError, match="positional"):
            pack_min_degree(h, 1, 2)

    def test_complete_runs(self):
        h = complete_hypergraph(12, 3)
        res = pack_near_regular(h, ell=1, delta_target=0.5, epsilon=0.05,
                                seed=2, num_partitions=2)
        assert res.coverage_ratio > 0
        assert res.uncovered_budget == pytest.approx(0.5 * 220)
        assert res.goal_met is not None

    def test_wide_spread_rejected(self):
        # removing every edge through one pair drops its codegree to zero
        h = complete_hypergraph(12, 3)
        edges = [e for e in h.edges if not {0, 1} <= set(e)]
        lopsided = Hypergraph(12, 3, edges)
        with pytest.raises(InvalidInputError, match="spread"):
            pack_near_regular(lopsided, ell=1, delta_target=0.5, epsilon=0.05, seed=1)

    def test_epsilon_at_the_measured_spread_is_accepted(self):
        # codegrees 1..7 on n = 9: the spread 6 is exactly 2·(1/3)·9, but the
        # float form (7/9 - 1/9)·9 = 6.000000000000001 > 6 refused ε = 1/3
        h = random_hypergraph(9, 3, 0.5, 0)
        codegrees = degree_report(h, 2)
        assert (codegrees.min_degree, codegrees.max_degree) == (1, 7)
        assert (7 / 9 - 1 / 9) * 9 > 2.0 * (1 / 3) * 9
        res = pack_near_regular(h, ell=0, delta_target=0.5, epsilon=1 / 3, seed=1,
                                num_partitions=2)
        assert res.partitions_used == 2
        with pytest.raises(InvalidInputError, match="spread"):
            pack_near_regular(h, ell=0, delta_target=0.5, epsilon=np.nextafter(1 / 3, 0),
                              seed=1, num_partitions=2)

    def test_invariants_on_random_runs(self):
        h = random_hypergraph(24, 3, 0.85, 77)
        for seed in (1, 9):
            res = pack_near_regular(h, ell=1, delta_target=0.5, epsilon=0.25,
                                    seed=seed, num_partitions=4)
            assert res.coverage_ratio > 0
            used = set()
            for c in res.cycles:
                assert verify_cycle(h, c)
                for seg in c.segments():
                    key = tuple(sorted(seg))
                    assert key not in used
                    used.add(key)
            assert sum(s.assigned_edges for s in res.per_partition) \
                + res.unassigned == h.num_edges()


class TestResampleLimit:
    """A scheme that fails its pipeline's acceptance test is resampled
    `RESAMPLE_LIMIT` times and then kept; the run still packs and says so."""

    def test_exhausted_limit_warns_once_and_keeps_the_last_scheme(self):
        empty, k12 = Hypergraph(12, 3, []), complete_hypergraph(12, 3)
        runs = [
            # no aux edges at all: every aux min degree is 0
            (empty, pack_min_degree(empty, 1, num_partitions=2, seed=1)),
            # every aux graph is K_{6,6}: degree 6 = m, above alpha·m = 5 at epsilon 0
            (k12, pack_near_regular(k12, 1, delta_target=0.5, epsilon=0.0, seed=1,
                                    num_partitions=2)),
        ]
        for h, res in runs:
            assert res.warnings.count(
                "resample limit exhausted for at least one partition; partial result") == 1
            assert [s.retries for s in res.per_partition] == [packer.RESAMPLE_LIMIT] * 2
            assert all(verify_cycle(h, c) for c in res.cycles)
        # the two K_{6,6} share 6 hyperedges; seed 1 draws 4 of them to the
        # first, whose 34 edges hold a 5-factor, and 2 to the second (32 edges,
        # a 4-factor), so 9 cycles; the count follows the assignment draw
        assert [s.assigned_edges for s in runs[1][1].per_partition] == [34, 32]
        assert not runs[0][1].cycles and len(runs[1][1].cycles) == 9


class TestBatchChecks:
    """`_pack` lifts, canonicalizes and verifies each factor's cycles in one
    batch; a rejected cycle is re-derived through the per-cycle reference
    path, which names the failure."""

    def test_lifted_segment_not_an_edge(self, monkeypatch):
        def padded_aux(h, scheme):
            # claim every (s, t) as an aux edge; the unrealized ones stand in
            # for the first realized hyperedge
            aux = build_aux_graph(h, scheme)
            edge_pos = np.full(scheme.m ** 2, aux.edge_pos[0])
            edge_pos[aux.graph.codes] = aux.edge_pos
            return dataclasses.replace(aux, graph=complete_bipartite(scheme.m),
                                       edge_pos=edge_pos)
        monkeypatch.setattr(packer, "build_aux_graph", padded_aux)
        h = random_hypergraph(12, 3, 0.7, 1)
        with pytest.raises(InvariantViolation,
                           match="^lifted cycle failed verification: segment-not-an-edge$"):
            pack_min_degree(h, 1, num_partitions=1, seed=3)

    def test_edge_shared_by_two_partitions(self, monkeypatch):
        h = complete_hypergraph(12, 3)
        scheme = sample_scheme(h, 1, 5)
        monkeypatch.setattr(packer, "sample_scheme", lambda h_, ell, seed: scheme)
        peel, first = bifactor.peel_factors, []

        def peel_first(factors):
            # every partition gets the first partition's matchings
            first.extend(peel(factors))
            return [first[0]] * len(first)
        monkeypatch.setattr(bifactor, "peel_factors", peel_first)
        with pytest.raises(InvariantViolation,
                           match=r"^edge \(\d+, \d+, \d+\) appears in two packed cycles$"):
            pack_min_degree(h, 1, num_partitions=2, seed=3)
        assert len(first) == 2 and len(first[0]) > 0

    def test_kernel_named_when_the_reference_path_accepts(self, monkeypatch):
        lift = packer.lift_canonical

        def repeat_a_vertex(aux, matchings):
            # on K_12^(3) every segment stays an edge; only the permutation
            # check sees that vertex 6's copy replaced vertex 1
            rows = lift(aux, matchings)
            rows[:, 1] = rows[:, 6]
            return rows
        monkeypatch.setattr(packer, "lift_canonical", repeat_a_vertex)
        with pytest.raises(InvariantViolation, match="reduction.lift_canonical"):
            pack_min_degree(complete_hypergraph(12, 3), 1, num_partitions=1, seed=3)
