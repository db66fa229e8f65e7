import dataclasses
import itertools
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
from hampack.reduction import build_aux_graph, build_aux_graphs, sample_scheme, verify_cycle
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
        schemes = [sample_scheme(h, ell, derive_seed(seed, f"scheme:{p.index}:0"))
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
    schemes = [sample_scheme(h, ell, derive_seed(seed, f"scheme:{p.index}:0"))
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

    def test_schemes_are_kept_as_drawn_at_the_hypothesis_own_epsilon(self):
        # the 3-subsets of Z_60 whose sum mod 60 is below 54: codegrees 52-54,
        # so epsilon = 2/120; at m = 30 the band (alpha ± 2·epsilon)·m =
        # [25.5, 27.5] is 2 wide, and no drawn scheme's aux graph fits in it
        h = Hypergraph(60, 3, [e for e in itertools.combinations(range(60), 3)
                               if sum(e) % 60 < 54])
        codegrees = degree_report(h, 2)
        assert (codegrees.min_degree, codegrees.max_degree) == (52, 54)
        res = pack_near_regular(h, ell=1, delta_target=0.5, epsilon=2 / 120, seed=0,
                                num_partitions=16)
        assert [s.retries for s in res.per_partition] == [0] * 16
        assert res.warnings == (
            "aux degree outside the near-regular band (alpha +/- 2*eps)*m = "
            "[25.5000, 27.5000] in 16 of 16 partitions",)
        assert len(res.arrangements) > 0

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


class TestMinDegreeBand:
    """Theorem 2 keeps each scheme as drawn; one warning counts the aux
    graphs whose min degree misses the (alpha' + eps/2)·m mark."""

    def test_warning_counts_the_partitions_below_the_mark(self):
        # the empty input has no aux edges at all, so every aux min degree is 0;
        # the random one has min codegree 2 = n/6, below alpha', so its mark
        # is alpha'·m = 3.6
        empty, h = Hypergraph(12, 3, []), random_hypergraph(12, 3, 0.6, 0)
        assert degree_report(h, 2).min_degree == 2
        mark = packer.ALPHA_PRIME * 6
        results = []
        for g, seed in ((empty, 1), (h, 2)):
            res = pack_min_degree(g, 1, num_partitions=2, seed=seed)
            below = sum(s.aux_min_degree < mark for s in res.per_partition)
            assert below == 2
            assert res.warnings[1:] == (
                "aux degree outside the min-degree band [(alpha' + eps/2)*m, m] = "
                f"[3.6000, 6.0000] in {below} of 2 partitions",)
            assert all(verify_cycle(g, c) for c in res.cycles)
            for i, stats in enumerate(res.per_partition):
                # the kept scheme is the first one drawn
                aux = build_aux_graph(g, sample_scheme(g, 1, derive_seed(seed, f"scheme:{i}:0")))
                assert (stats.retries, stats.aux_min_degree) == (0, aux.graph.min_degree())
            results.append(res)
        # the first schemes' aux graphs, of min degrees 2 and 1, still pack a cycle
        assert [s.aux_min_degree for s in results[1].per_partition] == [2, 1]
        assert not results[0].cycles and len(results[1].cycles) == 1


class TestBatchChecks:
    """`_pack` builds every partition's aux graph in one `build_aux_graphs`
    call, lifts, canonicalizes and verifies every partition's cycles in one
    batch; a rejected cycle is re-derived through the per-cycle reference
    path with its own partition's aux graph, which names the failure."""

    def test_lifted_segment_not_an_edge(self, monkeypatch):
        def padded_auxes(h, schemes):
            # claim every (s, t) as an aux edge; the unrealized ones stand in
            # for the first realized hyperedge
            auxes = []
            for aux in build_aux_graphs(h, schemes):
                m = aux.scheme.m
                edge_pos = np.full(m ** 2, aux.edge_pos[0])
                edge_pos[aux.graph.codes] = aux.edge_pos
                auxes.append(dataclasses.replace(aux, graph=complete_bipartite(m),
                                                 edge_pos=edge_pos))
            return auxes
        monkeypatch.setattr(packer, "build_aux_graphs", padded_auxes)
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

    @staticmethod
    def repeat_a_vertex(monkeypatch, start, copied=6):
        """Patch the batched lift to copy the vertex at `copied` over the one
        at 1 in every row from the first row of partition `start` on: on
        K_12^(3) (and K_6^(4) with copied = 4) every segment stays an edge,
        so only the permutation check sees it.  Returns the list that records
        each call's (auxes, matchings)."""
        lift, calls = packer.lift_partitions, []

        def lift_and_repeat(auxes, matchings):
            calls.append((auxes, matchings))
            rows = lift(auxes, matchings)
            first = sum(len(rows_i) for rows_i in matchings[:start])
            rows[first:, 1] = rows[first:, copied]
            return rows
        monkeypatch.setattr(packer, "lift_partitions", lift_and_repeat)
        return calls

    def test_kernel_named_when_the_reference_path_accepts(self, monkeypatch):
        self.repeat_a_vertex(monkeypatch, 0)
        with pytest.raises(InvariantViolation, match="reduction.lift_canonical"):
            pack_min_degree(complete_hypergraph(12, 3), 1, num_partitions=1, seed=3)

    @staticmethod
    def record_reference_lifts(monkeypatch):
        """Record the (aux graph, matching row) of each per-cycle reference lift."""
        lift_matching, explained = packer.lift_matching, []

        def record(aux, matching):
            explained.append((aux, [matching[s] for s in range(len(matching))]))
            return lift_matching(aux, matching)
        monkeypatch.setattr(packer, "lift_matching", record)
        return explained

    def test_rejected_row_of_a_later_partition_is_explained_with_its_own(self, monkeypatch):
        calls = self.repeat_a_vertex(monkeypatch, 1)
        explained = self.record_reference_lifts(monkeypatch)
        with pytest.raises(InvariantViolation, match="reduction.lift_canonical"):
            pack_min_degree(complete_hypergraph(12, 3), 1, num_partitions=3, seed=3)
        (auxes, matchings), = calls
        (aux, matching), = explained
        # partition 0's rows come first and verify; the first rejected row is
        # partition 1's first
        assert len(matchings[0]) > 0 and len(matchings[1]) > 0
        assert aux is auxes[1] and matching == matchings[1][0].tolist()

    def test_rejected_row_after_an_m_2_dedupe_is_explained_with_its_own(self, monkeypatch):
        # at m = 2 partition 0's two matchings lift to one cycle, so the
        # rejected row's index in the batch is one less than its matching's
        calls = self.repeat_a_vertex(monkeypatch, 1, copied=4)
        explained = self.record_reference_lifts(monkeypatch)
        with pytest.raises(InvariantViolation, match="reduction.lift_canonical"):
            pack_min_degree(complete_hypergraph(6, 4), 1, num_partitions=3, seed=3)
        (auxes, matchings), = calls
        (aux, matching), = explained
        assert auxes[0].scheme.m == 2 and len(matchings[0]) == 2 and len(matchings[1]) > 0
        assert aux is auxes[1] and matching == matchings[1][0].tolist()
