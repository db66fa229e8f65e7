import math
from itertools import combinations

import pytest

from hampack.census import (count_lower_bound, cycle_counts, empirical_vs_bound,
                            expected_count, perfect_matchings)
from hampack.constructions import complete_hypergraph, parity_hypergraph, random_hypergraph
from hampack.errors import InvalidInputError, SizeLimitError
from hampack.hypercore import Hypergraph
from hampack.reduction import build_aux_graph

import helpers
from helpers import (all_schemes, count_matchings_exact_cover, count_perfect_matchings,
                     edge_set_count_reference, enumerate_cycles_reference)


class TestEnumerate:
    @pytest.mark.parametrize("n", [4, 6])
    def test_complete_matches_factorial(self, n):
        assert cycle_counts(complete_hypergraph(n, 3), 1)[0] == math.factorial(n - 1)

    def test_removing_one_edge_kills_three_cycles(self):
        # each triple of K_4^(3) lies on exactly 3 of the 6 cycles
        edges = [e for e in combinations(range(4), 3) if e != (1, 2, 3)]
        assert cycle_counts(Hypergraph(4, 3, edges), 1)[0] == 3

    def test_empty(self):
        assert cycle_counts(Hypergraph(6, 3, []), 1) == (0, 0)

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            cycle_counts(complete_hypergraph(12, 3), 1)

    def test_divisibility(self):
        with pytest.raises(InvalidInputError):
            cycle_counts(complete_hypergraph(7, 3), 1)

    def test_chunk_size_does_not_change_the_set(self, monkeypatch):
        h = random_hypergraph(8, 3, 0.8, 1)
        whole = enumerate_cycles_reference(h, 1)
        # singleton blocks: every cycle is reached as 2m = 8 leaf arrangements,
        # so chunks of 7 leave a partial last chunk
        assert 8 * len(whole) % 7 != 0
        monkeypatch.setattr(helpers, "CANON_CHUNK", 7)
        assert enumerate_cycles_reference(h, 1) == whole

    @pytest.mark.parametrize("n,k,ell,p", [
        (8, 3, 1, 0.8), (6, 4, 1, 0.8), (6, 5, 2, 0.6), (9, 4, 1, 0.6), (9, 5, 2, 0.6),
        (9, 3, 0, 0.6), (8, 4, 0, 0.8), (8, 2, 0, 0.8), (5, 1, 0, 0.8),
        # 3468 cycles; p stays low because the reference takes ~1.5 s here
        # and over 15 s at p = 0.8
        (10, 3, 1, 0.4),
    ])
    def test_matches_the_all_arrangements_reference(self, n, k, ell, p):
        h = random_hypergraph(n, k, p, 7)
        cycles = enumerate_cycles_reference(h, ell)
        assert cycle_counts(h, ell) == (len(cycles), edge_set_count_reference(cycles))

    @pytest.mark.parametrize("n,k,p,cycles,edge_sets", [
        # any two 5-subsets of a 6-set share 4 vertices, which split into
        # {J_0, J_1} in C(4, 2)/2 = 3 ways: 15 pairs, 45 cycles
        (6, 5, 1.0, 45, 15),
        (8, 6, 0.7, 354, 118),
    ])
    def test_m2_edge_sets_hold_three_cycles_each_at_ell_2(self, n, k, p, cycles, edge_sets):
        h = random_hypergraph(n, k, p, 3)
        reference = enumerate_cycles_reference(h, 2)
        assert (len(reference), edge_set_count_reference(reference)) == (cycles, edge_sets)
        assert cycle_counts(h, 2) == (cycles, edge_sets)
        assert empirical_vs_bound(h, 2).edge_set_count == edge_sets

    def test_every_cycle_is_canonical_and_valid(self):
        from hampack.reduction import canonicalize, verify_cycle
        h = random_hypergraph(6, 3, 0.8, 4)
        for c in enumerate_cycles_reference(h, 1):
            assert canonicalize(c) == c
            assert verify_cycle(h, c)

    def test_ell0_matchings_of_k6(self):
        # C(6,3)/2 = 10 perfect matchings; m = 2, so arrangements == edge sets
        assert cycle_counts(complete_hypergraph(6, 3), 0) == (10, 10)

    def test_ell0_graph_case_m4(self):
        # k = 2: perfect matchings of K_8; 105 edge sets, 3 arrangements each
        assert cycle_counts(complete_hypergraph(8, 2), 0) == (315, 105)


@pytest.mark.parametrize("n,k", [(6, 3), (8, 2), (8, 4), (9, 3), (10, 5), (12, 3), (12, 4)])
def test_perfect_matchings_equal_the_exact_cover_search(n, k):
    for h in (random_hypergraph(n, k, 0.7, n + k), parity_hypergraph(n, k).hypergraph):
        assert perfect_matchings(h) == count_matchings_exact_cover(h)


class TestFormulas:
    def test_count_lower_bound_values(self):
        assert count_lower_bound(4, 3, 1, 1.0) == pytest.approx(math.log(24))
        assert count_lower_bound(6, 3, 1, 1.0) == pytest.approx(math.log(720))
        assert count_lower_bound(6, 3, 1, 0.75) == pytest.approx(
            math.log(720) + 3 * math.log(0.75))

    def test_count_lower_bound_domain(self):
        with pytest.raises(InvalidInputError):
            count_lower_bound(6, 3, 1, 0.5)
        with pytest.raises(InvalidInputError):
            count_lower_bound(7, 3, 1, 0.8)

    def test_expected_count_values(self):
        assert expected_count(4, 3, 1, 1.0) == pytest.approx(math.log(6))
        assert expected_count(6, 3, 1, 1.0) == pytest.approx(math.log(120))
        assert expected_count(6, 3, 1, 0.0) == float("-inf")

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_enumeration_equals_formula_on_complete(self, n):
        exact = cycle_counts(complete_hypergraph(n, 3), 1)[0]
        assert exact == pytest.approx(math.exp(expected_count(n, 3, 1, 1.0)))

    def test_ell0_formula_matches_when_m_at_least_3(self):
        # m = 4 >= 3: the symmetry factor 2m is exact
        exact = cycle_counts(complete_hypergraph(8, 2), 0)[0]
        assert exact == pytest.approx(math.exp(expected_count(8, 2, 0, 1.0)))


class TestSummationIdentity:
    """Sum of perfect-matching counts over all schemes = 2m * cycle count."""

    def test_identity_exact(self):
        schemes = list(all_schemes(4, 3, 1))
        assert len(schemes) == 12
        for h in [complete_hypergraph(4, 3),
                  Hypergraph(4, 3, [(0, 1, 2), (0, 1, 3), (0, 2, 3)]),
                  random_hypergraph(4, 3, 0.5, 2),
                  random_hypergraph(4, 3, 0.7, 5)]:
            total = sum(count_perfect_matchings(build_aux_graph(h, s).graph)
                        for s in schemes)
            assert total == 4 * cycle_counts(h, 1)[0]


class TestReport:
    def test_complete_exact_equals_expected(self):
        rep = empirical_vs_bound(complete_hypergraph(6, 3), 1)
        assert rep.exact_count == 120
        # the report's formulas use measured alpha = 2/3; at p = 1 the match is exact
        assert rep.alpha == pytest.approx(2 / 3)
        assert rep.exact_count == pytest.approx(math.exp(expected_count(6, 3, 1, 1.0)))
        assert rep.hypothesis_met and rep.bound_met

    def test_below_dirac_flagged(self):
        rep = empirical_vs_bound(random_hypergraph(6, 3, 0.3, 1), 1)
        assert not rep.hypothesis_met
        assert rep.bound_met is None

    def test_counts_agree_for_ell_ge_1(self):
        for seed in range(4):
            rep = empirical_vs_bound(random_hypergraph(6, 3, 0.7, seed), 1)
            assert rep.exact_count == rep.edge_set_count


def test_monotone_under_edge_addition():
    for seed in range(5):
        h = random_hypergraph(6, 3, 0.6, seed)
        missing = sorted(set(combinations(range(6), 3)) - set(h.edges))
        if not missing:
            continue
        bigger = Hypergraph(6, 3, list(h.edges) + [missing[0]])
        assert cycle_counts(bigger, 1)[0] >= cycle_counts(h, 1)[0]
