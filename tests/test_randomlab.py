import math
import random

import pytest

from hampack.bifactor import BipartiteGraph, complete_bipartite, max_factor
from hampack.constructions import complete_hypergraph, random_hypergraph
from hampack.errors import InvalidInputError
from hampack.hypercore import Hypergraph
from hampack.randomlab import (aux_degree_sweep, aux_degree_trial,
                               factor_robustness_sweep,
                               factor_robustness_trial,
                               partition_degree_sweep, partition_degree_trial,
                               random_subgraph)
from hampack.util import derive_seed

from helpers import random_bipartite


class TestRandomSubgraph:
    def test_extremes(self):
        g = complete_bipartite(5)
        assert random_subgraph(g, 1.0, 3) == g
        assert not random_subgraph(g, 0.0, 3).edges

    def test_deterministic(self):
        g = complete_bipartite(8)
        assert random_subgraph(g, 0.5, 12) == random_subgraph(g, 0.5, 12)

    def test_kept_count_within_four_sigma(self):
        g = complete_bipartite(20)
        sigma = math.sqrt(400 * 0.25)
        for seed in range(25):
            kept = len(random_subgraph(g, 0.5, seed).edges)
            assert abs(kept - 200) <= 4 * sigma

    def test_coupled_monotone_in_probabilities(self):
        g = complete_bipartite(10)
        for seed in range(10):
            low = random_subgraph(g, 0.3, seed)
            high = random_subgraph(g, 0.6, seed)
            assert low.edges <= high.edges

    def test_per_edge_probabilities(self):
        g = complete_bipartite(4)
        p_map = {e: (1.0 if e[0] == 0 else 0.0) for e in g.edges}
        sub = random_subgraph(g, p_map, 5)
        assert sub.edges == frozenset((0, t) for t in range(4))

    def test_scalar_matches_per_edge_probabilities(self):
        # one draw per edge in sorted order on both paths: the same seed keeps
        # the same edges whether p is given once or edge by edge
        g = random_bipartite(12, 0.7, 3)
        for seed in range(5):
            for p in (0.25, 0.5, 1):
                assert (random_subgraph(g, p, seed)
                        == random_subgraph(g, {e: p for e in g.edges}, seed))

    def test_rejects_bad_probability(self):
        g = complete_bipartite(3)
        with pytest.raises(InvalidInputError):
            random_subgraph(g, 1.5, 0)

    @pytest.mark.parametrize("seed", [0, -5, derive_seed(1, "trial:0"),
                                      derive_seed(2, "trial:39"), 2**64 + 12345])
    @pytest.mark.parametrize("p", [0, 0.5, 1])
    def test_matches_per_edge_python_draws(self, seed, p):
        # the reference draws one random.Random(seed).random() per edge in
        # sorted order; the 900 draws for K_{30,30} use 1800 words, more than
        # one 624-word Mersenne Twister block
        for g in (complete_bipartite(30), random_bipartite(15, 0.6, 8)):
            rng = random.Random(seed)
            reference = [e for e in sorted(g.edges) if rng.random() < p]
            for probs in (p, {e: p for e in g.edges}):
                sub = random_subgraph(g, probs, seed)
                assert sorted(sub.edges) == reference
                assert sub == BipartiteGraph(g.m, reference)

    def test_mixed_probabilities_match_per_edge_python_draws(self):
        g = random_bipartite(20, 0.8, 4)
        probs = {(s, t): ((3 * s + t) % 5) / 4 for s, t in g.edges}
        for seed in (7, derive_seed(7, "trial:3")):
            rng = random.Random(seed)
            reference = [e for e in sorted(g.edges) if rng.random() < probs[e]]
            assert sorted(random_subgraph(g, probs, seed).edges) == reference

    def test_mapping_error_names_the_first_bad_edge(self):
        g = complete_bipartite(3)
        probs = {e: 0.5 for e in g.edges}
        probs[(2, 0)] = -1
        probs[(1, 2)] = 1.5
        with pytest.raises(InvalidInputError,
                           match=r"^probability 1\.5 for edge \(1, 2\) not in \[0, 1\]$"):
            random_subgraph(g, probs, 0)
        probs[(0, 1)] = float("nan")
        with pytest.raises(InvalidInputError, match=r"^probability nan for edge \(0, 1\) "):
            random_subgraph(g, probs, 0)


def test_max_factor_monotone_under_edge_addition():
    # second half of the coupled-monotonicity argument
    for seed in range(6):
        small = random_bipartite(8, 0.4, seed)
        extra = random_bipartite(8, 0.6, seed + 100)
        big = BipartiteGraph(8, set(small.edges) | set(extra.edges))
        assert max_factor(big)[0] >= max_factor(small)[0]


class TestFactorRobustness:
    def test_p_one_succeeds(self):
        trial = factor_robustness_trial(complete_bipartite(10), 0.8, 1.0, 0.1, 7)
        assert trial.success and trial.r_star == 10

    def test_p_zero_target_zero(self):
        # empty subsample, but the target floor((1-eps)*rho*m*0) = 0 is met
        trial = factor_robustness_trial(complete_bipartite(10), 0.8, 0.0, 0.1, 7)
        assert trial.target == 0 and trial.r_star == 0 and trial.success

    def test_small_p_fails_positive_target(self):
        g = complete_bipartite(20)
        report = factor_robustness_sweep(g, 1.0, 0.1, 0.0, trials=5, master_seed=3)
        assert report.target == 2
        assert report.successes == 0  # ~40 surviving edges leave isolated vertices

    def test_sweep_mostly_succeeds_at_calibrated_scale(self):
        report = factor_robustness_sweep(complete_bipartite(30), rho=0.9, p=0.9,
                                         epsilon=0.3, trials=10, master_seed=5150)
        assert report.target == 17
        assert report.successes == 10
        assert all(r >= 17 for r in report.r_stars)

    @pytest.mark.parametrize("rho,m,p,epsilon,target", [
        (1.0, 100, 0.7, 0.1, 63),     # float product 62.99999999999999
        (1.0, 150, 0.7, 0.4, 63),
        (0.8, 100, 0.5, 0.3, 28),
        (1.0, 100, 0.3, 0.5667, 12),  # exact product 12.999: 12 is right
    ])
    def test_target_is_the_exact_floor(self, rho, m, p, epsilon, target):
        g = complete_bipartite(m)
        assert factor_robustness_trial(g, rho, p, epsilon, 1).target == target
        assert factor_robustness_sweep(g, rho, p, epsilon, trials=1,
                                       master_seed=1).target == target

    def test_success_produces_verified_witness(self):
        trial = factor_robustness_trial(complete_bipartite(12), 0.9, 0.8, 0.4, 11)
        assert trial.success
        assert trial.factor is not None and trial.factor.r == trial.r_star

    def test_hypothesis_checks(self):
        sparse = BipartiteGraph(4, [(i, i) for i in range(4)])
        with pytest.raises(InvalidInputError, match="density"):
            factor_robustness_trial(sparse, 0.5, 0.5, 0.1, 0)
        with pytest.raises(InvalidInputError, match="rho"):
            factor_robustness_trial(complete_bipartite(4), 0.0, 0.5, 0.1, 0)

    def test_sweep_deterministic(self):
        g = complete_bipartite(15)
        a = factor_robustness_sweep(g, 0.9, 0.7, 0.3, trials=6, master_seed=1)
        b = factor_robustness_sweep(g, 0.9, 0.7, 0.3, trials=6, master_seed=1)
        assert a == b

    def test_threads_do_not_change_results(self):
        g = complete_bipartite(15)
        a = factor_robustness_sweep(g, 0.9, 0.7, 0.3, trials=6, master_seed=1)
        c = factor_robustness_sweep(g, 0.9, 0.7, 0.3, trials=6, master_seed=1, threads=4)
        assert a == c


class TestPartitionDegrees:
    def test_single_part_reduces_to_global_codegree(self):
        h = random_hypergraph(12, 3, 0.9, 3)
        trial = partition_degree_trial(h, (12,), delta=0.3, epsilon=0.1, seed=5)
        from hampack.hypercore import degree_report
        assert trial.minima[0] == degree_report(h, 2).min_degree
        assert trial.success

    def test_complete_always_succeeds(self):
        # K_12: codegree 10, pairs inside a part see exactly 4 completions there
        h = complete_hypergraph(12, 3)
        for seed in range(5):
            trial = partition_degree_trial(h, (6, 6), delta=0.5, epsilon=0.2, seed=seed)
            assert trial.minima == (4, 4)
            assert trial.success

    def test_size_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            partition_degree_trial(complete_hypergraph(12, 3), (6, 5), 0.3, 0.1, 0)

    def test_tiny_parts_rejected(self):
        with pytest.raises(InvalidInputError):
            partition_degree_trial(complete_hypergraph(12, 3), (1, 11), 0.3, 0.1, 0,
                                   min_part_fraction=0.25)

    def test_calibrated_sweep(self):
        # dense-minus-20% hypergraph, two equal parts
        h = random_hypergraph(40, 3, 0.8, 31337)
        report = partition_degree_sweep(h, (20, 20), delta=0.2, epsilon=0.075,
                                        trials=50, master_seed=13)
        assert report.hypothesis_met
        assert report.successes >= 48

    def test_empty_hypergraph_minima_are_zero(self):
        h = Hypergraph(8, 3, [])
        trial = partition_degree_trial(h, (4, 4), delta=0.1, epsilon=0.05, seed=2)
        assert trial.minima == (0, 0) and not trial.success


class TestAuxDegrees:
    def test_complete_hits_full_degree(self):
        h = complete_hypergraph(12, 3)  # codegree 10 = (0.6 + 0.2) * 12 + 0.4
        trial = aux_degree_trial(h, 1, delta=0.6, epsilon=0.2, seed=4)
        assert trial.min_degree == 6 and trial.success and trial.hypothesis_met

    def test_empty_fails(self):
        h = Hypergraph(12, 3, [])
        trial = aux_degree_trial(h, 1, delta=0.5, epsilon=0.1, seed=4)
        assert trial.min_degree == 0 and not trial.success and not trial.hypothesis_met

    def test_divisibility_error(self):
        with pytest.raises(InvalidInputError):
            aux_degree_trial(complete_hypergraph(9, 3), 1, 0.5, 0.1, 0)

    def test_calibrated_sweep(self):
        h = random_hypergraph(40, 3, 0.95, 8675309)
        report = aux_degree_sweep(h, 1, delta=0.61, epsilon=0.14,
                                  trials=50, master_seed=7)
        assert report.hypothesis_met
        assert report.successes >= 48

    def test_band_sweep_199_of_200(self):
        # the concentration claim at scale: nearly every sampled scheme passes
        h = random_hypergraph(40, 3, 0.95, 8675309)
        report = aux_degree_sweep(h, 1, delta=0.61, epsilon=0.14,
                                  trials=200, master_seed=99)
        assert report.successes >= 198

    def test_two_sided_band_on_measured_density(self):
        # with delta/epsilon measured from the codegree range, every aux degree
        # lands in (delta +- 2 eps) * m
        from hampack.hypercore import degree_report
        from hampack.reduction import build_aux_graph, sample_scheme
        h = random_hypergraph(40, 3, 0.8, 2718)
        rep = degree_report(h, 2)
        lo, hi = rep.min_degree / 40, rep.max_degree / 40
        delta, eps = (lo + hi) / 2, (hi - lo) / 2
        m = 20
        for seed in range(20):
            aux = build_aux_graph(h, sample_scheme(h, 1, seed))
            assert aux.graph.min_degree() >= (delta - 2 * eps) * m
            assert aux.graph.max_degree() <= (delta + 2 * eps) * m
