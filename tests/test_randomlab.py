import math
import random

import pytest

from hampack import bifactor, util
from hampack.bifactor import BipartiteGraph, complete_bipartite, max_factor
from hampack.constructions import complete_hypergraph, random_hypergraph
from hampack.errors import InvalidInputError
from hampack.hypercore import Hypergraph
from hampack.randomlab import (aux_degree_sweep, aux_degree_trial,
                               factor_robustness_sweep,
                               factor_robustness_trial,
                               partition_degree_sweep, random_subgraph)
from hampack.util import derive_seed

from helpers import one_uncovered_pair, partition_minima_reference, random_bipartite


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

    def test_rejects_bad_probability(self):
        g = complete_bipartite(3)
        with pytest.raises(InvalidInputError):
            random_subgraph(g, 1.5, 0)

    @pytest.mark.parametrize("seed", [0, -5, derive_seed(1, "trial:0"),
                                      derive_seed(2, "trial:39"), 2**64 + 12345])
    @pytest.mark.parametrize("p", [0, 0.5, 1])
    def test_matches_per_edge_python_draws(self, monkeypatch, seed, p):
        # the reference draws one random.Random(seed).random() per edge in
        # sorted order; the 900 draws for K_{30,30} use 1800 words, more than
        # one 624-word Mersenne Twister block, and chunks of 1, 7 and 624
        # draws split them mid-way
        for chunk in (1, 7, 624, util._DRAW_CHUNK):
            monkeypatch.setattr(util, "_DRAW_CHUNK", chunk)
            for g in (complete_bipartite(30), random_bipartite(15, 0.6, 8)):
                rng = random.Random(seed)
                reference = [e for e in sorted(g.edges) if rng.random() < p]
                sub = random_subgraph(g, p, seed)
                assert sorted(sub.edges) == reference
                assert sub == BipartiteGraph(g.m, reference)


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

    @pytest.mark.parametrize("rho,m,r", [(0.29, 100, 29), (0.58, 50, 29), (0.57, 100, 57),
                                         (0.82, 150, 123)])
    def test_rho_factor_size_is_the_exact_floor(self, monkeypatch, rho, m, r):
        # rho * m is the integer r in exact arithmetic and just below r in floats
        asked = []
        monkeypatch.setattr(bifactor, "find_factor", lambda g, size: asked.append(size))
        g = complete_bipartite(m)
        message = rf"^host graph has no {r}-factor; the rho hypothesis fails$"
        with pytest.raises(InvalidInputError, match=message):
            factor_robustness_trial(g, rho, 0.5, 0.1, 0)
        with pytest.raises(InvalidInputError, match=message):
            factor_robustness_sweep(g, rho, 0.5, 0.1, trials=0, master_seed=0)
        assert asked == [r, r]

    @pytest.mark.parametrize("epsilon", [-3.0, 1.0, 1.5, float("nan")])
    def test_epsilon_outside_the_unit_interval_rejected(self, epsilon):
        # outside [0, 1) the target is negative or above m·p: every trial
        # would succeed, or none could
        g = complete_bipartite(4)
        with pytest.raises(InvalidInputError, match=r"epsilon must be in \[0, 1\)"):
            factor_robustness_trial(g, 1.0, 0.5, epsilon, 0)
        with pytest.raises(InvalidInputError, match=r"epsilon must be in \[0, 1\)"):
            factor_robustness_sweep(g, 1.0, 0.5, epsilon, trials=0, master_seed=0)

    def test_sweep_deterministic(self):
        g = complete_bipartite(15)
        a = factor_robustness_sweep(g, 0.9, 0.7, 0.3, trials=6, master_seed=1)
        b = factor_robustness_sweep(g, 0.9, 0.7, 0.3, trials=6, master_seed=1)
        assert a == b

    def test_sweep_runs_trial_i_on_the_seed_of_index_i(self):
        g = complete_bipartite(15)
        report = factor_robustness_sweep(g, 0.9, 0.7, 0.3, trials=6, master_seed=1)
        for i in range(6):
            trial = factor_robustness_trial(g, 0.9, 0.7, 0.3, derive_seed(1, f"trial:{i}"))
            assert (report.trial_seeds[i], report.r_stars[i]) == (trial.seed, trial.r_star)


class TestPartitionDegrees:
    def test_single_part_reduces_to_global_codegree(self):
        h = random_hypergraph(12, 3, 0.9, 3)
        report = partition_degree_sweep(h, (12,), delta=0.3, epsilon=0.1, trials=3,
                                        master_seed=5)
        from hampack.hypercore import degree_report
        for trial in report.per_trial:
            assert trial.minima[0] == degree_report(h, 2).min_degree
            assert trial.success
        assert report.successes == 3

    def test_complete_always_succeeds(self):
        # K_12: codegree 10, pairs inside a part see exactly 4 completions there
        h = complete_hypergraph(12, 3)
        report = partition_degree_sweep(h, (6, 6), delta=0.5, epsilon=0.2, trials=5,
                                        master_seed=0)
        for trial in report.per_trial:
            assert trial.minima == (4, 4)
            assert trial.success
        assert report.successes == 5

    def test_size_mismatch_rejected(self):
        # trials = 0: the sizes are checked before any trial
        with pytest.raises(InvalidInputError):
            partition_degree_sweep(complete_hypergraph(12, 3), (6, 5), 0.3, 0.1, trials=0,
                                   master_seed=0)

    def test_tiny_parts_rejected(self):
        # 1 < 0.05 * 24: a part below MIN_PART_FRACTION of the vertices
        with pytest.raises(InvalidInputError, match="at least 0.05 \\* n"):
            partition_degree_sweep(complete_hypergraph(24, 3), (1, 23), 0.3, 0.1, trials=0,
                                   master_seed=0)
        partition_degree_sweep(complete_hypergraph(24, 3), (2, 22), 0.3, 0.1, trials=1,
                               master_seed=0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("p", [0.3, 0.9, 1.0])
    def test_minima_equal_the_completion_walk(self, k, p):
        # k = 1: the one 0-subset's degree into a part is the number of edges in it
        h = random_hypergraph(12, k, p, 17 * k)
        for sizes in [(12,), (6, 6), (3, 4, 5)]:
            report = partition_degree_sweep(h, sizes, 0.3, 0.1, trials=3, master_seed=k)
            for trial in report.per_trial:
                assert trial.minima == partition_minima_reference(h, sizes, trial.seed)
            if k == 1:   # the empty set's degree is |E|
                assert report.hypothesis_met == (h.num_edges() >= 0.4 * 12)

    @pytest.mark.parametrize("edges", [[], [(0, 1, 2)]])
    def test_minima_equal_the_completion_walk_on_sparse_inputs(self, edges):
        h = Hypergraph(8, 3, edges)
        for sizes in [(8,), (4, 4), (2, 3, 3)]:
            (trial,) = partition_degree_sweep(h, sizes, 0.3, 0.1, trials=1,
                                              master_seed=1).per_trial
            assert trial.minima == partition_minima_reference(h, sizes, trial.seed) \
                == (0,) * len(sizes)

    def test_calibrated_sweep(self):
        # dense-minus-20% hypergraph, two equal parts
        h = random_hypergraph(40, 3, 0.8, 31337)
        report = partition_degree_sweep(h, (20, 20), delta=0.2, epsilon=0.075,
                                        trials=50, master_seed=13)
        assert report.hypothesis_met
        assert report.successes >= 48

    def test_sweep_builds_the_lexicographic_codes_once(self):
        # the hypothesis's codegree report and 2 parts x 20 trials, all on the
        # dense branch: 41 calls for one (n, d, count)
        from hampack.hypercore import _lex_codes
        _lex_codes.cache_clear()
        h = random_hypergraph(24, 3, 0.9, 1)
        partition_degree_sweep(h, (12, 12), 0.4, 0.1, trials=20, master_seed=1)
        info = _lex_codes.cache_info()
        assert (info.misses, info.hits) == (1, 40)
        assert not _lex_codes(24, 2, math.comb(24, 2)).flags.writeable

    def test_empty_hypergraph_minima_are_zero(self):
        h = Hypergraph(8, 3, [])
        (trial,) = partition_degree_sweep(h, (4, 4), delta=0.1, epsilon=0.05, trials=1,
                                          master_seed=2).per_trial
        assert trial.minima == (0, 0) and not trial.success


class TestAuxDegrees:
    def test_complete_hits_full_degree(self):
        h = complete_hypergraph(12, 3)  # codegree 10 = (0.6 + 0.2) * 12 + 0.4
        trial = aux_degree_trial(h, 1, delta=0.6, epsilon=0.2, seed=4)
        assert trial.min_degree == 6 and trial.success
        assert aux_degree_sweep(h, 1, delta=0.6, epsilon=0.2, trials=0,
                                master_seed=4).hypothesis_met

    def test_empty_fails(self):
        h = Hypergraph(12, 3, [])
        trial = aux_degree_trial(h, 1, delta=0.5, epsilon=0.1, seed=4)
        assert trial.min_degree == 0 and not trial.success
        assert not aux_degree_sweep(h, 1, delta=0.5, epsilon=0.1, trials=0,
                                    master_seed=4).hypothesis_met

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


class TestSweepOrder:
    """Trial i depends only on (master seed, i): a shorter sweep is a prefix."""

    def test_factor_sweep(self):
        g = complete_bipartite(15)
        short, full = (factor_robustness_sweep(g, 0.9, 0.7, 0.3, trials=t, master_seed=1)
                       for t in (3, 6))
        assert short.trial_seeds == full.trial_seeds[:3]
        assert short.r_stars == full.r_stars[:3]
        assert short.successes == sum(r >= full.target for r in full.r_stars[:3])

    def test_partition_sweep(self):
        h = random_hypergraph(12, 3, 0.9, 3)
        short, full = (partition_degree_sweep(h, (6, 6), 0.3, 0.1, trials=t, master_seed=2)
                       for t in (3, 6))
        assert short.per_trial == full.per_trial[:3]
        assert [t.seed for t in full.per_trial] == [derive_seed(2, f"trial:{i}")
                                                    for i in range(6)]

    def test_aux_degree_sweep(self):
        h = random_hypergraph(12, 3, 0.9, 3)
        short, full = (aux_degree_sweep(h, 1, 0.3, 0.1, trials=t, master_seed=2)
                       for t in (3, 6))
        assert short.per_trial == full.per_trial[:3]
        assert [t.seed for t in full.per_trial] == [derive_seed(2, f"trial:{i}")
                                                    for i in range(6)]


def test_uncovered_pair_fails_the_codegree_hypothesis():
    # every pair but (0, 1) has codegree >= 9 >= (0.1 + 0.1) * 12
    h = one_uncovered_pair()
    assert not aux_degree_sweep(h, 1, 0.1, 0.1, trials=2, master_seed=0).hypothesis_met
    assert not partition_degree_sweep(h, (6, 6), 0.1, 0.1, trials=2,
                                      master_seed=0).hypothesis_met
    assert not aux_degree_sweep(h, 1, 0.1, 0.1, trials=0, master_seed=0).hypothesis_met


@pytest.mark.parametrize("delta,epsilon,message", [
    (-2.0, 0.1, r"delta -2.0 not in \[0, 1\]"),
    (1.5, 0.1, r"delta 1.5 not in \[0, 1\]"),
    (0.2, -1.0, "epsilon must be >= 0, got -1.0"),
])
def test_degree_thresholds_checked_before_any_trial(delta, epsilon, message):
    h = complete_hypergraph(12, 3)
    runs = [lambda: partition_degree_sweep(h, (6, 6), delta, epsilon, trials=0, master_seed=1),
            lambda: aux_degree_trial(h, 1, delta, epsilon, seed=1),
            lambda: aux_degree_sweep(h, 1, delta, epsilon, trials=0, master_seed=1)]
    for run in runs:
        with pytest.raises(InvalidInputError, match=message):
            run()
