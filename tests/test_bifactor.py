import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph

from hampack import randomlab
from hampack.bifactor import (GALE_RYSER_MAX_M, BipartiteGraph, Factor, complete_bipartite,
                              find_factor, from_json_dict, gale_ryser_check, max_factor,
                              max_factors, peel_factors, peel_matchings, read_bipartite,
                              to_json_dict)
from hampack.errors import (InvalidInputError, InvariantViolation, ParseError,
                            SizeLimitError)
from hampack.util import write_json

from helpers import (brute_force_matching_count, count_perfect_matchings, csaba_rho,
                     gale_ryser_walk, peel_decomposes, peel_reference,
                     random_bipartite)


def cycle6():
    # bipartite 6-cycle: m = 3, 2-regular
    return BipartiteGraph(3, [(i, i) for i in range(3)] + [(i, (i + 1) % 3) for i in range(3)])


class TestGaleRyser:
    def test_complete_holds_at_r_equals_m(self):
        for m in (2, 3, 4):
            assert gale_ryser_check(complete_bipartite(m), m).holds

    def test_one_regular_violates_r2(self):
        g = BipartiteGraph(3, [(0, 0), (1, 1), (2, 2)])
        w = gale_ryser_check(g, 2)
        assert not w.holds
        # the witness is a genuine violation
        e_xy = sum(1 for s in w.subset_s for t in w.subset_t if (s, t) in g.edges)
        assert 2 * len(w.subset_s) > e_xy + 2 * (g.m - len(w.subset_t))

    def test_c4_is_its_own_2_factor(self):
        g = BipartiteGraph(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert gale_ryser_check(g, 2).holds

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            gale_ryser_check(complete_bipartite(15), 1)

    def test_r_zero_always_holds(self):
        assert gale_ryser_check(BipartiteGraph(3, []), 0).holds

    def test_matches_the_gray_walk_reference(self):
        # every r in 0..m+1, so each graph meets both verdicts; the witness
        # (first violated X in Gray order, its Y*, lhs and rhs) must agree
        violated = 0
        for i in range(200):
            rng = random.Random(8000 + i)
            m = rng.randint(0, 12)
            g = random_bipartite(m, rng.uniform(0.1, 1.0), 8200 + i)
            for r in range(m + 2):
                w = gale_ryser_check(g, r)
                assert w == gale_ryser_walk(g, r)
                violated += not w.holds
        assert 500 <= violated <= 1100   # 993 of the 1596 pairs


class TestFindFactor:
    def test_complete_full_factor(self):
        f = find_factor(complete_bipartite(3), 3)
        assert f is not None and len(f.graph.edges) == 9

    def test_r_zero(self):
        f = find_factor(BipartiteGraph(4, []), 0)
        assert f is not None and not f.graph.edges

    def test_no_factor_when_degree_short(self):
        assert find_factor(BipartiteGraph(3, [(0, 0), (1, 1), (2, 2)]), 2) is None

    def test_agrees_with_gale_ryser_exhaustively(self):
        for i in range(60):
            rng = random.Random(500 + i)
            m = rng.randint(1, 5)
            g = random_bipartite(m, rng.uniform(0.2, 0.9), 700 + i)
            for r in range(m + 1):
                assert (find_factor(g, r) is not None) == gale_ryser_check(g, r).holds


class TestMaxFactor:
    def test_complete(self):
        for m in (1, 3, 5):
            r, f = max_factor(complete_bipartite(m))
            assert r == m and len(f.graph.edges) == m * m

    def test_one_regular(self):
        r, f = max_factor(BipartiteGraph(4, [(i, i) for i in range(4)]))
        assert r == 1

    def test_empty(self):
        r, f = max_factor(BipartiteGraph(3, []))
        assert r == 0 and not f.graph.edges

    def test_csaba_bound_spot_instance(self):
        g = random_bipartite(30, 0.75, 424, min_deg=21)  # delta/m = 0.7
        delta = g.min_degree() / 30
        r_star, factor = max_factor(g)
        assert r_star >= math.floor(csaba_rho(delta) * 30)
        factor.check_against(g)

    def test_r_star_is_the_gale_ryser_threshold(self):
        below_min_degree = 0
        for i in range(200):
            rng = random.Random(3000 + i)
            m = rng.randint(1, 8)
            if i % 2:
                g = random_bipartite(m, rng.uniform(0.3, 1.0), 3100 + i)
            else:
                # dense a x b and (m-a) x (m-b) blocks, sparse between: the
                # imbalance can hold r* below the minimum degree
                a, b = rng.randint(0, m), rng.randint(0, m)
                g = BipartiteGraph(m, [(s, t) for s in range(m) for t in range(m)
                                       if rng.random() < (0.9 if (s < a) == (t < b) else 0.2)])
            r_star, factor = max_factor(g)
            assert factor.r == r_star and gale_ryser_check(g, r_star).holds
            if r_star < m:
                assert not gale_ryser_check(g, r_star + 1).holds
            below_min_degree += r_star < g.min_degree()
        assert below_min_degree >= 10   # 12 of the 200 inputs

    @pytest.mark.parametrize("g,r_star", [
        (BipartiteGraph(0, []), 0),
        (BipartiteGraph(3, [(s, t) for s in range(3) for t in range(2)]), 0),  # t = 2 isolated
        (complete_bipartite(1), 1),
    ], ids=["m0", "isolated-vertex", "k11"])
    def test_degenerate_graphs(self, g, r_star):
        factor = Factor(r=r_star, graph=g if r_star else BipartiteGraph(g.m, []))
        assert max_factor(g) == (r_star, factor)
        assert find_factor(g, r_star) == factor
        if r_star < g.m:
            assert find_factor(g, r_star + 1) is None


class TestCodeStore:
    @staticmethod
    def graphs():
        yield BipartiteGraph(0, [])
        yield BipartiteGraph(1, [])
        yield BipartiteGraph(1, [(0, 0)])
        yield BipartiteGraph(5, [])
        for i in range(30):
            rng = random.Random(500 + i)
            yield random_bipartite(rng.randint(1, 12), rng.uniform(0.0, 1.0), 600 + i)

    # the m = 0 graph splits its empty codes by `// 0`, which must not warn
    @pytest.mark.filterwarnings("error")
    def test_codes_are_the_sorted_edge_codes(self):
        for g in self.graphs():
            assert g.codes.dtype == np.int64 and not g.codes.flags.writeable
            assert g.codes.tolist() == sorted(s * g.m + t for s, t in g.edges)
            assert len(g.edges) == len(g.codes)

    def test_degrees_and_neighbours_follow_the_edges(self):
        # each vertex's degree is its number of neighbours among the pairs
        for g in self.graphs():
            pairs = g.pairs().tolist()
            degrees = [sum(1 for e in pairs if e[side] == v)
                       for side in (0, 1) for v in range(g.m)]
            assert g.min_degree() == min(degrees, default=0)
            assert g.max_degree() == max(degrees, default=0)
            assert type(g.min_degree()) is int and type(g.max_degree()) is int

    def test_equality_and_hash(self):
        # equal graphs hash equal; neither comparing nor hashing builds `edges`
        for g in self.graphs():
            pairs = sorted(g.edges, reverse=True)
            same = BipartiteGraph(g.m, pairs)     # any order; a repeat is refused
            assert same == g and hash(same) == hash(g) and len({g, same}) == 1
            assert same._edges is None
            assert BipartiteGraph(g.m + 1, pairs) != g
            if pairs:
                assert BipartiteGraph(g.m, pairs[1:]) != g
        assert BipartiteGraph(2, [(0, 1)]) != frozenset({(0, 1)})

    def test_complete_bipartite_matches_the_validating_constructor(self):
        for m in range(6):
            g = complete_bipartite(m)
            assert g == BipartiteGraph(m, [(s, t) for s in range(m) for t in range(m)])
            assert g.min_degree() == g.max_degree() == m
        with pytest.raises(InvalidInputError, match="m must be >= 0, got -1"):
            complete_bipartite(-1)

    def test_pair_codes_must_fit_in_int64(self):
        # 3037000500^2 > 2^63 > 3037000499^2; the check comes before any array is built
        m = 3037000500
        for build in (lambda: BipartiteGraph(m, [(0, m - 1)]), lambda: complete_bipartite(m)):
            with pytest.raises(SizeLimitError, match=rf"^m\^2 = {m}\^2 >= 2\^63"):
                build()
        assert (m - 1) ** 2 < 2 ** 63 <= m ** 2

    def test_dense_arrays_stay_within_1_gib(self):
        # each degree array has m int64 entries and complete_bipartite's codes m^2;
        # both refusals come before any array is built
        with pytest.raises(SizeLimitError, match=r"^m = 134217729 > 2\^27"):
            BipartiteGraph(2 ** 27 + 1, [])
        with pytest.raises(SizeLimitError, match=r"^m\^2 = 11586\^2 > 2\^27"):
            complete_bipartite(11586)
        assert 11585 ** 2 <= 2 ** 27 < 11586 ** 2

    def test_immutable(self):
        g = complete_bipartite(2)
        with pytest.raises(AttributeError):
            g.m = 3
        with pytest.raises(ValueError):
            g.codes[0] = 3


def _probe_at(graph, node):
    """The r that the factor network `graph` probes at s node `node` (1 + the
    vertex's offset in the network): the vertex's degree, its row length,
    minus its source capacity deg - r.  A closed search (capacity 0) reads
    as r = deg; no test below meets one at the node it watches."""
    return graph.indptr[node + 1] - graph.indptr[node] - graph.data[node - 1]


def _flip_one_flow_unit(monkeypatch, at_r, node=1):
    """Make maximum_flow, when the network probes r = at_r at s node `node`,
    return a flow whose first s -> t arc at that vertex carries 1 unit if it
    carried none and none if it carried 1, while the flow value and every
    source arc are kept: the witness loses or gains that edge, so the vertex
    has degree at_r - 1 or at_r + 1 in it.

    bifactor imports its scipy solvers inside the functions that call them,
    so patching the scipy module itself reaches every call."""
    real = csgraph.maximum_flow

    def fake(graph, source, sink):
        result = real(graph, source, sink)
        if _probe_at(graph, node) != at_r:
            return result
        m = (graph.shape[0] - 2) // 2
        flow = result.flow.copy()
        lo, hi = flow.indptr[node], flow.indptr[node + 1]
        arc = lo + np.flatnonzero(flow.indices[lo:hi] > m)[0]
        flow.data[arc] = 1 - flow.data[arc]
        return SimpleNamespace(flow_value=result.flow_value, flow=flow)

    monkeypatch.setattr(csgraph, "maximum_flow", fake)


def _swap_onto_non_edges(monkeypatch, at_r):
    """Make maximum_flow, when the network probes r = at_r at its first s
    vertex, move the arcs (0, 1) and (1, 0) of the returned flow, with the
    flow they carry, onto (0, 0) and (1, 1): every degree and the flow value
    stay as they were, but the witness gains the diagonal, which is not in
    the host."""
    real = csgraph.maximum_flow

    def fake(graph, source, sink):
        result = real(graph, source, sink)
        if _probe_at(graph, 1) != at_r:
            return result
        m = (graph.shape[0] - 2) // 2
        flow = result.flow.copy()
        for node, (t_from, t_to) in ((1, (1, 0)), (2, (0, 1))):
            lo, hi = flow.indptr[node], flow.indptr[node + 1]
            (arc,) = np.flatnonzero(flow.indices[lo:hi] == 1 + m + t_from)
            flow.indices[lo + arc] = 1 + m + t_to
        return SimpleNamespace(flow_value=result.flow_value, flow=flow)

    monkeypatch.setattr(csgraph, "maximum_flow", fake)


def two_block_graph():
    """Input 42 of the Gale-Ryser threshold test: m = 8, δ = 3, r* = 2."""
    rng = random.Random(3042)
    m = rng.randint(1, 8)
    a, b = rng.randint(0, m), rng.randint(0, m)
    return BipartiteGraph(m, [(s, t) for s in range(m) for t in range(m)
                              if rng.random() < (0.9 if (s < a) == (t < b) else 0.2)])


def k44_minus_diagonal():
    """3-regular, so its only 3-factor is the graph itself: no edge carries flow."""
    return BipartiteGraph(4, [(s, t) for s in range(4) for t in range(4) if s != t])


class TestWitnessCheck:
    def test_find_and_max_factor_reject_a_non_edge(self, monkeypatch):
        g = k44_minus_diagonal()
        _swap_onto_non_edges(monkeypatch, at_r=3)
        for search in (lambda: find_factor(g, 3), lambda: max_factor(g)):
            with pytest.raises(InvariantViolation, match="not present in the host graph"):
                search()

    def test_robustness_trial_and_sweep_reject_a_wrong_degree(self, monkeypatch):
        # p = 1 keeps all of K_{4,4}, whose max-factor search probes r = 4
        # first; rho = 1/2 keeps the sweep's hypothesis check at r = 2
        _flip_one_flow_unit(monkeypatch, at_r=4)
        g = complete_bipartite(4)
        with pytest.raises(InvariantViolation, match="degree exactly 4"):
            randomlab.factor_robustness_trial(g, 0.5, 1.0, 0.1, seed=0)
        with pytest.raises(InvariantViolation, match="degree exactly 4"):
            randomlab.factor_robustness_sweep(g, 0.5, 1.0, 0.1, trials=2, master_seed=0)

    def test_find_factor_rejects_a_wrong_degree(self, monkeypatch):
        _flip_one_flow_unit(monkeypatch, at_r=2)
        with pytest.raises(InvariantViolation):
            find_factor(complete_bipartite(4), 2)

    def test_max_factor_checks_every_feasible_r(self, monkeypatch):
        # K_{4,4}: the first probe, r = δ = 4, is feasible and final.  The
        # two-block graph has m = 8, δ = 3 and r* = 2: the search probes
        # r = 3 (infeasible), 1, 2, so only the per-r check can see the broken
        # r = 1 witness, which never becomes the returned factor
        two_block = two_block_graph()
        assert (two_block.m, two_block.min_degree(), max_factor(two_block)[0]) == (8, 3, 2)
        assert find_factor(two_block, 1) is not None
        for g, at_r in ((complete_bipartite(4), 4), (two_block, 1)):
            with monkeypatch.context() as patch:
                _flip_one_flow_unit(patch, at_r)
                with pytest.raises(InvariantViolation):
                    max_factor(g)

    def test_max_factors_checks_each_graph_of_the_union(self, monkeypatch):
        # the first s vertex of the second graph is network node 1 + 3, where
        # the one flow probes r = 4; without the second graph that node is
        # the third graph's, probed at r = 5, so nothing there is broken
        graphs = [complete_bipartite(3), complete_bipartite(4), complete_bipartite(5)]
        _flip_one_flow_unit(monkeypatch, at_r=4, node=1 + 3)
        with pytest.raises(InvariantViolation, match="degree exactly 4"):
            max_factors(graphs)
        assert max_factors(graphs[::2]) == [max_factor(graphs[0])[1], max_factor(graphs[2])[1]]


class TestMaxFactors:
    def test_each_graph_gets_its_own_max_factor(self):
        graphs = [complete_bipartite(4), two_block_graph(), BipartiteGraph(5, []),
                  random_bipartite(3, 0.6, 7), random_bipartite(14, 0.5, 8),
                  random_bipartite(6, 0.7, 9, min_deg=3), random_bipartite(20, 0.4, 10)]
        results = max_factors(graphs)
        assert [f.r for f in results] == [4, 2, 0] + [max_factor(g)[0] for g in graphs[3:]]
        for g, factor in zip(graphs, results):
            r_star = factor.r
            factor.check_against(g)
            assert (r_star, factor) == max_factor(g)
            if g.m <= GALE_RYSER_MAX_M:
                assert gale_ryser_check(g, r_star).holds
                if r_star < g.m:
                    assert not gale_ryser_check(g, r_star + 1).holds
        assert max_factors([]) == []


def _record_flow_values(monkeypatch):
    """Make maximum_flow append each flow value it returns to the list returned."""
    real, values = csgraph.maximum_flow, []

    def spy(graph, source, sink):
        result = real(graph, source, sink)
        values.append(int(result.flow_value))
        return result

    monkeypatch.setattr(csgraph, "maximum_flow", spy)
    return values


def _assert_max_factor(g, factor, r_star):
    assert factor.r == r_star
    factor.check_against(g)
    if g.m <= GALE_RYSER_MAX_M:
        assert gale_ryser_check(g, r_star).holds
        assert not gale_ryser_check(g, r_star + 1).holds


def regular_graph(m, r, seed):
    """An r-regular bipartite graph: r shifted copies of one random perfect matching."""
    perm = random.Random(seed).sample(range(m), m)
    return BipartiteGraph(m, [(s, perm[(s + j) % m]) for s in range(m) for j in range(r)])


class TestComplementFlow:
    # the factor network routes the deg - r edges a factor leaves out at each
    # vertex, |E| - r·m units when the probe is feasible
    def test_a_regular_graph_is_its_own_factor_at_zero_demand(self, monkeypatch):
        flows = _record_flow_values(monkeypatch)
        for g in (k44_minus_diagonal(), cycle6(), regular_graph(12, 5, 31), complete_bipartite(6)):
            r_star, factor = max_factor(g)
            _assert_max_factor(g, factor, g.min_degree())
            assert factor.graph == g and find_factor(g, r_star) == factor
        assert flows == [0] * 8  # one flow per search, each routing nothing

    def test_probes_below_the_minimum_degree(self, monkeypatch):
        # r = 3 routes less than |E| - 3m; r = 1 and r = 2 route all of theirs
        g = two_block_graph()
        num_edges = len(g.codes)
        flows = _record_flow_values(monkeypatch)
        r_star, factor = max_factor(g)
        assert (g.m, g.min_degree()) == (8, 3)
        _assert_max_factor(g, factor, 2)
        assert flows[0] < num_edges - 3 * 8
        assert flows[1:] == [num_edges - 1 * 8, num_edges - 2 * 8]

    def test_one_union_mixes_closed_zero_demand_and_lower_searches(self, monkeypatch):
        # K_{4,4} and the two regular graphs close at the first flow with
        # zero demand, the edgeless graph never opens, and both two-block
        # graphs keep searching below their minimum degree while the others
        # sit at capacity 0.  The m = 40 one is the `factor` golden input:
        # δ = 12, r* = 7.
        rng = random.Random(4040)
        wide = BipartiteGraph(40, [(s, t) for s in range(40) for t in range(40)
                                   if rng.random() < (0.9 if (s < 25) == (t < 15) else 0.12)])
        graphs = [complete_bipartite(4), k44_minus_diagonal(), BipartiteGraph(5, []),
                  two_block_graph(), regular_graph(9, 4, 32), wide]
        flows = _record_flow_values(monkeypatch)
        results = max_factors(graphs)
        assert len(flows) > 1
        assert [f.r for f in results] == [4, 3, 0, 2, 4, 7] and wide.min_degree() == 12
        for g, factor in zip(graphs, results):
            _assert_max_factor(g, factor, factor.r)
            assert (factor.r, factor) == max_factor(g)
        assert all(results[i].graph == graphs[i] for i in (0, 1, 4))


class TestClosedForms:
    def test_csaba_rho_values(self):
        assert csaba_rho(0.5) == 0.25
        assert csaba_rho(1.0) == 1.0
        assert abs(csaba_rho(0.72) - (0.72 + math.sqrt(0.44)) / 2) < 1e-12

    def test_csaba_rho_domain(self):
        with pytest.raises(InvalidInputError):
            csaba_rho(0.49)
        with pytest.raises(InvalidInputError):
            csaba_rho(1.01)


class TestPeel:
    def test_cycle6_two_matchings(self):
        g = cycle6()
        factor = Factor(r=2, graph=g)
        ms = peel_matchings(factor, g)
        assert ms.shape == (2, 3) and ms.dtype == np.int64
        assert peel_decomposes(ms, factor)

    def test_complete_three_matchings(self):
        g = complete_bipartite(3)
        factor = Factor(r=3, graph=g)
        ms = peel_matchings(factor, g)
        assert ms.shape == (3, 3)
        assert peel_decomposes(ms, factor)

    def test_random_factors_decompose_exactly(self):
        done = 0
        i = 0
        while done < 25:
            rng = random.Random(20 + i)
            i += 1
            m = rng.randint(3, 20)
            g = random_bipartite(m, rng.uniform(0.5, 0.9), 40 + i)
            r_star, _ = max_factor(g)
            if r_star == 0:
                continue
            r = rng.randint(1, r_star)
            factor = find_factor(g, r)
            ms = peel_matchings(factor, g)
            assert ms.shape == (r, m)
            assert peel_decomposes(ms, factor)
            assert np.array_equal(ms, peel_reference(factor, g))
            done += 1

    def test_long_cycle_factor_peels_without_recursion_limit(self):
        # s_i ~ t_i, t_{i+1}: one cycle of length 2m, whose augmenting paths
        # are far longer than the default recursion limit
        m = 2000
        g = BipartiteGraph(m, [(i, i) for i in range(m)] + [(i, (i + 1) % m) for i in range(m)])
        factor = Factor(r=2, graph=g)
        ms = peel_matchings(factor, g)
        assert ms.shape == (2, m)
        assert peel_decomposes(ms, factor)
        assert np.array_equal(ms, peel_reference(factor, g))

    def test_large_factor_peels_into_disjoint_perfect_matchings(self):
        # m = 400 at density 0.7: r* is in the hundreds, so the peel runs
        # hundreds of rounds on a graph with ~10^5 edges
        m = 400
        g = random_bipartite(m, 0.7, 400)
        r_star, factor = max_factor(g)
        assert r_star > 200
        ms = peel_matchings(factor, g)
        assert ms.shape == (r_star, m)
        assert peel_decomposes(ms, factor)
        assert np.array_equal(ms, peel_reference(factor, g))

    def test_corrupt_factor_detected(self):
        g = complete_bipartite(3)
        bogus = Factor(r=2, graph=BipartiteGraph(3, [(0, 0), (1, 1), (2, 2)]))
        with pytest.raises(InvariantViolation, match="degree exactly 2"):
            peel_matchings(bogus, g)
        with pytest.raises(InvariantViolation, match="not present in the host"):
            peel_matchings(Factor(r=2, graph=cycle6()),
                           BipartiteGraph(3, cycle6().edges - {(0, 0)}))
        with pytest.raises(InvariantViolation, match="m=3 but the host graph has m=4"):
            peel_matchings(Factor(r=3, graph=g), complete_bipartite(4))

    def test_peel_factors_decomposes_factors_of_different_r_and_m(self):
        hosts = [complete_bipartite(3), cycle6(), random_bipartite(9, 0.7, 11),
                 BipartiteGraph(4, []), random_bipartite(12, 0.6, 12), BipartiteGraph(0, [])]
        factors = [Factor(3, hosts[0]), Factor(2, hosts[1]), max_factor(hosts[2])[1],
                   Factor(0, hosts[3]), find_factor(hosts[4], 2), Factor(0, hosts[5])]
        assert [f.r for f in factors] == [3, 2, max_factor(hosts[2])[0], 0, 2, 0]
        peeled = peel_factors(factors)
        assert len(peeled) == len(factors)
        for rows, factor in zip(peeled, factors):
            assert rows.shape == (factor.r, factor.graph.m) and rows.dtype == np.int64
            assert peel_decomposes(rows, factor)
        assert peel_factors([]) == []

    def test_peel_factors_refuses_a_factor_that_is_not_r_regular(self):
        # the degrees are checked before any matching round runs
        bogus = Factor(r=2, graph=BipartiteGraph(3, [(0, 0), (1, 1), (2, 2)]))
        with pytest.raises(InvariantViolation, match="^not every vertex has degree exactly 2$"):
            peel_factors([Factor(r=2, graph=cycle6()), bogus])

    def test_matching_off_the_remainder_detected(self, monkeypatch):
        # 0 -> 2, 1 -> 0, 2 -> 1 is a permutation, but none of its pairs is
        # an edge of the 6-cycle, so masking it off removes nothing
        monkeypatch.setattr(csgraph, "maximum_bipartite_matching",
                            lambda graph, perm_type: np.array([2, 0, 1], dtype=np.int32))
        g = cycle6()
        with pytest.raises(InvariantViolation, match="not a set of m edges of the remainder"):
            peel_matchings(Factor(r=2, graph=g), g)


class TestPermanent:
    def test_known_counts(self):
        assert count_perfect_matchings(complete_bipartite(3)) == 6
        assert count_perfect_matchings(cycle6()) == 2

    def test_derangement_k44_minus_matching(self):
        g = BipartiteGraph(4, [(s, t) for s in range(4) for t in range(4) if s != t])
        assert count_perfect_matchings(g) == 9

    def test_against_brute_force(self):
        for i in range(40):
            rng = random.Random(900 + i)
            m = rng.randint(1, 6)
            g = random_bipartite(m, rng.uniform(0.2, 1.0), 1100 + i)
            assert count_perfect_matchings(g) == brute_force_matching_count(g)

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            count_perfect_matchings(complete_bipartite(25))

    def test_empty_part(self):
        assert count_perfect_matchings(BipartiteGraph(0, [])) == 1


def test_json_roundtrip(tmp_path):
    g = random_bipartite(6, 0.5, 77)
    path = str(tmp_path / "g.json")
    write_json(to_json_dict(g), path)
    assert read_bipartite(path) == g


@pytest.mark.parametrize("bad", [(0.5, 1), (1.9, 0), (True, 1), (0, False), (0, 1, 2), 5],
                         ids=["float", "float-above", "bool", "bool-second", "3-tuple", "int"])
def test_constructor_refuses_a_pair_that_is_not_two_integers(bad):
    with pytest.raises(InvalidInputError, match=r"^edge 1: must be a pair of integers$"):
        BipartiteGraph(3, [(0, 1), bad])


def test_json_schema_errors():
    with pytest.raises(ParseError):
        from_json_dict({"m": 2})
    with pytest.raises(ParseError):
        from_json_dict({"m": 2, "edges": [[0, 5]]})
    with pytest.raises(ParseError):
        from_json_dict({"m": 2, "edges": [[0]]})
    # the first bad pair in input order is named, whatever its fault
    with pytest.raises(ParseError, match=r"^edge \(0,9\) out of range for m=2$"):
        from_json_dict({"m": 2, "edges": [[0, 9], [0, 1.5]]})
    with pytest.raises(ParseError, match=r"^edge 1: must be a pair of integers$"):
        from_json_dict({"m": 2, "edges": [[0, 1], [0, 1.5], [0, 9]]})
    with pytest.raises(ParseError, match=r"^edge 2 \(0,1\): duplicate edge$"):
        from_json_dict({"m": 2, "edges": [[0, 1], [1, 1], [0, 1], [1, 1], [0, 9]]})
