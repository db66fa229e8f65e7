import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from hampack import bifactor
from hampack.bifactor import (BipartiteGraph, Factor, almost_regular_bound,
                              complete_bipartite, count_perfect_matchings,
                              csaba_rho, find_factor, from_json_dict,
                              gale_ryser_check, max_factor, peel_matchings,
                              read_bipartite, to_json_dict, write_bipartite)
from hampack.errors import (InvalidInputError, InvariantViolation, ParseError,
                            SizeLimitError)

from helpers import brute_force_matching_count, random_bipartite


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


class TestFindFactor:
    def test_complete_full_factor(self):
        f = find_factor(complete_bipartite(3), 3)
        assert f is not None and len(f.edges) == 9

    def test_r_zero(self):
        f = find_factor(BipartiteGraph(4, []), 0)
        assert f is not None and not f.edges

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
            assert r == m and len(f.edges) == m * m

    def test_one_regular(self):
        r, f = max_factor(BipartiteGraph(4, [(i, i) for i in range(4)]))
        assert r == 1

    def test_empty(self):
        r, f = max_factor(BipartiteGraph(3, []))
        assert r == 0 and not f.edges

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
        factor = Factor(r=r_star, edges=g.edges if r_star else frozenset())
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

    def test_codes_are_the_sorted_edge_codes(self):
        for g in self.graphs():
            assert g.codes.dtype == np.int64 and not g.codes.flags.writeable
            assert g.codes.tolist() == sorted(s * g.m + t for s, t in g.edges)
            assert len(g.edges) == len(g.codes)

    def test_degrees_and_neighbours_follow_the_edges(self):
        for g in self.graphs():
            for v in range(g.m):
                assert g.neighbors_s(v) == frozenset(t for s, t in g.edges if s == v)
                assert g.neighbors_t(v) == frozenset(s for s, t in g.edges if t == v)
            degrees = [len(g.neighbors_s(v)) for v in range(g.m)] + \
                [len(g.neighbors_t(v)) for v in range(g.m)]
            assert g.min_degree() == min(degrees, default=0)
            assert g.max_degree() == max(degrees, default=0)
            assert type(g.min_degree()) is int and type(g.max_degree()) is int

    def test_equality_and_hash(self):
        for g in self.graphs():
            pairs = sorted(g.edges, reverse=True)
            same = BipartiteGraph(g.m, pairs + pairs[:3])     # any order, repeats collapse
            assert same == g and hash(same) == hash(g) == hash((g.m, g.edges))
            assert BipartiteGraph(g.m + 1, pairs) != g
            if pairs:
                assert BipartiteGraph(g.m, pairs[1:]) != g
        assert BipartiteGraph(2, [(0, 1)]) != frozenset({(0, 1)})

    def test_immutable(self):
        g = complete_bipartite(2)
        with pytest.raises(AttributeError):
            g.m = 3
        with pytest.raises(ValueError):
            g.codes[0] = 3


def _drop_one_flow_unit(monkeypatch, at_r):
    """Make maximum_flow, when the source capacities are at_r, return a flow
    whose first s vertex has degree at_r - 1 while the flow value is kept."""
    real = bifactor.maximum_flow

    def fake(graph, source, sink):
        result = real(graph, source, sink)
        if graph.data[0] != at_r:
            return result
        m = (graph.shape[0] - 2) // 2
        flow = result.flow.copy()
        lo, hi = flow.indptr[1], flow.indptr[2]
        hit = np.flatnonzero((flow.indices[lo:hi] > m) & (flow.data[lo:hi] > 0))[0]
        flow.data[lo + hit] = 0
        return SimpleNamespace(flow_value=result.flow_value, flow=flow)

    monkeypatch.setattr(bifactor, "maximum_flow", fake)


class TestWitnessCheck:
    def test_find_factor_rejects_a_wrong_degree(self, monkeypatch):
        _drop_one_flow_unit(monkeypatch, at_r=2)
        with pytest.raises(InvariantViolation):
            find_factor(complete_bipartite(4), 2)

    def test_max_factor_checks_every_feasible_r(self, monkeypatch):
        # K_{4,4}: the first probe, r = δ = 4, is feasible and final.  The
        # two-block graph (input 42 of the Gale-Ryser threshold test) has
        # m = 8, δ = 3 and r* = 2: the search probes r = 3 (infeasible), 1, 2,
        # so only the per-r check can see the broken r = 1 witness, which never
        # becomes the returned factor
        rng = random.Random(3042)
        m = rng.randint(1, 8)
        a, b = rng.randint(0, m), rng.randint(0, m)
        two_block = BipartiteGraph(m, [(s, t) for s in range(m) for t in range(m)
                                       if rng.random() < (0.9 if (s < a) == (t < b) else 0.2)])
        assert (m, two_block.min_degree(), max_factor(two_block)[0]) == (8, 3, 2)
        assert find_factor(two_block, 1) is not None
        for g, at_r in ((complete_bipartite(4), 4), (two_block, 1)):
            with monkeypatch.context() as patch:
                _drop_one_flow_unit(patch, at_r)
                with pytest.raises(InvariantViolation):
                    max_factor(g)


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

    def test_almost_regular_bound(self):
        assert almost_regular_bound(0.8, 0.0) == 0.8
        assert abs(almost_regular_bound(0.6, 0.0001) - 0.5) < 1e-12
        assert almost_regular_bound(0.55, 0.01) == 0.0
        with pytest.raises(InvalidInputError):
            almost_regular_bound(0.5, 0.01)


class TestPeel:
    def test_cycle6_two_matchings(self):
        g = cycle6()
        ms = peel_matchings(Factor(r=2, edges=g.edges), g)
        assert len(ms) == 2
        assert ms[0].isdisjoint(ms[1])
        assert ms[0] | ms[1] == set(g.edges)

    def test_complete_three_matchings(self):
        g = complete_bipartite(3)
        ms = peel_matchings(Factor(r=3, edges=g.edges), g)
        assert len(ms) == 3
        assert set().union(*ms) == set(g.edges)

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
            assert len(ms) == r
            union = set()
            for matching in ms:
                assert len(matching) == m
                assert union.isdisjoint(matching)
                union |= matching
            assert union == set(factor.edges)
            done += 1

    def test_long_cycle_factor_peels_without_recursion_limit(self):
        # s_i ~ t_i, t_{i+1}: one cycle of length 2m, along which an augmenting
        # path can run far deeper than the default recursion limit
        m = 2000
        g = BipartiteGraph(m, [(i, i) for i in range(m)] + [(i, (i + 1) % m) for i in range(m)])
        ms = peel_matchings(Factor(r=2, edges=g.edges), g)
        assert len(ms) == 2 and all(len(x) == m for x in ms)
        assert ms[0].isdisjoint(ms[1]) and ms[0] | ms[1] == g.edges

    def test_corrupt_factor_detected(self):
        g = complete_bipartite(3)
        bogus = Factor(r=2, edges=frozenset([(0, 0), (1, 1), (2, 2)]))
        with pytest.raises(InvariantViolation):
            peel_matchings(bogus, g)


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
    write_bipartite(g, path)
    assert read_bipartite(path) == g


def test_json_schema_errors():
    with pytest.raises(ParseError):
        from_json_dict({"m": 2})
    with pytest.raises(ParseError):
        from_json_dict({"m": 2, "edges": [[0, 5]]})
    with pytest.raises(ParseError):
        from_json_dict({"m": 2, "edges": [[0]]})
