import math
import tracemalloc

import pytest

from hampack import constructions, util
from hampack.constructions import (ParityConstruction, complete_hypergraph, parity_hypergraph,
                                   random_hypergraph, verify_no_odd_factor)
from hampack.errors import InvalidQueryError, ParseError, SizeLimitError
from hampack.hypercore import Hypergraph, degree_report

from helpers import (complete_hypergraph_reference, parity_hypergraph_reference,
                     random_hypergraph_reference, verify_no_odd_factor_reference)

# every 1 <= k <= n <= 14, so n = k, k = 1 and the parity parts with a >= n/2
# (n = 1, 2, 5, 6, 9, 10, 13, 14) are among them, plus two larger shapes
UNRANKED_SHAPES = [(n, k) for n in range(1, 15) for k in range(1, n + 1)] + [(40, 4), (90, 3)]


@pytest.mark.parametrize("n,k,expected", [(4, 3, 4), (6, 3, 20), (5, 5, 1)])
def test_complete_counts(n, k, expected):
    assert complete_hypergraph(n, k).num_edges() == expected


def test_random_extremes():
    assert random_hypergraph(7, 3, 1.0, 3) == complete_hypergraph(7, 3)
    assert random_hypergraph(7, 3, 0.0, 3).num_edges() == 0


def test_random_deterministic():
    assert random_hypergraph(10, 3, 0.5, 99) == random_hypergraph(10, 3, 0.5, 99)
    assert random_hypergraph(10, 3, 0.5, 99) != random_hypergraph(10, 3, 0.5, 100)


def test_random_edge_count_within_four_sigma():
    total = math.comb(20, 3)
    mean = 0.5 * total
    sigma = math.sqrt(total * 0.25)
    for seed in range(30):
        count = random_hypergraph(20, 3, 0.5, seed).num_edges()
        assert abs(count - mean) <= 4 * sigma


@pytest.mark.parametrize("n", [1, 2, 5, 9, 13])
def test_random_matches_the_per_subset_draws(n):
    for k in range(1, n + 1):
        for p in (0.0, 0.3, 0.5, 1.0):
            for seed in (0, 1, 2 ** 63 + 5):
                assert random_hypergraph(n, k, p, seed) == \
                    random_hypergraph_reference(n, k, p, seed), (n, k, p, seed)


@pytest.mark.parametrize("chunk", [1, 7, 100, 715, 716])
def test_random_draws_continue_across_chunks(monkeypatch, chunk):
    # C(13, 4) = 715 subsets: chunks of 1 and 7 end mid-way, 715 ends exactly
    # at the last subset and 716 holds them all.
    monkeypatch.setattr(util, "_DRAW_CHUNK", chunk)
    for seed in (0, 2 ** 63 + 5):
        assert random_hypergraph(13, 4, 0.5, seed) == random_hypergraph_reference(13, 4, 0.5, seed)


def test_random_rejects_bad_shapes_before_drawing():
    with pytest.raises(ParseError):
        random_hypergraph(3, 5, 0.5, 0)
    with pytest.raises(SizeLimitError):
        random_hypergraph(10 ** 7, 3, 0.5, 0)
    with pytest.raises(ParseError):     # the shape is checked before p
        random_hypergraph(3, 5, 1.5, 0)


@pytest.mark.parametrize("generate", [complete_hypergraph, parity_hypergraph],
                         ids=["complete", "parity"])
def test_generators_reject_bad_shapes_before_enumerating(generate):
    """The same errors as `random_hypergraph` above, raised by `check_dimensions`."""
    with pytest.raises(ParseError):
        generate(3, 5)
    with pytest.raises(SizeLimitError):
        generate(10 ** 7, 3)


@pytest.mark.parametrize("n,k", UNRANKED_SHAPES)
def test_unranked_generators_match_the_combinations_references(n, k):
    assert complete_hypergraph(n, k) == complete_hypergraph_reference(n, k)
    cons, ref = parity_hypergraph(n, k), parity_hypergraph_reference(n, k)
    assert cons.hypergraph == ref.hypergraph and cons.part_a == ref.part_a


@pytest.mark.parametrize("n,k", [(n, k) for n, k in UNRANKED_SHAPES if n <= 14])
def test_parity_certificates_match_the_set_reference(n, k):
    cons, ref = parity_hypergraph(n, k), parity_hypergraph_reference(n, k)
    for r in (1, 3):
        if n % k:
            with pytest.raises(InvalidQueryError):
                verify_no_odd_factor(cons, r)
        else:
            assert verify_no_odd_factor(cons, r) == verify_no_odd_factor_reference(ref, r)


def test_certificate_reads_any_part_a():
    # parts that are not an initial segment 0..a-1, and the empty part; every
    # edge of `even` meets {1, 4, 5} in 0 or 2 vertices
    even = Hypergraph(6, 3, [(0, 1, 4), (2, 4, 5), (0, 2, 3), (1, 3, 5)])
    for h in (complete_hypergraph(6, 3), even):
        for part_a in ((1, 4, 5), (0, 2), ()):
            cons = ParityConstruction(hypergraph=h, part_a=part_a)
            for r in (1, 3):
                assert verify_no_odd_factor(cons, r) == verify_no_odd_factor_reference(cons, r)
    assert verify_no_odd_factor(ParityConstruction(even, (1, 4, 5)), 1).no_factor


@pytest.mark.parametrize("generate", [complete_hypergraph, parity_hypergraph],
                         ids=["complete", "parity"])
def test_generators_refuse_rows_past_1_gib_before_allocating(generate):
    # C(1000, 3)·3 ≈ 5·10^8 row entries > 2^27
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match=r"C\(1000, 3\)·3 > 2\^27: the edge rows"):
            generate(1000, 3)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("generate", [complete_hypergraph, parity_hypergraph],
                         ids=["complete", "parity"])
def test_row_bound_admits_exactly_its_entries(monkeypatch, generate):
    # C(12, 3)·3 = 660 row entries
    monkeypatch.setattr(constructions, "DENSE_MAX_ENTRIES", 660)
    generate(12, 3)
    monkeypatch.setattr(constructions, "DENSE_MAX_ENTRIES", 659)
    with pytest.raises(SizeLimitError):
        generate(12, 3)


@pytest.mark.parametrize("n,expected_a", [(12, 5), (6, 3), (10, 5), (7, 3)])
def test_parity_part_size(n, expected_a):
    cons = parity_hypergraph(n, 3)
    assert len(cons.part_a) == expected_a
    assert len(cons.part_a) % 2 == 1


def test_parity_edges_have_even_intersection():
    for n, k in [(6, 3), (8, 3), (9, 4), (12, 3)]:
        cons = parity_hypergraph(n, k)
        a = set(cons.part_a)
        assert cons.hypergraph.num_edges() > 0
        for e in cons.hypergraph.edges:
            assert len(a.intersection(e)) % 2 == 0


def test_parity_takes_all_even_subsets():
    cons = parity_hypergraph(6, 3)
    # n=6, |A|=3: triples meeting A in 0 or 2 vertices
    assert cons.hypergraph.num_edges() == 1 + 3 * 3


def test_parity_min_codegree_guarantee():
    for n in range(6, 15):
        for k in (3, 4):
            cons = parity_hypergraph(n, k)
            rep = degree_report(cons.hypergraph, k - 1)
            assert rep.min_degree >= n / 2 - k - 1


def test_no_odd_factor_certificates():
    cons = parity_hypergraph(12, 3)
    for r in (1, 3, 5):
        cert = verify_no_odd_factor(cons, r)
        assert cert.no_factor
        assert cert.part_a_size_odd and cert.all_intersections_even
        # the parity clash: any factor's intersection sum is even, degree sum odd
        assert cert.edge_sum_parity == 0 and cert.degree_sum_parity == 1
    assert verify_no_odd_factor(cons, 1).exhaustive_pm_count == 0


def test_no_odd_factor_small_instance():
    cons = parity_hypergraph(6, 3)
    cert = verify_no_odd_factor(cons, 1)
    assert cert.no_factor and cert.exhaustive_pm_count == 0


def test_no_odd_factor_rejects_even_r():
    with pytest.raises(InvalidQueryError):
        verify_no_odd_factor(parity_hypergraph(6, 3), 2)


def test_parity_clash_arithmetic_all_small_n():
    for n in (6, 9, 12):
        cons = parity_hypergraph(n, 3)
        for r in (1, 3, 5, 7):
            cert = verify_no_odd_factor(cons, r)
            assert cert.degree_sum_parity != cert.edge_sum_parity
            assert cert.no_factor


def test_exact_cover_search_finds_matchings_when_they_exist():
    from hampack.census import perfect_matchings
    assert perfect_matchings(complete_hypergraph(6, 3)) == 10
    assert perfect_matchings(complete_hypergraph(4, 2)) == 3
