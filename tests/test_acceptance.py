"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  Criteria
6 and 7 instantiate asymptotic concentration statements at m = 100 and m = 20.
Criterion 6 derives its margin in the test from the exact binomial law of the
minimum degree of G_p, which bounds every factor of G_p; criterion 7 runs on a
hypergraph whose minimum codegree meets the lemma's hypothesis and asserts it.
"""
import math
import random
import time
from itertools import combinations, permutations

from hampack.bifactor import (complete_bipartite, find_factor, gale_ryser_check,
                              max_factor, peel_matchings)
from hampack.census import cycle_counts, expected_count
from hampack.constructions import (complete_hypergraph, parity_hypergraph,
                                   random_hypergraph, verify_no_odd_factor)
from hampack.hypercore import Hypergraph, degree_report
from hampack.packer import pack_min_degree
from hampack.randomlab import (aux_degree_sweep, factor_robustness_sweep,
                               random_subgraph)
from hampack.reduction import PartitionScheme, build_aux_graph, verify_cycle

from helpers import (all_schemes, count_perfect_matchings, csaba_rho, peel_decomposes,
                     random_bipartite)


def announce(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_counting_oracle_vs_formula():
    t0 = time.time()
    results = {}
    for n in (4, 6, 8):
        count = cycle_counts(complete_hypergraph(n, 3), 1)[0]
        results[n] = count
    elapsed = time.time() - t0
    expected = {4: 6, 6: 120, 8: 5040}
    formula_ok = all(results[n] == round(math.exp(expected_count(n, 3, 1, 1.0)))
                     for n in (4, 6, 8))
    ok = results == expected and formula_ok and elapsed < 30.0
    announce(1, ok, f"counts {results} (expected {expected}), "
                    f"formula match {formula_ok}, {elapsed:.1f}s < 30s")
    assert results == expected
    assert formula_ok
    assert elapsed < 30.0


def test_criterion_2_reduction_summation_identity():
    schemes = []
    for a in combinations(range(4), 2):
        b = tuple(v for v in range(4) if v not in a)
        for seq in permutations(a):
            schemes.append(PartitionScheme(
                k=3, ell=1, tuples_a=((seq[0],), (seq[1],)),
                blocks_b=tuple(sorted(((b[0],), (b[1],))))))
    subjects = [complete_hypergraph(4, 3)]
    subjects += [random_hypergraph(4, 3, p, seed)
                 for p, seed in [(0.5, 1), (0.7, 2), (0.9, 3), (0.4, 4)]]
    checked = 0
    for h in subjects:
        total = sum(count_perfect_matchings(build_aux_graph(h, s).graph)
                    for s in schemes)
        exact = cycle_counts(h, 1)[0]
        assert total == 4 * exact, f"sum {total} != 2m * {exact}"
        checked += 1
    # the same identity over every scheme of every ell >= 1 shape with
    # n <= 8 and k <= 5, on a random and on the complete hypergraph
    for n, k, ell in [(4, 3, 1), (6, 3, 1), (8, 3, 1), (6, 4, 1), (6, 5, 2)]:
        m, b = n // (k - ell), k - 2 * ell
        every = list(all_schemes(n, k, ell))
        assert len(every) == (math.comb(n, ell * m) * math.factorial(ell * m)
                              // math.factorial(ell) ** m * math.factorial(b * m)
                              // (math.factorial(b) ** m * math.factorial(m)))
        for h in (random_hypergraph(n, k, 0.8, 1), complete_hypergraph(n, k)):
            total = sum(count_perfect_matchings(build_aux_graph(h, s).graph) for s in every)
            exact = cycle_counts(h, ell)[0]
            assert total == 2 * m * exact, f"({n}, {k}, {ell}): sum {total} != 2m * {exact}"
            checked += 1
    announce(2, True, f"sum over every scheme / 2m equals the exact count on "
                      f"{checked} hypergraphs over 5 shapes (integer equality)")


def test_criterion_3_gale_ryser_iff_flow():
    disagreements = 0
    instances = 0
    for i in range(300):
        rng = random.Random(1000 + i)
        m = rng.randint(1, 5)
        g = random_bipartite(m, rng.uniform(0.15, 0.95), 5000 + i)
        for r in range(m + 1):
            instances += 1
            if gale_ryser_check(g, r).holds != (find_factor(g, r) is not None):
                disagreements += 1
    ok = disagreements == 0
    announce(3, ok, f"{instances} (graph, r) instances over 300 graphs, "
                    f"{disagreements} disagreements")
    assert disagreements == 0


def test_criterion_4_factor_decomposition():
    failures = 0
    done = 0
    i = 0
    while done < 100:
        rng = random.Random(3000 + i)
        i += 1
        m = rng.randint(3, 20)
        g = random_bipartite(m, rng.uniform(0.5, 0.95), 4000 + i)
        r_star, _ = max_factor(g)
        if r_star == 0:
            continue
        r = rng.randint(1, r_star)
        factor = find_factor(g, r)
        matchings = peel_matchings(factor, g)
        good = matchings.shape == (r, m) and peel_decomposes(matchings, factor)
        if not good:
            failures += 1
        done += 1
    ok = failures == 0
    announce(4, ok, f"100 random factors (m <= 20) peeled into exactly r "
                    f"disjoint perfect matchings; {failures} failures")
    assert failures == 0


def test_criterion_5_csaba_bound_instantiation():
    violations = 0
    for i in range(100):
        rng = random.Random(7000 + i)
        m = rng.randint(20, 40)
        g = random_bipartite(m, rng.uniform(0.65, 0.9), 9000 + i,
                             min_deg=math.ceil(0.6 * m))
        delta = g.min_degree() / m
        bound = math.floor(csaba_rho(delta) * m)
        r_star, factor = max_factor(g)
        factor.check_against(g)
        if r_star < bound:
            violations += 1
    ok = violations == 0
    announce(5, ok, f"100 graphs m in [20,40], min degree >= 0.6m: "
                    f"r* >= floor(rho * m) with {violations} violations")
    assert violations == 0


def harris_min_degree_bound(m: int, p: float, t: int) -> float:
    """Lower bound on P(min degree of G_p >= t) for G = K_{m,m}.

    Each of the 2m degrees is Binomial(m, p), and "degree >= t" is an
    increasing event, so by the Harris-FKG inequality the probability that
    all of them hold is at least the product of the marginals.
    """
    below = sum(math.comb(m, i) * p ** i * (1 - p) ** (m - i) for i in range(t))
    return (1.0 - below) ** (2 * m)


def test_criterion_6_factor_robustness_monte_carlo():
    m, p = 100, 0.3
    # every r-factor of G_p has r <= min degree of G_p, so the largest target
    # that can be met in >= 99% of trials is the finite-m form of (1 - o(1)) r p
    t = max(x for x in range(m + 1) if harris_min_degree_bound(m, p, x) >= 0.99)
    bound = harris_min_degree_bound(m, p, t)
    epsilon = 1.0 - t / (m * p)
    g = complete_bipartite(m)
    t0 = time.time()
    report = factor_robustness_sweep(g, rho=1.0, p=p, epsilon=epsilon,
                                     trials=100, master_seed=20260810)
    elapsed = time.time() - t0
    subs = [random_subgraph(g, p, seed) for seed in report.trial_seeds]
    min_degrees = [sub.min_degree() for sub in subs]
    at_ceiling = sum(r == d for r, d in zip(report.r_stars, min_degrees))
    over_ceiling = [(seed, r, d) for seed, r, d
                    in zip(report.trial_seeds, report.r_stars, min_degrees) if r > d]
    # below the ceiling an under-reported r* would hide behind the low target
    below_maximal = all(find_factor(sub, r + 1) is None
                        for sub, r, d in zip(subs, report.r_stars, min_degrees)
                        if r < d)
    ok = (t == 13 == report.target and report.successes >= 95 and elapsed < 120.0
          and not over_ceiling and below_maximal)
    announce(6, ok, f"target t = {t} (epsilon = {epsilon:.4f}, Harris bound "
                    f"P(min deg G_p >= t) >= {bound:.4f}) "
                    f"in G_0.3 of K_100,100: {report.successes}/100 successes "
                    f"(need >= 95), {elapsed:.0f}s; r* range "
                    f"[{min(report.r_stars)}, {max(report.r_stars)}], "
                    f"r* = min deg G_p in {at_ceiling}/100 trials")
    assert t == 13 == report.target
    assert elapsed < 120.0
    assert not over_ceiling, f"(seed, r*, min degree of G_p): {over_ceiling}"
    assert below_maximal, "a trial below the min-degree ceiling has an (r*+1)-factor"
    assert report.successes >= 95, (
        f"{report.successes}/100 trials contained a {report.target}-factor")


def test_criterion_7_aux_min_degree_monte_carlo():
    n, delta, epsilon = 40, 0.7, 0.1
    h = random_hypergraph(n, 3, 0.97, 424242)
    codegree = degree_report(h, 2).min_degree
    report = aux_degree_sweep(h, 1, delta=delta, epsilon=epsilon,
                              trials=50, master_seed=7)
    threshold = report.per_trial[0].threshold
    ok = report.hypothesis_met and report.successes >= 48
    announce(7, ok, f"min codegree {codegree} vs (0.7 + 0.1) * {n} = "
                    f"{(delta + epsilon) * n:.0f}, hypothesis_met "
                    f"{report.hypothesis_met}; aux min degree >= {threshold:.0f} "
                    f"(= (0.7 + 0.05) * 20) on 50 schemes: "
                    f"{report.successes}/50 (need >= 48)")
    assert report.hypothesis_met, (
        f"min codegree {codegree} is below (delta + epsilon) * n")
    assert report.successes >= 48, (
        f"{report.successes}/50 schemes met the threshold {threshold}")


def test_criterion_8_packing_invariants():
    violations = 0
    for run in range(20):
        h = random_hypergraph(24, 3, 0.9, 9000 + run)
        res = pack_min_degree(h, 1, num_partitions=4, seed=100 + run)
        used = set()
        for cycle in res.cycles:
            if not verify_cycle(h, cycle):
                violations += 1
            for seg in cycle.segments():
                key = tuple(sorted(seg))
                if key in used:
                    violations += 1
                used.add(key)
        assigned = sum(s.assigned_edges for s in res.per_partition)
        if assigned + res.unassigned != h.num_edges():
            violations += 1
        if len(used) != res.covered_edges:
            violations += 1
    ok = violations == 0
    announce(8, ok, f"20 seeded packing runs (n=24, density 0.9, r=4): validity, "
                    f"pairwise edge-disjointness, conservation; {violations} violations")
    assert violations == 0


def test_criterion_9_parity_construction():
    cons = parity_hypergraph(12, 3)
    scanned = degree_report(cons.hypergraph, 2).min_degree
    cert1 = verify_no_odd_factor(cons, 1)
    certs_ok = all(verify_no_odd_factor(cons, r).no_factor for r in (1, 3, 5))
    ok = scanned >= 3 and cert1.exhaustive_pm_count == 0 and certs_ok
    announce(9, ok, f"parity H(12,3): scanned codegree {scanned} >= 3, exhaustive "
                    f"search found {cert1.exhaustive_pm_count} perfect matchings, "
                    f"certificates valid for r in {{1,3,5}}: {certs_ok}")
    assert scanned >= 3
    assert cert1.exhaustive_pm_count == 0
    assert certs_ok


def test_criterion_10_matching_count_lower_bound():
    violations = 0
    worst = float("inf")
    for i in range(100):
        rng = random.Random(11000 + i)
        m = rng.randint(4, 12)
        g = random_bipartite(m, rng.uniform(0.6, 0.95), 12000 + i,
                             min_deg=math.ceil(0.6 * m))
        count = count_perfect_matchings(g)
        bound = math.factorial(m) * (0.6 ** m) * (0.5 ** m)
        if count < bound:
            violations += 1
        worst = min(worst, count / bound)
    ok = violations == 0
    announce(10, ok, f"100 graphs m <= 12, min degree >= 0.6m: matching count >= "
                     f"m! * 0.6^m * 0.5^m (generous-slack form); {violations} "
                     f"violations, worst margin {worst:.1f}x")
    assert violations == 0
