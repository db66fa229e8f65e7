"""Shared test generators."""
import random
from itertools import combinations

from hampack.bifactor import BipartiteGraph
from hampack.hypercore import Hypergraph
from hampack.reduction import build_aux_graph


def random_bipartite(m, p, seed, min_deg=None):
    """Bernoulli(p) bipartite graph; optionally add edges until both sides
    reach min_deg (only ever adds, so density bounds stay one-sided)."""
    rng = random.Random(seed)
    edges = {(s, t) for s in range(m) for t in range(m) if rng.random() < p}
    if min_deg is not None:
        for side in (0, 1):
            for v in range(m):
                have = {e[1 - side] for e in edges if e[side] == v}
                while len(have) < min_deg:
                    w = rng.randrange(m)
                    if w not in have:
                        have.add(w)
                        edges.add((v, w) if side == 0 else (w, v))
    return BipartiteGraph(m, edges)


def brute_force_matching_count(g):
    """Permanent by brute enumeration over one side; oracle for small m."""
    from itertools import permutations
    count = 0
    for perm in permutations(range(g.m)):
        if all((s, perm[s]) in g.edges for s in range(g.m)):
            count += 1
    return count


def aux_graphs(h, schemes):
    """The aux graph of each scheme, in order: the input `assign_edges` takes."""
    return [build_aux_graph(h, s) for s in schemes]


def candidate_partitions(edge, schemes):
    """Indices of the schemes under which `edge` splits as junction-pair ∪ block
    (or tuple ∪ block for ell = 0), i.e. realizes an edge of their aux graph.
    Builds a one-edge hypergraph per scheme; the oracle for `assign_edges`."""
    return [i for i, s in enumerate(schemes)
            if build_aux_graph(Hypergraph(s.n, s.k, [edge]), s).graph.edges]


def one_uncovered_pair(n=12):
    """K_n^(3) without the edges through {0, 1}: the pair (0, 1) lies in no
    edge, so the minimum codegree is 0, while every other pair has codegree
    at least n - 3."""
    return Hypergraph(n, 3, [e for e in combinations(range(n), 3) if e[:2] != (0, 1)])
