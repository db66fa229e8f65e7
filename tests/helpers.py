"""Shared test generators."""
import random

from hampack.bifactor import BipartiteGraph
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
