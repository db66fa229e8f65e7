"""Shared test generators and reference implementations."""
import dataclasses
import json
import math
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from hampack.bifactor import BipartiteGraph, GaleRyserWitness
from hampack.errors import (InvalidInputError, InvalidQueryError, InvariantViolation,
                            SizeLimitError)
from hampack.hypercore import Hypergraph, check_dimensions, row_codes
from hampack.census import ENUMERATION_MAX_N
from hampack.constructions import ParityCertificate, ParityConstruction
from hampack.reduction import (HamiltonCycle, PartitionScheme, build_aux_graph,
                               canonical_rows, check_shape, segment_windows)


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


PERMANENT_MAX_M = 24


def count_perfect_matchings(g: BipartiteGraph) -> int:
    """Exact number of perfect matchings (the permanent of the biadjacency
    matrix) by inclusion-exclusion over column subsets with a Gray-code walk:
    the exact permanent oracle for the counting criteria.

    Exact integer arithmetic throughout; cost O(2^m · m).
    """
    m = g.m
    if m > PERMANENT_MAX_M:
        raise SizeLimitError(f"m={m} > {PERMANENT_MAX_M}: permanent computation infeasible")
    if m == 0:
        return 1
    if g.min_degree() == 0:
        return 0
    s, t = np.divmod(g.codes, m)
    cols = [s[t == c].tolist() for c in range(m)]
    row_sums = [0] * m
    total = 0
    prev = 0
    for code in range(1, 1 << m):
        gray = code ^ (code >> 1)
        diff = gray ^ prev
        bit = diff.bit_length() - 1
        if gray & diff:
            for s in cols[bit]:
                row_sums[s] += 1
        else:
            for s in cols[bit]:
                row_sums[s] -= 1
        prev = gray
        prod = 1
        for v in row_sums:
            if v == 0:
                prod = 0
                break
            prod *= v
        if prod:
            bits = gray.bit_count()
            total += prod if (m - bits) % 2 == 0 else -prod
    return total


def gale_ryser_walk(g, r):
    """The subset-pair scan as a Gray-code walk over X ⊆ S that updates
    deg_X(t) one vertex at a time from neighbour lists read off `g.edges`,
    returning the first violated (X, Y*) it meets: the oracle for
    `gale_ryser_check`, which must return the same witness."""
    m = g.m
    neighbours = [[] for _ in range(m)]
    for s, t in g.edges:
        neighbours[s].append(t)
    deg_x = [0] * m
    members = []
    rhs = 0     # Σ_t min(deg_X(t), r), kept up to date edge by edge
    prev = 0
    for code in range(1 << m):
        gray = code ^ (code >> 1)
        diff = gray ^ prev
        if diff:
            bit = diff.bit_length() - 1
            if gray & diff:
                members.append(bit)
                for t in neighbours[bit]:
                    rhs += deg_x[t] < r
                    deg_x[t] += 1
            else:
                members.remove(bit)
                for t in neighbours[bit]:
                    deg_x[t] -= 1
                    rhs -= deg_x[t] < r
            prev = gray
        lhs = r * len(members)
        if lhs > rhs:
            y_star = tuple(t for t in range(m) if deg_x[t] < r)
            return GaleRyserWitness(holds=False, r=r, m=m, subset_s=tuple(sorted(members)),
                                    subset_t=y_star, lhs=lhs,
                                    rhs=sum(deg_x[t] for t in y_star) + r * (m - len(y_star)))
    return GaleRyserWitness(holds=True, r=r, m=m)


def peel_decomposes(rows, factor):
    """Whether the r x m `peel_matchings` rows split `factor` exactly: every
    row is a permutation of 0..m-1, every (s, row[s]) is a factor edge, the
    rows' edge codes are pairwise disjoint, and together they are the
    factor's codes.  Checked with Python sets, not with the peel's numpy."""
    m = factor.graph.m
    good = rows.shape == (factor.r, m)
    union = set()
    for row in rows.tolist():
        codes = {s * m + t for s, t in enumerate(row)}
        good &= sorted(row) == list(range(m))
        good &= set(enumerate(row)) <= factor.graph.edges
        good &= union.isdisjoint(codes)
        union |= codes
    return good and sorted(union) == factor.graph.codes.tolist()


def peel_reference(factor, host):
    """The peel that rebuilds each round's CSR from the remaining edge codes
    and drops the matched codes with `np.isin`: the oracle for
    `peel_matchings`, which must return the same r x m rows."""
    factor.check_against(host)
    m, codes = host.m, factor.graph.codes
    matchings = np.empty((factor.r, m), dtype=np.int64)
    for j in range(factor.r):
        s, t = np.divmod(codes, m)
        indptr = np.concatenate(([0], np.cumsum(np.bincount(s, minlength=m))))
        remainder = csr_matrix((np.ones(len(t), dtype=np.int8), t, indptr), shape=(m, m))
        match = maximum_bipartite_matching(remainder, perm_type="column")
        if (match < 0).any():
            raise InvariantViolation(
                "no perfect matching in a supposedly regular remainder; corrupt factor")
        matchings[j] = match
        codes = codes[~np.isin(codes, np.arange(m) * m + match)]
    if len(codes):
        raise InvariantViolation("matchings did not exhaust the factor")
    return matchings


def aux_graphs(h, schemes):
    """The aux graph of each scheme, in order: the input `assign_edges` takes."""
    return [build_aux_graph(h, s) for s in schemes]


def scheme_labels(scheme):
    """S-side labels from the scheme definition: junctions F_i ∪ F_{i+1} for
    ell >= 1, the tuples themselves for ell = 0."""
    m = scheme.m
    if scheme.ell >= 1:
        return [scheme.tuples_a[i] + scheme.tuples_a[(i + 1) % m] for i in range(m)]
    return list(scheme.tuples_a)


def candidate_partitions(edge, schemes):
    """Indices of the schemes under which `edge` splits as junction-pair ∪ block
    (or tuple ∪ block for ell = 0), i.e. realizes an edge of their aux graph.
    Builds a one-edge hypergraph per scheme; the oracle for `assign_edges`."""
    return [i for i, s in enumerate(schemes)
            if build_aux_graph(Hypergraph(s.n, s.k, [edge]), s).graph.edges]


def all_schemes(n, k, ell):
    """Every partition scheme of shape (n, k, ell) for ell >= 1: each A of
    size ell·m, each ordered sequence of m disjoint ell-tuples covering A, and
    each family of m disjoint (k - 2·ell)-blocks covering B, stored sorted."""
    if ell < 1:
        raise InvalidInputError(f"all_schemes needs ell >= 1, got {ell}")
    m = check_shape(n, k, ell)
    block = k - 2 * ell

    def sequences(rest):
        if not rest:
            yield ()
            return
        for f in combinations(rest, ell):
            for tail in sequences(tuple(v for v in rest if v not in f)):
                yield (f,) + tail

    def families(rest):
        # the block holding the smallest remaining vertex comes first
        if not rest:
            yield ()
            return
        for others in combinations(rest[1:], block - 1):
            b = rest[:1] + others
            for tail in families(tuple(v for v in rest if v not in b)):
                yield (b,) + tail

    for part_a in combinations(range(n), ell * m):
        part_b = tuple(v for v in range(n) if v not in part_a)
        for blocks in families(part_b):
            for tuples in sequences(part_a):
                yield PartitionScheme(k=k, ell=ell, tuples_a=tuples, blocks_b=blocks)


CANON_CHUNK = 1 << 12   # leaf arrangements canonicalized per canonical_rows call


def enumerate_cycles_reference(h: Hypergraph, ell: int) -> set[HamiltonCycle]:
    """All Hamilton cycles with overlap ell, as canonical arrangements: the
    oracle for `census.cycle_counts`, which must count the same cycles.

    Backtracks over vertex placements, testing each length-k segment as soon
    as its last position is filled; the surviving arrangements are
    canonicalized `CANON_CHUNK` at a time and deduplicated.  It holds its own
    set of the edges: it checks the placement rule, not the lookup.  Exact
    but factorial: n <= 10 enforced.
    """
    n, k = h.n, h.k
    if n > ENUMERATION_MAX_N:
        raise SizeLimitError(
            f"n={n} > {ENUMERATION_MAX_N}: exhaustive enumeration stops at "
            f"n <= {ENUMERATION_MAX_N}; `hampack bound` evaluates the formulas at any n")
    by_depth: list[list[list[int]]] = [[] for _ in range(n)]
    for window in segment_windows(n, k, ell).tolist():
        by_depth[max(window)].append(window)

    edges = set(map(frozenset, h.edges))
    found: set[tuple[int, ...]] = set()
    leaves: list[int] = []   # the pending arrangements, concatenated
    arr = [-1] * n
    used = [False] * n

    def flush() -> None:
        rows = canonical_rows(np.array(leaves, dtype=np.int64).reshape(-1, n), k, ell)
        found.update(map(tuple, rows.tolist()))
        leaves.clear()

    def place(depth: int) -> None:
        if depth == n:
            leaves.extend(arr)
            if len(leaves) >= CANON_CHUNK * n:
                flush()
            return
        for v in range(n):
            if used[v]:
                continue
            arr[depth] = v
            ok = True
            for seg in by_depth[depth]:
                if frozenset(arr[p] for p in seg) not in edges:
                    ok = False
                    break
            if ok:
                used[v] = True
                place(depth + 1)
                used[v] = False
        arr[depth] = -1

    place(0)
    flush()
    return {HamiltonCycle(k=k, ell=ell, arrangement=row) for row in found}


def edge_set_count_reference(cycles):
    """The number of distinct segment sets among `cycles`, each segment and
    each set as a frozenset: the oracle for the edge-set count of
    `census.cycle_counts`."""
    return len({frozenset(map(frozenset, c.segments())) for c in cycles})


def optimal_packing(h, ell):
    """The largest number of edge-disjoint Hamilton ell-cycles of `h`: a
    set-packing MILP over `enumerate_cycles_reference`, one binary per cycle
    and one <= 1 row per edge, solved exactly by `scipy.optimize.milp`."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    cycles = sorted(enumerate_cycles_reference(h, ell), key=lambda c: c.arrangement)
    if not cycles:
        return 0
    windows = segment_windows(h.n, h.k, ell)
    rows = np.array([c.arrangement for c in cycles], dtype=np.int64)
    pos = h.locate(rows[:, windows]).reshape(len(cycles), len(windows))
    uses = csr_matrix((np.ones(pos.size), (pos.ravel(), np.repeat(np.arange(len(cycles)),
                                                                  len(windows)))),
                      shape=(h.num_edges(), len(cycles)))
    result = milp(-np.ones(len(cycles)), integrality=np.ones(len(cycles)),
                  bounds=Bounds(0, 1), constraints=LinearConstraint(uses, ub=1))
    if not result.success:
        raise AssertionError(f"milp did not solve the packing: {result.message}")
    return int(round(-result.fun))


def jsonable(value):
    """Recursively make a value JSON-safe; non-finite floats become None."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return jsonable(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [jsonable(v) for v in items]
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    return value


def canonical_json_reference(obj):
    """`jsonable` and then the stdlib encoder at indent 1 (its pure-Python
    path): the oracle for `util.canonical_json`."""
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ": "), indent=1)


def random_hypergraph_reference(n, k, p, seed):
    """One `random()` per k-subset in lexicographic order, kept below p: the
    oracle for `random_hypergraph`."""
    rng = random.Random(seed)
    return Hypergraph(n, k, [e for e in combinations(range(n), k) if rng.random() < p])


def complete_hypergraph_reference(n: int, k: int) -> Hypergraph:
    """All C(n, k) edges: the oracle for `complete_hypergraph`."""
    check_dimensions(n, k)
    return Hypergraph(n, k, combinations(range(n), k))


def parity_hypergraph_reference(n: int, k: int) -> ParityConstruction:
    """Take part A = {0..a-1} with a the smallest odd integer >= n/2 - 1; the
    edge set is every k-subset with an even intersection with A: the oracle
    for `parity_hypergraph`."""
    check_dimensions(n, k)
    a = -((-(n - 2)) // 2)  # ceil(n/2 - 1)
    if a < 1:
        a = 1
    if a % 2 == 0:
        a += 1
    part_a = tuple(range(a))
    edges = [e for e in combinations(range(n), k)
             if sum(1 for v in e if v < a) % 2 == 0]
    return ParityConstruction(hypergraph=Hypergraph(n, k, edges), part_a=part_a)


def count_matchings_exact_cover(h: Hypergraph) -> int:
    """Count perfect matchings of a hypergraph by exact-cover backtracking,
    branching on the lowest uncovered vertex: the oracle for
    `census.perfect_matchings`."""
    by_vertex: dict[int, list[frozenset[int]]] = {v: [] for v in range(h.n)}
    for e in h.edges:
        fe = frozenset(e)
        for v in e:
            by_vertex[v].append(fe)

    count = 0
    covered: set[int] = set()

    def recurse() -> None:
        nonlocal count
        if len(covered) == h.n:
            count += 1
            return
        v = min(x for x in range(h.n) if x not in covered)
        for fe in by_vertex[v]:
            if covered.isdisjoint(fe):
                covered.update(fe)
                recurse()
                covered.difference_update(fe)

    recurse()
    return count


def verify_no_odd_factor_reference(construction: ParityConstruction,
                                   r: int) -> ParityCertificate:
    """Certify that the parity construction has no r-factor for odd r, testing
    each edge's intersection with part A as a set: the oracle for
    `verify_no_odd_factor`."""
    if r % 2 == 0:
        raise InvalidQueryError(f"r must be odd, got {r}")
    h = construction.hypergraph
    if h.n % h.k != 0:
        raise InvalidQueryError(
            f"k={h.k} does not divide n={h.n}; factors are impossible for trivial reasons")
    a = set(construction.part_a)
    all_even = all(len(a.intersection(e)) % 2 == 0 for e in h.edges)
    size_odd = len(a) % 2 == 1
    pm_count = None
    if r == 1 and h.n <= 12:
        pm_count = count_matchings_exact_cover(h)
    return ParityCertificate(
        r=r,
        part_a_size=len(a),
        part_a_size_odd=size_odd,
        all_intersections_even=all_even,
        degree_sum_parity=(r * len(a)) % 2,
        edge_sum_parity=0 if all_even else 1,
        no_factor=size_odd and all_even,
        exhaustive_pm_count=pm_count,
    )


def degree_of(h, subset):
    """Number of edges containing every vertex of `subset`, by a scan over
    the edges."""
    a = frozenset(subset)
    if len(a) > h.k:
        raise InvalidQueryError(f"subset size {len(a)} exceeds k={h.k}")
    if not a:
        return h.num_edges()
    if len(a) == h.k:
        return int(h.locate([list(a)])[0] >= 0)
    return sum(1 for e in h.edges if a.issubset(e))


def relative_degree(h, x, y):
    """Number of subsets Z of `y` with x ∪ Z an edge (|Z| = k - |x|), by a
    scan over the edges."""
    xs = frozenset(x)
    ys = frozenset(y)
    if xs & ys:
        raise InvalidQueryError(f"X and Y overlap: {sorted(xs & ys)}")
    if len(xs) >= h.k:
        raise InvalidQueryError(f"|X| = {len(xs)} must be < k = {h.k}")
    need = h.k - len(xs)
    count = 0
    for e in h.edges:
        if xs.issubset(e):
            rest = [v for v in e if v not in xs]
            if len(rest) == need and all(v in ys for v in rest):
                count += 1
    return count


def csaba_rho(delta):
    """Factor-density guarantee (delta + sqrt(2*delta - 1)) / 2 for delta in [1/2, 1]."""
    if delta < 0.5:
        raise InvalidInputError(f"delta must be >= 1/2, got {delta}")
    if delta > 1.0:
        raise InvalidInputError(f"delta must be <= 1, got {delta}")
    return (delta + math.sqrt(2.0 * delta - 1.0)) / 2.0


def degree_report_scan(h, d):
    """Dict-based scan over every d-subset in lexicographic order, keeping the
    first subset attaining each extreme: the oracle for `degree_report`.
    Returns (min_degree, max_degree, witness_min, witness_max)."""
    counts = {}
    for e in h.edges:
        for sub in combinations(e, d):
            counts[sub] = counts.get(sub, 0) + 1
    w_min = w_max = d_min = d_max = None
    for sub in combinations(range(h.n), d):
        c = counts.get(sub, 0)
        if d_min is None or c < d_min:
            d_min, w_min = c, sub
        if d_max is None or c > d_max:
            d_max, w_max = c, sub
    return d_min, d_max, w_min, w_max


def partition_minima_reference(h, sizes, seed):
    """Per part of the shuffle of the `partition_degree_sweep` trial on
    `seed`, the least number of completing vertices inside it over all
    (k-1)-subsets, from a dict of each covered subset's completing vertices:
    the oracle for the trial's minima."""
    perm = list(range(h.n))
    random.Random(seed).shuffle(perm)
    parts, at = [], 0
    for s in sizes:
        parts.append(frozenset(perm[at:at + s]))
        at += s
    completions = {}
    for e in h.edges:
        for drop in range(h.k):
            completions.setdefault(e[:drop] + e[drop + 1:], []).append(e[drop])
    if len(completions) < math.comb(h.n, h.k - 1):
        return (0,) * len(sizes)
    return tuple(min(sum(1 for v in vs if v in part) for vs in completions.values())
                 for part in parts)


def assign_edges_reference(h, auxes, seed):
    """Tuple-keyed candidate lists with the pick rule applied edge by edge: the
    oracle for `assign_edges`.  Scheme by scheme, each hyperedge that an aux
    edge realizes (first time in that scheme, in (a, b) order) counts the
    scheme as a candidate and takes it when u·psi < 1, u the next
    `default_rng(seed).random()`.  Returns (psi, choice, per_scheme,
    unassigned) with psi and choice keyed by edge tuple (choice None when no
    scheme realizes the edge) and the per-scheme and unassigned edge lists in
    `h.edges` order."""
    rng = np.random.default_rng(seed)
    psi = dict.fromkeys(h.edges, 0)
    choice = dict.fromkeys(h.edges)
    for i, aux in enumerate(auxes):
        labels = scheme_labels(aux.scheme)
        candidates = [tuple(sorted(labels[a] + aux.scheme.blocks_b[b]))
                      for a, b in sorted(aux.graph.edges)]
        for e in dict.fromkeys(candidates):
            psi[e] += 1
            if rng.random() * psi[e] < 1:
                choice[e] = i
    per_scheme = [[e for e in h.edges if choice[e] == i] for i in range(len(auxes))]
    unassigned = [e for e in h.edges if choice[e] is None]
    return psi, choice, per_scheme, unassigned


def locate_reference(h, rows):
    """`Hypergraph.locate` by a binary search of the sorted codes, without the
    position table: the oracle for both of its paths."""
    rows = np.sort(np.asarray(rows, dtype=np.int64).reshape(-1, h.k), axis=1)
    codes = row_codes(rows, h.n)
    pos = np.searchsorted(h.codes, codes)
    found = (rows[:, 0] >= 0) & (rows[:, -1] < h.n) & (pos < len(h.codes))
    found[found] = h.codes[pos[found]] == codes[found]
    return np.where(found, pos, -1)


def edge_position(h, edge):
    """Position of `edge` in `h.codes` (and `h.edges`); the edge must exist."""
    pos = int(h.locate([edge])[0])
    assert pos >= 0, f"{edge} is not an edge"
    return pos


def one_uncovered_pair(n=12):
    """K_n^(3) without the edges through {0, 1}: the pair (0, 1) lies in no
    edge, so the minimum codegree is 0, while every other pair has codegree
    at least n - 3."""
    return Hypergraph(n, 3, [e for e in combinations(range(n), 3) if e[:2] != (0, 1)])


def canonicalize_all_candidates(cycle: HamiltonCycle) -> HamiltonCycle:
    """Oracle: the lexicographic minimum over all 2m starting points and
    directions of the block walk, O(n·m)."""
    k, ell = cycle.k, cycle.ell
    arr = cycle.arrangement
    step = k - ell
    m = len(arr) // step
    if ell >= 1:
        blocks = []
        for i in range(m):
            blocks.append(tuple(sorted(arr[i * step:i * step + ell])))
            blocks.append(tuple(sorted(arr[i * step + ell:(i + 1) * step])))
        starts = [2 * i for i in range(m)]
    else:
        blocks = [tuple(sorted(arr[i * step:(i + 1) * step])) for i in range(m)]
        starts = list(range(m))
    total = len(blocks)
    best = min(tuple(v for j in range(total) for v in blocks[(start + d * j) % total])
               for start in starts for d in (1, -1))
    return HamiltonCycle(k=k, ell=ell, arrangement=best)


def canonical_above(n: int, k: int, ell: int) -> list[int]:
    """`canonical_rows` as a placement rule: an arrangement is its own
    representative exactly when each position d with above[d] >= 0 holds a
    larger vertex than position above[d].  Blocks ascend, later starting blocks
    start above J_0 (segment 0 for ell = 0), and the walk goes forwards: I_{m-1}
    starts above I_0 (segment m-1 above segment 1 for ell = 0) if they differ.
    An independent statement of the canonical form, for its property test."""
    check_shape(n, k, ell)
    step = k - ell
    above = list(range(-1, n - 1))
    for start in range(0, n, step):
        above[start] = 0 if start else -1
        if ell:
            above[start + ell] = -1
    first, last = ell or step, n - step + ell
    if last > first:
        above[last] = first
    return above


def lift_reference(aux, sigma):
    """The cycle that the perfect matching i -> sigma[i] lifts to, in plain
    Python: sorted F_i then sorted B_{sigma(i)} for ell >= 1, the sorted
    union of F_i and B_{sigma(i)} for ell = 0."""
    s = aux.scheme
    arr = []
    for i, t in enumerate(sigma):
        f, b = sorted(s.tuples_a[i]), sorted(s.blocks_b[t])
        arr.extend(f + b if s.ell >= 1 else sorted(f + b))
    return HamiltonCycle(k=s.k, ell=s.ell, arrangement=tuple(arr))


SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter: import hampack.cli from the source tree, run
# main(argv) when argv is given, and print the names of the modules loaded.
_MODULES_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import hampack.cli
code = hampack.cli.main(sys.argv[2:]) if len(sys.argv) > 2 else 0
print(json.dumps(sorted(sys.modules)))
sys.exit(code)
"""


def modules_loaded_by(argv):
    """The full names of the modules a fresh interpreter has loaded after
    importing `hampack.cli` and, if `argv` is not empty, running `main(argv)`,
    which must exit 0; a package's name is there whenever one of its modules
    is.  Give `--out` in `argv`, so that standard output holds only the
    module list."""
    proc = subprocess.run([sys.executable, "-c", _MODULES_CHILD, str(SRC), *argv],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise AssertionError(f"{argv} exited {proc.returncode}: {proc.stderr}")
    return set(json.loads(proc.stdout.splitlines()[-1]))
