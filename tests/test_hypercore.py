import io
import json
import math
import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hampack import hypercore
from hampack.cli import main
from hampack.constructions import complete_hypergraph, parity_hypergraph, random_hypergraph
from hampack.errors import HampackError, InvalidQueryError, ParseError, SizeLimitError
from hampack.hypercore import (POSITION_TABLE_MAX_CODES, Hypergraph, _scan_hypergraph,
                               degree_report, from_json_dict, lex_unrank, read_hypergraph)
from hampack.randomlab import partition_degree_sweep
from hampack.util import read_json, write_json

from helpers import (degree_of, degree_report_scan, locate_reference, one_uncovered_pair,
                     partition_minima_reference, relative_degree)


def test_degree_of_complete():
    h = complete_hypergraph(6, 3)
    assert degree_of(h, [0, 1]) == 4  # C(4, 1) completions


def test_degree_of_empty_subset_counts_all_edges():
    h = complete_hypergraph(5, 3)
    assert degree_of(h, []) == h.num_edges()


def test_degree_of_parity_pair_matches_enumeration():
    cons = parity_hypergraph(12, 3)
    h = cons.hypergraph
    # both vertices inside the odd part; count valid third vertices directly
    expected = int((h.locate([(0, 1, v) for v in range(2, 12)]) >= 0).sum())
    assert degree_of(h, [0, 1]) == expected
    # and by the parity rule itself: the third vertex must avoid the odd part
    assert expected == 12 - len(cons.part_a)


def test_degree_of_oversized_subset_rejected():
    h = complete_hypergraph(5, 3)
    with pytest.raises(InvalidQueryError):
        degree_of(h, [0, 1, 2, 3])


def test_degree_report_complete_is_regular():
    rep = degree_report(complete_hypergraph(6, 3), 2)
    assert rep.min_degree == rep.max_degree == 4
    assert rep.witness_min is not None


def test_degree_report_no_edges():
    h = Hypergraph(5, 2, [])
    rep = degree_report(h, 1)
    assert rep.min_degree == rep.max_degree == 0


@pytest.mark.parametrize("d", [0, 3, 5])
def test_degree_report_d_out_of_range(d):
    with pytest.raises(InvalidQueryError):
        degree_report(complete_hypergraph(6, 3), d)


def test_degree_report_parity_bound():
    # scanned minimum respects the construction's guarantee n/2 - k
    rep = degree_report(parity_hypergraph(12, 3).hypergraph, 2)
    assert rep.min_degree >= 3


def test_degree_report_matches_naive_scan():
    for seed in range(5):
        h = random_hypergraph(8, 3, 0.5, seed)
        for d in (1, 2):
            rep = degree_report(h, d)
            naive = {sub: sum(1 for e in h.edges if set(sub) <= set(e))
                     for sub in combinations(range(8), d)}
            assert rep.min_degree == min(naive.values())
            assert rep.max_degree == max(naive.values())
            assert naive[rep.witness_min] == rep.min_degree
            assert naive[rep.witness_max] == rep.max_degree


# a shape past the position table's bound, n^k = 260^3 > 2^24, takes the binary search
TABLE_SHAPES = [complete_hypergraph(n, k) for n, k in ((9, 2), (8, 3), (7, 4))] \
    + [random_hypergraph(n, k, p, seed) for n, k in ((10, 2), (9, 3), (8, 4))
       for p, seed in ((0.1, 1), (0.9, 2))] \
    + [Hypergraph(n, k, []) for n, k in ((6, 2), (6, 3), (6, 4))] \
    + [Hypergraph(260, 3, [(0, 1, 2), (5, 100, 259), (7, 8, 9), (0, 1, 259)])]
K7_MINUS_TWO = Hypergraph(7, 3, [e for e in combinations(range(7), 3)
                                 if e not in {(0, 1, 2), (4, 5, 6)}])


@pytest.mark.parametrize("h", [
    random_hypergraph(9, 3, 0.5, 1),
    random_hypergraph(10, 4, 0.3, 2),
    random_hypergraph(8, 5, 0.6, 3),
    random_hypergraph(12, 3, 0.05, 4),
    random_hypergraph(7, 3, 0.97, 5),
    complete_hypergraph(7, 3),
    parity_hypergraph(10, 4).hypergraph,
    one_uncovered_pair(),
    Hypergraph(6, 3, []),
    Hypergraph(5, 3, [[0, 1, 2]]),
    # the Fano plane: every pair lies in one edge, yet 7^2 > 21 = |E|·C(3, 2),
    # so the sorted codes, not the counts, cover every pair
    Hypergraph(7, 3, [[0, 1, 2], [0, 3, 4], [0, 5, 6], [1, 3, 5], [1, 4, 6], [2, 3, 6],
                      [2, 4, 5]]),
    *TABLE_SHAPES[:-1],
    # ties at both extremes: every pair of K_7^(3) has codegree 5, so the first
    # pair (0, 1) witnesses both; removing {0, 1, 2} and {4, 5, 6} leaves the
    # first minimum at (0, 1) and the first maximum at (0, 3)
    K7_MINUS_TWO,
    # each side of the dense rule n^d <= C(k, d)·|E| at d = k - 1: k = 2 and
    # k = 3 with the dense rule at equality and one edge short of it, the
    # benchmark's dense k = 3 input, k = 4 dense and sparse, k = 5, and n^k
    # past the position table's bound
    Hypergraph(6, 2, [(0, 1), (2, 3), (4, 5)]),
    Hypergraph(7, 2, [(0, 1), (2, 3), (4, 5)]),
    Hypergraph(6, 3, list(combinations(range(6), 3))[:12]),
    Hypergraph(6, 3, list(combinations(range(6), 3))[:11]),
    random_hypergraph(90, 3, 0.9, 3),
    random_hypergraph(16, 4, 0.9, 6),
    random_hypergraph(16, 4, 0.2, 7),
    random_hypergraph(12, 5, 0.9, 8),
    TABLE_SHAPES[-1],
], ids=["n9-k3", "n10-k4", "n8-k5", "sparse", "dense", "complete", "parity",
        "uncovered-pair", "empty", "one-edge", "fano"]
    + [f"table-{h!r}" for h in TABLE_SHAPES[:-1]] + ["k7-minus-two"]
    + ["k2-facets-at-equality", "k2-ranks-past-equality", "k3-facets-at-equality",
       "k3-ranks-past-equality", "pack-r16-n90", "k4-facets", "k4-ranks", "k5-ranks",
       "past-the-table-bound"])
def test_degree_report_equals_the_dict_scan(h, monkeypatch):
    h = Hypergraph._from_codes(h.n, h.k, h.codes)  # a copy that has not built a table
    counted, count_codes = [], hypercore._count_codes
    monkeypatch.setattr(hypercore, "_count_codes",
                        lambda columns, space: counted.append(space) or count_codes(columns, space))
    for d in range(1, h.k):
        rep = degree_report(h, d)
        assert (rep.min_degree, rep.max_degree, rep.witness_min, rep.witness_max) \
            == degree_report_scan(h, d)
    # the dense branch counts the n^d codes exactly when n^d <= C(k, d)·|E|
    assert counted == [h.n ** d for d in range(1, h.k)
                       if h.n ** d <= math.comb(h.k, d) * h.num_edges()]
    assert h._table is None  # the position table is locate's alone


def test_relative_degree_complete():
    h = complete_hypergraph(6, 3)
    assert relative_degree(h, [0, 1], [2, 3]) == 2


def test_relative_degree_empty_target():
    h = complete_hypergraph(6, 3)
    assert relative_degree(h, [0, 1], []) == 0


def test_relative_degree_rejects_overlap_and_full_subset():
    h = complete_hypergraph(6, 3)
    with pytest.raises(InvalidQueryError):
        relative_degree(h, [0, 1], [1, 2])
    with pytest.raises(InvalidQueryError):
        relative_degree(h, [0, 1, 2], [3, 4])


def test_degree_of_equals_relative_degree_on_complement():
    for seed in range(5):
        h = random_hypergraph(9, 3, 0.4, seed)
        for pair in [(0, 1), (2, 5), (7, 8)]:
            rest = [v for v in range(9) if v not in pair]
            assert degree_of(h, pair) == relative_degree(h, pair, rest)


def test_roundtrip(tmp_path):
    h = random_hypergraph(7, 3, 0.6, 11)
    path = str(tmp_path / "h.json")
    write_json(hypercore.to_json_dict(h), path)
    assert read_hypergraph(path) == h


def test_read_minimal(tmp_path):
    path = tmp_path / "h.json"
    path.write_text('{"n": 4, "k": 3, "edges": [[0, 1, 2]]}')
    h = read_hypergraph(str(path))
    assert h.num_edges() == 1 and h.locate([[2, 1, 0]]).tolist() == [0]


@pytest.mark.parametrize("payload,fragment", [
    ('{"n": 4, "k": 3, "edges": [[0,1,2],[2,1,0]]}', "duplicate"),
    ('{"n": 4, "k": 3, "edges": [[0,1,9]]}', "out of range"),
    ('{"n": 4, "k": 3, "edges": [[0,1,3],[1,2,4]]}', "edge 1 .*out of range"),
    ('{"n": 4, "k": 3, "edges": [[0,1]]}', "distinct"),
    ('{"n": 4, "k": 3, "edges": [[0,1,3],[0,1.5,2]]}', "edge 1: must be a list of integers"),
    ('{"n": 4, "k": 3, "edges": [[0,1,3],[0,1,2.0]]}', "edge 1: must be a list of integers"),
    ('{"n": 4, "k": 3, "edges": [[0,1,3],[0,"1",2]]}', "edge 1: must be a list of integers"),
    ('{"n": 4, "k": 3, "edges": [[0,1,3],[0,[1],2]]}', "edge 1: must be a list of integers"),
    ('{"n": 4, "k": 3, "edges": [[[0],[1],[2]]]}', "edge 0: must be a list of integers"),
    ('{"n": 4, "k": 3, "edges": [[0,1,3],5]}', "edge 1: must be a list of integers"),
    ('{"n": 4, "k": 3, "edges": [[0,2,3],[true,2,3]]}', "edge 1: must be a list of integers"),
    ('{"n": 4, "k": 3, "edges": [[false,2,3]]}', "edge 0: must be a list of integers"),
    ('{"n": 4, "k": true, "edges": []}', '"k" must be integers'),
    ('{"n": true, "k": 1, "edges": []}', '"k" must be integers'),
    ('{"n": 4, "k": 3, "edges": [[0,1,3],[0,1,2],[1,2]]}', "edge 2 .*distinct"),
    ('{"n": 4, "k": 3, "edges": [[0,1,3],[1,2,1]]}', "edge 1 .*distinct"),
    ('{"n": 4, "k": 3, "edges": [[0,1,2,2]]}', "distinct"),
    ('{"n": 4, "k": 3, "edges": [[0,1,3],[1,2,3,3]]}', "distinct"),
    ('{"n": 4, "k": 3, "edges": [[0,1,3],[0,1,9223372036854775808]]}',
     "edge 1 .*out of range"),
    ('{"n": 4, "k": 3, "edges": [[0,1,2],[0,1,-1]]}', "edge 1 .*out of range"),
    ('{"n": 5, "k": 3, "edges": [[0,1,3],[1,2,4],[3,0,1]]}', "edge 2 .*duplicate"),
    ('{"n": 4, "k": 3}', "keys"),
    ('{"n": 4, "k": 3, "edges": [[0,1,2]], "x": 1}', "keys"),
    ('not json', "JSON"),
])
def test_parse_errors(tmp_path, payload, fragment):
    """Each payload as written and, when it is JSON, in the indent-1 layout
    that `write_json` writes: the same message both times."""
    path = tmp_path / "bad.json"
    layouts = [payload]
    if payload != "not json":
        layouts.append(json.dumps(json.loads(payload), indent=1))
    messages = set()
    for text in layouts:
        path.write_text(text)
        with pytest.raises(ParseError, match=fragment) as info:
            read_hypergraph(str(path))
        messages.add(str(info.value))
    assert len(messages) == 1


def _render(header: dict, rows: list, keys: list, layout: str, rnd: random.Random) -> str:
    """A hypergraph document from JSON text pieces: `header` maps each key's
    quoted text to its value's text, the key of the edge list to None, and
    `rows` holds each vertex's text.  "indent" is `canonical_json`'s layout,
    "compact" has no whitespace, "random" draws each gap from the JSON
    whitespace bytes."""
    def gap(depth):
        if layout == "indent":
            return "\n" + " " * depth
        if layout == "compact":
            return ""
        return rnd.choice(["", " ", "\n", "\r\n", "\t", " \r\n\t "])

    def join(items, depth):
        return ",".join(gap(depth + 1) + item for item in items) + gap(depth)

    def colon():
        return ": " if layout == "indent" else gap(1) + ":" + gap(1)

    edges = "[" + join(["[" + join(row, 2) + "]" for row in rows], 1) + "]" if rows else "[]"
    return "{" + join([key + colon() + (edges if header[key] is None else header[key])
                       for key in keys], 0) + "}\n"


VERTEX_FAULTS = {
    "space": lambda t: t[:1] + " " + (t[1:] or "0"),
    "leading-zero": lambda t: "0" + t,
    "minus-zero": lambda t: "-0",
    "minus-one": lambda t: "-1",
    "float": lambda t: t + ".0",
    "exponent": lambda t: t + "e0",
    "true": lambda t: "true",
    "string": lambda t: '"' + t + '"',
    "nested": lambda t: "[" + t + "]",
    "19-digits": lambda t: str(10 ** 18 + int(t)),
}
FILE_FAULTS = [None, "short-row", "long-row", "comma", "bracket", "bom", "non-ascii",
               "escaped-key", "duplicate-edges"]


@st.composite
def hypergraph_files(draw, fault):
    """The bytes of a small k-graph file in one of three layouts, holding
    `fault` where the file has room for it."""
    rnd = draw(st.randoms(use_true_random=False))
    k = draw(st.integers(1, 5))
    n = draw(st.integers(k, 13))
    pool = list(combinations(range(n), k))
    rows = [[str(v) for v in rnd.sample(e, k)]
            for e in rnd.sample(pool, min(draw(st.integers(0, 12)), len(pool)))]
    header = {'"n"': str(n), '"k"': str(k), '"edges"': None}
    layout = draw(st.sampled_from(["indent", "compact", "random"]))
    keys = ['"edges"', '"k"', '"n"']
    if layout == "random":
        rnd.shuffle(keys)
    if rows and fault in VERTEX_FAULTS:
        row = rnd.choice(rows)
        j = row.index("0") if fault == "minus-zero" and "0" in row else rnd.randrange(k)
        row[j] = VERTEX_FAULTS[fault](row[j])
        if fault == "19-digits" and k == 1:    # a valid file: n^k < 2^63 allows the vertex
            header['"n"'] = str(2 ** 62)
    elif rows and fault == "short-row":
        rnd.choice(rows).pop()
    elif rows and fault == "long-row":
        row = rnd.choice(rows)
        row.append(rnd.choice(row))
    elif fault == "escaped-key":
        header['"\\u006e"'] = header.pop('"n"')
        keys[keys.index('"n"')] = '"\\u006e"'
    elif fault == "duplicate-edges":
        header['"edges" '] = rnd.choice(["[]", "5", "[[" + ",".join(map(str, range(k))) + "]]"])
        keys.insert(rnd.randrange(len(keys) + 1), '"edges" ')
    data = _render(header, rows, keys, layout, rnd).encode("utf-8")
    at = rnd.choice([rnd.randrange(len(data) + 1), data.rfind(b"]")])   # or after the last row
    if fault in ("comma", "bracket", "non-ascii"):
        data = data[:at] + rnd.choice({"comma": [b","], "bracket": [b"]"],
                                       "non-ascii": [b"\xff", "\u00e9".encode()]}[fault]) + data[at:]
    elif fault == "bom":
        data = "\ufeff".encode() + data
    return data


def _outcome(read, path):
    try:
        h = read(path)
    except HampackError as exc:
        return type(exc), str(exc)
    return h.n, h.k, h.codes.dtype, h.codes.tolist()


@pytest.mark.parametrize("fault", list(VERTEX_FAULTS) + FILE_FAULTS)
@settings(max_examples=20, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_the_scan_reads_what_the_json_path_reads(tmp_path_factory, fault, data):
    """`read_hypergraph` returns what `read_json(path, from_json_dict)`
    returns, or raises the same error with the same message; the scan itself
    reads every file that holds no fault.  Small blocks cut these small
    files as the default cuts a large one: inside integers, whitespace runs,
    `],` and the header."""
    chunk = data.draw(st.sampled_from([hypercore._SCAN_CHUNK, 1, 6, 20]))
    data = data.draw(hypergraph_files(fault))
    path = str(tmp_path_factory.getbasetemp() / "scan-case.json")
    with open(path, "wb") as fh:
        fh.write(data)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hypercore, "_SCAN_CHUNK", chunk)
        assert (_outcome(read_hypergraph, path)
                == _outcome(lambda p: read_json(p, from_json_dict), path)), (fault, data)
        if fault is None:
            assert _scan_hypergraph(io.BytesIO(data)) is not None, data


@pytest.mark.parametrize("layout", ["indent", "compact", "random"])
def test_the_scan_reads_a_header_written_before_the_edge_list(tmp_path, layout):
    """"n" and "k" precede "edges", so the header's head end holds them and
    its tail end is empty; every block size reads it as the json path does."""
    rnd = random.Random(7)
    rows = [[str(v) for v in rnd.sample(e, 3)]
            for e in rnd.sample(list(combinations(range(13), 3)), 9)]
    data = _render({'"n"': "13", '"k"': "3", '"edges"': None}, rows,
                   ['"n"', '"k"', '"edges"'], layout, rnd).encode()
    assert data[data.rfind(b"]") + 1:].strip() == b"}"
    path = str(tmp_path / "h.json")
    with open(path, "wb") as fh:
        fh.write(data)
    expected = _outcome(lambda p: read_json(p, from_json_dict), path)
    for chunk in [hypercore._SCAN_CHUNK, 1, 6, 20]:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hypercore, "_SCAN_CHUNK", chunk)
            assert _outcome(read_hypergraph, path) == expected, chunk
            assert _scan_hypergraph(io.BytesIO(data)) is not None, chunk


@pytest.mark.parametrize("text", [
    '{"edges": [[1 0]], "k": 1, "n": 11}',
    '{"edges": [[0, 1\n2, 3]], "k": 3, "n": 13}',
    '{"n": 50, "k": 3, "edges": [[0,1,2],[3,4\t\t5,6]]}',
])
def test_whitespace_inside_an_integer_goes_to_the_json_path(tmp_path, text):
    """Without the whitespace the rows would be valid, so only the count of
    digit runs refuses them, whichever block a run starts in."""
    path = str(tmp_path / "h.json")
    with open(path, "w") as fh:
        fh.write(text)
    for chunk in [hypercore._SCAN_CHUNK, 1, 6, 20]:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hypercore, "_SCAN_CHUNK", chunk)
            assert _scan_hypergraph(io.BytesIO(text.encode())) is None, chunk
            with pytest.raises(ParseError, match="not valid JSON"):
                read_hypergraph(path)


def test_plain_files_never_reach_the_json_path(tmp_path, monkeypatch):
    """The random file is cut into two pieces of `_SCAN_CHUNK` bytes or so."""
    paths = {name: str(tmp_path / f"{name}.json") for name in ("random", "complete", "empty")}
    main(["gen", "--random", "--n", "60", "--k", "3", "--p", "0.9", "--seed", "4",
          "--out", paths["random"]])
    main(["gen", "--complete", "--n", "11", "--k", "4", "--out", paths["complete"]])
    write_json(hypercore.to_json_dict(Hypergraph(6, 3, [])), paths["empty"])
    expected = {name: read_json(path, from_json_dict) for name, path in paths.items()}

    def refuse(path, fh, build):
        raise AssertionError(f"{path} was read by the json path")

    monkeypatch.setattr(hypercore, "load_json", refuse)
    for name, path in paths.items():
        assert read_hypergraph(path) == expected[name], name
    assert expected["complete"] == complete_hypergraph(11, 4)
    assert expected["random"].num_edges() > 0 and expected["empty"].num_edges() == 0


def test_the_read_peaks_below_twice_the_codes_and_eight_blocks(tmp_path):
    """tracemalloc peak on `pack-r16-n90`'s input file: the read holds the
    codes, their concatenation and the working arrays of one block."""
    path = str(tmp_path / "h.json")
    main(["gen", "--random", "--n", "90", "--k", "3", "--p", "0.9", "--seed", "3",
          "--out", path])
    tracemalloc.start()
    try:
        h = read_hypergraph(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.num_edges() > 100000
    assert peak <= 2 * h.codes.nbytes + 8 * hypercore._SCAN_CHUNK, peak


def test_the_constructor_refuses_every_edge_fault():
    """Plain edge lists, each valid or with one injected change:
    `Hypergraph(n, k, edges)` raises ParseError on every fault, and otherwise
    holds the sorted codes of the set of edges.  numpy int64 vertices are
    accepted; every other change is a fault, including the values numpy
    itself would convert (integral floats, numeric strings, bools at vertex
    values 0 and 1)."""
    rng = random.Random(20)
    faults = [None, "length", "repeat", "range", "duplicate", "bool", "huge", "low",
              "float", "string", "none", "nested", "dict-edge", "string-edge",
              "np-int64", "np-bool", "bool01"]
    seen = set()
    for _ in range(1000):
        k = rng.randint(2, 4)
        n = rng.randint(k + 1, 9)
        subsets = rng.sample(list(combinations(range(n), k)),
                             rng.randint(1, min(10, math.comb(n, k))))
        edges = [rng.sample(e, k) if rng.random() < 0.5 else tuple(rng.sample(e, k))
                 for e in subsets]
        fault, i = rng.choice(faults), rng.randrange(len(edges))
        if fault == "bool01":  # an edge holding vertex 0 or 1, the bool of equal value
            i = next((i for i, e in enumerate(edges) if min(e) <= 1), None)
            if i is None:
                continue
        e, j = list(edges[i]), rng.randrange(k)
        if fault == "length":    # one vertex repeated, so still k distinct
            e.append(e[j])
        elif fault == "repeat":
            e[j] = e[j - 1]
        elif fault == "range":
            e[j] = rng.choice([-1, n, n + 7])
        elif fault == "duplicate":
            edges.append(e[::-1])
        elif fault == "bool":
            e[j] = rng.random() < 0.5
        elif fault == "huge":
            e[j] = rng.choice([2 ** 63, 2 ** 64 + 1, 10 ** 30])
        elif fault == "low":
            e[j] = -2 ** 63 - 1
        elif fault == "float":
            e[j] = float(e[j])
        elif fault == "string":
            e[j] = str(e[j])
        elif fault == "none":
            e[j] = None
        elif fault == "nested":
            e[j] = [e[j]]
        elif fault == "dict-edge":   # as JSON decodes an object: string keys
            e = {str(v): v for v in e}
        elif fault == "string-edge":
            e = "".join(map(str, e))
        elif fault == "np-int64":
            e = [np.int64(v) for v in e]
        elif fault == "np-bool":
            e[j] = np.bool_(e[j])
        elif fault == "bool01":
            j = e.index(min(e))
            e[j] = bool(e[j])
        edges[i] = e
        if fault not in (None, "np-int64"):
            with pytest.raises(ParseError):
                Hypergraph(n, k, edges)
        else:
            codes = {sum(int(v) * n ** (k - 1 - j) for j, v in enumerate(sorted(e)))
                     for e in edges}
            assert Hypergraph(n, k, edges).codes.tolist() == sorted(codes), (n, k, edges)
        seen.add(fault)
    assert seen == set(faults)


@pytest.mark.parametrize("n,d", [(1, 1), (5, 1), (5, 2), (6, 3), (7, 7), (9, 4)])
def test_lex_unrank_walks_the_combinations_in_order(n, d):
    ranks = np.arange(math.comb(n, d))
    assert list(map(tuple, lex_unrank(ranks, n, d).tolist())) == list(combinations(range(n), d))
    assert lex_unrank(ranks[::-2], n, d).tolist() == lex_unrank(ranks, n, d)[::-2].tolist()


@pytest.mark.parametrize("n,d", [(0, 2), (1, 3), (9, 4), (55108, 4), (6208, 5)])
def test_binomial_table_is_math_comb(n, d):
    # 55108 and 6208 are the largest n with n^d < 2^63 for d = 4 and 5, so
    # the last columns hold the largest values a rank table can hold
    table = hypercore._binomials(n, d)
    xs = sorted(set(range(min(n, 40))) | set(range(max(n - 40, 0), n)))
    assert table.shape == (d + 1, n) and table.dtype == np.int64
    assert table[:, xs].tolist() == [[math.comb(x, j) for x in xs] for j in range(d + 1)]


def test_constructor_rejects_bad_k():
    with pytest.raises(ParseError):
        Hypergraph(3, 4, [])
    with pytest.raises(ParseError):
        Hypergraph(3, 0, [])


def test_edges_stored_sorted():
    h = Hypergraph(5, 3, [[4, 2, 0], [3, 1, 0]])
    assert h.edges == ((0, 1, 3), (0, 2, 4))


def test_read_empty_edge_list(tmp_path):
    path = tmp_path / "h.json"
    path.write_text('{"n": 5, "k": 3, "edges": []}')
    h = read_hypergraph(str(path))
    assert h.num_edges() == 0 and h.edges == () and h == Hypergraph(5, 3, [])


def test_codes_must_fit_in_int64():
    # 78^10 < 2^63 <= 79^10
    assert Hypergraph(78, 10, [range(10)]).num_edges() == 1
    with pytest.raises(SizeLimitError, match="2\\^63"):
        Hypergraph(79, 10, [])


def test_codes_are_the_lexicographic_edge_order():
    h = random_hypergraph(9, 4, 0.5, 3)
    assert list(h.edges) == sorted(h.edges)
    assert h.codes.tolist() == [((a * 9 + b) * 9 + c) * 9 + d for a, b, c, d in h.edges]
    assert not h.codes.flags.writeable
    assert h.locate([(e[3], e[1], e[0], e[2]) for e in h.edges]).tolist() \
        == list(range(h.num_edges()))
    assert h.locate([(0, 1, 2, 9), (0, 0, 1, 2), (-1, 0, 1, 2)]).tolist() == [-1, -1, -1]


def test_locate_refuses_rows_of_another_width():
    h = complete_hypergraph(6, 3)
    # three 2-vertex rows, not the edges {0, 1, 2} and {3, 4, 5}
    with pytest.raises(InvalidQueryError, match=r"rows of shape \(3, 2\) do not end in k = 3"):
        h.locate([(0, 1), (2, 3), (4, 5)])
    with pytest.raises(InvalidQueryError):
        h.locate(np.arange(12).reshape(3, 4))
    with pytest.raises(InvalidQueryError):
        h.locate(0)
    assert h.locate((2, 0, 1)).tolist() == [0]
    assert h.locate(np.zeros((2, 2, 3), dtype=np.int64) + [0, 1, 2]).tolist() == [0] * 4
    for empty in ([], np.empty((0, 3)), np.empty((4, 0, 3))):
        got = h.locate(empty)
        assert got.dtype == np.int64 and got.shape == (0,)


# for k = 1 every code in 0..n-1 is an edge's, so rows outside it must be masked
@pytest.mark.parametrize("h", TABLE_SHAPES + [complete_hypergraph(5, 1)], ids=repr)
def test_locate_equals_the_binary_search(h):
    assert (h.position_table() is None) == (h.n ** h.k > POSITION_TABLE_MAX_CODES)
    rng = np.random.default_rng(h.n * 10 + h.k)
    n, k = h.n, h.k
    queries = [
        rng.integers(0, n, (300, k)),                           # in range, any order, repeats
        rng.integers(-n, 2 * n, (300, k)),                      # out of range on both sides
        np.sort(rng.integers(-3, 0, (20, k)), axis=1),          # all negative
        np.repeat(rng.integers(0, n, (20, 1)), k, axis=1),      # one vertex repeated
        rng.permuted(h.rows(), axis=1) if len(h.codes) else np.empty((0, k), np.int64),
    ]
    for rows in queries:
        got = h.locate(rows)
        assert got.dtype == np.int64
        assert got.tolist() == locate_reference(h, rows).tolist()
    if len(h.codes):
        assert h.locate(h.rows()[::-1]).tolist() == list(range(len(h.codes)))[::-1]


@pytest.mark.parametrize("h, dense", [
    # n^(k-1) <= k·|E|: the n^(k-1) counts are no more than the k·|E| codes
    (complete_hypergraph(8, 3), True),  # 64 <= 168
    (K7_MINUS_TWO, True),  # 49 <= 99
    (complete_hypergraph(7, 4), False),  # 343 > 140
    (random_hypergraph(9, 3, 0.1, 1), False),  # 81 > 30
    (Hypergraph(6, 3, []), False),
], ids=repr)
def test_codegree_report_reads_the_table_only_when_cheaper(h, dense, monkeypatch):
    # the codegree report reads a code count table only when it is the cheaper
    # path, and never reads or builds locate's position table
    h = Hypergraph(h.n, h.k, h.rows())  # a copy that has not built its table
    counted, count_codes = [], hypercore._count_codes
    monkeypatch.setattr(hypercore, "_count_codes",
                        lambda columns, space: counted.append(space) or count_codes(columns, space))
    report = degree_report(h, h.k - 1)
    assert counted == [h.n ** (h.k - 1)] * dense
    assert (report.min_degree, report.max_degree, report.witness_min, report.witness_max) \
        == degree_report_scan(h, h.k - 1)
    degree_report(h, 1)
    # d = 1 takes the same rule: n counts against k·|E| codes
    assert counted == [h.n ** (h.k - 1)] * dense + [h.n] * (h.n <= h.k * h.num_edges())
    assert h._table is None


@st.composite
def degree_shapes(draw):
    """A random hypergraph with n <= 12, k <= 5 and p in [0, 1], and part
    sizes of a partition of its vertices."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(max(k, 2), 12))
    h = random_hypergraph(n, k, draw(st.floats(0, 1)), draw(st.integers(0, 2 ** 16)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=2)))
    return h, tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(shape=degree_shapes(), seed=st.integers(0, 2 ** 16))
def test_subset_degrees_equal_the_scans(shape, seed):
    """Both counting branches, n^d <= C(k, d)·|E| and past it: every
    `degree_report` equals the dict scan, and the partition minima equal the
    completion walk, k = 1 included."""
    h, sizes = shape
    for d in range(1, h.k):
        rep = degree_report(h, d)
        assert (rep.min_degree, rep.max_degree, rep.witness_min, rep.witness_max) \
            == degree_report_scan(h, d)
    (trial,) = partition_degree_sweep(h, sizes, 0.3, 0.1, trials=1, master_seed=seed).per_trial
    assert trial.minima == partition_minima_reference(h, sizes, trial.seed)


def test_degree_report_peaks_below_its_digits_codes_and_counts():
    """tracemalloc peak of the codegree report on `pack-r16-n90`'s input: the
    counter holds the k int32 digit columns, one int32 code column and the
    int64 copy of it that `np.bincount` counts, the n^d counts (a running sum
    and one bincount), and the lexicographic codes with their vertex rows.
    The decode that fills the digits holds no more: three int32 columns."""
    h = random_hypergraph(90, 3, 0.9, 3)
    n, k, d, size = h.n, h.k, 2, h.num_edges()
    tracemalloc.start()
    try:
        degree_report(h, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    digits, code = 4 * k * size, (4 + 8) * size
    counts, lex = 2 * 8 * n ** d, 8 * (1 + d) * math.comb(n, d)
    assert n ** d <= math.comb(k, d) * size   # the dense branch
    assert peak <= digits + code + counts + lex, peak


def test_codegree_report_without_a_table(monkeypatch):
    # one code past the position table's bound: the report does not need the table
    monkeypatch.setattr(hypercore, "POSITION_TABLE_MAX_CODES", 8 ** 3 - 1)
    h = complete_hypergraph(8, 3)
    rep = degree_report(h, 2)
    assert h.position_table() is None
    assert (rep.min_degree, rep.max_degree, rep.witness_min, rep.witness_max) \
        == (6, 6, (0, 1), (0, 1))


def test_position_table_is_built_once():
    h = random_hypergraph(9, 3, 0.5, 4)
    table = h.position_table()
    assert table.dtype == np.int32 and table.shape == (9 ** 3,) and not table.flags.writeable
    assert np.flatnonzero(table).tolist() == h.codes.tolist()
    assert table[h.codes].tolist() == list(range(1, len(h.codes) + 1))
    h.locate(h.rows())
    degree_report(h, 2)
    assert h.position_table() is table
    # a hypergraph that was only constructed has not built one
    assert random_hypergraph(9, 3, 0.5, 4)._table is None


def test_equality_and_hash_follow_the_edge_set():
    a = Hypergraph(6, 3, [[0, 1, 2], [3, 4, 5]])
    b = Hypergraph(6, 3, ((5, 3, 4), (2, 1, 0)))
    assert a == b and hash(a) == hash(b)
    assert a != Hypergraph(6, 3, [[0, 1, 2]]) and a != Hypergraph(7, 3, a.edges)
    assert b.locate([[4, 5, 3], [0, 1, 3], [0, 1, 6]]).tolist() == [1, -1, -1]
