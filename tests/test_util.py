"""The JSON file formats: exact bytes written, the canonical encoder against
the stdlib one (integer tables and structured records included), the error
for a file that is not JSON, the collector paused while a file is read, the
bulk Mersenne Twister draws, and the shared input checks."""
import gc
import random
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hampack.bifactor import BipartiteGraph, read_bipartite, write_bipartite
from hampack.constructions import random_hypergraph
from hampack.errors import InvalidInputError, ParseError
from hampack.hypercore import Hypergraph, read_hypergraph, write_hypergraph
from hampack.reduction import HamiltonCycle, read_cycle, write_cycle
from hampack.util import (canonical_json, check_nonnegative, integer, random_stream,
                          read_json)

from helpers import canonical_json_reference

# Recorded from the per-module writers before they shared `util.write_json`.
WRITERS = [
    pytest.param(write_hypergraph, Hypergraph(5, 3, [(0, 1, 2), (4, 2, 3), (0, 3, 4)]),
                 '{\n "edges": [\n  [\n   0,\n   1,\n   2\n  ],\n  [\n   0,\n   3,\n   4\n  ],'
                 '\n  [\n   2,\n   3,\n   4\n  ]\n ],\n "k": 3,\n "n": 5\n}\n',
                 id="hypergraph"),
    pytest.param(write_bipartite, BipartiteGraph(3, [(2, 0), (0, 1), (1, 1)]),
                 '{\n "edges": [\n  [\n   0,\n   1\n  ],\n  [\n   1,\n   1\n  ],\n  [\n   2,\n   0\n  ]'
                 '\n ],\n "m": 3\n}\n',
                 id="bipartite"),
    pytest.param(write_cycle, HamiltonCycle(k=3, ell=1, arrangement=(0, 1, 2, 3, 4, 5)),
                 '{\n "arrangement": [\n  0,\n  1,\n  2,\n  3,\n  4,\n  5\n ],\n "ell": 1\n}\n',
                 id="cycle"),
]


@pytest.mark.parametrize("write,value,expected", WRITERS)
def test_writer_bytes(tmp_path, write, value, expected):
    path = tmp_path / "out.json"
    write(value, str(path))
    assert path.read_bytes() == expected.encode("utf-8")


READERS = [
    pytest.param(read_hypergraph, id="hypergraph"),
    pytest.param(read_bipartite, id="bipartite"),
    pytest.param(lambda path: read_cycle(path, 3), id="cycle"),
]


@pytest.mark.parametrize("read", READERS)
def test_reader_names_the_path_of_invalid_json(tmp_path, read):
    path = str(tmp_path / "bad.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"m": 2, ')
    with pytest.raises(ParseError) as info:
        read(path)
    assert str(info.value).startswith(f"{path}: not valid JSON (")


@pytest.mark.parametrize("content", [
    pytest.param(b"\xff\xfe{}", id="not-utf-8"),
    pytest.param(b"[" * 200000, id="too-deep"),
])
@pytest.mark.parametrize("read", READERS)
def test_reader_names_the_path_of_undecodable_json(tmp_path, read, content):
    path = str(tmp_path / "bad.json")
    with open(path, "wb") as fh:
        fh.write(content)
    with pytest.raises(ParseError) as info:
        read(path)
    assert str(info.value).startswith(f"{path}: not valid JSON (")


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("doc,error", [
    pytest.param('{"n": 4, "k": 3, "edges": [[0, 1, 2]]}', None, id="good"),
    pytest.param('{"n": 4, "k": 3, ', ParseError, id="invalid-json"),
    pytest.param('{"n": 4, "k": 3, "edges": [[true, 1, 2]]}', ParseError, id="error-in-build"),
])
def test_reader_leaves_the_collector_as_it_found_it(tmp_path, doc, error, enabled):
    path = str(tmp_path / "h.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(doc)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            read_hypergraph(path)
        else:
            with pytest.raises(error):
                read_hypergraph(path)
        after = gc.isenabled()
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert after is enabled


def test_build_runs_with_the_collector_paused(tmp_path):
    path = str(tmp_path / "doc.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[]")
    assert gc.isenabled()
    assert read_json(path, lambda doc: gc.isenabled()) is False
    assert gc.isenabled()


def test_reading_a_large_hypergraph_runs_no_collection_and_keeps_no_document(tmp_path):
    h = random_hypergraph(52, 3, 0.9, 5)
    assert h.num_edges() > 19000
    path = str(tmp_path / "h.json")
    write_hypergraph(h, path)
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    before = len(gc.get_objects())
    gc.callbacks.append(record)
    try:
        read = read_hypergraph(path)
    finally:
        gc.callbacks.remove(record)
    grown = len(gc.get_objects()) - before
    assert read == h
    assert starts == []
    # each decoded edge is a list the collector tracks: had the document
    # outlived the read, tens of thousands of objects would remain
    assert grown < h.num_edges() // 100


@dataclass(frozen=True)
class _Leaf:
    name: str
    weights: tuple
    tags: frozenset


@dataclass
class _Node:
    leaf: _Leaf
    children: list
    extra: dict


ENCODER_CASES = [
    pytest.param([1, True], id="int-then-bool"),
    pytest.param([True, False, None], id="bools-and-null"),
    pytest.param([0.0, -0.0, 1e300, -1e-300, 0.1, float("nan"), float("inf"),
                  -float("inf")], id="floats"),
    pytest.param({"x": float("nan"), "y": [float("inf"), 2.5]}, id="non-finite-in-dict"),
    pytest.param(["héllo", "☃\U0001F600", "tab\tnew\nline", "\x00\x1f\x7f",
                  'quote" back\\ slash', ""], id="strings"),
    pytest.param({"é": 1, "\n": 2}, id="unicode-keys"),
    pytest.param([[], {}, [[]], [{}], {"a": []}, {"b": {}}], id="empties"),
    pytest.param([], id="empty-list"),
    pytest.param({}, id="empty-dict"),
    pytest.param((1, 2, (3, 4)), id="tuples"),
    pytest.param({3, 1, 2}, id="set"),
    pytest.param([frozenset({"b", "a"}), set()], id="frozenset"),
    pytest.param({2: "b", 10: "a", 1: [1]}, id="int-keys"),
    pytest.param({1: "int", True: "bool", (0, 1): "tuple", 2.5: "float"}, id="mixed-keys"),
    pytest.param({1: "int", "1": "str"}, id="colliding-keys"),
    pytest.param(_Node(_Leaf("n", (1.5, float("nan")), frozenset({3, 1})),
                       [_Leaf("m", (), frozenset())], {"k": (1, 2)}), id="dataclasses"),
    pytest.param([[0, 1, 2], [3, 4, 5], [6, 7, 8]], id="equal-rows"),
    pytest.param([[0, 1, 2], [3, 4], [5]], id="ragged-rows"),
    pytest.param([(0, 1), [2, 3]], id="tuple-and-list-rows"),
    pytest.param([[0, 1], [2, True]], id="rows-with-bool"),
    pytest.param([[0, 1], [2, 3.0]], id="rows-with-float"),
    pytest.param([[], []], id="empty-rows"),
    pytest.param([[[1, 2], [3, 4]], [[5, 6], [7, 8]]], id="rows-of-rows"),
    pytest.param([10 ** 30, -(10 ** 30), 0, -1], id="big-ints"),
    pytest.param({"edges": [[7]] * 3, "n": 9, "k": 1}, id="width-1-rows"),
    pytest.param("%d %s", id="percent-string"),
    pytest.param([["%d", 1]], id="percent-in-rows"),
    pytest.param(5, id="scalar"),
]


@pytest.mark.parametrize("doc", ENCODER_CASES)
def test_canonical_json_matches_the_stdlib_reference(doc):
    assert canonical_json(doc) == canonical_json_reference(doc)


def _random_doc(rng, depth):
    """A nested document of every kind `canonical_json` treats on its own."""
    leaves = [lambda: rng.randrange(-5, 10 ** 6), lambda: rng.random() < 0.5,
              lambda: None, lambda: rng.choice([0.5, -0.0, 1e300, float("nan")]),
              lambda: rng.choice(["a", "é", "\n", ""])]
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(leaves)()
    kind = rng.randrange(6)
    size = rng.randrange(4)
    if kind == 0:
        return {rng.choice(["a", "b", 3, 4.5]): _random_doc(rng, depth - 1)
                for _ in range(size)}
    if kind == 1:
        return tuple(_random_doc(rng, depth - 1) for _ in range(size))
    if kind == 2:
        return {rng.randrange(100) for _ in range(size)}
    if kind == 3:
        width = rng.randrange(1, 4)
        return [[rng.randrange(100) for _ in range(width)] for _ in range(size + 1)]
    if kind == 4:
        return [rng.randrange(-100, 100) for _ in range(size)]
    return [_random_doc(rng, depth - 1) for _ in range(size)]


def test_canonical_json_matches_the_reference_on_generated_documents():
    rng = random.Random(20140)
    for _ in range(500):
        doc = _random_doc(rng, 4)
        assert canonical_json(doc) == canonical_json_reference(doc)


INT_TABLES = [
    pytest.param(np.zeros((0, 3), dtype=np.int64), id="no-rows"),
    pytest.param(np.zeros((2, 0), dtype=np.int64), id="no-columns"),
    pytest.param(np.arange(5, dtype=np.int64).reshape(5, 1), id="width-1"),
    pytest.param(np.array([[-3, 0, 7], [-1, -2, -9]], dtype=np.int64), id="negative"),
    pytest.param(np.array([[2 ** 62, -(2 ** 62)], [2 ** 62 - 1, 2 ** 63 - 1]], dtype=np.int64),
                 id="near-2-62"),
    pytest.param(np.array([[0, 1], [2, 3]], dtype=np.int32), id="int32"),
    pytest.param(np.array([[0, 2 ** 64 - 1]], dtype=np.uint64), id="uint64"),
    pytest.param(Hypergraph(7, 3, [(0, 1, 2), (4, 5, 6), (1, 3, 5)]).rows(), id="hypergraph-rows"),
]


@pytest.mark.parametrize("table", INT_TABLES)
def test_integer_table_is_written_as_its_list(table):
    assert canonical_json(table) == canonical_json(table.tolist())
    assert canonical_json(table.tolist()) == canonical_json_reference(table.tolist())
    doc = {"edges": table, "n": [table, {"inner": table}]}
    listed = {"edges": table.tolist(), "n": [table.tolist(), {"inner": table.tolist()}]}
    assert canonical_json(doc) == canonical_json(listed)


def test_canonical_json_refuses_what_json_refuses():
    for value in ([object()], {"a": np.int64(3)}, [np.bool_(True)], np.int64(3),
                  np.zeros((2, 2)), np.zeros((2, 2), dtype=bool),
                  np.arange(3), np.zeros((1, 1, 1), dtype=np.int64)):
        with pytest.raises(TypeError):
            canonical_json_reference(value)
        with pytest.raises(TypeError):
            canonical_json(value)


INT_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
# names that JSON escapes ("\"", "\\", "\n", "é"), that the row template must
# escape ("%"), and that sort differently from their definition order
FIELD_NAMES = st.text(st.sampled_from('ab"\\\n%é_Z'), min_size=1, max_size=3)


@st.composite
def record_arrays(draw):
    """A 1-d structured array of fields of one integer dtype, each a scalar
    or a 1-d sub-array of width 0-3, with values anywhere in that dtype's
    range."""
    names = draw(st.lists(FIELD_NAMES, min_size=1, max_size=4, unique=True))
    dtype = draw(st.sampled_from(INT_DTYPES))
    fields = [(name, dtype, draw(st.sampled_from([(), (0,), (1,), (3,)]))) for name in names]
    rows = draw(st.integers(0, 4))
    records = np.zeros(rows, dtype=fields)
    info = np.iinfo(dtype)
    for name, _, shape in fields:
        values = draw(st.lists(st.integers(int(info.min), int(info.max)),
                               min_size=rows * int(np.prod(shape)),
                               max_size=rows * int(np.prod(shape))))
        records[name] = np.array(values, dtype=dtype).reshape((rows, *shape))
    return records


def _as_dicts(records):
    return [{name: record[name].tolist() for name in records.dtype.names} for record in records]


@settings(max_examples=300, deadline=None, database=None)
@given(record_arrays())
@example(np.zeros(0, dtype=[("arrangement", np.int64, (4,)), ("ell", np.int64)]))
@example(np.array([([3, 0, 1, 2], 1)], dtype=[("arrangement", np.int64, (4,)), ("ell", np.int64)]))
@example(np.array([(2 ** 64 - 1, [0]), (2 ** 63, [1])],
                  dtype=[("b", np.uint64), ("a", np.uint64, (1,))]))
@example(np.array([(7,), (-7,)], dtype=[("only", np.int8)]))
@example(np.zeros(2, dtype=[("z", np.uint8, (0,)), ("a", np.uint8)]))
@example(np.zeros(2, dtype=[("%d", np.int64), ('"q"', np.int64, (2,)), ("\n", np.int64)]))
def test_records_are_written_as_their_list_of_dicts(records):
    listed = _as_dicts(records)
    assert canonical_json(records) == canonical_json_reference(listed)
    assert canonical_json({"cycles": records, "n": [records]}) == canonical_json_reference(
        {"cycles": listed, "n": [listed]})


@pytest.mark.parametrize("rows", [0, 2])
@pytest.mark.parametrize("dtype,message", [
    ([("ok", np.int64), ("bad", np.float64)], "structured field 'bad'"),
    ([("ok", np.int64), ("bad", np.bool_)], "structured field 'bad'"),
    ([("ok", np.int64), ("bad", np.complex128)], "structured field 'bad'"),
    ([("ok", np.int64), ("bad", "U3")], "structured field 'bad'"),
    ([("ok", np.int64), ("bad", "O")], "structured field 'bad'"),
    ([("ok", np.int64), ("bad", np.int64, (2, 2))], "structured field 'bad'"),
    ([("ok", np.int64), ("bad", [("inner", np.int64)])], "structured field 'bad'"),
    # int64 and uint64 have no common integer dtype: numpy would join them as float64
    ([("ok", np.int64), ("bad", np.uint64)], "structured field 'bad'"),
    ([], "not a 2-d integer table or a 1-d array of integer records"),
], ids=["float", "bool", "complex", "str", "object", "2d-sub-array", "nested-record",
        "mixed-int-dtypes", "no-fields"])
def test_records_refuse_a_non_integer_field(rows, dtype, message):
    with pytest.raises(TypeError, match=message):
        canonical_json(np.zeros(rows, dtype=dtype))


@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 + 5, 2 ** 64, -5])
def test_random_stream_continues_the_random_draws(seed):
    rng = random.Random(seed)
    expected = [rng.random() for _ in range(1000)]
    stream = random_stream(seed)
    assert random_stream(seed).random_sample(0).tolist() == []
    drawn = [stream.random_sample(size).tolist() for size in (0, 1, 624, 375)]
    assert sum(drawn, []) == expected


@pytest.mark.parametrize("x", [-1, -0.5, float("-inf"), float("nan")])
def test_check_nonnegative_refuses_negatives_and_nan(x):
    with pytest.raises(InvalidInputError, match=rf"^count must be >= 0, got {x}$"):
        check_nonnegative(x, "count")


@pytest.mark.parametrize("x", [0, 0.0, 3, float("inf")])
def test_check_nonnegative_accepts_zero_and_above(x):
    check_nonnegative(x, "count")


def test_integer_is_index_without_bools():
    assert integer(3) == 3 and integer(np.int64(-2)) == -2 and type(integer(np.int64(5))) is int
    for bad in (True, False, 1.0, "1", None, [1]):
        with pytest.raises(TypeError):
            integer(bad)
