"""The JSON file formats: exact bytes written, and the error for a file that is not JSON."""
import pytest

from hampack.bifactor import BipartiteGraph, read_bipartite, write_bipartite
from hampack.errors import ParseError
from hampack.hypercore import Hypergraph, read_hypergraph, write_hypergraph
from hampack.reduction import HamiltonCycle, read_cycle, write_cycle

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
