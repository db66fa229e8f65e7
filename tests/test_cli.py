import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

from hampack import hypercore
from hampack.cli import build_parser, main
from hampack.constructions import complete_hypergraph
from hampack.reduction import HamiltonCycle, cycle_to_json_dict
from hampack.util import write_json

from helpers import SRC, modules_loaded_by


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_complete_then_count(tmp_path, capsys):
    path = str(tmp_path / "k4.json")
    code, _, _ = run(capsys, "gen", "--complete", "--n", "4", "--k", "3", "--out", path)
    assert code == 0
    code, out, _ = run(capsys, "count", "--input", path, "--ell", "1")
    assert code == 0
    assert json.loads(out)["exact_count"] == 6


def test_gen_random_deterministic(capsys):
    code1, out1, _ = run(capsys, "gen", "--random", "--n", "10", "--k", "3",
                         "--p", "0.5", "--seed", "3")
    code2, out2, _ = run(capsys, "gen", "--random", "--n", "10", "--k", "3",
                         "--p", "0.5", "--seed", "3")
    assert code1 == code2 == 0 and out1 == out2


@pytest.mark.parametrize("argv, message", [
    (("--complete", "--certify", "3"), "--certify requires --parity"),
    (("--random", "--p", "0.5", "--certify", "3"), "--certify requires --parity"),
    (("--complete", "--p", "0.5"), "--p requires --random"),
    (("--parity", "--p", "0.5"), "--p requires --random"),
])
def test_gen_refuses_a_flag_its_kind_ignores(capsys, argv, message):
    code, out, err = run(capsys, "gen", "--n", "6", "--k", "3", *argv)
    assert code == 1 and out == ""
    assert message in err


def test_edge_with_a_repeated_vertex_exits_1(tmp_path, capsys):
    path = tmp_path / "h.json"
    path.write_text('{"n": 4, "k": 3, "edges": [[0,1,2,2],[0,1,3]]}')
    code, out, err = run(capsys, "degrees", "--input", str(path), "--d", "2")
    assert code == 1 and out == ""
    assert "edge 0 [0, 1, 2, 2]: not 3 distinct vertices" in err


def test_gen_parity_certify(tmp_path, capsys):
    path = str(tmp_path / "parity.json")
    code, _, _ = run(capsys, "gen", "--parity", "--n", "12", "--k", "3",
                     "--certify", "1", "--out", path)
    assert code == 0
    cert = json.loads(open(path + ".certificate.json").read())
    assert cert["no_factor"] is True
    assert cert["exhaustive_pm_count"] == 0
    # the hypergraph file keeps the exact schema
    doc = json.loads(open(path).read())
    assert set(doc) == {"n", "k", "edges"}


def test_degrees(tmp_path, capsys):
    path = str(tmp_path / "h.json")
    write_json(hypercore.to_json_dict(complete_hypergraph(6, 3)), path)
    code, out, _ = run(capsys, "degrees", "--input", path, "--d", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["min_degree"] == doc["max_degree"] == 4


def test_bound(capsys):
    code, out, _ = run(capsys, "bound", "--n", "6", "--k", "3", "--ell", "1",
                       "--alpha", "0.75", "--p", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["log_expected"] is None and doc["note"] == "no cycles expected"
    assert doc["log_lower_bound"] == pytest.approx(5.7162, abs=1e-3)


@pytest.mark.parametrize("argv", [
    ("--n", "0", "--k", "3", "--ell", "1", "--alpha", "0.8"),
    ("--n", "2", "--k", "3", "--ell", "1", "--alpha", "0.8", "--p", "0.5"),
    ("--n", "-4", "--k", "3", "--ell", "1", "--alpha", "0.8"),
    ("--n", "0", "--k", "3", "--ell", "0", "--p", "0.5"),
])
def test_bound_below_k_vertices_exit_1(capsys, argv):
    code, out, err = run(capsys, "bound", *argv)
    assert code == 1 and out == ""
    assert "the counting formulas need n >= k" in err


def test_reduce_then_factor(tmp_path, capsys):
    hpath = str(tmp_path / "h.json")
    write_json(hypercore.to_json_dict(complete_hypergraph(8, 3)), hpath)
    gpath = str(tmp_path / "aux.json")
    code, _, _ = run(capsys, "reduce", "--input", hpath, "--ell", "1",
                     "--seed", "5", "--out", gpath)
    assert code == 0
    assert os.path.exists(gpath + ".scheme.json")
    code, out, _ = run(capsys, "factor", "--input", gpath)
    assert code == 0
    assert json.loads(out)["r_star"] == 4  # complete aux graph


def test_factor_fixed_r_with_gale_ryser(tmp_path, capsys):
    gpath = str(tmp_path / "g.json")
    from hampack.bifactor import complete_bipartite, to_json_dict
    write_json(to_json_dict(complete_bipartite(3)), gpath)
    code, out, _ = run(capsys, "factor", "--input", gpath, "--r", "2")
    doc = json.loads(out)
    assert code == 0 and doc["exists"] and doc["gale_ryser"]["holds"]


def test_pack_byte_identical(tmp_path, capsys):
    hpath = str(tmp_path / "h.json")
    write_json(hypercore.to_json_dict(complete_hypergraph(12, 3)), hpath)
    outs = []
    for name in ("a.json", "b.json"):
        opath = str(tmp_path / name)
        code, _, _ = run(capsys, "pack", "--input", hpath, "--theorem", "2",
                         "--ell", "1", "--r", "2", "--seed", "7", "--out", opath)
        assert code == 0
        outs.append(open(opath, "rb").read())
        assert os.path.exists(opath + ".partitions.csv")
        assert os.path.exists(opath + ".manifest.json")
    assert outs[0] == outs[1]


def test_pack_zero_cycles_warns_on_stderr(tmp_path, capsys):
    hpath = str(tmp_path / "h.json")
    write_json(hypercore.to_json_dict(complete_hypergraph(12, 3)), hpath)
    argv = ["pack", "--input", hpath, "--theorem", "2", "--ell", "1", "--seed", "7"]
    code, out, err = run(capsys, *argv, "--r", "40")
    doc = json.loads(out)
    assert code == 0 and doc["cycles"] == [] and doc["partitions_used"] == 40
    retained = sum(p["sub_aux_edges"] for p in doc["per_partition"])
    assert err == (f"warning: 0 cycles from 40 partitions; "
                   f"{retained} aux edges retained in total\n")
    # a run that finds cycles says nothing
    code, out, err = run(capsys, *argv, "--r", "2")
    assert code == 0 and json.loads(out)["cycles"] and err == ""


def test_pack_builds_no_per_cycle_object(tmp_path, capsys, monkeypatch):
    # the cycles go from the packer's table to the bytes as one records array,
    # and write the document that the per-cycle dicts write
    from hampack import cli, packer, reduction
    from hampack.hypercore import read_hypergraph
    from hampack.util import canonical_json, derive_seed
    hpath = str(tmp_path / "h.json")
    assert run(capsys, "gen", *README_H, "--out", hpath)[0] == 0
    argv = ["pack", "--input", hpath, "--ell", "1", "--r", "4", "--seed", "7"]
    code, expected, _ = run(capsys, *argv)
    assert code == 0
    result = packer.pack_min_degree(read_hypergraph(hpath), 1, num_partitions=4,
                                    seed=derive_seed(7, "pack"))
    doc = cli._packing_doc(result)
    doc["cycles"] = [reduction.cycle_to_json_dict(c) for c in result.cycles]
    assert len(doc["cycles"]) > 1 and canonical_json(doc) + "\n" == expected

    def refuse(*args, **kwargs):
        raise AssertionError("pack built a per-cycle object")
    for module in (cli, packer, reduction):
        for name in ("HamiltonCycle", "cycle_to_json_dict"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert run(capsys, *argv) == (0, expected, "")


def test_pack_near_regular_cli(tmp_path, capsys):
    hpath = str(tmp_path / "h.json")
    write_json(hypercore.to_json_dict(complete_hypergraph(12, 3)), hpath)
    code, out, _ = run(capsys, "pack", "--input", hpath, "--theorem", "3",
                       "--ell", "1", "--r", "2", "--seed", "7",
                       "--epsilon", "0.05", "--delta-target", "0.5")
    assert code == 0
    assert json.loads(out)["coverage_ratio"] > 0


PACK_KEYS = {"cycles", "partitions_used", "per_partition", "psi_histogram", "unassigned",
             "covered_edges", "coverage_ratio", "warnings", "uncovered_budget", "goal_met"}
PARTITION_KEYS = {"index", "retries", "aux_min_degree", "aux_edges", "assigned_edges",
                  "sub_aux_edges", "factor_size", "matchings", "cycles"}


@pytest.mark.parametrize("theorem", ["2", "3"])
def test_pack_document_keys(tmp_path, capsys, theorem):
    # the benchmark's pack check reads cycles, partitions_used, covered_edges,
    # coverage_ratio, unassigned, psi_histogram and, per partition, retries,
    # matchings, factor_size, aux_edges, assigned_edges, sub_aux_edges, cycles
    hpath = str(tmp_path / "h.json")
    write_json(hypercore.to_json_dict(complete_hypergraph(12, 3)), hpath)
    code, out, _ = run(capsys, "pack", "--input", hpath, "--theorem", theorem,
                       "--ell", "1", "--r", "2", "--seed", "7")
    doc = json.loads(out)
    assert code == 0 and set(doc) == PACK_KEYS
    assert [set(p) for p in doc["per_partition"]] == [PARTITION_KEYS] * 2


@pytest.mark.parametrize("theorem", ["2", "3"])
def test_pack_rejects_negative_partition_count(tmp_path, capsys, theorem):
    hpath, opath = str(tmp_path / "h.json"), tmp_path / "pack.json"
    write_json(hypercore.to_json_dict(complete_hypergraph(12, 3)), hpath)
    code, _, err = run(capsys, "pack", "--input", hpath, "--theorem", theorem,
                       "--ell", "1", "--r", "-3", "--out", str(opath))
    assert code == 1
    assert "number of partitions must be >= 0, got -3" in err
    assert not opath.exists()


@pytest.mark.parametrize("theorem", ["2", "3"])
def test_pack_refuses_a_1_graph(tmp_path, capsys, theorem):
    # every Hamilton cycle of a 1-graph is all n singleton edges, so no two
    # are disjoint; the refusal comes before any codegree is read
    hpath, opath = str(tmp_path / "h.json"), tmp_path / "pack.json"
    write_json({"n": 4, "k": 1, "edges": [[0], [1], [2], [3]]}, hpath)
    code, _, err = run(capsys, "pack", "--input", hpath, "--theorem", theorem,
                       "--ell", "0", "--out", str(opath))
    assert code == 1
    assert err == ("error: packing needs k >= 2, got k=1: every Hamilton cycle of a "
                   "1-graph uses all 4 singleton edges, so no two cycles are edge-disjoint\n")
    assert not opath.exists()


def test_mc_factor(tmp_path, capsys):
    opath = str(tmp_path / "mc.json")
    code, _, _ = run(capsys, "mc-factor", "--complete-bipartite", "12",
                     "--rho", "0.8", "--p", "0.9", "--epsilon", "0.5",
                     "--trials", "5", "--seed", "5", "--min-successes", "5",
                     "--out", opath)
    assert code == 0
    doc = json.loads(open(opath).read())
    assert doc["successes"] == 5 and doc["target"] == 4
    csv_lines = open(opath + ".trials.csv").read().strip().splitlines()
    assert csv_lines[0] == "seed,r_star,target,success"
    assert len(csv_lines) == 6


def test_mc_factor_threshold_failure(capsys):
    code, _, err = run(capsys, "mc-factor", "--complete-bipartite", "10",
                       "--rho", "1.0", "--p", "0.2", "--epsilon", "0.0",
                       "--trials", "3", "--seed", "1", "--min-successes", "3")
    assert code == 2
    assert "FAIL" in err


def test_mc_factor_probability_out_of_range_exit_1(capsys):
    code, _, err = run(capsys, "mc-factor", "--complete-bipartite", "4", "--rho", "1",
                       "--p", "1.5", "--epsilon", "0.1")
    assert code == 1
    assert "probability 1.5 not in [0, 1]" in err


def test_mc_factor_probability_checked_without_trials(tmp_path, capsys):
    out = str(tmp_path / "mc.json")
    code, _, err = run(capsys, "mc-factor", "--complete-bipartite", "4", "--rho", "1",
                       "--p", "1.5", "--epsilon", "0.1", "--trials", "0", "--out", out)
    assert code == 1
    assert "probability 1.5 not in [0, 1]" in err
    assert not (tmp_path / "mc.json").exists()


def test_mc_factor_graph_flags_exclusive_and_required(tmp_path, capsys):
    gpath = str(tmp_path / "g.json")
    from hampack.bifactor import complete_bipartite, to_json_dict
    write_json(to_json_dict(complete_bipartite(4)), gpath)
    sweep = ("--rho", "1", "--p", "0.5", "--epsilon", "0.1", "--trials", "1")
    code, out, err = run(capsys, "mc-factor", "--input", gpath,
                         "--complete-bipartite", "4", *sweep)
    assert code == 1 and out == ""
    assert "not allowed with argument" in err
    code, out, err = run(capsys, "mc-factor", *sweep)
    assert code == 1 and out == ""
    assert "one of the arguments --input --complete-bipartite is required" in err


def test_mc_factor_empty_complete_graph_fails_density_hypothesis(capsys):
    code, out, err = run(capsys, "mc-factor", "--complete-bipartite", "0",
                         "--rho", "1", "--p", "0.5", "--epsilon", "0.1")
    assert code == 1 and out == ""
    assert "min degree 0 is not above m/2 = 0.0; the density hypothesis fails" in err


def test_mc_factor_refuses_a_complete_graph_past_1_gib_of_codes(capsys):
    code, out, err = run(capsys, "mc-factor", "--complete-bipartite", "11586",
                         "--rho", "1", "--p", "0.5", "--epsilon", "0.1")
    assert code == 1 and out == ""
    assert "m^2 = 11586^2 > 2^27" in err


MC_FACTOR_K4 = ("mc-factor", "--complete-bipartite", "4", "--rho", "1", "--p", "0.5")


@pytest.mark.parametrize("argv, message", [
    (("mc-factor", "--complete-bipartite", "4", "--rho", "1", "--p", "0.5",
      "--epsilon", "0.1", "--trials", "-2"), "number of trials must be >= 0, got -2"),
    (("mc-partition", "--kind", "aux-degrees", "--delta", "0.6", "--epsilon", "0.2",
      "--trials", "-3"), "number of trials must be >= 0, got -3"),
    (("mc-partition", "--kind", "part-degrees", "--sizes", "6,6", "--delta", "0.5",
      "--epsilon", "0.2", "--trials", "-3"), "number of trials must be >= 0, got -3"),
    # schemes are kept as drawn: there is no resample limit to set
    (("pack", "--theorem", "2", "--ell", "1", "--r", "2", "--resample-limit", "3"),
     "unrecognized arguments: --resample-limit 3"),
    (("pack", "--theorem", "3", "--ell", "1", "--r", "2", "--epsilon", "0.05",
      "--resample-limit", "3"), "unrecognized arguments: --resample-limit 3"),
    # parameters outside their range, checked before any trial or partition
    (MC_FACTOR_K4 + ("--epsilon", "1.5", "--trials", "2"), "epsilon must be in [0, 1), got 1.5"),
    (MC_FACTOR_K4 + ("--epsilon", "-3", "--trials", "2"), "epsilon must be in [0, 1), got -3.0"),
    (MC_FACTOR_K4 + ("--epsilon", "1", "--trials", "0"), "epsilon must be in [0, 1), got 1.0"),
    (MC_FACTOR_K4 + ("--epsilon", "0.2", "--min-successes", "-1"),
     "--min-successes must be >= 0, got -1"),
    (("mc-partition", "--delta", "0.2", "--epsilon", "0.1", "--min-successes", "-3"),
     "--min-successes must be >= 0, got -3"),
    (("mc-partition", "--delta", "-2", "--epsilon", "0.1", "--trials", "2"),
     "delta -2.0 not in [0, 1]"),
    (("mc-partition", "--delta", "0.2", "--epsilon", "-1", "--trials", "2"),
     "epsilon must be >= 0, got -1.0"),
    (("mc-partition", "--kind", "part-degrees", "--sizes", "6,6", "--delta", "1.5",
      "--epsilon", "0.1", "--trials", "2"), "delta 1.5 not in [0, 1]"),
    (("mc-partition", "--kind", "part-degrees", "--sizes", "6,6", "--delta", "0.5",
      "--epsilon", "-0.5", "--trials", "0"), "epsilon must be >= 0, got -0.5"),
    (("pack", "--theorem", "3", "--ell", "1", "--epsilon", "-0.1"),
     "epsilon must be >= 0, got -0.1"),
    (("pack", "--theorem", "3", "--ell", "1", "--delta-target", "-1"),
     "delta_target -1.0 not in [0, 1]"),
    (("pack", "--theorem", "3", "--ell", "1", "--delta-target", "7"),
     "delta_target 7.0 not in [0, 1]"),
    # the min-degree pipeline computes its own epsilon from the measured alpha
    (("pack", "--theorem", "2", "--ell", "1", "--r", "2", "--epsilon", "-1"),
     "--epsilon requires --theorem 3"),
    (("pack", "--theorem", "2", "--ell", "1", "--r", "2", "--epsilon", "nan"),
     "--epsilon requires --theorem 3"),
    # the count's slack and the min-degree pipeline's alpha' are constants
    # (census.SLACK_PER_VERTEX, packer.ALPHA_PRIME), not flags
    (("count", "--ell", "1", "--slack", "-0.5"), "unrecognized arguments: --slack -0.5"),
    (("count", "--ell", "1", "--slack", "nan"), "unrecognized arguments: --slack nan"),
    (("pack", "--theorem", "2", "--ell", "1", "--alpha-prime", "nan"),
     "unrecognized arguments: --alpha-prime nan"),
    (("pack", "--theorem", "2", "--ell", "1", "--alpha-prime", "1.5"),
     "unrecognized arguments: --alpha-prime 1.5"),
    (("pack", "--theorem", "3", "--ell", "1", "--alpha-prime", "nan"),
     "unrecognized arguments: --alpha-prime nan"),
    # each pipeline refuses the other's flag instead of ignoring it
    (("pack", "--theorem", "2", "--ell", "1", "--delta-target", "7"),
     "--delta-target requires --theorem 3"),
    # each mc-partition kind refuses the other's flag
    (("mc-partition", "--kind", "part-degrees", "--sizes", "6,6", "--ell", "5",
      "--delta", "0.5", "--epsilon", "0.2", "--trials", "2"),
     "--ell requires --kind aux-degrees"),
    (("mc-partition", "--kind", "aux-degrees", "--sizes", "6,6", "--delta", "0.5",
      "--epsilon", "0.2", "--trials", "2"), "--sizes requires --kind part-degrees"),
])
def test_negative_counts_exit_1(tmp_path, capsys, argv, message):
    hpath, opath = str(tmp_path / "h.json"), tmp_path / "out.json"
    write_json(hypercore.to_json_dict(complete_hypergraph(12, 3)), hpath)
    if argv[0] != "mc-factor":
        argv = argv[:1] + ("--input", hpath) + argv[1:]
    code, _, err = run(capsys, *argv, "--out", str(opath))
    assert code == 1
    assert message in err
    assert not opath.exists()


@pytest.mark.parametrize("argv", [
    ("gen", "--random", "--n", "6", "--k", "3", "--p", "1.5"),
    ("bound", "--n", "6", "--k", "3", "--ell", "1", "--p", "1.5"),
])
def test_probability_out_of_range_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert "probability 1.5 not in [0, 1]" in err


def test_mc_partition_threshold_failure(tmp_path, capsys):
    hpath = str(tmp_path / "h.json")
    write_json(hypercore.to_json_dict(complete_hypergraph(12, 3)), hpath)
    # every pair sees 4 of its 10 completions in a part of 6, below 0.9 * 6
    code, out, err = run(capsys, "mc-partition", "--input", hpath,
                         "--kind", "part-degrees", "--sizes", "6,6",
                         "--delta", "0.9", "--epsilon", "0.0",
                         "--trials", "3", "--seed", "3", "--min-successes", "1")
    assert code == 2
    assert json.loads(out)["successes"] == 0
    assert "FAIL: 0 successes < required 1" in err


def test_mc_partition_aux(tmp_path, capsys):
    hpath = str(tmp_path / "h.json")
    write_json(hypercore.to_json_dict(complete_hypergraph(12, 3)), hpath)
    code, out, _ = run(capsys, "mc-partition", "--input", hpath,
                       "--kind", "aux-degrees", "--ell", "1",
                       "--delta", "0.6", "--epsilon", "0.2",
                       "--trials", "5", "--seed", "3", "--min-successes", "5")
    assert code == 0
    assert json.loads(out)["successes"] == 5


def test_mc_partition_parts(tmp_path, capsys):
    hpath = str(tmp_path / "h.json")
    write_json(hypercore.to_json_dict(complete_hypergraph(12, 3)), hpath)
    code, out, _ = run(capsys, "mc-partition", "--input", hpath,
                       "--kind", "part-degrees", "--sizes", "6,6",
                       "--delta", "0.5", "--epsilon", "0.2",
                       "--trials", "5", "--seed", "3")
    assert code == 0
    assert json.loads(out)["successes"] == 5


@pytest.mark.parametrize("sizes, message", [
    ("15,14", "part sizes sum to 29, need n = 30"),
    ("29,1", "every part must have at least 0.05 * n vertices"),
])
def test_mc_partition_sizes_checked_without_trials(tmp_path, capsys, sizes, message):
    hpath, opath = str(tmp_path / "h.json"), tmp_path / "mc.json"
    write_json(hypercore.to_json_dict(complete_hypergraph(30, 3)), hpath)
    code, _, err = run(capsys, "mc-partition", "--input", hpath, "--kind", "part-degrees",
                       "--sizes", sizes, "--delta", "0.2", "--epsilon", "0.1",
                       "--trials", "0", "--out", str(opath))
    assert code == 1
    assert message in err
    assert not opath.exists()


def test_verify_valid_and_invalid(tmp_path, capsys):
    hpath = str(tmp_path / "h.json")
    write_json(hypercore.to_json_dict(complete_hypergraph(6, 3)), hpath)
    cpath = str(tmp_path / "c.json")
    write_json(cycle_to_json_dict(HamiltonCycle(k=3, ell=1, arrangement=(0, 1, 2, 3, 4, 5))), cpath)
    code, out, _ = run(capsys, "verify", "--input", hpath, "--cycle", cpath)
    assert code == 0 and json.loads(out)["ok"] is True
    bad = str(tmp_path / "bad.json")
    write_json(cycle_to_json_dict(HamiltonCycle(k=3, ell=1, arrangement=(0, 1, 2, 3, 4, 4))), bad)
    code, out, _ = run(capsys, "verify", "--input", hpath, "--cycle", bad)
    assert code == 2 and json.loads(out)["ok"] is False


def test_unknown_flag_exit_1(capsys):
    code, _, _ = run(capsys, "count", "--nonsense")
    assert code == 1


# `python -m hampack.cli` runs `main_entry`, the console script's target,
# which exits the process with the code that `main` returns.
PROCESS_EXITS = {
    "ok": (["bound", "--n", "6", "--k", "3", "--ell", "1", "--alpha", "0.9"], 0, ""),
    "invalid": (["bound", "--n", "6", "--k", "3", "--ell", "1"], 1,
                "error: provide --alpha and/or --p\n"),
    "usage": (["gen", "--bogus"], 1, "usage: hampack gen"),
    "failure": (["mc-factor", "--complete-bipartite", "4", "--rho", "1", "--p", "0.5",
                 "--epsilon", "0.2", "--trials", "1", "--min-successes", "2"], 2,
                "FAIL: 0 successes < required 2\n"),
}


@pytest.mark.parametrize("name", sorted(PROCESS_EXITS))
def test_process_exit_codes(name):
    argv, code, err = PROCESS_EXITS[name]
    proc = subprocess.run([sys.executable, "-m", "hampack.cli", *argv], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith(err) and bool(proc.stderr) == bool(err)


PIPED_FILES = {
    "plain": b'{"edges": [[0, 1, 2], [0, 1, 3]], "k": 3, "n": 4}',
    "minus-zero": b'{"edges": [[0, 1, 2], [-0, 1, 3]], "k": 3, "n": 4}',
    "duplicate-edge": b'{"edges": [[0, 1, 2], [2, 1, 0]], "k": 3, "n": 4}',
}


@pytest.mark.parametrize("name", sorted(PIPED_FILES))
def test_piped_input_reads_as_a_regular_file(tmp_path, name):
    """A pipe cannot seek: its bytes are read once, and both the byte scan
    and the json path read them.  The `-0` file is valid but refused by the
    scan; the duplicate edge is named by the json path."""
    data = PIPED_FILES[name]
    path = tmp_path / "h.json"
    path.write_bytes(data)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    procs = [subprocess.run([sys.executable, "-m", "hampack.cli", "degrees", "--input", source,
                             "--d", "2"], input=stdin, capture_output=True, timeout=120, env=env)
             for source, stdin in [("/dev/stdin", data), (str(path), b"")]]
    piped, regular = [(p.returncode, p.stdout, p.stderr) for p in procs]
    assert piped == regular
    if name == "duplicate-edge":
        assert regular[0] == 1 and b"duplicate edge" in regular[2]
    else:
        assert regular[0] == 0 and json.loads(regular[1])["min_degree"] == 0


def test_count_size_limit_exit_1(tmp_path, capsys):
    hpath = str(tmp_path / "big.json")
    write_json(hypercore.to_json_dict(complete_hypergraph(12, 3)), hpath)
    code, _, err = run(capsys, "count", "--input", hpath, "--ell", "1")
    assert code == 1 and "n=12" in err
    assert "the exact count's subset DP is capped at n <= 10" in err
    assert "`hampack bound` evaluates the formulas at any n" in err


@pytest.mark.parametrize("kind", ["--complete", "--parity"])
def test_gen_rows_past_1_gib_exit_1(capsys, kind):
    code, out, err = run(capsys, "gen", kind, "--n", "1000", "--k", "3")
    assert code == 1 and out == ""
    assert "C(1000, 3)·3 > 2^27: the edge rows would exceed 1 GiB" in err


def test_verify_ell_out_of_range_exit_2(tmp_path, capsys):
    hpath = str(tmp_path / "h.json")
    write_json(hypercore.to_json_dict(complete_hypergraph(6, 3)), hpath)
    cpath = str(tmp_path / "c.json")
    write_json(cycle_to_json_dict(HamiltonCycle(k=3, ell=2, arrangement=(0, 1, 2, 3, 4, 5))), cpath)
    code, out, _ = run(capsys, "verify", "--input", hpath, "--cycle", cpath)
    assert code == 2 and json.loads(out)["failure"] == "ell-out-of-range"


def test_hypergraph_bool_values_exit_1(tmp_path, capsys):
    # JSON true/false are not the integers 1/0: neither as a vertex nor as k.
    for doc in ('{"n": 4, "k": 3, "edges": [[true, 2, 3], [0, 2, 3]]}',
                '{"n": 4, "k": true, "edges": [[1], [2]]}'):
        path = tmp_path / "h.json"
        path.write_text(doc)
        code, out, err = run(capsys, "degrees", "--input", str(path), "--d", "1")
        assert code == 1 and out == "" and "integers" in err


def test_bipartite_bool_values_exit_1(tmp_path, capsys):
    for doc in ('{"m": 2, "edges": [[true, 0], [0, 1]]}', '{"m": true, "edges": []}'):
        path = tmp_path / "g.json"
        path.write_text(doc)
        code, out, err = run(capsys, "factor", "--input", str(path))
        assert code == 1 and out == "" and "integer" in err


def test_bipartite_repeated_pair_exit_1(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text('{"m": 2, "edges": [[0, 0], [0, 0], [1, 1]]}')
    code, out, err = run(capsys, "factor", "--input", str(path))
    assert code == 1 and out == ""
    assert "edge 1 (0,0): duplicate edge" in err


def test_cycle_bool_values_exit_1(tmp_path, capsys):
    hpath = str(tmp_path / "h.json")
    write_json(hypercore.to_json_dict(complete_hypergraph(6, 3)), hpath)
    for doc in ('{"ell": true, "arrangement": [0, 1, 2, 3, 4, 5]}',
                '{"ell": 1, "arrangement": [0, 1, 2, 3, 4, false]}'):
        cpath = tmp_path / "c.json"
        cpath.write_text(doc)
        code, out, err = run(capsys, "verify", "--input", hpath, "--cycle", str(cpath))
        assert code == 1 and out == "" and "integer" in err


def test_codes_past_int64_exit_1(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"n": 79, "k": 10, "edges": []}')
    code, _, err = run(capsys, "degrees", "--input", str(path), "--d", "1")
    assert code == 1 and "2^63" in err


@pytest.mark.parametrize("argv", [
    ("factor", "--input"),
    ("mc-factor", "--complete-bipartite", "4294967296", "--rho", "1", "--p", "0.5",
     "--epsilon", "0.2", "--trials", "2"),
])
def test_bipartite_codes_past_int64_exit_1(tmp_path, capsys, argv):
    # m = 2^32: the pair codes s·m + t reach 2^64 - 1, past int64.
    if argv[0] == "factor":
        path = tmp_path / "g.json"
        path.write_text('{"m": 4294967296, "edges": [[0, 4294967295], [4294967295, 1]]}')
        argv += (str(path),)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "error: m^2 = 4294967296^2 >= 2^63: pair codes do not fit in int64"]


def test_missing_input_exit_1(tmp_path, capsys):
    code, _, err = run(capsys, "degrees", "--input", str(tmp_path / "nope.json"), "--d", "1")
    assert code == 1


@pytest.mark.parametrize("content", [
    pytest.param(b"\xff\xfe{}", id="not-utf-8"),
    pytest.param(b"[" * 200000, id="too-deep"),
])
def test_undecodable_input_exit_1(tmp_path, capsys, content):
    path = tmp_path / "h.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "degrees", "--input", str(path), "--d", "1")
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}: not valid JSON (")


def test_invalid_file_no_partial_output(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    opath = str(tmp_path / "out.json")
    code, _, _ = run(capsys, "degrees", "--input", str(bad), "--d", "1", "--out", opath)
    assert code == 1
    assert not os.path.exists(opath)


def test_manifest_contents(tmp_path, capsys):
    hpath = str(tmp_path / "h.json")
    write_json(hypercore.to_json_dict(complete_hypergraph(6, 3)), hpath)
    opath = str(tmp_path / "deg.json")
    run(capsys, "degrees", "--input", hpath, "--d", "2", "--out", opath)
    manifest = json.loads(open(opath + ".manifest.json").read())
    assert manifest["command"] == "degrees"
    assert hpath in manifest["input_digests"]
    assert opath in manifest["outputs"]
    assert manifest["artifact_version"]


@pytest.mark.parametrize("argv, keys", [
    (("pack", "--theorem", "2", "--ell", "1", "--r", "2"),
     {"theorem", "ell", "epsilon", "r", "delta_target"}),
    (("pack", "--theorem", "3", "--ell", "1", "--r", "2"),
     {"theorem", "ell", "epsilon", "r", "delta_target"}),
    (("count", "--ell", "1"), {"ell"}),
], ids=["pack-t2", "pack-t3", "count"])
def test_manifest_parameter_keys(tmp_path, capsys, argv, keys):
    # alpha' and the count's slack are constants, so no manifest records them
    hpath, opath = str(tmp_path / "h.json"), str(tmp_path / "out.json")
    write_json(hypercore.to_json_dict(complete_hypergraph(6, 3)), hpath)
    assert run(capsys, *argv, "--input", hpath, "--out", opath)[0] == 0
    manifest = json.loads(open(opath + ".manifest.json").read())
    assert set(manifest["parameters"]) == keys | {"input", "out", "seed", "threads"}


def test_manifest_replay_reproduces(tmp_path, capsys):
    hpath = str(tmp_path / "h.json")
    write_json(hypercore.to_json_dict(complete_hypergraph(12, 3)), hpath)
    o1, o2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    run(capsys, "pack", "--input", hpath, "--ell", "1", "--r", "2", "--seed", "9",
        "--out", o1)
    manifest = json.loads(open(o1 + ".manifest.json").read())
    params = manifest["parameters"]
    run(capsys, "pack", "--input", hpath, "--ell", "1", "--r", str(params["r"]),
        "--seed", str(manifest["master_seed"]), "--out", o2)
    assert open(o1).read() == open(o2).read()


REPLAYED_RUNS = {
    "gen-complete": ("gen", "--complete", "--n", "8", "--k", "3"),
    "gen-random": ("gen", "--random", "--n", "10", "--k", "3", "--p", "0.6", "--seed", "4"),
    "gen-parity": ("gen", "--parity", "--n", "12", "--k", "3", "--certify", "1"),
    "degrees": ("degrees", "--input", "H", "--d", "2"),
    "reduce": ("reduce", "--input", "H", "--ell", "1", "--seed", "5"),
    "pack-t2": ("pack", "--input", "H", "--ell", "1", "--r", "2", "--seed", "9"),
    "pack-t3": ("pack", "--input", "H", "--theorem", "3", "--ell", "1", "--r", "2"),
    "mc-factor": ("mc-factor", "--complete-bipartite", "4", "--rho", "1", "--p", "0.5",
                  "--epsilon", "0.1", "--trials", "3"),
    "mc-partition-aux": ("mc-partition", "--input", "H", "--delta", "0.6",
                         "--epsilon", "0.2", "--trials", "3"),
    "mc-partition-parts": ("mc-partition", "--input", "H", "--kind", "part-degrees",
                           "--sizes", "6,6", "--delta", "0.5", "--epsilon", "0.2",
                           "--trials", "3"),
}


@pytest.mark.parametrize("name", sorted(REPLAYED_RUNS))
def test_manifest_parameters_replay_the_run(tmp_path, capsys, name):
    # every non-null parameter of the manifest, passed back as its flag (a true
    # one as a bare flag), writes the same primary output and sidecars
    hpath = str(tmp_path / "h.json")
    write_json(hypercore.to_json_dict(complete_hypergraph(12, 3)), hpath)
    o1, o2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    argv = [hpath if a == "H" else a for a in REPLAYED_RUNS[name]]
    assert run(capsys, *argv, "--out", o1)[0] == 0
    manifest = json.load(open(o1 + ".manifest.json"))
    if name.startswith("pack"):
        # theorem 3 runs at epsilon 0.1; theorem 2 takes no epsilon (it uses
        # the measured alpha - packer.ALPHA_PRIME), so its manifest records null
        assert manifest["parameters"]["epsilon"] == {"pack-t2": None, "pack-t3": 0.1}[name]
    replay = [manifest["command"]]
    for key, value in manifest["parameters"].items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            replay.append(flag)
        elif value not in (None, False):
            replay += [flag, o2 if key == "out" else str(value)]
    code, _, err = run(capsys, *replay)
    assert code == 0, err
    replayed = json.load(open(o2 + ".manifest.json"))
    assert replayed["parameters"] == dict(manifest["parameters"], out=o2)
    assert len(manifest["outputs"]) == len(replayed["outputs"]) >= 1
    for first, second in zip(manifest["outputs"], replayed["outputs"]):
        assert open(first, "rb").read() == open(second, "rb").read(), first


# sha256 of the primary JSON and of its sidecar CSV, recorded for a fixed-seed
# corpus before the assignment was read off the aux graphs.  Any change to a
# digest is a change to the program's output and must be explained.  The
# primary digests of complete-12-3-t3 and both random-30-3 cases were
# re-recorded when the peel moved to Hopcroft-Karp: it splits the same factors
# into other matchings, so other cycles cover the same edges (see
# GOLDEN_PACK_CYCLES_FREE).  Every GOLDEN_PACK digest and every
# GOLDEN_PACK_CYCLES_FREE digest was re-recorded once when the packer dropped
# `resample_exhausted` and the per-partition `factor_target` (and its
# partitions.csv column): both documents equal the earlier ones with those
# keys and that column deleted, and nothing else moved.  All of them were
# re-recorded once more when `assign_edges` moved from `random.Random`
# rejection draws to a reservoir pick from one numpy Generator: each document
# equals the earlier one outside the keys that follow the draw (`cycles`,
# `covered_edges`, `coverage_ratio`, `goal_met`, and per partition
# `assigned_edges`, `sub_aux_edges`, `factor_size`, `matchings`, `cycles`);
# `psi_histogram`, `unassigned`, `retries` and the `aux_*` columns are as before.
# The primary digests of both complete-12-3 cases and both random-30-3 cases
# were re-recorded once more when the factor search moved to the complement
# flow (the edges a factor leaves out): it returns other r*-factors of the same
# sub aux graphs, so each document equals the earlier one outside `cycles`,
# the same number of cycles covers other edges, and every sidecar is as before.
GOLDEN_INPUTS = {
    "complete-12-3": ["--complete", "--n", "12", "--k", "3"],
    "complete-4-3": ["--complete", "--n", "4", "--k", "3"],
    "complete-6-5": ["--complete", "--n", "6", "--k", "5"],
    "random-30-3": ["--random", "--n", "30", "--k", "3", "--p", "0.9", "--seed", "5"],
    "random-90-3": ["--random", "--n", "90", "--k", "3", "--p", "0.9", "--seed", "3"],
    "random-10-3-empty": ["--random", "--n", "10", "--k", "3", "--p", "0"],
}

GOLDEN_PACK = [
    ("complete-12-3", ["--theorem", "2", "--ell", "0"],
     "ee4cad580661c4744832c0750c808719c477297b50b4d716ac2282f6302455e3",
     "ac42e937cc117ccebd7614d772546381189332253ce15b4666e77b4015e1a030"),
    ("complete-12-3", ["--theorem", "3", "--ell", "0", "--r", "4"],
     "a378fdb2bbeb8ec56c048882a6a9629e508dad59445e4e0e6061a3c663005145",
     "4dab033919426131c96c999f49e44e976d10264ac70d09e7a1f08dbd974dc00a"),
    ("complete-4-3", ["--theorem", "2", "--ell", "1", "--r", "3"],
     "17c8df35a52cbf31b5ee2a09c942fa9b4366227feea072068c690ac12f0f7b16",
     "104f4a3899d9b2db7819146cad2f8a6bb8e8a07e618aef82be11b71140d7b53a"),
    # re-recorded when Theorem 3 stopped resampling on its degree band: every
    # partition keeps its first scheme (retries 5 -> 0), which changes the
    # assignment, and the warning now counts the 3 of 3 out-of-band partitions;
    # the sidecar is now the same as the Theorem 2 run's
    ("complete-4-3", ["--theorem", "3", "--ell", "1", "--r", "3"],
     "4b3f34620ceed74ff0f22fe6a0fdda3e8dbc20ba87cc203ba4391d6390a9b691",
     "104f4a3899d9b2db7819146cad2f8a6bb8e8a07e618aef82be11b71140d7b53a"),
    ("complete-6-5", ["--theorem", "2", "--ell", "2", "--r", "3"],
     "cc68cc6c73bcd362fb86a9d8f3c5c6701152865d57af95e4f73613b7443ed7a1",
     "5d39acd14a3cb5fda38313c0d106f265a5026bd0dbb0f6fd794263cc65ce58c6"),
    # re-recorded for the same reason as complete-4-3-t3: first schemes kept,
    # so another assignment, and the band warning; sidecar as in Theorem 2's run
    ("complete-6-5", ["--theorem", "3", "--ell", "2", "--r", "3"],
     "173e00b56991ed343b137a28a694a4984b876aad38d7aad15ae6f724e177d6fb",
     "5d39acd14a3cb5fda38313c0d106f265a5026bd0dbb0f6fd794263cc65ce58c6"),
    ("random-30-3", ["--theorem", "2", "--ell", "1", "--r", "8"],
     "779fa994c623830cf6ce1c55a754dc6c0b8b99368e725bc75687c81f8f272f80",
     "cd8a6c0f7f9fba549d971ec3e9c5f1346d817d7ae22ef238adac3acca9ed5573"),
    ("random-30-3", ["--theorem", "3", "--ell", "1", "--r", "8", "--epsilon", "0.3"],
     "2cda8a7c75cdafa4a24c43e6f0c7cc08e0e8a28b4fede3f6cba85ca3b85440a2",
     "cd8a6c0f7f9fba549d971ec3e9c5f1346d817d7ae22ef238adac3acca9ed5573"),
]


def _sha256(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def _golden_pack(tmp_path, capsys, name, argv):
    """Write the golden input `name` and pack it; return (h.json, pack.json)."""
    hpath = str(tmp_path / "h.json")
    code, _, _ = run(capsys, "gen", *GOLDEN_INPUTS[name], "--out", hpath)
    assert code == 0
    opath = str(tmp_path / "pack.json")
    code, _, _ = run(capsys, "pack", "--input", hpath, *argv, "--seed", "7", "--out", opath)
    assert code == 0
    return hpath, opath


@pytest.mark.parametrize("name,argv,primary,sidecar", GOLDEN_PACK,
                         ids=[f"{c[0]}-t{c[1][1]}" for c in GOLDEN_PACK])
def test_pack_golden_digests(tmp_path, capsys, name, argv, primary, sidecar):
    _, opath = _golden_pack(tmp_path, capsys, name, argv)
    assert (_sha256(opath), _sha256(opath + ".partitions.csv")) == (primary, sidecar)


def test_pack_benchmark_document_digest(tmp_path, capsys):
    # the document that perfbench's pack-r16-n90 workload checks: 360 cycles
    # on 105,847 edges, the largest records table the encoder writes.
    # Re-recorded when the factor search moved to the complement flow: other
    # r*-factors give other cycles, and the document equals the earlier one
    # outside `cycles` (same 360 cycles, coverage and partitions.csv).
    # Re-recorded once more when Theorem 2 stopped resampling: partition 0
    # keeps its first scheme (aux min degree 29, below the mark 30.5), which
    # changes the assignment, `psi_histogram`, `unassigned` and partitions.csv,
    # and the document gains the band warning; the 360 cycles and the 16,200
    # covered edges stay the same.
    hpath = str(tmp_path / "h.json")
    assert run(capsys, "gen", *GOLDEN_INPUTS["random-90-3"], "--out", hpath)[0] == 0
    opath = str(tmp_path / "pack.json")
    code, _, _ = run(capsys, "pack", "--input", hpath, "--ell", "1", "--r", "16",
                     "--seed", "3", "--out", opath)
    assert code == 0
    assert _sha256(opath) == "1cd7b33e3201718911ad917aaff873075acbf788c2e6d88a0a24c28bb445a7ee"


# sha256 of each GOLDEN_PACK document without its arrangements: every other
# field, the sorted covered edges and the cycle count.  Another decomposition
# of the same factors lists other cycles but leaves this digest unchanged.
# Another factor does not: the complete-12-3 and random-30-3 entries were
# re-recorded when the factor search moved to the complement flow, whose
# r*-factors, and so covered edges, differ; the other fields are as before.
GOLDEN_PACK_CYCLES_FREE = {
    "complete-12-3-t2": "9984a113d118f91e557fb431c7ac748a48e5b700fa6be5e5a2abdd15ef020e32",
    "complete-12-3-t3": "ea30ccb308d97fc307a29d26c146e482df3ff5a607b4f4e57ed92239b8137f15",
    "complete-4-3-t2": "cbeb285ca6f009ee76621af634d361cc69b12d6fa3343077e9e3a18b4d56c9fe",
    # re-recorded with its GOLDEN_PACK entry: no resample, so other retries,
    # assignment and warning (the cycle count and covered edge count hold)
    "complete-4-3-t3": "66c5675f11e70aa078eca74065f72e45d0ccbde946f53b37e85552f8596306cc",
    "complete-6-5-t2": "b112a03ce0866273bc94b80d42f4a351e0bac5ef40f8b0c9647b971ac3b848d0",
    # re-recorded with its GOLDEN_PACK entry, for the same reason
    "complete-6-5-t3": "17038e1d6df19dd22b977d502e17784a6f94944d3f9b170f6fa36a71d23d7cb8",
    "random-30-3-t2": "abdd0a6b0162ecbcd685d82431a7b4cf50987e680eb64cbd7189824a9c19ffe7",
    "random-30-3-t3": "7144fdaf9d2f217ee51b63a90542744b3847a35e162ff4230598452f09fd7ed6",
}


@pytest.mark.parametrize("name,argv", [c[:2] for c in GOLDEN_PACK],
                         ids=[f"{c[0]}-t{c[1][1]}" for c in GOLDEN_PACK])
def test_pack_golden_digests_without_arrangements(tmp_path, capsys, name, argv):
    hpath, opath = _golden_pack(tmp_path, capsys, name, argv)
    k = json.load(open(hpath))["k"]
    doc = json.load(open(opath))
    cycles = doc.pop("cycles")
    covered = sorted(sorted(seg) for c in cycles
                     for seg in HamiltonCycle(k, c["ell"], tuple(c["arrangement"])).segments())
    blob = json.dumps([doc, covered, len(cycles)], sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_PACK_CYCLES_FREE[f"{name}-t{argv[1]}"]


# sha256 of the primary JSON and of trials.csv of mc-partition sweeps, keyed
# by test id: (gen flags, mc-partition flags, primary, sidecar).  The first two
# are the README's `h.json` and its sweeps, recorded before the sweeps were made
# serial and the codegree hypothesis was read off `degree_report`.  The last
# two were recorded before partition degrees were counted on lexicographic
# subset ranks, and hold now that they are counted on subset codes; the
# p = 0.3 input leaves some 3-subsets in no edge.
README_H = ["--random", "--n", "24", "--k", "3", "--p", "0.9", "--seed", "1"]
GOLDEN_MC_PARTITION = {
    "aux-degrees": (
        README_H, ["--kind", "aux-degrees", "--ell", "1", "--delta", "0.4", "--epsilon", "0.2",
                   "--trials", "50", "--seed", "1"],
        "f41d6b03d1c8176bc23aff700be0e2b3258cd80fbdf3320d4980d02170499cde",
        "637651807429c703a8158ca034c689961d4c9032d47a2967e92d00bf97d1cc6c"),
    "part-degrees": (
        README_H, ["--kind", "part-degrees", "--sizes", "12,12", "--delta", "0.4",
                   "--epsilon", "0.1", "--trials", "50", "--seed", "1"],
        "63b353baefb638d10b4a855a940a160a40b4665d60912843314d32861f65b3d9",
        "6d00984b5a3a433890a9368d2121e45258c092d8a1dcc652dce7663aa10d85e6"),
    "part-degrees-k4": (
        ["--random", "--n", "24", "--k", "4", "--p", "0.95", "--seed", "1"],
        ["--kind", "part-degrees", "--sizes", "8,8,8", "--delta", "0.15",
         "--epsilon", "0.1", "--trials", "20", "--seed", "1"],
        "90dfc66f4b39a022c5571e96af158fcfdb5b6062eed37d74b42cd5c4ddfb3852",
        "5ae2681e0c9378f5ddcdadbd495c2fac62d2d9f15fbfae849ffa11bb98bd23fa"),
    "part-degrees-uncovered": (
        ["--random", "--n", "16", "--k", "4", "--p", "0.3", "--seed", "2"],
        ["--kind", "part-degrees", "--sizes", "8,8", "--delta", "0.1",
         "--epsilon", "0.05", "--trials", "20", "--seed", "1"],
        "b36c739d6e709cb05b258992556d085de7a0c88014996fb2bae910947059b792",
        "fa6bb03c097ff5b6c494fe045a40ea1fe8e3fafe8d2039e6fe5ad66fa6ea1ac5"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_MC_PARTITION))
def test_mc_partition_golden_digests(tmp_path, capsys, name):
    gen_argv, argv, primary, sidecar = GOLDEN_MC_PARTITION[name]
    hpath = str(tmp_path / "h.json")
    code, _, _ = run(capsys, "gen", *gen_argv, "--out", hpath)
    assert code == 0
    opath = str(tmp_path / "mc.json")
    code, _, _ = run(capsys, "mc-partition", "--input", hpath, *argv, "--out", opath)
    assert code == 0
    assert (_sha256(opath), _sha256(opath + ".trials.csv")) == (primary, sidecar)


# sha256 of `gen` on each golden input, of `degrees` on random-30-3 and of
# `reduce` (primary JSON and scheme sidecar) on complete-12-3, recorded before
# the hypergraph's edges were stored as one sorted code array.  random-90-3
# (the benchmark's input, 105,847 edges) was recorded before `gen` drew its
# uniforms in bulk and wrote through `canonical_json`.  random-10-3-empty (no
# edges) was recorded before `canonical_json` wrote the edge table from the
# numpy array.
GOLDEN_GEN = {
    "complete-12-3": "d3bf2eacbc23e33f2dd85a8940888af079266b0971bd5613508d4fdd67c431b3",
    "complete-4-3": "7e75a0f77353747c6cc49bffde476d89a0c5ce518f5fa08d106ccfaee10ff35e",
    "complete-6-5": "13f786f90bb11568df9347e1d7d63ac87d89ec0cfad51666ede8a5df2456e8e8",
    "random-30-3": "02dfde9f83ffc6735fdb794091f611df8d92632f30fbfd8ee87e0275bbb6279f",
    "random-90-3": "361a8cbe4d3ddd6e6817bf42ee1e8e319e57d6e635ae2524d390cd4dd61c8e58",
    "random-10-3-empty": "b7fe829f0f1df246b4796c6e631d17d169ed1081bbcc6778bde5f25a7da4b8a9",
}

GOLDEN_DEGREES = {
    "1": "78600eaa8c7396ba974bfcd1f783eb84a3a92b36f66e0fe8244f29086978c55c",
    "2": "d9da3d51b285c7ea225fd53ae8c1e35264d1e6067a5bf27ea97ce3469e239c63",
}

GOLDEN_REDUCE = {
    "1": ("53e4dc332f6f9d42b7747c1ac016a138e17896c7f695bc3eed93ed038f3a16eb",
          "bd77e44e9aa5726d2dd7deeb7ba04cb51dd4d026c3308260163f6d4b7f602dac"),
    "0": ("7a86d2db949dfc7c1f37282f2d2719ec45f0cf0d4952f10874dd0f687561388d",
          "7c21b1e872ae76d17cf478556e6c86488a4bf481df7f4a867f25f48953a2eb0a"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_GEN))
def test_gen_golden_digests(tmp_path, capsys, name):
    hpath = str(tmp_path / "h.json")
    code, _, _ = run(capsys, "gen", *GOLDEN_INPUTS[name], "--out", hpath)
    assert code == 0 and _sha256(hpath) == GOLDEN_GEN[name]


@pytest.mark.parametrize("d", sorted(GOLDEN_DEGREES))
def test_degrees_golden_digests(tmp_path, capsys, d):
    hpath = str(tmp_path / "h.json")
    code, _, _ = run(capsys, "gen", *GOLDEN_INPUTS["random-30-3"], "--out", hpath)
    assert code == 0
    opath = str(tmp_path / "deg.json")
    code, _, _ = run(capsys, "degrees", "--input", hpath, "--d", d, "--out", opath)
    assert code == 0 and _sha256(opath) == GOLDEN_DEGREES[d]


@pytest.mark.parametrize("ell", sorted(GOLDEN_REDUCE))
def test_reduce_golden_digests(tmp_path, capsys, ell):
    hpath = str(tmp_path / "h.json")
    code, _, _ = run(capsys, "gen", *GOLDEN_INPUTS["complete-12-3"], "--out", hpath)
    assert code == 0
    opath = str(tmp_path / "red.json")
    code, _, _ = run(capsys, "reduce", "--input", hpath, "--ell", ell, "--seed", "7",
                     "--out", opath)
    assert code == 0
    assert (_sha256(opath), _sha256(opath + ".scheme.json")) == GOLDEN_REDUCE[ell]


def _golden_count(tmp_path, capsys, n, k, ell, p):
    """`count` on `gen --random --seed 1`; return (its JSON, its sha256)."""
    hpath, opath = str(tmp_path / "h.json"), str(tmp_path / "count.json")
    code, _, _ = run(capsys, "gen", "--random", "--n", n, "--k", k, "--p", p,
                     "--seed", "1", "--out", hpath)
    assert code == 0
    code, _, _ = run(capsys, "count", "--input", hpath, "--ell", ell, "--out", opath)
    assert code == 0
    return json.loads(open(opath).read()), _sha256(opath)


def test_count_golden_digest(tmp_path, capsys):
    # (n, k, ell) = (8, 3, 1): m = 4, so the m <= 2 correction of the
    # expected-count formula does not apply; recorded before that correction
    doc, digest = _golden_count(tmp_path, capsys, "8", "3", "1", "0.95")
    assert doc["bound_met"] is True
    assert digest == "4d1d2ec78783284a883d5c323907df161ba4daf8b599c54e228ec2748f6966e3"


# sha256 of `count` at p = 0.8, recorded on the enumerator that canonicalized
# every valid arrangement and deduplicated: (9, 3, 0) walks m = 3 segments in
# one direction, (9, 4, 1) has two-vertex interiors and (10, 5, 0) has m = 2.
GOLDEN_COUNT = {
    ("9", "3", "0"): "9809b3003a84b41d7c4359ae03752925a662532fb4cd3087f72d8a40d6bed8bc",
    ("9", "4", "1"): "a1f23289491173b0844cdcc41a08523734b81698f294ee2fa800b2b37073095d",
    ("10", "5", "0"): "7ba2ff11ad8ba0453443ff9691f38a1cf24a26a07ebc183a7c1249aa671920d9",
}


@pytest.mark.parametrize("n,k,ell", sorted(GOLDEN_COUNT))
def test_count_golden_digests_across_shapes(tmp_path, capsys, n, k, ell):
    _, digest = _golden_count(tmp_path, capsys, n, k, ell, "0.8")
    assert digest == GOLDEN_COUNT[n, k, ell]


def test_mc_factor_golden_digests(tmp_path, capsys):
    opath = str(tmp_path / "mc.json")
    code, _, _ = run(capsys, "mc-factor", "--complete-bipartite", "12",
                     "--rho", "0.8", "--p", "0.9", "--epsilon", "0.5",
                     "--trials", "5", "--seed", "5", "--out", opath)
    assert code == 0
    assert (_sha256(opath), _sha256(opath + ".trials.csv")) == (
        "5917ff5f7e75b8f4d35e75880c27beced47dba0d3bf75d59bcbd8f6c39aa559c",
        "b760c6340609e369b2751dd3470f87ae12f10711d329c5ebe86de733493d38c7")


def test_mc_factor_benchmark_digests(tmp_path, capsys):
    # the run that perfbench's mc-factor-k150 workload checks; its trials CSV
    # holds every trial's r*, which the primary JSON (successes only) does
    # not.  Both were recorded on the flow that routed the r·m kept edges and
    # hold unchanged on the one that routes the edges a factor leaves out.
    opath = str(tmp_path / "mc.json")
    code, _, _ = run(capsys, "mc-factor", "--complete-bipartite", "150",
                     "--rho", "1", "--p", "0.5", "--epsilon", "0.2",
                     "--trials", "40", "--seed", "1", "--out", opath)
    assert code == 0
    assert (_sha256(opath), _sha256(opath + ".trials.csv")) == (
        "3c983c69345e94376c465e293b79700a3ea37ddeccc8f906aed1e2f15a89ebac",
        "25e1ddc3259d1470127594080304d284771be8be8bf5b41686ddebbc7ce32972")


def test_factor_golden_digests(tmp_path, capsys):
    # m = 40 with a dense 25 x 15 block and a dense 15 x 25 block joined by
    # sparse edges: r* = 7 sits below the minimum degree 12, so the search
    # meets infeasible values of r above r*.  Both digests were recorded
    # before the flow network was built once per graph, and re-recorded when
    # the search moved to the complement flow: r* and r are as before, only
    # the factor edge list differs.
    from hampack.bifactor import BipartiteGraph, to_json_dict
    rng = random.Random(4040)
    m = 40
    edges = [(s, t) for s in range(m) for t in range(m)
             if rng.random() < (0.9 if (s < 25) == (t < 15) else 0.12)]
    gpath = str(tmp_path / "g.json")
    write_json(to_json_dict(BipartiteGraph(m, edges)), gpath)
    opath = str(tmp_path / "f.json")
    code, _, _ = run(capsys, "factor", "--input", gpath, "--out", opath)
    assert code == 0 and json.loads(open(opath).read())["r_star"] == 7
    assert _sha256(opath) == "b3127d58c0d777874b13fa056c9751dc853bcc5c37074cd424322f1eb133ee31"
    code, _, _ = run(capsys, "factor", "--input", gpath, "--r", "6", "--out", opath)
    assert code == 0
    assert _sha256(opath) == "54f2f44f00819c089a82cb15fce380df0c4c1cc545376d9358a3ceb5f64c066d"



def test_factor_fixed_r_gale_ryser_golden_digests(tmp_path, capsys):
    # m = 14, the largest size the subset scan takes, with a dense 8 x 6 and
    # a dense 6 x 8 block: the minimum degree is 5 but r* = 4, so r = 5 fails
    # the inequality at a non-trivial (X, Y*) and r = 4 holds after scanning
    # every subset.  Both digests were recorded on the pure-Python Gray walk.
    # The r = 4 digest was re-recorded when the factor search moved to the
    # complement flow: only its factor edge list differs.
    from hampack.bifactor import BipartiteGraph, to_json_dict
    rng = random.Random(1417)
    m = 14
    edges = [(s, t) for s in range(m) for t in range(m)
             if rng.random() < (0.9 if (s < 8) == (t < 6) else 0.15)]
    gpath = str(tmp_path / "g.json")
    write_json(to_json_dict(BipartiteGraph(m, edges)), gpath)
    opath = str(tmp_path / "f.json")
    code, _, _ = run(capsys, "factor", "--input", gpath, "--r", "5", "--out", opath)
    witness = json.loads(open(opath).read())["gale_ryser"]
    assert code == 0 and witness["subset_s"] == list(range(8)) and witness["lhs"] == 40
    assert _sha256(opath) == "286a1798ef473c57ee754930629517bb04446d7a67b0cb9663952dbc4f41afe0"
    code, _, _ = run(capsys, "factor", "--input", gpath, "--r", "4", "--out", opath)
    assert code == 0 and json.loads(open(opath).read())["gale_ryser"]["holds"]
    assert _sha256(opath) == "22a012e84f4a66454eddefce277d40b4790cd50469777ce855a23e27d7bd7480"

# `--threads` is accepted for compatibility and changes nothing.
THREADS_CASES = [
    (["pack", "--theorem", "2", "--ell", "1", "--r", "2", "--seed", "7"], ".partitions.csv"),
    (["mc-factor", "--complete-bipartite", "12", "--rho", "0.8", "--p", "0.9",
      "--epsilon", "0.5", "--trials", "5", "--seed", "5"], ".trials.csv"),
]


@pytest.mark.parametrize("argv,sidecar", THREADS_CASES, ids=[c[0][0] for c in THREADS_CASES])
def test_threads_flag_changes_no_output(tmp_path, capsys, argv, sidecar):
    hpath = str(tmp_path / "h.json")
    write_json(hypercore.to_json_dict(complete_hypergraph(12, 3)), hpath)
    files = []
    for threads in ("1", "4"):
        opath = str(tmp_path / f"t{threads}.json")
        extra = ["--input", hpath] if argv[0] == "pack" else []
        code, _, _ = run(capsys, *argv, *extra, "--threads", threads, "--out", opath)
        assert code == 0
        files.append((open(opath, "rb").read(), open(opath + sidecar, "rb").read()))
    assert files[0] == files[1]


def test_every_subcommand_accepts_threads_1():
    required = {
        "gen": ["--complete", "--n", "4", "--k", "3"],
        "degrees": ["--input", "h.json", "--d", "2"],
        "count": ["--input", "h.json", "--ell", "1"],
        "bound": ["--n", "6", "--k", "3", "--ell", "1"],
        "reduce": ["--input", "h.json", "--ell", "1"],
        "factor": ["--input", "g.json"],
        "pack": ["--input", "h.json", "--ell", "1"],
        "mc-factor": ["--complete-bipartite", "4", "--rho", "1", "--p", "0.5",
                      "--epsilon", "0.2"],
        "mc-partition": ["--input", "h.json", "--delta", "0.4", "--epsilon", "0.2"],
        "verify": ["--input", "h.json", "--cycle", "c.json"],
    }
    parser = build_parser()
    commands = next(a for a in parser._actions if a.dest == "command").choices
    assert set(commands) == set(required)
    for name, argv in required.items():
        assert parser.parse_args([name, *argv, "--threads", "1"]).threads == 1


# Only the flow and matching solvers need scipy, and bifactor imports them on
# first use, so every other command runs without loading it.  {h} is a
# complete 6-vertex 3-graph, {g} its aux graph and {c} a valid cycle of it.
SCIPY_FREE = {
    "import": [],
    "gen": ["gen", "--random", "--n", "10", "--k", "3", "--p", "0.5"],
    "degrees": ["degrees", "--input", "{h}", "--d", "2"],
    "count": ["count", "--input", "{h}", "--ell", "1"],
    "bound": ["bound", "--n", "6", "--k", "3", "--ell", "1", "--alpha", "0.75"],
    "reduce": ["reduce", "--input", "{h}", "--ell", "1"],
    "verify": ["verify", "--input", "{h}", "--cycle", "{c}"],
    "mc-partition-aux": ["mc-partition", "--input", "{h}", "--kind", "aux-degrees",
                         "--delta", "0.2", "--epsilon", "0.1", "--trials", "2"],
    "mc-partition-parts": ["mc-partition", "--input", "{h}", "--kind", "part-degrees",
                           "--sizes", "3,3", "--delta", "0.2", "--epsilon", "0.1",
                           "--trials", "2"],
}
SCIPY_USERS = {
    "factor": ["factor", "--input", "{g}"],
    "pack": ["pack", "--input", "{h}", "--ell", "1", "--r", "2"],
    "mc-factor": ["mc-factor", "--complete-bipartite", "4", "--rho", "1", "--p", "0.5",
                  "--epsilon", "0.2", "--trials", "2"],
}


@pytest.fixture
def scipy_gate_files(tmp_path, capsys):
    files = {name: str(tmp_path / f"{name}.json") for name in "hgc"}
    write_json(hypercore.to_json_dict(complete_hypergraph(6, 3)), files["h"])
    write_json(cycle_to_json_dict(HamiltonCycle(k=3, ell=1, arrangement=(0, 1, 2, 3, 4, 5))),
               files["c"])
    assert run(capsys, "reduce", "--input", files["h"], "--ell", "1", "--out", files["g"])[0] == 0
    return files


def _gate_argv(argv, files, out):
    return [a.format(**files) for a in argv] + (["--out", out] if argv else [])


@pytest.mark.parametrize("name", sorted(SCIPY_FREE))
def test_scipy_free_commands_do_not_load_scipy(tmp_path, scipy_gate_files, name):
    argv = _gate_argv(SCIPY_FREE[name], scipy_gate_files, str(tmp_path / "out.json"))
    loaded = modules_loaded_by(argv)
    assert "hampack" in loaded and "numpy" in loaded
    assert "scipy" not in loaded
    if not argv:
        # numpy.random loads on first access, and util.bernoulli_ranks builds
        # its generator on first use, not at import
        assert "numpy.random" not in loaded


@pytest.mark.parametrize("name", sorted(SCIPY_USERS))
def test_flow_and_matching_commands_load_scipy_on_use(tmp_path, scipy_gate_files, name):
    out = tmp_path / "out.json"
    assert "scipy" in modules_loaded_by(_gate_argv(SCIPY_USERS[name], scipy_gate_files,
                                                   str(out)))
    assert out.exists()
