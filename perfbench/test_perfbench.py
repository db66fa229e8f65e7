"""Tests of the benchmark itself: trace targets, wrapper lifetime, output checks."""
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layer_trace  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402

cli = run.import_hampack()


@pytest.fixture
def small_pack(tmp_path):
    """A packed 24-vertex random 3-graph: (input path, output path)."""
    inp, out = tmp_path / "h.json", tmp_path / "pack.json"
    assert cli.main(["gen", "--random", "--n", "24", "--k", "3", "--p", "0.9",
                     "--seed", "5", "--out", str(inp)]) == 0
    assert cli.main(["pack", "--ell", "1", "--r", "4", "--seed", "5",
                     "--input", str(inp), "--out", str(out)]) == 0
    return inp, out


def test_every_trace_target_resolves_at_its_lookup_sites():
    assert all(func is not None for func in layer_trace.resolve().values())
    with layer_trace.Tracer() as tracer:
        assert tracer.missing == []
        sites = {site for names in tracer.sites.values() for site in names}
    for name in ("sample_scheme", "build_aux_graph", "lift_matching", "canonicalize",
                 "verify_cycle", "degree_report"):
        assert f"hampack.packer.{name}" in sites
    for name in ("bifactor.find_factor", "bifactor.max_factor", "cli.main",
                 "hypercore.read_hypergraph", "randomlab.random_subgraph"):
        assert f"hampack.{name}" in sites


def test_trace_self_times_add_up_and_wrappers_are_removed(small_pack):
    inp, out = small_pack
    argv = ["pack", "--ell", "1", "--r", "4", "--seed", "5",
            "--input", str(inp), "--out", str(out)]
    with layer_trace.Tracer() as tracer:
        assert layer_trace.installed_wrappers()
        tracer.run_id = "rep0"
        assert cli.main(argv) == 0
    assert layer_trace.installed_wrappers() == []
    times = tracer.layer_times({"rep0"})
    total_self = sum(rec["self_s"] for rec in times.values())
    assert times["cli.main"]["calls"] == 1
    assert total_self == pytest.approx(times["cli.main"]["s"], abs=1e-9)
    assert times["packer.assign_edges"]["calls"] == 1
    wall = times["cli.main"]["s"]
    traced = run.Calls([wall], [3e-4], [None], ["rep0"])
    metrics, unaccounted = run.layer_metrics(tracer, traced, {}, traced.norm_wall_s())
    assert list(metrics) == run.per_layer_names()
    assert unaccounted == pytest.approx(0.0, abs=1e-9)


def test_pack_check_detects_a_repeated_cycle(small_pack):
    from hampack import hypercore
    inp, out = small_pack
    h = hypercore.read_hypergraph(str(inp))
    doc = json.loads(out.read_text())
    assert doc["cycles"], "the fixture must pack at least one cycle"
    problems, counts = run.check_pack(doc, h)
    assert problems == []
    assert counts["packer.cycles"] == len(doc["cycles"])
    doc["cycles"].append(doc["cycles"][0])
    problems, _ = run.check_pack(doc, h)
    assert any("edge-disjoint" in p for p in problems)


def test_untraced_pack_run_on_a_new_seed_passes_every_check(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("an untraced run installed trace wrappers")

    monkeypatch.setattr(layer_trace.Tracer, "install", refuse)
    w = run.WORKLOADS["pack-r16-n90"]
    seed = w.default_seed + 8
    outcome = run.run_workload(w, seed, 0, False, tmp_path / "work", setup_reps=1)
    result = outcome["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert outcome["reported"]["cycles"]["value"] > 0
    assert layer_trace.installed_wrappers() == []


def test_mc_factor_run_on_a_new_seed_passes_every_check(tmp_path):
    w = run.WORKLOADS["mc-factor-k150"]
    outcome = run.run_workload(w, w.default_seed + 8, 0, False, tmp_path / "work",
                               setup_reps=1)
    assert outcome["result"]["correct"] and outcome["report"]["problems"] == []


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_speed_sampler_samples_during_a_call_and_restores_the_timer():
    import signal
    import time
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedSampler() as sampler:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 4
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
