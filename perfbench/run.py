"""Benchmark for hampack: drives the real CLI entry point, `hampack.cli.main`,
in-process on fixed workloads and checks every output outside the timed region.

    python3 perfbench/run.py --workload pack-r16-n90 --seed 3 --seconds 40 --trace 0

Run it from the root of a source checkout; hampack is imported from `src/`
there, never from an installed copy.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones (setup_s, norm_wall_s, peak_rss_mb); with
--trace 1 they are the per-layer timings and counts of a separate traced run.
The lines before it print every metric by name and unit, including the raw
wall_s, the packing quality (cycles, coverage_ratio), fail_ratio, the output
digest and the machine.  A traced run also reports the tracing overhead and
writes its spans under `.perfbench_work/`.

setup_s and norm_wall_s are times at a nominal machine speed: the wall time
divided by the mean time of a fixed reference computation sampled during it
(`speed.SpeedSampler`, pure Python, no hampack code), times the nominal
reference time `speed.NOMINAL_UNIT_S`.  The speed of a shared machine swings
by tens of percent within seconds and the two times swing together, so the
normalized time compares runs made at different moments where wall_s cannot.

Workloads (one process, `--threads 1`, ell = 1; the seed feeds `gen` and the
workload command alike):

* pack-paper-n60: `gen --random --n 60 --k 3 --p 0.9`, then `pack --theorem 2
  --ell 1` with the paper-formula partition count (R = 573).  The anchor run:
  assign_edges does nearly all the work and no partition yields a factor.
  Run by hand only, it is not in BENCHMARK.json: one call takes 25-45 s, so
  a run holds a single call, and over ten seeds its norm_wall_s spread 0.19.
  Every layer it exercises is measured on pack-r16-n90.
* pack-r16-n90: `gen --random --n 90 --k 3 --p 0.9`, then `pack --ell 1
  --r 16`.  Few schemes against a large |E|; runs the whole extraction chain
  (factor, peel, lift, canonicalize, verify) and yields hundreds of cycles.
* mc-factor-k150: `mc-factor --complete-bipartite 150 --rho 1 --p 0.5
  --epsilon 0.2 --trials 40`.  No hypergraph: bypasses reduction and packer,
  and puts the flow-based factor search on dense graphs with large r.
"""
from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import layer_trace
from speed import SpeedSampler, nominal_seconds

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
THREADS = ("--threads", "1")
ELL = 1
SETUP_REPS = 3
SETUP_TIMEOUT_S = 120
MC_RECHECKED_TRIALS = 3
MC = {"m": 150, "rho": 1.0, "p": 0.5, "epsilon": 0.2, "trials": 40}


@dataclass(frozen=True)
class Workload:
    name: str
    gen: tuple[str, ...]      # size flags of `gen --random`; empty when there is no input file
    argv: tuple[str, ...]     # the timed subcommand, without --seed/--threads/--out/--input
    default_seed: int


WORKLOADS = {w.name: w for w in (
    Workload("pack-paper-n60", ("--n", "60", "--k", "3", "--p", "0.9"),
             ("pack", "--theorem", "2", "--ell", str(ELL)), 3),
    Workload("pack-r16-n90", ("--n", "90", "--k", "3", "--p", "0.9"),
             ("pack", "--ell", str(ELL), "--r", "16"), 3),
    Workload("mc-factor-k150", (),
             ("mc-factor", "--complete-bipartite", str(MC["m"]), "--rho", str(MC["rho"]),
              "--p", str(MC["p"]), "--epsilon", str(MC["epsilon"]),
              "--trials", str(MC["trials"])), 1),
)}

END_TO_END_UNITS = {"setup_s": "s", "norm_wall_s": "s", "peak_rss_mb": "MB"}
# Reported next to the end-to-end metrics but not gated: wall_s drifts with
# the machine, the others read 0 on some workloads (no cycles at the paper R,
# no packing in mc-factor, no failures).
REPORTED_UNITS = {"wall_s": "s", "unit_s": "s", "cycles": "count",
                  "coverage_ratio": "ratio", "fail_ratio": "ratio"}

# Per-layer metrics that come from outputs, not spans.  `packer.candidate_tests`
# is computed as |E|·R, the number of (edge, scheme) candidate tests.
COUNT_UNITS = {
    "cli.output_bytes": "B",
    "packer.candidate_tests": "count",
    "packer.psi_mean": "count",
    "packer.assigned_ratio": "ratio",
    "packer.sub_aux_edges": "count",
    "packer.cycles": "count",
    "packer.coverage_ratio": "ratio",
    "reduction.scheme_accept_ratio": "ratio",
    "reduction.aux_edges": "count",
    "bifactor.find_factor.feasible_ratio": "ratio",
    "bifactor.matchings": "count",
    "bifactor.nonzero_factor_ratio": "ratio",
    "randomlab.kept_edges": "count",
}
TRACE_UNITS = {"trace.wall_s": "s", "trace.overhead_s": "s"}
# Called only while generating the input, so measured on the traced `gen`.
SETUP_TARGETS = ("constructions.random_hypergraph",)

# Runs in a fresh interpreter: import hampack, then generate the input if any,
# while sampling the machine's speed; prints the wall time and the speed unit.
SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
from speed import SpeedSampler
with SpeedSampler() as sampler:
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[2])
    from hampack import cli
    rc = cli.main(sys.argv[3:]) if len(sys.argv) > 3 else 0
    wall = time.perf_counter() - t0
print(wall, sampler.unit())
sys.exit(rc)
"""


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, setup failed)."""


def import_hampack():
    """Import hampack from this checkout's src/ and refuse any other copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import hampack.cli
    except ImportError as exc:
        raise BenchError(f"cannot import hampack from {SRC}: {exc}") from exc
    location = Path(hampack.cli.__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise BenchError(f"hampack imported from {location}, not from {SRC}")
    return hampack.cli


def per_layer_names() -> list[str]:
    names = [f"{fn}.{part}" for fn in layer_trace.ITEMIZED for part in ("s", "calls", "self_s")]
    names += [f"{layer}.self_s" for layer in layer_trace.REMAINDER_LAYERS]
    return names + list(COUNT_UNITS) + list(TRACE_UNITS)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def environment() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "loadavg_start": os.getloadavg()}


def measure_setup(gen_argv: Optional[list[str]], inp: Optional[Path],
                  reps: int) -> list[tuple[float, float]]:
    """Import hampack and generate the input in `reps` fresh processes; return
    (wall seconds, speed unit) per process.

    Every process must write byte-identical input for the same seed.
    """
    times, digests = [], set()
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(BENCH_DIR), str(SRC),
                               *(gen_argv or [])],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"setup failed with exit code {proc.returncode}: {proc.stderr}")
        wall, unit = proc.stdout.split()[-2:]
        times.append((float(wall), float(unit)))
        if inp is not None:
            digests.add(sha256_file(inp))
    if len(digests) > 1:
        raise BenchError("setup is not deterministic: the same seed gave different inputs")
    return times


@dataclass
class Calls:
    walls: list[float]                # seconds per workload call
    units: list[float]                # speed unit (mean reference time) during each call
    digests: list[Optional[str]]      # output sha256 per call, None when it failed
    run_ids: list[str]                # tracer run id per call

    def norm_wall_s(self) -> float:
        """Median over calls of the call's time at the nominal speed."""
        return statistics.median(map(nominal_seconds, self.walls, self.units))


def timed_calls(cli, argv: list[str], out: Path, seconds: float, tracer=None) -> Calls:
    """Call `cli.main(argv)` as often as fits in `seconds` (at least once).

    Another call is started only if one of average length so far would still
    end within `seconds`.
    """
    calls = Calls([], [], [], [])
    start = time.perf_counter()
    while True:
        if out.exists():
            out.unlink()
        if tracer is not None:
            tracer.run_id = f"rep{len(calls.walls)}"
            calls.run_ids.append(tracer.run_id)
        gc.collect()
        with SpeedSampler() as sampler:
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # a crash is one failed operation; the loop goes on
                traceback.print_exc()
                code = None
            calls.walls.append(time.perf_counter() - t0)
        calls.units.append(sampler.unit())
        ok = code == 0 and out.exists()
        if not ok:
            print(f"operation failed: exit code {code}", file=sys.stderr)
        calls.digests.append(sha256_file(out) if ok else None)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(calls.walls) > seconds:
            return calls


def check_pack(doc: dict, h) -> tuple[list[str], dict]:
    """Re-verify a `pack` document against its input; return problems and counts."""
    from hampack.reduction import HamiltonCycle, verify_cycle
    problems = []
    used, segments = set(), 0
    for i, c in enumerate(doc["cycles"]):
        cycle = HamiltonCycle(k=h.k, ell=c["ell"], arrangement=tuple(c["arrangement"]))
        check = verify_cycle(h, cycle)
        if c["ell"] != ELL or not check.ok:
            problems.append(f"cycle {i} invalid: ell={c['ell']}, {check.failure}")
            continue
        for seg in cycle.segments():
            used.add(tuple(sorted(seg)))
            segments += 1
    num_edges = h.num_edges()
    covered = len(used)
    ratio = covered / num_edges
    per = doc["per_partition"]
    partitions = doc["partitions_used"]
    if covered != segments:
        problems.append("cycles are not pairwise edge-disjoint")
    if doc["covered_edges"] != covered:
        problems.append(f"covered_edges {doc['covered_edges']} != recount {covered}")
    if doc["coverage_ratio"] != ratio:
        problems.append(f"coverage_ratio {doc['coverage_ratio']} != recount {ratio}")
    if len(per) != partitions or sum(p["cycles"] for p in per) != len(doc["cycles"]):
        problems.append("per_partition does not add up to the packing")
    if sum(p["assigned_edges"] for p in per) + doc["unassigned"] != num_edges:
        problems.append("edge conservation fails: assigned + unassigned != |E|")
    psi = {int(k): v for k, v in doc["psi_histogram"].items()}
    if sum(psi.values()) != num_edges:
        problems.append("psi_histogram does not count every edge once")
    counts = {
        "packer.candidate_tests": num_edges * partitions,
        "packer.psi_mean": sum(k * v for k, v in psi.items()) / num_edges,
        "packer.assigned_ratio": sum(p["assigned_edges"] for p in per) / num_edges,
        "packer.sub_aux_edges": sum(p["sub_aux_edges"] for p in per),
        "packer.cycles": len(doc["cycles"]),
        "packer.coverage_ratio": ratio,
        "reduction.scheme_accept_ratio": partitions / (partitions + sum(p["retries"] for p in per)),
        "reduction.aux_edges": sum(p["aux_edges"] for p in per),
        "bifactor.matchings": sum(p["matchings"] for p in per),
        "bifactor.nonzero_factor_ratio": sum(p["factor_size"] > 0 for p in per) / partitions,
    }
    return problems, counts


def check_mc_factor(doc: dict, trials_csv: str, seed: int) -> list[str]:
    """Check an `mc-factor` document and its trial CSV, recomputing a few trials."""
    from hampack import bifactor, randomlab
    from hampack.errors import InvariantViolation
    problems = []
    rows = list(csv.DictReader(io.StringIO(trials_csv)))
    target = math.floor((1.0 - MC["epsilon"]) * MC["rho"] * MC["m"] * MC["p"])
    if doc["n"] != MC["m"] or doc["trials"] != MC["trials"] or doc["target"] != target:
        problems.append(f"unexpected parameters in the output: {doc}")
    if len(rows) != doc["trials"]:
        problems.append(f"{len(rows)} trial rows for {doc['trials']} trials")
    if sum(int(r["success"]) for r in rows) != doc["successes"]:
        problems.append("successes does not match the rows marked successful")
    for r in rows:
        if int(r["success"]) != int(int(r["r_star"]) >= target) or int(r["target"]) != target:
            problems.append(f"trial row inconsistent with its target: {r}")
    g = bifactor.complete_bipartite(MC["m"])
    for r in random.Random(seed).sample(rows, min(MC_RECHECKED_TRIALS, len(rows))):
        trial_seed, r_star = int(r["seed"]), int(r["r_star"])
        trial = randomlab.factor_robustness_trial(g, MC["rho"], MC["p"], MC["epsilon"],
                                                  trial_seed, skip_checks=True)
        sub = randomlab.random_subgraph(g, MC["p"], trial_seed)
        if trial.r_star != r_star or trial.factor.r != r_star:
            problems.append(f"trial {trial_seed}: recomputed r_star {trial.r_star} != {r_star}")
            continue
        try:
            trial.factor.check_against(sub)
        except InvariantViolation as exc:
            problems.append(f"trial {trial_seed}: factor invalid: {exc}")
        if r_star < sub.m and bifactor.find_factor(sub, r_star + 1) is not None:
            problems.append(f"trial {trial_seed}: a {r_star + 1}-factor exists; not maximal")
    return problems


def check_outputs(w: Workload, out: Path, inp: Optional[Path], seed: int) -> tuple[list[str], dict]:
    doc = json.loads(out.read_text(encoding="utf-8"))
    counts = {"cli.output_bytes": out.stat().st_size}
    if w.argv[0] == "pack":
        from hampack import hypercore
        problems, pack_counts = check_pack(doc, hypercore.read_hypergraph(str(inp)))
        counts.update(pack_counts)
    else:
        trials_csv = Path(f"{out}.trials.csv").read_text(encoding="utf-8")
        problems = check_mc_factor(doc, trials_csv, seed)
    return problems, counts


def count_failures(digests: list[Optional[str]], reference: Optional[str],
                   reference_ok: bool) -> int:
    """Calls that failed, or whose output differs from the verified reference."""
    return sum(1 for d in digests if d is None or d != reference or not reference_ok)


def layer_metrics(tracer, traced: Calls, counts: dict,
                  untraced_norm_s: float) -> tuple[dict, float]:
    """Per-layer metrics per traced call (means over the traced calls), and the
    part of the traced wall time that no layer accounts for.

    The tracing overhead is the share of the traced wall time that the same
    calls untraced would not have taken, both taken at the nominal speed.
    """
    rep_ids = traced.run_ids
    reps = len(rep_ids)
    times = tracer.layer_times(set(rep_ids))
    setup_times = tracer.layer_times({"setup"})
    metrics: dict[str, Optional[float]] = {}
    accounted = 0.0
    for name in layer_trace.ITEMIZED:
        source, per = (setup_times, 1) if name in SETUP_TARGETS else (times, reps)
        rec = source.get(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        for part in ("s", "calls", "self_s"):
            metrics[f"{name}.{part}"] = None if name in tracer.missing else rec[part] / per
        if source is times:
            accounted += rec["self_s"] / reps
    for layer in layer_trace.REMAINDER_LAYERS:
        remainder = sum(rec["self_s"] for name, rec in times.items()
                        if name.split(".")[0] == layer and name not in layer_trace.ITEMIZED)
        metrics[f"{layer}.self_s"] = remainder / reps
        accounted += remainder / reps
    for name in COUNT_UNITS:
        metrics[name] = counts.get(name, 0)
    observed = [tracer.counts[run] for run in rep_ids]
    find_calls = times.get("bifactor.find_factor", {"calls": 0})["calls"]
    feasible = sum(c["feasible"] for c in observed)
    metrics["bifactor.find_factor.feasible_ratio"] = (
        None if "bifactor.find_factor" in tracer.missing
        else feasible / find_calls if find_calls else 0.0)
    metrics["randomlab.kept_edges"] = (
        None if "randomlab.random_subgraph" in tracer.missing
        else sum(c["kept_edges"] for c in observed) / reps)
    metrics["trace.wall_s"] = statistics.fmean(traced.walls)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] * (
        1.0 - untraced_norm_s / traced.norm_wall_s())
    return metrics, metrics["trace.wall_s"] - accounted


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 workdir: Path, setup_reps: int = SETUP_REPS) -> dict:
    """Set up, run and check one workload; return the result and a report
    for the printed summary.

    A traced run makes a single untraced call, whose output is checked, and
    then traces calls for `seconds`.
    """
    cli = import_hampack()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = environment()
    inp = workdir / "input.json" if w.gen else None
    gen_argv = (["gen", "--random", *w.gen, "--seed", str(seed), *THREADS, "--out", str(inp)]
                if w.gen else None)
    out = workdir / "out.json"
    argv = [*w.argv, "--seed", str(seed), *THREADS, "--out", str(out)]
    if inp is not None:
        argv += ["--input", str(inp)]

    setup = []
    if trace:
        if gen_argv and cli.main(gen_argv) != 0:
            raise BenchError("input generation failed")
    else:
        setup = measure_setup(gen_argv, inp, setup_reps)
    untraced = timed_calls(cli, argv, out, 0 if trace else seconds)
    walls, digests = untraced.walls, untraced.digests
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # The last call's output is the one left on disk; every other call must
    # have written the same bytes.
    reference = digests[-1]
    problems, counts = ["the last call failed, so no output could be checked"], {}
    if reference is not None:
        try:
            problems, counts = check_outputs(w, out, inp, seed)
        except (KeyError, TypeError, ValueError) as exc:
            problems = [f"malformed output: {exc!r}"]
    failed = count_failures(digests, reference, not problems)
    attempted = len(walls)

    report = {"workload": w.name, "seed": seed, "trace": trace, "environment": env,
              "output_sha256": reference, "problems": problems}
    if trace:
        with layer_trace.Tracer() as tracer:
            if gen_argv:
                tracer.run_id = "setup"
                if cli.main(gen_argv) != 0:
                    raise BenchError("traced input generation failed")
            traced = timed_calls(cli, argv, out, seconds, tracer)
        failed += count_failures(traced.digests, reference, not problems)
        attempted += len(traced.walls)
        metrics, unaccounted = layer_metrics(tracer, traced, counts, untraced.norm_wall_s())
        tracer.write(str(workdir / "spans.json"))
        report.update(samples=len(traced.walls), unaccounted_s=unaccounted)
        units = {**{n: ("count" if n.endswith(".calls") else "s") for n in per_layer_names()},
                 **COUNT_UNITS, **TRACE_UNITS}
    else:
        metrics = {"setup_s": statistics.median(nominal_seconds(*rep) for rep in setup),
                   "norm_wall_s": untraced.norm_wall_s(),
                   "peak_rss_mb": peak_rss_mb}
        units = dict(END_TO_END_UNITS)
        report.update(samples=len(walls))
    reported = {"wall_s": statistics.median(walls),
                "unit_s": statistics.median(untraced.units), "fail_ratio": failed / attempted}
    if w.argv[0] == "pack" and "packer.cycles" in counts:
        reported.update(cycles=counts["packer.cycles"],
                        coverage_ratio=counts["packer.coverage_ratio"])
    env["loadavg_end"] = os.getloadavg()
    for path in (inp, out):
        if path is not None and path.exists():
            path.unlink()
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    return {"result": result, "report": report,
            "reported": {n: {"value": v, "unit": REPORTED_UNITS[n]} for n, v in reported.items()}}


def print_summary(run: dict) -> None:
    report = run["report"]
    env = report["environment"]
    print(f"workload {report['workload']}  seed {report['seed']}  trace {int(report['trace'])}"
          f"  samples {report['samples']}")
    print(f"machine  python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}"
          f"  nproc {env['nproc']}  cpu {env['cpu_model']}"
          f"  loadavg {env['loadavg_start'][0]:.2f} -> {env['loadavg_end'][0]:.2f}")
    print(f"output   sha256 {report['output_sha256']}")
    for problem in report["problems"]:
        print(f"CHECK FAILED: {problem}")
    if "unaccounted_s" in report:
        print(f"traced wall time not in any layer's self time: {report['unaccounted_s']:.3g} s")
    rows = {**run["result"]["metrics"], **run["reported"]}
    for name, m in rows.items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<42} {value:>14} {m['unit']}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="time budget for the repeated workload calls")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a separate traced run")
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    seed = w.default_seed if args.seed is None else args.seed
    workdir = WORK / f"{w.name}-seed{seed}-trace{args.trace}"
    try:
        run = run_workload(w, seed, args.seconds, bool(args.trace), workdir)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print_summary(run)
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
