"""Command-line front end binding all modules into reproducible experiments.

Output goes to stdout as JSON by default; --out writes the primary document to
a file, sidecar files (CSV, schemes, certificates) next to it, and a run
manifest at <out>.manifest.json.  One master seed drives everything; module
seeds are derived by labeled hashing, so a manifest's parameters reproduce a
run bit for bit.

Exit codes: 0 success, 1 invalid input or usage, 2 invariant or acceptance
failure.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from typing import Any, Optional

from . import __version__, bifactor, census, constructions, hypercore, packer, randomlab
from .errors import HampackError, InvariantViolation
from .reduction import build_aux_graph, cycle_records, read_cycle, sample_scheme, verify_cycle
from .util import canonical_json, check_nonnegative, derive_seed, sha256_file, write_json

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_FAILURE = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the contract here is exit 1 with usage."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


def _emit(doc: Any, args, sidecars: Optional[list[tuple[str, str]]] = None) -> None:
    """Print to stdout, or write the document plus sidecars and a manifest."""
    if not getattr(args, "out", None):
        sys.stdout.write(canonical_json(doc) + "\n")
        return
    out = args.out
    written = [out]
    write_json(doc, out)
    for path, content in sidecars or []:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
        written.append(path)
    params = {k: v for k, v in vars(args).items() if k not in ("func", "command")}
    digests = {}
    for attr in ("input", "cycle"):
        path = getattr(args, attr, None)
        if path:
            digests[path] = sha256_file(path)
    manifest = {
        "command": args.command,
        "parameters": params,
        "master_seed": getattr(args, "seed", None),
        "artifact_version": __version__,
        "input_digests": digests,
        "outputs": written,
    }
    write_json(manifest, out + ".manifest.json")


def _csv_text(header: list[str], rows: list) -> str:
    import io
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _sweep_exit(args, successes: int) -> int:
    """EXIT_FAILURE, with a FAIL line on stderr, when fewer trials succeeded
    than --min-successes asks for."""
    if args.min_successes is not None and successes < args.min_successes:
        print(f"FAIL: {successes} successes < required {args.min_successes}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def _mode_flag(args, flag: str, used: bool, mode: str, default: Any) -> None:
    """Refuse `flag` when the chosen mode ignores it, else fill in its default,
    so that a manifest records null exactly for the flags its mode ignores."""
    if getattr(args, flag) is not None and not used:
        raise HampackError(f"--{flag.replace('_', '-')} requires {mode}")
    if used and getattr(args, flag) is None:
        setattr(args, flag, default)


# ---------------------------------------------------------------- commands

def cmd_gen(args) -> int:
    if args.random and args.p is None:
        raise HampackError("--random requires --p")
    _mode_flag(args, "p", args.random, "--random", None)
    _mode_flag(args, "certify", args.parity, "--parity", None)
    if args.complete:
        h = constructions.complete_hypergraph(args.n, args.k)
    elif args.random:
        h = constructions.random_hypergraph(args.n, args.k, args.p,
                                            derive_seed(args.seed, "gen"))
    else:
        cons = constructions.parity_hypergraph(args.n, args.k)
        h = cons.hypergraph
        if args.certify is not None:
            cert = constructions.verify_no_odd_factor(cons, args.certify)
            doc = hypercore.to_json_dict(h)
            if args.out:
                _emit(doc, args, sidecars=[
                    (args.out + ".certificate.json", canonical_json(cert) + "\n")])
            else:
                _emit({"hypergraph": doc, "certificate": cert}, args)
            return EXIT_OK
    _emit(hypercore.to_json_dict(h), args)
    return EXIT_OK


def cmd_degrees(args) -> int:
    h = hypercore.read_hypergraph(args.input)
    _emit(hypercore.degree_report(h, args.d), args)
    return EXIT_OK


def cmd_count(args) -> int:
    h = hypercore.read_hypergraph(args.input)
    report = census.empirical_vs_bound(h, args.ell)
    doc = dataclasses.asdict(report)
    if report.log_expected == float("-inf"):
        doc["note"] = "no cycles expected"
    _emit(doc, args)
    return EXIT_OK


def cmd_bound(args) -> int:
    if args.alpha is None and args.p is None:
        raise HampackError("provide --alpha and/or --p")
    doc: dict[str, Any] = {"n": args.n, "k": args.k, "ell": args.ell}
    if args.alpha is not None:
        doc["alpha"] = args.alpha
        doc["log_lower_bound"] = census.count_lower_bound(args.n, args.k, args.ell, args.alpha)
    if args.p is not None:
        doc["p"] = args.p
        val = census.expected_count(args.n, args.k, args.ell, args.p)
        doc["log_expected"] = val
        if val == float("-inf"):
            doc["note"] = "no cycles expected"
    _emit(doc, args)
    return EXIT_OK


def cmd_reduce(args) -> int:
    h = hypercore.read_hypergraph(args.input)
    scheme = sample_scheme(h, args.ell, derive_seed(args.seed, "scheme"))
    aux = build_aux_graph(h, scheme)
    graph_doc = bifactor.to_json_dict(aux.graph)
    if args.out:
        _emit(graph_doc, args, sidecars=[
            (args.out + ".scheme.json", canonical_json(scheme) + "\n")])
    else:
        _emit({"graph": graph_doc, "scheme": scheme}, args)
    return EXIT_OK


def cmd_factor(args) -> int:
    g = bifactor.read_bipartite(args.input)
    if args.r is not None:
        factor = bifactor.find_factor(g, args.r)
        doc: dict[str, Any] = {"m": g.m, "r": args.r, "exists": factor is not None,
                               "factor": factor.graph.pairs() if factor else None}
        if g.m <= bifactor.GALE_RYSER_MAX_M:
            doc["gale_ryser"] = bifactor.gale_ryser_check(g, args.r)
    else:
        r_star, factor = bifactor.max_factor(g)
        doc = {"m": g.m, "r_star": r_star, "factor": factor.graph.pairs()}
    _emit(doc, args)
    return EXIT_OK


def _packing_doc(result: packer.PackingResult) -> dict:
    """The result's fields, with its cycle table written as "cycles", one
    (arrangement, ell) record per row, in place of k, ell and arrangements."""
    doc = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)
           if f.name not in ("k", "ell", "arrangements")}
    doc["cycles"] = cycle_records(result.ell, result.arrangements)
    return doc


def cmd_pack(args) -> int:
    _mode_flag(args, "epsilon", args.theorem == 3, "--theorem 3", 0.1)
    _mode_flag(args, "delta_target", args.theorem == 3, "--theorem 3", 0.1)
    h = hypercore.read_hypergraph(args.input)
    shared = dict(num_partitions=args.r, seed=derive_seed(args.seed, "pack"))
    if args.theorem == 2:
        result = packer.pack_min_degree(h, args.ell, **shared)
    else:
        result = packer.pack_near_regular(
            h, args.ell, delta_target=args.delta_target, epsilon=args.epsilon, **shared)
    sidecars = []
    if args.out:
        header = [f.name for f in dataclasses.fields(packer.PartitionStats)]
        rows = [dataclasses.astuple(s) for s in result.per_partition]
        sidecars.append((args.out + ".partitions.csv", _csv_text(header, rows)))
    _emit(_packing_doc(result), args, sidecars=sidecars)
    if not len(result.arrangements):
        retained = sum(s.sub_aux_edges for s in result.per_partition)
        print(f"warning: 0 cycles from {result.partitions_used} partitions; "
              f"{retained} aux edges retained in total", file=sys.stderr)
    return EXIT_OK


def cmd_mc_factor(args) -> int:
    if args.input is not None:
        g = bifactor.read_bipartite(args.input)
    else:
        g = bifactor.complete_bipartite(args.complete_bipartite)
    report = randomlab.factor_robustness_sweep(
        g, rho=args.rho, p=args.p, epsilon=args.epsilon,
        trials=args.trials, master_seed=args.seed)
    doc = {"n": report.n, "p": report.p, "rho": report.rho, "epsilon": report.epsilon,
           "target": report.target, "trials": report.trials, "successes": report.successes}
    rows = [[seed, r_star, report.target, int(r_star >= report.target)]
            for seed, r_star in zip(report.trial_seeds, report.r_stars)]
    sidecars = []
    if args.out:
        sidecars.append((args.out + ".trials.csv",
                         _csv_text(["seed", "r_star", "target", "success"], rows)))
    _emit(doc, args, sidecars=sidecars)
    return _sweep_exit(args, report.successes)


def cmd_mc_partition(args) -> int:
    _mode_flag(args, "ell", args.kind == "aux-degrees", "--kind aux-degrees", 1)
    _mode_flag(args, "sizes", args.kind == "part-degrees", "--kind part-degrees", None)
    h = hypercore.read_hypergraph(args.input)
    if args.kind == "aux-degrees":
        report = randomlab.aux_degree_sweep(
            h, args.ell, delta=args.delta, epsilon=args.epsilon,
            trials=args.trials, master_seed=args.seed)
        rows = [[t.seed, t.min_degree, t.threshold, int(t.success)]
                for t in report.per_trial]
        header = ["seed", "min_degree", "threshold", "success"]
    else:
        if not args.sizes:
            raise HampackError("--kind part-degrees requires --sizes, e.g. --sizes 20,20")
        try:
            sizes = tuple(int(s) for s in args.sizes.split(","))
        except ValueError as exc:
            raise HampackError(f"--sizes must be comma-separated integers: {exc}") from exc
        report = randomlab.partition_degree_sweep(
            h, sizes, delta=args.delta, epsilon=args.epsilon,
            trials=args.trials, master_seed=args.seed)
        rows = [[t.seed, ";".join(map(str, t.minima)),
                 ";".join(f"{x:.6g}" for x in t.thresholds), int(t.success)]
                for t in report.per_trial]
        header = ["seed", "part_minima", "part_thresholds", "success"]
    doc = {"kind": args.kind, "trials": report.trials, "successes": report.successes,
           "hypothesis_met": report.hypothesis_met}
    sidecars = []
    if args.out:
        sidecars.append((args.out + ".trials.csv", _csv_text(header, rows)))
    _emit(doc, args, sidecars=sidecars)
    return _sweep_exit(args, report.successes)


def cmd_verify(args) -> int:
    h = hypercore.read_hypergraph(args.input)
    cycle = read_cycle(args.cycle, h.k)
    check = verify_cycle(h, cycle)
    _emit(check, args)
    return EXIT_OK if check.ok else EXIT_FAILURE


# ---------------------------------------------------------------- wiring

def build_parser() -> _Parser:
    parser = _Parser(prog="hampack", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func, command=name)
        p.add_argument("--out", help="write the primary JSON here plus sidecars and a manifest")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; no effect")
        return p

    p = add("gen", cmd_gen, "generate a hypergraph (complete, random, or parity)")
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--complete", action="store_true")
    kind.add_argument("--random", action="store_true")
    kind.add_argument("--parity", action="store_true")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=float, help="edge probability for --random")
    p.add_argument("--certify", type=int,
                   help="with --parity: also emit the no-odd-factor certificate for this r")

    p = add("degrees", cmd_degrees, "exact min/max degree over all d-subsets")
    p.add_argument("--input", required=True)
    p.add_argument("--d", type=int, required=True)

    p = add("count", cmd_count, "count Hamilton cycles exactly and compare with the formulas")
    p.add_argument("--input", required=True)
    p.add_argument("--ell", type=int, required=True)

    p = add("bound", cmd_bound, "evaluate the counting formulas in log space")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--p", type=float)

    p = add("reduce", cmd_reduce, "sample a partition scheme and emit its auxiliary graph")
    p.add_argument("--input", required=True)
    p.add_argument("--ell", type=int, required=True)

    p = add("factor", cmd_factor, "factor search on a bipartite graph file")
    p.add_argument("--input", required=True)
    p.add_argument("--r", type=int, help="check this factor size instead of maximizing")

    p = add("pack", cmd_pack, "edge-disjoint Hamilton cycle packing")
    p.add_argument("--input", required=True)
    p.add_argument("--theorem", type=int, choices=(2, 3), default=2,
                   help="pipeline: 2 = min-degree hypothesis, 3 = near-regular coverage")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--epsilon", type=float,
                   help="near-regular pipeline: codegree spread bound (default 0.1)")
    p.add_argument("--r", type=int, help="number of partitions (default: formula, clamped)")
    p.add_argument("--delta-target", type=float, dest="delta_target",
                   help="near-regular pipeline: uncovered-edge budget as a fraction of "
                        "C(n,k) (default 0.1)")

    p = add("mc-factor", cmd_mc_factor, "random-subgraph factor robustness sweep")
    graph = p.add_mutually_exclusive_group(required=True)
    graph.add_argument("--input", help="bipartite graph JSON")
    graph.add_argument("--complete-bipartite", type=int, dest="complete_bipartite",
                       help="use the complete bipartite graph with this part size")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--min-successes", type=int, dest="min_successes",
                   help="exit 2 if fewer trials succeed")

    p = add("mc-partition", cmd_mc_partition, "random-partition degree sweeps")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", choices=("aux-degrees", "part-degrees"), default="aux-degrees")
    p.add_argument("--ell", type=int, help="for aux-degrees (default 1)")
    p.add_argument("--sizes", help="comma-separated part sizes for part-degrees")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--min-successes", type=int, dest="min_successes")

    p = add("verify", cmd_verify, "verify a cycle file against a hypergraph")
    p.add_argument("--input", required=True, help="hypergraph JSON")
    p.add_argument("--cycle", required=True, help="cycle JSON")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INVALID
    try:
        check_nonnegative(getattr(args, "min_successes", None) or 0, "--min-successes")
        return args.func(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except (HampackError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
