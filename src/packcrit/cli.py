"""Command line front end: solve, profile criticality, generate families,
and verify structural characterizations over corpora.

Exit codes: 0 success (and, for verify, zero disagreements and zero errors),
1 verification disagreement or a graph whose check raised, 2 usage error,
3 graph6 parse error.  A graph that raises becomes a row with status "error"
and the exception in "error"; the other graphs of the batch still run.
Output is deterministic for fixed inputs except the timing field.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from multiprocessing import Pool

from . import __version__
from .characterizations import theorem_check, theorem_ids
from .corpus import load_corpus
from .criticality import EdgeBoundViolation, criticality_report, drop_profile
from .families import (
    LabeledGraph,
    enumerate_block_graphs_diam2,
    enumerate_block_graphs_diam3,
    enumerate_caterpillars,
    enumerate_trees,
    gen_basic,
    gen_decorated_c4,
    gen_decorated_c8,
    gen_leafy_unicyclic,
    gen_net,
    gen_realization,
    gen_sharpness_family,
)
from .graph6 import Graph6Error, emit_graph6, parse_graph6
from .solver import SolveTimeout, packing_chromatic_number


def _edge_key(e) -> str:
    return "%d-%d" % (min(e), max(e))


def _jsonable(obj):
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if isinstance(k, tuple):
                k = _edge_key(k)
            out[str(k)] = _jsonable(v)
        return out
    if isinstance(obj, (frozenset, set)):
        return sorted(_jsonable(x) for x in obj)
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj


def _gather_input(args, parser):
    """Resolve --corpus/--input/stdin into a list of graph6 lines.

    Returns (lines, digest).  Parse validation happens later, per line.
    """
    if getattr(args, "corpus", None):
        name = args.corpus
        if name.startswith("builtin:"):
            name = name[len("builtin:"):]
        try:
            items = load_corpus(name)
        except ValueError as exc:
            parser.error(str(exc))
        lines = []
        for it in items:
            g = it.graph if isinstance(it, LabeledGraph) else it
            lines.append(emit_graph6(g))
    elif getattr(args, "input", None):
        try:
            with open(args.input, "r", encoding="ascii") as fh:
                raw = fh.read()
        except OSError as exc:
            parser.error(str(exc))
        lines = [ln for ln in raw.splitlines() if ln.strip()]
    else:
        lines = [ln for ln in sys.stdin.read().splitlines() if ln.strip()]
    digest = hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()
    return lines, digest


def _parse_all(lines):
    # fail fast before any solving so exit code 3 is unambiguous
    for s in lines:
        try:
            parse_graph6(s)
        except Graph6Error as exc:
            print("graph6 parse error: %s" % exc, file=sys.stderr)
            raise SystemExit(3)


def _solve_task(task):
    kind, s, opts = task
    g = parse_graph6(s)
    deadline = None
    if opts.get("timeout"):
        deadline = time.monotonic() + opts["timeout"]
    try:
        if kind == "chirho":
            res = packing_chromatic_number(g, deadline=deadline)
            out = {"graph6": s, "n": g.n, "chi_rho": res.value,
                   "nodes": res.node_count, "status": "ok"}
            if opts.get("witness"):
                out["witness"] = list(res.witness.colors)
            return out
        if kind == "critical":
            rep = criticality_report(g, include_witnesses=opts.get("witness", False),
                                     deadline=deadline)
            try:
                prof = drop_profile(rep.chi_rho, rep.edge_values)
                bound_ok = True
            except EdgeBoundViolation:
                prof = {}
                bound_ok = False
            out = {"graph6": s, "n": g.n, "chi_rho": rep.chi_rho,
                   "solves": rep.solves, "nodes": rep.nodes, "status": "ok",
                   "bound_ok": bound_ok}
            mode = opts.get("mode", "both")
            if mode in ("edge", "both"):
                out["edge_critical"] = rep.is_edge_critical
                out["edge_drop_profile"] = {
                    _edge_key(e): list(vd) for e, vd in sorted(prof.items())}
                if opts.get("witness") and rep.edge_witnesses is not None:
                    out["edge_witnesses"] = {
                        _edge_key(e): list(w.colors)
                        for e, w in sorted(rep.edge_witnesses.items())}
            if mode in ("vertex", "both"):
                out["vertex_critical"] = rep.is_vertex_critical
                out["vertex_values"] = {
                    str(v): val for v, val in sorted(rep.vertex_values.items())}
                if opts.get("witness") and rep.vertex_witnesses is not None:
                    out["vertex_witnesses"] = _jsonable(
                        {v: dict(sorted(w.items()))
                         for v, w in rep.vertex_witnesses.items()})
            return out
        if kind == "verify":
            verdict = theorem_check(opts["theorem"], g, deadline=deadline)
            if verdict is None:
                return {"graph6": s, "status": "skipped"}
            return {"graph6": s, "status": "ok",
                    "verdict": {
                        "theorem_id": verdict.theorem_id,
                        "graph6": verdict.graph6,
                        "structural_verdict": verdict.structural_verdict,
                        "ground_truth": verdict.ground_truth,
                        "agree": verdict.agree,
                        "details": _jsonable(verdict.details),
                    }}
        raise ValueError("unknown task kind %r" % (kind,))
    except SolveTimeout:
        return {"graph6": s, "status": "timeout"}
    except Exception as exc:
        return {"graph6": s, "status": "error",
                "error": "%s: %s" % (type(exc).__name__, exc)}


def _run_tasks(kind, lines, opts, jobs):
    tasks = [(kind, s, opts) for s in lines]
    if jobs <= 1 or len(tasks) <= 1:
        return [_solve_task(t) for t in tasks]
    with Pool(processes=jobs) as pool:
        return pool.map(_solve_task, tasks, chunksize=max(1, len(tasks) // (jobs * 4)))


def _print_report(args, argv, digest, results, started):
    report = {
        "command": argv,
        "input_digest": digest,
        "results": results,
        "timing": {"seconds": time.monotonic() - started},
        "version": __version__,
    }
    print(json.dumps(report, sort_keys=True))


def _print_tsv(rows, columns):
    print("\t".join(columns))
    for row in rows:
        cells = []
        for c in columns:
            v = row.get(c, "")
            if isinstance(v, (dict, list)):
                v = json.dumps(v, sort_keys=True)
            cells.append(str(v))
        print("\t".join(cells))


def cmd_chirho(args, argv, parser):
    lines, digest = _gather_input(args, parser)
    _parse_all(lines)
    started = time.monotonic()
    opts = {"timeout": args.timeout, "witness": args.witness}
    results = _run_tasks("chirho", lines, opts, args.jobs)
    if args.format == "tsv":
        cols = ["graph6", "n", "chi_rho", "nodes", "status"]
        if args.witness:
            cols.append("witness")
        _print_tsv(results, cols)
    else:
        _print_report(args, argv, digest, results, started)
    return 0


def cmd_critical(args, argv, parser):
    lines, digest = _gather_input(args, parser)
    _parse_all(lines)
    started = time.monotonic()
    opts = {"timeout": args.timeout, "witness": args.witness, "mode": args.mode}
    results = _run_tasks("critical", lines, opts, args.jobs)
    if args.format == "tsv":
        cols = ["graph6", "n", "chi_rho"]
        if args.mode in ("edge", "both"):
            cols.append("edge_critical")
        if args.mode in ("vertex", "both"):
            cols.append("vertex_critical")
        cols += ["bound_ok", "status"]
        _print_tsv(results, cols)
    else:
        _print_report(args, argv, digest, results, started)
    return 0


def cmd_verify(args, argv, parser):
    lines, digest = _gather_input(args, parser)
    _parse_all(lines)
    started = time.monotonic()
    opts = {"timeout": args.timeout, "theorem": args.theorem_id}
    results = _run_tasks("verify", lines, opts, args.jobs)
    checked = skipped = timeouts = errors = 0
    disagreements = []
    positives = []
    for r in results:
        if r["status"] == "skipped":
            skipped += 1
        elif r["status"] == "timeout":
            timeouts += 1
        elif r["status"] == "error":
            errors += 1
        else:
            checked += 1
            v = r["verdict"]
            if not v["agree"]:
                disagreements.append(v)
            if v["structural_verdict"]:
                positives.append(v["graph6"])
    disagreements.sort(key=lambda v: v["graph6"])
    summary = {
        "command": argv,
        "input_digest": digest,
        "theorem_id": args.theorem_id,
        "checked": checked,
        "skipped": skipped,
        "timeouts": timeouts,
        "disagreements": len(disagreements),
        "errors": errors,
        "positives": sorted(positives),
        "timing": {"seconds": time.monotonic() - started},
        "version": __version__,
    }
    if args.format == "tsv":
        _print_tsv(disagreements,
                   ["theorem_id", "graph6", "structural_verdict", "ground_truth"])
        print("# checked=%d skipped=%d timeouts=%d disagreements=%d errors=%d"
              % (checked, skipped, timeouts, len(disagreements), errors))
    else:
        for v in disagreements:
            print(json.dumps(v, sort_keys=True))
        print(json.dumps(summary, sort_keys=True))
    return 1 if disagreements or errors else 0


def _generate(family, params, parser):
    def want(k):
        if len(params) != k:
            parser.error("family %r takes %d parameter(s), got %d"
                         % (family, k, len(params)))

    try:
        if family in ("path", "cycle", "complete", "star"):
            want(1)
            return [gen_basic(family, params[0])]
        if family == "sharpness":
            want(1)
            return [gen_sharpness_family(params[0])]
        if family == "realization":
            want(2)
            return [gen_realization(params[0], params[1])]
        if family == "net":
            want(0)
            return [gen_net()]
        if family == "decorated-c4":
            want(0)
            return [gen_decorated_c4()]
        if family == "decorated-c8":
            want(0)
            return [gen_decorated_c8()]
        if family == "leafy":
            if len(params) < 1:
                parser.error("family 'leafy' needs a cycle length")
            return [gen_leafy_unicyclic(params[0], params[1:])]
        if family == "trees":
            want(1)
            return list(enumerate_trees(params[0]))
        if family == "caterpillars":
            want(1)
            return list(enumerate_caterpillars(params[0]))
        if family == "block-diam2":
            want(1)
            return list(enumerate_block_graphs_diam2(params[0]))
        if family == "block-diam3":
            want(1)
            return list(enumerate_block_graphs_diam3(params[0]))
    except ValueError as exc:
        parser.error(str(exc))
    parser.error("unknown family %r" % (family,))


def cmd_gen(args, argv, parser):
    items = _generate(args.family, args.params, parser)
    labels = []
    for it in items:
        if isinstance(it, LabeledGraph):
            g, lab = it.graph, it.labels
        else:
            g, lab = it, {}
        print(emit_graph6(g))
        labels.append({str(k): _jsonable(v) for k, v in sorted(lab.items())})
    if args.labels:
        with open(args.labels, "w", encoding="ascii") as fh:
            json.dump(labels, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return 0


def _add_common(sub):
    sub.add_argument("--corpus", help="builtin corpus name (builtin:NAME or NAME)")
    sub.add_argument("--input", help="file of graph6 lines; default stdin")
    sub.add_argument("--jobs", type=int, default=1,
                     help="worker processes for corpus runs")
    sub.add_argument("--timeout", type=float, default=None,
                     help="per-graph solve timeout in seconds")
    sub.add_argument("--format", choices=("json", "tsv"), default="json")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="packcrit",
        description="Packing coloring workbench: exact solver, criticality "
                    "profiles, graph family generators, and corpus-level "
                    "verification of structural characterizations.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("chirho", help="compute packing chromatic numbers")
    _add_common(p)
    p.add_argument("--witness", action="store_true",
                   help="include an optimal coloring per graph")
    p.set_defaults(func=cmd_chirho)

    p = subs.add_parser("critical", help="criticality reports and drop profiles")
    _add_common(p)
    p.add_argument("--mode", choices=("edge", "vertex", "both"), default="both")
    p.add_argument("--witness", action="store_true",
                   help="include per-deletion optimal colorings")
    p.set_defaults(func=cmd_critical)

    p = subs.add_parser("gen", help="emit a graph family as graph6 lines")
    p.add_argument("family",
                   help="path|cycle|complete|star|sharpness|realization|net|"
                        "decorated-c4|decorated-c8|leafy|trees|caterpillars|"
                        "block-diam2|block-diam3")
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("--labels", help="write vertex/edge labels to this JSON file")
    p.set_defaults(func=cmd_gen)

    p = subs.add_parser("verify",
                        help="check a structural characterization against "
                             "solver ground truth over a corpus")
    p.add_argument("theorem_id", choices=theorem_ids())
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    code = args.func(args, list(argv), parser)
    return 0 if code is None else code


if __name__ == "__main__":
    sys.exit(main())
