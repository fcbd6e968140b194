"""Command line front end: solve, profile criticality, generate families,
and verify structural characterizations over corpora.

`chirho`, `critical` and `verify` share one path.  The input (a built-in
corpus, a file or stdin) is read and every line parse-checked before
anything is solved.  Each graph then becomes one row, built by the
command's row function (`_chirho_row`, `_critical_row`, `_verify_row`)
from the parsed graph, the parsed options and a per-graph deadline.
`_solve_task` adds `graph6` and `status` to it.  With `--jobs` above 1
the graphs go to a process pool eight at a time through `Pool.imap`, so a
free worker always takes the next batch while rows still come back in
input order; the pool has at most one worker per batch, and an input of
one batch is solved in process.  `gen` looks the family up in one table
of parameter counts and generators.

Exit codes: 0 success (and, for verify, zero disagreements and zero errors),
1 verification disagreement or a graph whose check raised, 2 usage error,
3 graph6 parse error (including non-ASCII input).  A graph that raises
becomes a row with status "error" and the exception in "error", and one
that runs out of time a row with status "timeout"; the other graphs of the
batch still run.  `--timeout` takes a finite positive number of seconds
and `--jobs` a whole number of at least 1; any other value is a usage
error.  Output is deterministic for fixed inputs except the timing field.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from collections import Counter
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


def _graph(item):
    return item.graph if isinstance(item, LabeledGraph) else item


def _parse_error(exc):
    print("graph6 parse error: %s" % exc, file=sys.stderr)
    raise SystemExit(3)


def _gather_input(args, parser):
    """Resolve --corpus/--input/stdin into (graph6 lines, sha256 digest).

    A line that does not parse, non-ASCII text included, exits 3 before
    anything is solved.
    """
    if args.corpus:
        try:
            items = load_corpus(args.corpus.removeprefix("builtin:"))
        except ValueError as exc:
            parser.error(str(exc))
        lines = [emit_graph6(_graph(it)) for it in items]
    else:
        try:
            if args.input:
                with open(args.input, encoding="ascii") as fh:
                    raw = fh.read()
            else:
                raw = sys.stdin.read()
        except UnicodeDecodeError as exc:
            _parse_error(exc)
        except OSError as exc:
            parser.error(str(exc))
        # before strip, which also drops U+0085, U+2028 and U+2029
        if not raw.isascii():
            _parse_error("non-ASCII input")
        # a graph6 stream ends each graph with "\n"; str.splitlines would
        # also break at \x0b, \x0c and \x1c-\x1e inside a line
        lines = [ln for ln in map(str.strip, raw.split("\n")) if ln]
    for s in lines:
        try:
            parse_graph6(s)
        except Graph6Error as exc:
            _parse_error(exc)
    return lines, hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()


def _chirho_row(g, opts, deadline):
    res = packing_chromatic_number(g, deadline=deadline)
    row = {"n": g.n, "chi_rho": res.value, "nodes": res.node_count}
    if opts.witness:
        row["witness"] = list(res.witness.colors)
    return row


def _critical_row(g, opts, deadline):
    rep = criticality_report(g, include_witnesses=opts.witness, deadline=deadline)
    try:
        prof, bound_ok = drop_profile(rep.chi_rho, rep.edge_values), True
    except EdgeBoundViolation:
        prof, bound_ok = {}, False
    row = {"n": g.n, "chi_rho": rep.chi_rho, "solves": rep.solves,
           "nodes": rep.nodes, "bound_ok": bound_ok}
    # witnesses are None unless asked for; json.dumps sorts every key
    if opts.mode in ("edge", "both"):
        row["edge_critical"] = rep.is_edge_critical
        row["edge_drop_profile"] = _jsonable(prof)
        if rep.edge_witnesses is not None:
            row["edge_witnesses"] = _jsonable(
                {e: w.colors for e, w in rep.edge_witnesses.items()})
    if opts.mode in ("vertex", "both"):
        row["vertex_critical"] = rep.is_vertex_critical
        row["vertex_values"] = _jsonable(rep.vertex_values)
        if rep.vertex_witnesses is not None:
            row["vertex_witnesses"] = _jsonable(rep.vertex_witnesses)
    return row


def _verify_row(g, opts, deadline):
    verdict = theorem_check(opts.theorem_id, g, deadline=deadline)
    if verdict is None:
        return {"status": "skipped"}
    return {"verdict": {
        "theorem_id": verdict.theorem_id,
        "graph6": verdict.graph6,
        "structural_verdict": verdict.structural_verdict,
        "ground_truth": verdict.ground_truth,
        "agree": verdict.agree,
        "details": _jsonable(verdict.details),
    }}


_ROWS = {"chirho": _chirho_row, "critical": _critical_row, "verify": _verify_row}


def _solve_task(task):
    """One graph6 line and the parsed options -> its row; a row function's
    own "status" (verify's "skipped") wins over "ok"."""
    s, opts = task
    g = parse_graph6(s)
    deadline = (time.monotonic() + opts.timeout
                if opts.timeout is not None else None)
    try:
        return {"graph6": s, "status": "ok",
                **_ROWS[opts.command](g, opts, deadline)}
    except SolveTimeout:
        return {"graph6": s, "status": "timeout"}
    except Exception as exc:
        return {"graph6": s, "status": "error",
                "error": "%s: %s" % (type(exc).__name__, exc)}


# Graphs per dispatch.  On corpus sweeps of about a thousand cheap graphs,
# one graph per dispatch took 8-16% more wall time than batches of eight
# with two workers, all of it pool traffic; a free worker still takes
# the next batch as soon as it is done.
_CHUNK = 8


def _run(args, parser):
    """Gather and parse-check the input, then one row per graph in input
    order; returns (rows, digest, start time of the solving)."""
    lines, digest = _gather_input(args, parser)
    started = time.monotonic()
    tasks = [(s, args) for s in lines]
    # a worker beyond one per batch would get nothing to do
    workers = min(args.jobs, -(-len(tasks) // _CHUNK))
    if workers <= 1:
        return [_solve_task(t) for t in tasks], digest, started
    with Pool(processes=workers) as pool:
        return list(pool.imap(_solve_task, tasks, _CHUNK)), digest, started


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


def _report(args, argv, parser, columns):
    """Rows as TSV in columns, or one JSON report."""
    rows, digest, started = _run(args, parser)
    if args.format == "tsv":
        _print_tsv(rows, columns)
    else:
        print(json.dumps({
            "command": argv,
            "input_digest": digest,
            "results": rows,
            "timing": {"seconds": time.monotonic() - started},
            "version": __version__,
        }, sort_keys=True))
    return 0


def cmd_chirho(args, argv, parser):
    columns = ["graph6", "n", "chi_rho", "nodes", "status"]
    return _report(args, argv, parser,
                   columns + (["witness"] if args.witness else []))


def cmd_critical(args, argv, parser):
    columns = ["graph6", "n", "chi_rho"]
    columns += [kind + "_critical" for kind in ("edge", "vertex")
                if args.mode in (kind, "both")]
    return _report(args, argv, parser, columns + ["bound_ok", "status"])


def cmd_verify(args, argv, parser):
    rows, digest, started = _run(args, parser)
    counts = Counter(r["status"] for r in rows)
    verdicts = [r["verdict"] for r in rows if r["status"] == "ok"]
    disagreements = sorted((v for v in verdicts if not v["agree"]),
                           key=lambda v: v["graph6"])
    if args.format == "tsv":
        _print_tsv(disagreements,
                   ["theorem_id", "graph6", "structural_verdict", "ground_truth"])
        print("# checked=%d skipped=%d timeouts=%d disagreements=%d errors=%d"
              % (counts["ok"], counts["skipped"], counts["timeout"],
                 len(disagreements), counts["error"]))
    else:
        for v in disagreements:
            print(json.dumps(v, sort_keys=True))
        print(json.dumps({
            "command": argv,
            "input_digest": digest,
            "theorem_id": args.theorem_id,
            "checked": counts["ok"],
            "skipped": counts["skipped"],
            "timeouts": counts["timeout"],
            "disagreements": len(disagreements),
            "errors": counts["error"],
            "positives": sorted(v["graph6"] for v in verdicts
                                if v["structural_verdict"]),
            "timing": {"seconds": time.monotonic() - started},
            "version": __version__,
        }, sort_keys=True))
    return 1 if disagreements or counts["error"] else 0


# family -> (parameter count, generator of its graphs); leafy's None means
# a cycle length followed by any number of leaf counts
_FAMILIES = {
    **{kind: (1, lambda n, kind=kind: [gen_basic(kind, n)])
       for kind in ("path", "cycle", "complete", "star")},
    "sharpness": (1, lambda n: [gen_sharpness_family(n)]),
    "realization": (2, lambda k, n: [gen_realization(k, n)]),
    "net": (0, lambda: [gen_net()]),
    "decorated-c4": (0, lambda: [gen_decorated_c4()]),
    "decorated-c8": (0, lambda: [gen_decorated_c8()]),
    "leafy": (None, lambda c, *leaves: [gen_leafy_unicyclic(c, leaves)]),
    "trees": (1, enumerate_trees),
    "caterpillars": (1, enumerate_caterpillars),
    "block-diam2": (1, enumerate_block_graphs_diam2),
    "block-diam3": (1, enumerate_block_graphs_diam3),
}


def _generate(family, params, parser):
    if family not in _FAMILIES:
        parser.error("unknown family %r" % (family,))
    count, generate = _FAMILIES[family]
    if (not params) if count is None else len(params) != count:
        parser.error("family %r takes %s parameter(s), got %d"
                     % (family, "1 or more" if count is None else count,
                        len(params)))
    try:
        return list(generate(*params))
    except ValueError as exc:
        parser.error(str(exc))


def cmd_gen(args, argv, parser):
    items = _generate(args.family, args.params, parser)
    for it in items:
        print(emit_graph6(_graph(it)))
    if args.labels:
        labels = [_jsonable(it.labels if isinstance(it, LabeledGraph) else {})
                  for it in items]
        with open(args.labels, "w", encoding="ascii") as fh:
            json.dump(labels, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return 0


def _timeout_seconds(text):
    """--timeout's type: a finite positive number of seconds."""
    try:
        seconds = float(text)
    except ValueError:
        seconds = math.nan
    if not (math.isfinite(seconds) and seconds > 0):
        raise argparse.ArgumentTypeError(
            "must be a finite positive number of seconds, got %r" % text)
    return seconds


def _jobs(text):
    """--jobs's type: a whole number of worker processes, at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(
            "must be a whole number of at least 1, got %r" % text)
    return jobs


def _add_common(sub):
    sub.add_argument("--corpus", help="builtin corpus name (builtin:NAME or NAME)")
    sub.add_argument("--input", help="file of graph6 lines; default stdin")
    sub.add_argument("--jobs", type=_jobs, default=1,
                     help="worker processes for corpus runs, at most one "
                          "per batch of eight graphs")
    sub.add_argument("--timeout", type=_timeout_seconds, default=None,
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

    # one family per line: help text wrapping breaks names at their hyphens
    p = subs.add_parser("gen", help="emit a graph family as graph6 lines",
                        formatter_class=argparse.RawDescriptionHelpFormatter,
                        epilog="families:\n" + "\n".join(
                            "  " + name for name in _FAMILIES))
    p.add_argument("family", help="one of the families listed below")
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
