"""One benchmark step in a fresh interpreter, so the package's module-level
caches start empty.  run.py starts it; it is not meant to be run by hand.

    worker.py setup   WORKLOAD WORKDIR SEED   build inputs and references
    worker.py timed   WORKLOAD WORKDIR OUT    the pass a user waits for
    worker.py inproc  WORKLOAD WORKDIR OUT    the workload's calls in process
    worker.py probe   WORKLOAD WORKDIR OUT    traced calls into each layer

`timed` and `inproc` differ only for cli-critical, whose timed pass is the
CLI itself.  `--trace` makes `inproc` record spans; `probe` always does.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import time
import traceback
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from tracing import NullTracer, Tracer

INPUTS = "inputs.g6"
REFS = "refs.json"


class Stats(Counter):
    """Counts a pass accumulates, plus the canonical keys seen so far."""

    def __init__(self):
        super().__init__()
        self.seen_keys = set()


def _digest(lines):
    # the same digest the CLI reports as input_digest
    return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()


def setup(workload, workdir, seed):
    started = time.perf_counter()
    import workloads
    import packcrit as pc
    phases = {"import": time.perf_counter() - started}

    @contextmanager
    def clock(name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            phases[name] = phases.get(name, 0.0) + time.perf_counter() - t0

    items = workloads.WORKLOADS[workload].build(seed, clock)
    lines = [pc.emit_graph6(g) for g, _ in items]
    (workdir / INPUTS).write_text("\n".join(lines) + "\n", encoding="ascii")
    (workdir / REFS).write_text(json.dumps([ref for _, ref in items]))
    return {"phases": phases, "input_sha256": _digest(lines),
            "inputs": len(lines)}


def _load(workdir):
    lines = (workdir / INPUTS).read_text(encoding="ascii").split()
    refs = json.loads((workdir / REFS).read_text())
    return lines, refs


def _answers_digest(answers):
    return hashlib.sha256(json.dumps(answers, sort_keys=True).encode()).hexdigest()


def _check_all(wl, pc, lines, refs, answers, failures):
    for i, ans in enumerate(answers):
        if ans is None:
            continue
        try:
            problem = wl.check(pc.parse_graph6(lines[i]), refs[i], ans)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            problem = "malformed answer: %r" % (exc,)
        if problem is not None:
            failures.append([i, "wrong", "%s: %s" % (lines[i], problem)])


def inproc(workload, workdir, trace):
    """Closed loop in this process: each graph is parsed and answered after
    the previous one returns."""
    import workloads
    import packcrit as pc
    wl = workloads.WORKLOADS[workload]
    lines, refs = _load(workdir)
    tracer = Tracer() if trace else NullTracer()
    stats = Stats()
    latencies, answers, failures = [], [], []
    started = time.perf_counter()
    for i, line in enumerate(lines):
        t0 = time.perf_counter()
        ans = None
        try:
            with tracer.span("request", i):
                with tracer.span("graph6.parse", i):
                    g = pc.parse_graph6(line)
                ans = wl.call(g, refs[i], tracer, i, stats)
        except pc.SolveTimeout:
            failures.append([i, "timeout", line])
        except Exception:
            failures.append([i, "error", "%s: %s" % (
                line, traceback.format_exc(limit=-1).strip())])
        latencies.append(time.perf_counter() - t0)
        answers.append(ans)
    pass_s = time.perf_counter() - started
    _check_all(wl, pc, lines, refs, answers, failures)
    return {"latencies": latencies, "service_s": latencies, "pass_s": pass_s,
            "failures": failures,
            "answers_sha256": _answers_digest(answers), "counts": dict(stats),
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "spans": tracer.spans}


def timed_cli(workload, workdir):
    import workloads
    import packcrit as pc
    wl = workloads.WORKLOADS[workload]
    lines, refs = _load(workdir)
    wall, code, rows, digest = wl.run_cli(workdir / INPUTS, dict(os.environ))
    failures = []
    if code != 0:
        failures = [[i, "cli-exit", "exit code %d" % code]
                    for i in range(len(lines))]
        rows = [None] * len(lines)
    elif digest != _digest(lines) or len(rows) != len(lines):
        failures = [[i, "wrong", "CLI answered other inputs"]
                    for i in range(len(lines))]
        rows = [None] * len(lines)
    else:
        for i, row in enumerate(rows):
            if row.get("graph6") != lines[i]:
                failures.append([i, "wrong", "row %d is for another graph" % i])
                rows[i] = None
            elif row.get("status") != "ok":
                failures.append([i, "cli-status", "%s: status %s"
                                 % (lines[i], row.get("status"))])
                rows[i] = None
        _check_all(wl, pc, lines, refs, rows, failures)
    # every answer arrives at exit; the pass time is shared out evenly
    return {"latencies": [wall] * len(lines),
            "service_s": [wall / len(lines)] * len(lines), "pass_s": wall,
            "failures": failures, "answers_sha256": _answers_digest(rows),
            "counts": {}, "jobs": workloads.CLI_JOBS,
            "rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
            "spans": []}


def probe(workload, workdir):
    """Traced calls into each layer on a freshly parsed copy of every input;
    one `probe` span per graph, one child span per call."""
    import workloads
    import packcrit as pc
    wl = workloads.WORKLOADS[workload]
    lines, refs = _load(workdir)
    tracer = Tracer()
    stats = Stats()
    failures = []
    for i, line in enumerate(lines):
        try:
            with tracer.span("probe", i):
                wl.probe(pc.parse_graph6(line), refs[i], tracer, i, stats)
        except pc.SolveTimeout:
            failures.append([i, "timeout", line])
        except Exception:
            failures.append([i, "error", "%s: %s" % (
                line, traceback.format_exc(limit=-1).strip())])
    if stats["probe_mismatches"]:
        failures.append([-1, "wrong", "%d probe decisions contradict the "
                         "reference value" % stats["probe_mismatches"]])
    return {"failures": failures, "counts": dict(stats), "spans": tracer.spans}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("role", choices=("setup", "timed", "inproc", "probe"))
    ap.add_argument("workload")
    ap.add_argument("workdir", type=Path)
    ap.add_argument("arg")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    if args.role == "setup":
        out = setup(args.workload, args.workdir, int(args.arg))
        out_path = args.workdir / "setup.json"
    elif args.role == "probe":
        out = probe(args.workload, args.workdir)
        out_path = Path(args.arg)
    elif args.role == "timed" and args.workload == "cli-critical":
        out = timed_cli(args.workload, args.workdir)
        out_path = Path(args.arg)
    else:
        out = inproc(args.workload, args.workdir, args.trace)
        out_path = Path(args.arg)
    out_path.write_text(json.dumps(out))


if __name__ == "__main__":
    main()
