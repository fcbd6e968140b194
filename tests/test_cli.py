import dataclasses
import io
import json
import os
import pathlib
import subprocess
import sys
import time
import types

import pytest

import packcrit.cli as cli
from packcrit import TheoremVerdict, emit_graph6, gen_basic, gen_net, parse_graph6


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


def expire_deadlines(monkeypatch):
    """Set the CLI's clock an hour back, so every per-graph deadline it sets
    has passed before the solve first polls the real clock."""
    clock = time.monotonic
    monkeypatch.setattr(cli, "time",
                        types.SimpleNamespace(monotonic=lambda: clock() - 3600))


# C7 has diameter 3, so its value needs a search, which polls the deadline
C7 = emit_graph6(gen_basic("cycle", 7).graph)


class TestChirho:
    def test_single_vertex(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("@\n"))
        code, rep = run_json(capsys, ["chirho"])
        assert code == 0
        assert rep["results"][0]["chi_rho"] == 1
        assert rep["version"]

    def test_net_is_four(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(emit_graph6(gen_net().graph)))
        code, rep = run_json(capsys, ["chirho"])
        assert rep["results"][0]["chi_rho"] == 4

    def test_witness_flag(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("A_\n"))
        code, rep = run_json(capsys, ["chirho", "--witness"])
        r = rep["results"][0]
        assert r["chi_rho"] == 2
        assert sorted(r["witness"]) == [1, 2]

    def test_input_file(self, capsys, tmp_path):
        p = tmp_path / "graphs.g6"
        p.write_text("A_\nBw\n")
        code, rep = run_json(capsys, ["chirho", "--input", str(p)])
        assert [r["chi_rho"] for r in rep["results"]] == [2, 3]

    def test_corpus_source(self, capsys):
        code, rep = run_json(capsys, ["chirho", "--corpus", "builtin:connected-le5"])
        assert code == 0
        assert len(rep["results"]) == 31

    def test_jobs_match_serial(self, capsys):
        code1, rep1 = run_json(capsys, ["chirho", "--corpus", "connected-le5"])
        code2, rep2 = run_json(capsys, ["chirho", "--corpus", "connected-le5",
                                        "--jobs", "2"])
        assert rep1["results"] == rep2["results"]

    def test_tsv(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("A_\n"))
        code, out = run(capsys, ["chirho", "--format", "tsv"])
        lines = out.strip().splitlines()
        assert lines[0].split("\t") == ["graph6", "n", "chi_rho", "nodes", "status"]
        assert lines[1].split("\t")[2] == "2"

    def test_tsv_witness_cell_is_json(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("A_\n"))
        code, out = run(capsys, ["chirho", "--witness", "--format", "tsv"])
        header, row = (ln.split("\t") for ln in out.strip().splitlines())
        assert code == 0
        assert header[-1] == "witness"
        assert sorted(json.loads(row[-1])) == [1, 2]

    def test_timeout_status(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(C7))
        code, rep = run_json(capsys, ["chirho", "--timeout", "60"])
        assert rep["results"][0]["status"] == "ok"
        expire_deadlines(monkeypatch)
        monkeypatch.setattr("sys.stdin", io.StringIO(C7))
        code, rep = run_json(capsys, ["chirho", "--timeout", "60"])
        assert rep["results"][0]["status"] == "timeout"
        assert code == 0

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_timeout_must_be_finite_positive(self, capsys, monkeypatch, value):
        monkeypatch.setattr("sys.stdin", io.StringIO(C7))
        with pytest.raises(SystemExit) as exc:
            cli.main(["chirho", "--timeout", value])
        assert exc.value.code == 2
        assert "finite positive" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3", "1.5", "two"])
    def test_jobs_must_be_at_least_one(self, capsys, monkeypatch, value):
        monkeypatch.setattr("sys.stdin", io.StringIO(C7))
        with pytest.raises(SystemExit) as exc:
            cli.main(["chirho", "--jobs", value])
        assert exc.value.code == 2
        assert "at least 1" in capsys.readouterr().err

    def test_jobs_capped_at_one_worker_per_batch(self, capsys, monkeypatch):
        # a stand-in pool records the processes asked for and maps in process
        started = []

        class RecordingPool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, tasks, chunksize):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "Pool", RecordingPool)
        _, serial = run_json(capsys, ["chirho", "--corpus", "connected-le5"])
        # 31 graphs make four batches of at most eight
        for jobs, want in (("64", 4), ("4", 4), ("2", 2)):
            _, rep = run_json(capsys, ["chirho", "--corpus", "connected-le5",
                                       "--jobs", jobs])
            assert started.pop() == want
            assert rep["results"] == serial["results"]
        # one batch is solved in process, with no pool
        monkeypatch.setattr("sys.stdin", io.StringIO(C7 + "\nA_\n"))
        code, rep = run_json(capsys, ["chirho", "--jobs", "64"])
        assert code == 0 and len(rep["results"]) == 2
        assert started == []

    def test_parse_error_exit_3(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("not-a-graph\n"))
        with pytest.raises(SystemExit) as exc:
            cli.main(["chirho"])
        assert exc.value.code == 3

    def test_non_ascii_file_exit_3(self, capsys, tmp_path):
        p = tmp_path / "graphs.g6"
        p.write_text("A_\n\u00e9\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            cli.main(["chirho", "--input", str(p)])
        assert exc.value.code == 3
        assert "graph6 parse error" in capsys.readouterr().err
        p.write_bytes(b"A_\n\xff\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["chirho", "--input", str(p)])
        assert exc.value.code == 3
        # splitlines would read this as two valid lines
        p.write_text("A_\u2028A_\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            cli.main(["chirho", "--input", str(p)])
        assert exc.value.code == 3

    def test_non_ascii_stdin_exit_3(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("A_\n\u00e9\n"))
        with pytest.raises(SystemExit) as exc:
            cli.main(["chirho"])
        assert exc.value.code == 3
        assert "graph6 parse error" in capsys.readouterr().err
        # a stdin that decodes strictly fails on the read itself
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(b"A_\n\xff\n"), encoding="utf-8"))
        with pytest.raises(SystemExit) as exc:
            cli.main(["chirho"])
        assert exc.value.code == 3
        monkeypatch.setattr("sys.stdin", io.StringIO("A_\u2028A_\n"))
        with pytest.raises(SystemExit) as exc:
            cli.main(["chirho"])
        assert exc.value.code == 3

    def test_control_character_inside_line_exit_3(self, capsys, tmp_path):
        # lines end at "\n" only; str.splitlines would also break at \x0b
        p = tmp_path / "graphs.g6"
        p.write_bytes(b"A_\x0bA_\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["chirho", "--input", str(p)])
        assert exc.value.code == 3
        assert "graph6 parse error" in capsys.readouterr().err

    def test_one_raising_graph_keeps_the_batch(self, capsys, monkeypatch, tmp_path):
        real = cli.packing_chromatic_number

        def flaky(g, **kw):
            if g.n == 3:
                raise RecursionError("maximum recursion depth exceeded")
            return real(g, **kw)
        monkeypatch.setattr(cli, "packing_chromatic_number", flaky)
        p = tmp_path / "graphs.g6"
        p.write_text("Bw\nA_\n")
        code, rep = run_json(capsys, ["chirho", "--input", str(p)])
        bad, good = rep["results"]
        assert bad["status"] == "error"
        assert bad["error"] == "RecursionError: maximum recursion depth exceeded"
        assert good["status"] == "ok" and good["chi_rho"] == 2

    def test_determinism_modulo_timing(self, capsys):
        # the contract is about separate process invocations; the solver
        # keeps no state between calls, so two in-process runs stand in
        _, rep1 = run_json(capsys, ["chirho", "--corpus", "connected-le5"])
        _, rep2 = run_json(capsys, ["chirho", "--corpus", "connected-le5"])
        rep1.pop("timing")
        rep2.pop("timing")
        assert rep1 == rep2


class TestCritical:
    def test_both_modes(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("Cl\n"))  # C4
        code, rep = run_json(capsys, ["critical"])
        r = rep["results"][0]
        assert r["chi_rho"] == 3
        assert r["edge_critical"] is False
        assert r["vertex_critical"] is True
        assert r["bound_ok"] is True
        assert set(r["edge_drop_profile"]) == {"0-1", "0-3", "1-2", "2-3"}

    def test_solves_in_row(self, capsys, monkeypatch):
        # C4: its four edges form one twin orbit, its vertices two
        monkeypatch.setattr("sys.stdin", io.StringIO("Cl\n"))
        code, rep = run_json(capsys, ["critical"])
        assert rep["results"][0]["solves"] == 1 + 2

    def test_nodes_in_row(self, capsys, monkeypatch):
        # K4 and C5; the TSV columns stay as they were
        monkeypatch.setattr("sys.stdin", io.StringIO("C~\nDhc\n"))
        code, rep = run_json(capsys, ["critical"])
        k4, c5 = rep["results"]
        assert (k4["chi_rho"], k4["nodes"]) == (4, 0)
        assert c5["chi_rho"] == 4 and c5["nodes"] > 0
        monkeypatch.setattr("sys.stdin", io.StringIO("C~\n"))
        code, out = run(capsys, ["critical", "--format", "tsv"])
        assert out.splitlines()[0].split("\t") == [
            "graph6", "n", "chi_rho", "edge_critical", "vertex_critical",
            "bound_ok", "status"]

    def test_edge_mode_only(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("A_\n"))
        code, rep = run_json(capsys, ["critical", "--mode", "edge"])
        r = rep["results"][0]
        assert r["edge_critical"] is True
        assert "vertex_critical" not in r

    def test_vertex_mode_only(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("A_\n"))
        code, rep = run_json(capsys, ["critical", "--mode", "vertex"])
        r = rep["results"][0]
        assert r["vertex_critical"] is True
        assert "edge_critical" not in r

    def test_folded_sweep_matches_standalone_profile(self, capsys):
        from packcrit import edge_drop_profile, load_corpus
        code, rep = run_json(capsys, ["critical", "--corpus", "connected-le5"])
        graphs = load_corpus("connected-le5")
        assert len(rep["results"]) == len(graphs)
        for r, g in zip(rep["results"], graphs):
            assert r["graph6"] == emit_graph6(g)
            want = {cli._edge_key(e): list(vd)
                    for e, vd in sorted(edge_drop_profile(g).items())}
            assert r["edge_drop_profile"] == want
            assert r["bound_ok"] is True

    def test_value_above_chi_fails_the_bound(self, capsys, monkeypatch):
        # a deleted value above chi is a solver defect, which the row flags
        # with bound_ok false and an empty profile instead of raising
        real = cli.criticality_report

        def broken(g, **kw):
            rep = real(g, **kw)
            e = next(iter(rep.edge_values))
            return dataclasses.replace(
                rep, edge_values={**rep.edge_values, e: rep.chi_rho + 1})
        monkeypatch.setattr(cli, "criticality_report", broken)
        monkeypatch.setattr("sys.stdin", io.StringIO("Cl\n"))  # C4
        code, rep = run_json(capsys, ["critical"])
        r = rep["results"][0]
        assert code == 0 and r["status"] == "ok"
        assert r["bound_ok"] is False
        assert r["edge_drop_profile"] == {}

    def test_witnesses_serialized(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("Dqc\n"))  # C4 plus a pendant
        code, rep = run_json(capsys, ["critical", "--witness"])
        r = rep["results"][0]
        assert r["edge_witnesses"]
        assert all(isinstance(w, list) for w in r["edge_witnesses"].values())

    def test_jobs_match_serial(self, capsys):
        # per-graph cost varies, so this pins the input order of the rows
        argv = ["critical", "--witness", "--corpus", "connected-le6"]
        code1, rep1 = run_json(capsys, argv)
        code2, rep2 = run_json(capsys, argv + ["--jobs", "2"])
        assert code1 == code2 == 0
        assert rep1["results"] == rep2["results"]


def gen_help_families(capsys, monkeypatch):
    """The family names `gen --help` lists on an 80-column terminal."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        cli.main(["gen", "--help"])
    return capsys.readouterr().out.split("families:\n")[1].split()


class TestGen:
    def test_help_keeps_family_names_whole(self, capsys, monkeypatch):
        # argparse's wrapping would break decorated-c4 at its hyphen
        assert gen_help_families(capsys, monkeypatch) == list(cli._FAMILIES)

    def test_net(self, capsys):
        code, out = run(capsys, ["gen", "net"])
        assert code == 0
        g = parse_graph6(out.strip())
        assert g.n == 6 and g.edge_count == 6

    def test_sharpness_44(self, capsys):
        code, out = run(capsys, ["gen", "sharpness", "4"])
        assert parse_graph6(out.strip()).n == 44

    def test_trees_count(self, capsys):
        code, out = run(capsys, ["gen", "trees", "6"])
        assert len(out.strip().splitlines()) == 6

    def test_labels_sidecar(self, capsys, tmp_path):
        lab = tmp_path / "labels.json"
        code, out = run(capsys, ["gen", "realization", "5", "3",
                                 "--labels", str(lab)])
        data = json.loads(lab.read_text())
        assert data[0]["a"] == 0
        assert data[0]["e"] == [0, 3]

    def test_unknown_family_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen", "dodecahedron"])
        assert exc.value.code == 2

    def test_bad_params_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen", "cycle", "2"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen", "cycle"])
        assert exc.value.code == 2

    def test_leafy_without_params_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen", "leafy"])
        assert exc.value.code == 2

    def test_every_family_matches_its_generator(self, capsys, monkeypatch):
        from packcrit import families as fam
        direct = {
            "path": ([4], lambda: [fam.gen_basic("path", 4)]),
            "cycle": ([5], lambda: [fam.gen_basic("cycle", 5)]),
            "complete": ([4], lambda: [fam.gen_basic("complete", 4)]),
            "star": ([3], lambda: [fam.gen_basic("star", 3)]),
            "sharpness": ([2], lambda: [fam.gen_sharpness_family(2)]),
            "realization": ([5, 3], lambda: [fam.gen_realization(5, 3)]),
            "net": ([], lambda: [fam.gen_net()]),
            "decorated-c4": ([], lambda: [fam.gen_decorated_c4()]),
            "decorated-c8": ([], lambda: [fam.gen_decorated_c8()]),
            "leafy": ([5, 1, 0, 2, 0, 1],
                      lambda: [fam.gen_leafy_unicyclic(5, [1, 0, 2, 0, 1])]),
            "trees": ([6], lambda: fam.enumerate_trees(6)),
            "caterpillars": ([7], lambda: fam.enumerate_caterpillars(7)),
            "block-diam2": ([5], lambda: fam.enumerate_block_graphs_diam2(5)),
            "block-diam3": ([7], lambda: fam.enumerate_block_graphs_diam3(7)),
        }
        named = gen_help_families(capsys, monkeypatch)
        assert set(named) == set(direct)
        for family, (params, generate) in direct.items():
            code, out = run(capsys, ["gen", family] + [str(p) for p in params])
            want = [emit_graph6(getattr(it, "graph", it)) for it in generate()]
            assert code == 0
            assert out.splitlines() == want, family


class TestVerify:
    def test_clean_run_exit_0(self, capsys):
        code, out = run(capsys, ["verify", "small-critical-3",
                                 "--corpus", "builtin:connected-le5"])
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["disagreements"] == 0
        assert summary["checked"] == 31
        assert len(summary["positives"]) == 2

    def test_unknown_theorem_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "no-such-theorem", "--corpus", "connected-le5"])
        assert exc.value.code == 2

    def test_unknown_corpus_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "diam2", "--corpus", "bogus"])
        assert exc.value.code == 2

    def test_skips_counted(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("Bw\n"))  # C3: not a tree
        code, rep = run(capsys, ["verify", "tree-equivalence"])
        summary = json.loads(rep.strip().splitlines()[-1])
        assert summary["skipped"] == 1 and summary["checked"] == 0

    def test_disagreement_exit_1_and_dump(self, capsys, monkeypatch):
        # plumbing check: force a fake disagreement through the aggregator
        def fake_check(theorem_id, g, deadline=None):
            return TheoremVerdict(theorem_id, emit_graph6(g), True, False,
                                  False, None)
        monkeypatch.setattr(cli, "theorem_check", fake_check)
        monkeypatch.setattr("sys.stdin", io.StringIO("A_\n"))
        code, out = run(capsys, ["verify", "small-critical-2"])
        assert code == 1
        lines = out.strip().splitlines()
        dumped = json.loads(lines[0])
        assert dumped["agree"] is False
        summary = json.loads(lines[-1])
        assert summary["disagreements"] == 1

    def test_error_rows_counted_and_fail_the_run(self, capsys, monkeypatch):
        real = cli.theorem_check

        def flaky(theorem_id, g, deadline=None):
            if g.n == 3:
                raise RecursionError("maximum recursion depth exceeded")
            return real(theorem_id, g, deadline=deadline)
        monkeypatch.setattr(cli, "theorem_check", flaky)
        monkeypatch.setattr("sys.stdin", io.StringIO("Bw\nA_\n"))
        code, out = run(capsys, ["verify", "small-critical-2"])
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["errors"] == 1
        assert summary["checked"] == 1
        assert code == 1

    def test_timeout_rows(self, capsys, monkeypatch):
        expire_deadlines(monkeypatch)
        monkeypatch.setattr("sys.stdin", io.StringIO(C7))
        code, out = run(capsys, ["verify", "edge-bound", "--timeout", "60"])
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["timeouts"] == 1
        assert code == 0

    def test_tsv_summary_line(self, capsys):
        code, out = run(capsys, ["verify", "small-critical-3",
                                 "--corpus", "connected-le5", "--format", "tsv"])
        assert code == 0
        assert out.splitlines() == [
            "theorem_id\tgraph6\tstructural_verdict\tground_truth",
            "# checked=31 skipped=0 timeouts=0 disagreements=0 errors=0"]

    def test_tsv_disagreement_row(self, capsys, monkeypatch):
        def fake_check(theorem_id, g, deadline=None):
            return TheoremVerdict(theorem_id, emit_graph6(g), True, False,
                                  False, None)
        monkeypatch.setattr(cli, "theorem_check", fake_check)
        monkeypatch.setattr("sys.stdin", io.StringIO("A_\n"))
        code, out = run(capsys, ["verify", "small-critical-2",
                                 "--format", "tsv"])
        assert code == 1
        assert out.splitlines()[1:] == [
            "small-critical-2\tA_\tTrue\tFalse",
            "# checked=1 skipped=0 timeouts=0 disagreements=1 errors=0"]

    def test_jobs_match_serial(self, capsys):
        # same rows and summary under --jobs 2; the summary sorts its lists
        argv = ["verify", "diam2", "--corpus", "connected-le7-diam2"]
        code1, out1 = run(capsys, argv)
        code2, out2 = run(capsys, argv + ["--jobs", "2"])
        lines1, lines2 = out1.splitlines(), out2.splitlines()
        rep1, rep2 = json.loads(lines1[-1]), json.loads(lines2[-1])
        for rep in (rep1, rep2):
            rep.pop("timing")
            rep.pop("command")
        assert code1 == code2 == 0
        assert lines1[:-1] == lines2[:-1]
        assert rep1 == rep2
        assert rep1["checked"] > 0


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0

    def test_no_command_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_python_dash_m(self):
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "packcrit", "chirho", "--corpus",
             "connected-le5"], capture_output=True, text=True, env=env,
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert len(json.loads(proc.stdout)["results"]) == 31
