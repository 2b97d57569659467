"""Command-line interface: subcommands, report shapes, exit codes."""

import json

import pytest

from stopcc import cli, graphs


def _run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_generate_ktree_roundtrips(tmp_path, capsys):
    path = tmp_path / "seq.txt"
    code, out, _ = _run(capsys, "generate", "ktree", "--k", "2", "--n", "12",
                        "--seed", "4", "-o", str(path))
    assert code == 0 and out == ""
    with open(path) as fh:
        seq = graphs.read_sequence(fh)
    assert seq == graphs.gen_random_ktree(2, 12, seed=4)


def test_generate_family_with_sequence(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    spath = tmp_path / "s.txt"
    code, _, _ = _run(capsys, "generate", "family", "--name", "star", "--n", "4",
                      "-o", str(gpath), "--seq-out", str(spath))
    assert code == 0
    with open(gpath) as fh:
        g = graphs.read_graph(fh)
    assert g.n == 5 and g.edge_count == 4
    with open(spath) as fh:
        graphs.read_sequence(fh)


def test_generate_family_to_stdout(capsys):
    code, out, _ = _run(capsys, "generate", "family", "--name", "path", "--n", "3")
    assert code == 0
    assert out.splitlines() == ["n 3", "e 0 1", "e 1 2"]


def test_generate_usage_errors(capsys):
    code, _, err = _run(capsys, "generate", "ktree", "--k", "2")
    assert code == cli.EXIT_USAGE and "needs" in err
    code, _, err = _run(capsys, "generate", "family", "--n", "4")
    assert code == cli.EXIT_USAGE
    code, _, err = _run(capsys, "generate", "family", "--name", "grid",
                        "--d", "2", "--side", "2", "--seq-out", "x")
    assert code == cli.EXIT_USAGE and "no construction sequence" in err


def test_blind_scan_csv(capsys):
    code, out, _ = _run(capsys, "blind-scan", "--kind", "tree", "--n", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "l,expected_cc,is_argmax"
    assert len(lines) == 7
    argmax_rows = [line for line in lines[1:] if line.endswith(",1")]
    assert argmax_rows == ["3,1.8,1"]


def test_blind_scan_ktree_needs_k(capsys):
    code, _, err = _run(capsys, "blind-scan", "--kind", "ktree", "--n", "9")
    assert code == cli.EXIT_USAGE and "--k" in err
    code, out, _ = _run(capsys, "blind-scan", "--kind", "ktree", "--n", "9",
                        "--k", "2")
    assert code == 0 and len(out.splitlines()) == 11


def test_run_exact_mode_reports_rationals(capsys):
    code, out, _ = _run(capsys, "run", "--family", "path", "--n", "4",
                        "--strategy", "blind:l=2", "--strategy", "dp",
                        "--mode", "exact")
    assert code == 0
    report = json.loads(out)
    assert report["tool"] == "stopcc"
    by_name = {r["strategy"]: r for r in report["results"]}
    assert by_name["blind:l=2"]["exact"] == "3/2"
    assert by_name["dp"]["value"] >= 1.5


def test_run_exact_mode_respects_cap(capsys):
    code, _, err = _run(capsys, "run", "--family", "path", "--n", "12",
                        "--strategy", "greedy", "--mode", "exact")
    assert code == cli.EXIT_RESOURCE and "capped" in err


def test_run_dp_mode(capsys):
    code, out, _ = _run(capsys, "run", "--family", "path", "--n", "14",
                        "--strategy", "dp", "--mode", "dp")
    assert code == 0
    report = json.loads(out)
    (result,) = report["results"]
    assert result["per_vertex"] > 0.25


def test_run_mc_mode_is_deterministic(tmp_path, capsys):
    argv = ["run", "--ktree", "2", "--n", "40", "--seed", "3",
            "--strategy", "greedy", "--strategy", "blind:alpha=1/3",
            "--mode", "mc", "--reps", "40", "--threads", "2"]
    code, out1, _ = _run(capsys, *argv)
    assert code == 0
    code, out2, _ = _run(capsys, *argv)
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("wall_clock_s"), r2.pop("wall_clock_s")
    assert r1 == r2
    assert {r["strategy"] for r in r1["results"]} == {"greedy", "blind:alpha=1/3"}


def test_run_requires_an_instance(capsys):
    code, _, err = _run(capsys, "run", "--strategy", "greedy", "--mode", "mc")
    assert code == cli.EXIT_USAGE and "no instance" in err


def test_run_seq_file_instance(tmp_path, capsys):
    path = tmp_path / "seq.txt"
    with open(path, "w") as fh:
        graphs.write_sequence(graphs.gen_random_ktree(1, 8, seed=2), fh)
    code, out, _ = _run(capsys, "run", "--seq-file", str(path),
                        "--strategy", "blind:l=4", "--mode", "exact")
    assert code == 0
    assert json.loads(out)["instance"]["source"] == "seq_file"


def test_missing_and_malformed_files_exit_io(tmp_path, capsys):
    code, _, err = _run(capsys, "run", "--seq-file", str(tmp_path / "nope"),
                        "--strategy", "greedy", "--mode", "mc")
    assert code == cli.EXIT_IO
    bad = tmp_path / "bad.txt"
    bad.write_text("k 1\nv 0 m\nv 0 m 0\n")
    code, _, err = _run(capsys, "run", "--seq-file", str(bad),
                        "--strategy", "greedy", "--mode", "mc")
    assert code == cli.EXIT_IO and "bad.txt" in err


def test_concentration_report(capsys):
    code, out, _ = _run(capsys, "concentration", "--family", "random_tree",
                        "--n", "200", "--seed", "1", "--alpha", "0.5",
                        "--epsilon", "0.3", "--reps", "50", "--threads", "1")
    assert code == 0
    report = json.loads(out)
    assert report["beta"] == pytest.approx(199 / 200)
    assert report["tail_bound"] == pytest.approx(0.3 ** 3 / 2000)
    assert 0.0 <= report["tail_estimate"]["mean"] <= 1.0


def test_concentration_prefix_length_is_exact(capsys):
    # ceil(0.07 * 100) is 8 in floats; a 7-vertex prefix never has more
    # than 7 components, below the threshold 7.11
    for alpha in ("7/100", "0.07"):
        code, out, _ = _run(capsys, "concentration", "--family", "path",
                            "--n", "100", "--alpha", alpha, "--epsilon", "1/50",
                            "--reps", "200", "--threads", "1")
        assert code == 0
        report = json.loads(out)
        assert report["threshold"] == pytest.approx(7.1149)
        assert report["tail_estimate"]["mean"] == 0.0


def test_metagame_mt_argmax(capsys):
    code, out, _ = _run(capsys, "metagame", "mt-argmax", "--k", "3")
    assert code == 0
    report = json.loads(out)
    assert report["argmax_alpha"] == pytest.approx(0.25, abs=1e-3)
    assert report["analytic_value"] == pytest.approx(27 / 256)
    code, _, err = _run(capsys, "metagame", "mt-argmax")
    assert code == cli.EXIT_USAGE


def test_bad_strategy_text_exits_usage(capsys):
    code, _, err = _run(capsys, "run", "--family", "path", "--n", "4",
                        "--strategy", "mystery", "--mode", "mc")
    assert code == cli.EXIT_USAGE and "unknown strategy" in err


def test_thread_default_honors_environment(monkeypatch):
    argv = ["run", "--family", "path", "--n", "3", "--strategy", "greedy",
            "--mode", "mc"]
    monkeypatch.delenv("STOPCC_THREADS", raising=False)
    assert cli.build_parser().parse_args(argv).threads == 1
    monkeypatch.setenv("STOPCC_THREADS", "5")
    assert cli.build_parser().parse_args(argv).threads == 5


def test_zero_threads_exits_usage(capsys):
    for mode in ("mc", "exact", "dp"):
        code, _, err = _run(capsys, "run", "--family", "path", "--n", "4",
                            "--strategy", "greedy", "--mode", mode, "--reps", "2",
                            "--threads", "0")
        assert code == cli.EXIT_USAGE and "threads" in err


def test_concentration_empty_instance_exits_usage(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("k 1\n")
    code, out, err = _run(capsys, "concentration", "--seq-file", str(path),
                          "--alpha", "1/2", "--epsilon", "0.3")
    assert code == cli.EXIT_USAGE and out == ""
    assert err.startswith("stopcc:") and "vertex" in err


def test_bad_thread_environment_exits_usage(monkeypatch, capsys):
    monkeypatch.setenv("STOPCC_THREADS", "abc")
    code, _, err = _run(capsys, "metagame", "mt-argmax", "--k", "2")
    assert code == cli.EXIT_USAGE
    assert err.startswith("stopcc:") and "STOPCC_THREADS" in err
