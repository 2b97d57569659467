"""Command-line interface: subcommands, report shapes, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from stopcc import activation, cli, exact, graphs, metagame, montecarlo, strategies


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


def _expected_csv(value, n):
    values = [value(l) for l in range(n + 1)]
    best = values.index(max(values))
    return "l,expected_cc,is_argmax\n" + "".join(
        f"{l},{float(v)},{int(l == best)}\n" for l, v in enumerate(values)
    )


def test_blind_scan_rows_match_fraction_closed_forms(capsys):
    # every row is float() of the Fraction closed form, and the flag marks
    # the first exact maximum
    for k in range(1, 5):
        for n in range(k, 41):
            code, out, _ = _run(capsys, "blind-scan", "--kind", "ktree",
                                "--k", str(k), "--n", str(n))
            assert code == 0
            assert out == _expected_csv(
                lambda l: exact.blind_expectation_ktree(k, n, l), n), (k, n)
    for n in range(1, 41):
        code, out, _ = _run(capsys, "blind-scan", "--kind", "tree", "--n", str(n))
        assert code == 0
        assert out == _expected_csv(lambda l: exact.blind_expectation_tree(n, l), n), n
        _, width_one, _ = _run(capsys, "blind-scan", "--kind", "ktree",
                               "--k", "1", "--n", str(n))
        assert width_one == out, n
    code, out, err = _run(capsys, "blind-scan", "--kind", "ktree", "--k", "0", "--n", "5")
    assert code == cli.EXIT_USAGE and out == "" and err.startswith("stopcc:")


def test_blind_scan_cap_exits_before_any_work(monkeypatch, capsys):
    def no_curve(*args):
        raise AssertionError("the curve was built above the cap")

    monkeypatch.setattr(exact, "blind_curve_ktree", no_curve)
    for argv in (["--kind", "tree"], ["--kind", "ktree", "--k", "2"]):
        code, out, err = _run(capsys, "blind-scan", *argv, "--n", "1000001")
        assert code == cli.EXIT_RESOURCE and out == "", argv
        assert "n=1000001" in err and "n=1000000" in err and "MB" in err


def test_blind_scan_budget_grows_with_k(monkeypatch, capsys):
    def no_curve(*args):
        raise AssertionError("the curve was built above the budget")

    monkeypatch.setattr(exact, "blind_curve_ktree", no_curve)
    code, out, err = _run(capsys, "blind-scan", "--kind", "ktree", "--k", "2000",
                          "--n", "1000000")
    assert code == cli.EXIT_RESOURCE and out == ""
    assert "k=2000, n=1000000" in err and "MB" in err
    # narrow curves stay admitted at the largest n
    built = []
    monkeypatch.setattr(exact, "blind_curve_ktree",
                        lambda k, n: built.append((k, n)) or ([0], 1))
    for argv in (["--kind", "tree"], ["--kind", "ktree", "--k", "20"]):
        code, _, _ = _run(capsys, "blind-scan", *argv, "--n", "1000000")
        assert code == 0, argv
    assert built == [(1, 10**6), (20, 10**6)]


def test_huge_grid_exits_usage_before_any_array(capsys):
    with mock.patch.object(np, "arange", side_effect=AssertionError("grid built")):
        code, out, err = _run(capsys, "generate", "family", "--name", "grid",
                              "--d", "2", "--side", "99999")
    assert code == cli.EXIT_USAGE and out == "" and "int32" in err


def test_reps_cap_exits_usage_before_any_work(monkeypatch, capsys):
    def no_instance(*args):
        raise AssertionError("an instance was built above the cap")

    monkeypatch.setattr(graphs, "gen_named_family", no_instance)
    for argv in (["run", "--strategy", "greedy", "--mode", "mc"],
                 ["run", "--strategy", "greedy", "--mode", "exact"],
                 ["concentration", "--alpha", "1/2", "--epsilon", "0.3"]):
        code, out, err = _run(capsys, *argv, "--family", "path", "--n", "3",
                              "--reps", str(cli.REPS_CAP + 1))
        assert code == cli.EXIT_USAGE and out == "", argv
        assert err.startswith("stopcc:") and str(cli.REPS_CAP) in err, argv
    monkeypatch.undo()
    code, out, _ = _run(capsys, "run", "--family", "path", "--n", "3", "--strategy",
                        "greedy", "--mode", "exact", "--reps", str(cli.REPS_CAP))
    assert code == 0 and json.loads(out)["config"]["reps"] == cli.REPS_CAP


def test_blind_scan_ktree_needs_k(capsys):
    code, _, err = _run(capsys, "blind-scan", "--kind", "ktree", "--n", "9")
    assert code == cli.EXIT_USAGE and "--k" in err
    code, out, _ = _run(capsys, "blind-scan", "--kind", "ktree", "--n", "9",
                        "--k", "2")
    assert code == 0 and len(out.splitlines()) == 11


def test_blind_scan_rejects_bad_n(capsys):
    for argv in (["--kind", "tree", "--n", "-3"], ["--kind", "tree", "--n", "0"],
                 ["--kind", "ktree", "--k", "2", "--n", "-1"],
                 ["--kind", "ktree", "--k", "2", "--n", "1"],
                 ["--kind", "ktree", "--k", "-2", "--n", "-1"]):
        code, out, err = _run(capsys, "blind-scan", *argv)
        assert code == cli.EXIT_USAGE and "--n" in err and out == "", argv
    code, out, _ = _run(capsys, "blind-scan", "--kind", "ktree", "--k", "2", "--n", "2")
    assert code == 0 and len(out.splitlines()) == 4


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


def test_mc_dp_estimate_does_not_depend_on_the_tier(capsys):
    # for n <= DP_EXACT_CAP run binds the exact tier; its stop flags, all
    # that Monte Carlo reads, equal those of the float tier
    path, path_seq = graphs.gen_named_family("path", {"n": 10})
    ktree_seq = graphs.gen_random_ktree(2, 12, 5)
    grid, _ = graphs.gen_named_family("grid", {"d": 2, "side": 3})
    instances = (
        (["--family", "path", "--n", "10"], path, path_seq, 0),
        (["--ktree", "2", "--n", "12", "--seed", "5"],
         graphs.graph_from_construction(ktree_seq), ktree_seq, 5),
        (["--family", "grid", "--d", "2", "--side", "3"], grid, None, 0),
    )
    for flags, g, seq, seed in instances:
        assert g.n <= exact.DP_EXACT_CAP
        code, out, _ = _run(capsys, "run", *flags, "--strategy", "dp", "--mode", "mc",
                            "--reps", "300", "--threads", "1")
        assert code == 0
        (result,) = json.loads(out)["results"]
        spec = strategies.dp_optimal(exact.solve_dp(g, exact=False))
        est = montecarlo.estimate_strategy(
            g, seq, spec, montecarlo.EstimatorConfig(replications=300, seed=seed))
        fields = ("mean", "std_error", "ci_low", "ci_high")
        assert [result[f] for f in fields] == [getattr(est, f) for f in fields], flags


def test_report_key_sets_are_pinned(capsys):
    def report(*argv):
        code, out, _ = _run(capsys, *argv)
        assert code == 0, argv
        return json.loads(out)

    path = ("--family", "path", "--n", "4")
    mc_keys = {"mean", "std_error", "ci_low", "ci_high", "replications", "seed"}
    expected_results = {
        "exact": {"strategy", "mode", "exact", "value"},
        "dp": {"strategy", "mode", "exact", "value", "per_vertex"},
        "mc": {"strategy", "mode"} | mc_keys,
    }
    for mode, result_keys in expected_results.items():
        r = report("run", *path, "--strategy", "blind:l=2", "--strategy", "dp",
                   "--mode", mode, "--reps", "5")
        assert set(r) == {"tool", "version", "instance", "strategies", "mode",
                          "config", "results", "wall_clock_s"}, mode
        assert set(r["config"]) == {"reps", "seed", "ci_level", "threads"}, mode
        assert set(r["instance"]) == {"family", "n", "seed"}, mode
        assert r["results"] and all(set(x) == result_keys for x in r["results"]), mode
    r = report("run", "--ktree", "2", "--n", "6", "--strategy", "greedy",
               "--mode", "mc", "--reps", "5")
    assert set(r["instance"]) == {"family", "k", "n", "seed"}
    r = report("concentration", *path, "--alpha", "1/2", "--epsilon", "0.3", "--reps", "5")
    assert set(r) == {"tool", "version", "instance", "alpha", "epsilon", "beta",
                      "threshold", "tail_bound", "tail_estimate", "wall_clock_s"}
    assert set(r["tail_estimate"]) == mc_keys | {"zero_hit_upper"}
    r = report("metagame", "phi-max")
    assert set(r) == {"tool", "version", "max_value", "max_value_str", "maximizers"}
    r = report("metagame", "mt-argmax", "--k", "3")
    assert set(r) == {"tool", "version", "k", "argmax_alpha", "max_value",
                      "analytic_alpha", "analytic_value"}


def test_fraction_flags_that_divide_by_zero_exit_usage(capsys):
    cases = (
        ["concentration", "--family", "path", "--n", "10", "--alpha", "1/0",
         "--epsilon", "0.3", "--reps", "5"],
        ["concentration", "--family", "path", "--n", "10", "--alpha", "1/2",
         "--epsilon", "1/0", "--reps", "5"],
        ["run", "--family", "two_star_plus_star", "--n", "50", "--ratio", "1/0",
         "--strategy", "greedy", "--mode", "mc", "--reps", "5"],
        ["generate", "family", "--name", "two_star_plus_star", "--n", "50",
         "--ratio", "1/0"],
    )
    for argv in cases:
        code, out, err = _run(capsys, *argv)
        assert code == cli.EXIT_USAGE and out == "", argv
        assert err.startswith("stopcc:") and "1/0" in err, argv


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
    # every --out and --seq-out goes through one writer
    missing = str(tmp_path / "no-such-dir" / "out.txt")
    for argv in (["generate", "ktree", "--k", "2", "--n", "5", "-o", missing],
                 ["generate", "family", "--name", "star", "--n", "3", "-o", missing],
                 ["generate", "family", "--name", "star", "--n", "3",
                  "-o", str(tmp_path / "g.txt"), "--seq-out", missing],
                 ["blind-scan", "--kind", "tree", "--n", "5", "-o", missing],
                 ["metagame", "phi-max", "-o", missing]):
        code, out, err = _run(capsys, *argv)
        assert code == cli.EXIT_IO and out == "" and "no-such-dir" in err, argv


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


def test_concentration_rejects_negative_epsilon(monkeypatch, capsys):
    def no_instance(*args):
        raise AssertionError("an instance was built for a negative epsilon")

    monkeypatch.setattr(graphs, "gen_named_family", no_instance)
    for eps in ("-1", "-0.001"):
        code, out, err = _run(capsys, "concentration", "--family", "path", "--n", "10",
                              "--alpha", "1/2", "--epsilon", eps)
        assert code == cli.EXIT_USAGE and out == ""
        assert err.startswith("stopcc:") and "--epsilon" in err and eps in err
    monkeypatch.undo()
    for eps in ("0", "0.2178"):
        code, out, _ = _run(capsys, "concentration", "--family", "path", "--n", "10",
                            "--alpha", "1/2", "--epsilon", eps, "--reps", "20")
        assert code == 0
        report = json.loads(out)
        assert report["epsilon"] == float(eps)
        assert report["tail_bound"] == float(eps) ** 3 / 2000 >= 0


def test_concentration_checks_alpha_before_building(monkeypatch, capsys):
    def no_instance(*args):
        raise AssertionError("an instance was built for an alpha outside [0,1]")

    monkeypatch.setattr(graphs, "gen_named_family", no_instance)
    for alpha in ("2", "-1/3", "1.5"):
        code, out, err = _run(capsys, "concentration", "--family", "path", "--n", "10",
                              f"--alpha={alpha}", "--epsilon", "0.1")
        assert code == cli.EXIT_USAGE and out == "", alpha
        assert err.strip() == "stopcc: alpha must lie in [0,1]", alpha
    monkeypatch.undo()
    for alpha in ("0", "1"):
        code, out, _ = _run(capsys, "concentration", "--family", "path", "--n", "10",
                            "--alpha", alpha, "--epsilon", "0.1", "--reps", "20")
        assert code == 0 and json.loads(out)["alpha"] == float(alpha), alpha


def test_metagame_mt_argmax(capsys):
    code, out, _ = _run(capsys, "metagame", "mt-argmax", "--k", "3")
    assert code == 0
    report = json.loads(out)
    assert report["argmax_alpha"] == pytest.approx(0.25, abs=1e-3)
    assert report["analytic_value"] == pytest.approx(27 / 256)
    code, _, err = _run(capsys, "metagame", "mt-argmax")
    assert code == cli.EXIT_USAGE
    for k in ("-1", "-3"):
        code, out, err = _run(capsys, "metagame", "mt-argmax", "--k", k)
        assert code == cli.EXIT_USAGE and out == ""
        assert err.startswith("stopcc:") and f"k={k}" in err
    # the step-1/1000 grid holds 1/(k+1) only up to k = 999
    for k in ("1000", "200000"):
        code, out, err = _run(capsys, "metagame", "mt-argmax", "--k", k)
        assert code == cli.EXIT_USAGE and out == ""
        assert err.startswith("stopcc:") and f"k={k}" in err and "999" in err
    code, out, _ = _run(capsys, "metagame", "mt-argmax", "--k", "999")
    assert code == 0 and json.loads(out)["argmax_alpha"] == 0.001


def test_metagame_phi_max(capsys):
    code, out, _ = _run(capsys, "metagame", "phi-max")
    assert code == 0
    report = json.loads(out)
    assert report["max_value"] == 0.25
    assert report["max_value_str"] == "0.250000000"
    assert len(report["maximizers"]) == 20
    for pt in report["maximizers"]:
        assert abs(metagame.phi(*pt) - 0.25) <= 1e-12


def test_cli_import_skips_scipy_optimize():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c",
         "import stopcc.cli, sys; print('scipy.optimize' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_bad_strategy_text_exits_usage(capsys):
    cases = (
        ("mc", "mystery", "unknown strategy"),
        ("mc", "twophase:alpha=1/3,gamma=1/2,trigger=99", "trigger vertex 99"),
        ("exact", "twophase:alpha=1/3,gamma=1/2,trigger=-1", "trigger vertex -1"),
    )
    for mode, text, message in cases:
        code, out, err = _run(capsys, "run", "--family", "path", "--n", "6",
                              "--strategy", text, "--mode", mode, "--reps", "3")
        assert code == cli.EXIT_USAGE and out == ""
        assert err.startswith("stopcc:") and message in err


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


def test_chordal_instances_in_id_order_need_no_spanning_tree(capsys):
    rules = ["--strategy", "blind:alpha=1/3", "--strategy", "greedy"]
    for instance in (["--family", "two_star_plus_star", "--n", "3000"],
                     ["--ktree", "2", "--n", "300"], ["--ktree", "3", "--n", "300"],
                     ["--family", "grid", "--d", "2", "--side", "12"]):
        spy = mock.patch.object(activation, "minimum_spanning_tree",
                                wraps=activation.minimum_spanning_tree)
        with spy as mst:
            for argv in (["run", *rules, "--mode", "mc", "--reps", "6"],
                         ["concentration", "--alpha", "1/3", "--epsilon", "0.1", "--reps", "6"]):
                code, _, _ = _run(capsys, *argv, *instance)
                assert code == 0, (argv, instance)
        assert mst.called == (instance[1] == "grid"), instance
