"""Command-line interface: subcommands, report shapes, exit codes."""

import importlib.util
import io
import json
import os
import resource
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


def test_generate_usage_errors(tmp_path, capsys):
    code, _, err = _run(capsys, "generate", "ktree", "--k", "2")
    assert code == cli.EXIT_USAGE and "needs" in err
    code, _, err = _run(capsys, "generate", "family", "--n", "4")
    assert code == cli.EXIT_USAGE
    gpath, spath = tmp_path / "g.txt", tmp_path / "s.txt"
    code, out, err = _run(capsys, "generate", "family", "--name", "grid",
                          "--d", "2", "--side", "2", "-o", str(gpath), "--seq-out", str(spath))
    assert code == cli.EXIT_USAGE and "no construction sequence" in err
    # the missing sequence is found before any output is opened
    assert out == "" and not gpath.exists() and not spath.exists()


def test_flags_a_command_does_not_read_exit_usage_before_any_output(tmp_path, capsys):
    out_path, seq_path = tmp_path / "out.txt", tmp_path / "seq.txt"
    ktree = ("generate", "ktree", "--k", "2", "--n", "12", "-o", str(out_path))
    cases = (
        ((*ktree, "--name", "path"), "--name"),
        ((*ktree, "--d", "3"), "--d"),
        ((*ktree, "--side", "4"), "--side"),
        ((*ktree, "--ratio", "1/2"), "--ratio"),
        ((*ktree, "--seq-out", str(seq_path)), "--seq-out"),
        ((*ktree, "--d", "3", "--side", "4", "--ratio", "1/2"), "--d, --side, --ratio"),
        (("blind-scan", "--kind", "tree", "--n", "5", "--k", "7", "-o", str(out_path)), "--k"),
        (("metagame", "phi-max", "--k", "3", "-o", str(out_path)), "--k"),
    )
    for argv, flags in cases:
        code, out, err = _run(capsys, *argv)
        assert code == cli.EXIT_USAGE and out == "", argv
        assert f"does not read {flags}" in err, argv
        assert not out_path.exists() and not seq_path.exists(), argv


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


_HUGE_INSTANCES = """
import contextlib, io
import stopcc.cli as cli
from stopcc import graphs
from stopcc.errors import ParameterError

big = graphs.ID_LIMIT + 1
run = ["--strategy", "greedy", "--mode", "mc", "--reps", 1]
for argv in (["run", "--family", "path", "--n", big, *run],
             ["run", "--family", "star", "--n", graphs.ID_LIMIT, *run],  # n + 1 vertices
             ["run", "--family", "star_plus_path", "--n", 2**30, *run],  # 2n + 1 vertices
             ["run", "--family", "two_star_plus_star", "--n", big, *run],
             ["run", "--family", "random_tree", "--n", big, *run],
             ["run", "--family", "k_star", "--k", 2, "--n", big, *run],
             ["run", "--ktree", 2, "--n", big, *run],
             ["concentration", "--alpha", "1/2", "--epsilon", "0.3",
              "--family", "random_tree", "--n", big],
             ["generate", "ktree", "--k", 2, "--n", big],
             ["generate", "family", "--name", "path", "--n", big]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    print(code == cli.EXIT_USAGE and "int32 id limit" in err.getvalue(), argv[:4])
try:
    graphs.gen_random_kdegenerate(2, big, 0)
except ParameterError as e:
    print("int32 id limit" in str(e), "kdegenerate")
"""


def test_huge_instances_exit_usage_before_any_list():
    # a child capped at 2 GB of address space: a generator that built its
    # lists before the id-limit check would raise MemoryError there, fast,
    # instead of exhausting the machine
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    lines = _python(_HUGE_INSTANCES, preexec_fn=cap).splitlines()
    assert len(lines) == 11 and all(line.startswith("True") for line in lines), lines


_WIDE_CLIQUES = """
import contextlib, io
import stopcc.cli as cli

run = ["--strategy", "greedy", "--mode", "mc", "--reps", 1]
for argv in (["generate", "ktree", "--k", 10000, "--n", 10000],
             ["run", "--family", "k_star", "--k", 10000, "--n", 10000, *run]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    print(code == cli.EXIT_RESOURCE and "needs about 4999 MB" in err.getvalue(), argv[:2])
"""


def test_wide_initial_clique_exits_resource_before_building():
    # the 10^4-clique's 5 * 10^7 ids would take about 4.5 GB; under the same
    # 2 GB address-space cap a build before the check would fail there
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    lines = _python(_WIDE_CLIQUES, preexec_fn=cap).splitlines()
    assert len(lines) == 2 and all(line.startswith("True") for line in lines), lines


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
    code, out, _ = _run(capsys, "run", "--family", "k_star", "--k", "2", "--n", "5",
                        "--strategy", "greedy", "--mode", "exact")
    assert code == 0
    assert json.loads(out)["instance"] == {"family": "k_star", "k": 2, "n": 5, "seed": 0}


def test_run_exact_mode_respects_cap(monkeypatch, capsys):
    # the sweep's own cap, DP_EXACT_CAP = 12, bounds the mode
    g, seq = graphs.gen_named_family("path", {"n": 12})
    code, out, _ = _run(capsys, "run", "--family", "path", "--n", "12",
                        "--strategy", "greedy", "--mode", "exact")
    assert code == 0
    value = exact.strategy_value(g, seq, strategies.greedy_gain())
    assert json.loads(out)["results"][0]["exact"] == f"{value.numerator}/{value.denominator}"

    def no_table(*args):
        raise AssertionError("a subset table was built above the cap")

    monkeypatch.setattr(exact, "_component_counts", no_table)
    for rules in (["greedy"], ["blind:l=2", "dp"]):
        argv = ["run", "--family", "path", "--n", "13", "--mode", "exact"]
        for rule in rules:
            argv += ["--strategy", rule]
        code, out, err = _run(capsys, *argv)
        assert code == cli.EXIT_RESOURCE and out == "" and "capped" in err
        assert "exact-rational DP capped at n=12" in err


def test_run_exact_mode_sweeps_subsets_not_orders(monkeypatch, capsys):
    # the benchmark's exact_small catalog, read from its workload module
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    loader = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(workloads)
    catalog = workloads.EXACT_CATALOG
    expected = []
    for seed in range(4):
        g, seq = graphs.gen_named_family("random_tree", {"n": 7, "seed": seed})
        table = exact.solve_dp(g, exact=True)
        specs = [strategies.parse_strategy(text) for text in catalog]
        values = [exact.brute_force_strategy_value(
            g, seq, strategies.dp_optimal(table) if spec.kind == "dp_optimal" else spec)
            for spec in specs]
        expected.append([f"{v.numerator}/{v.denominator}" for v in values])

    def no_walk(*args):
        raise AssertionError("run --mode exact walked arrival orders")

    monkeypatch.setattr(exact, "brute_force_strategy_value", no_walk)
    monkeypatch.setattr(activation.ActivationState, "activate", no_walk)
    for seed in range(4):
        argv = ["run", "--family", "random_tree", "--n", "7", "--seed", str(seed),
                "--mode", "exact"]
        for text in catalog:
            argv += ["--strategy", text]
        code, out, _ = _run(capsys, *argv)
        assert code == 0
        assert [r["exact"] for r in json.loads(out)["results"]] == expected[seed]


def test_run_dp_mode(capsys):
    code, out, _ = _run(capsys, "run", "--family", "path", "--n", "14",
                        "--strategy", "dp", "--mode", "dp")
    assert code == 0
    report = json.loads(out)
    (result,) = report["results"]
    assert result["per_vertex"] > 0.25


def test_run_dp_mode_refuses_other_rules_before_solving(monkeypatch, capsys):
    def no_dp(*args, **kwargs):
        raise AssertionError("the DP was solved")

    monkeypatch.setattr(exact, "solve_dp", no_dp)
    code, out, err = _run(capsys, "run", "--family", "path", "--n", "4", "--mode", "dp",
                          "--strategy", "blind:l=2", "--strategy", "dp", "--strategy", "greedy")
    assert code == cli.EXIT_USAGE and out == ""
    assert err.startswith("stopcc:") and "blind:l=2, greedy" in err


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


def test_run_mc_rules_estimated_together_match_one_rule_runs(capsys):
    # several rules share one estimate: each rule's result is byte for byte
    # that of a run with the rule alone
    cases = (
        (["--ktree", "2", "--n", "40", "--seed", "3"],
         ["greedy", "greedy:strict", "blind:alpha=1/3",
          "twophase:alpha=1/3,gamma=1/2,trigger=initial_clique"]),
        (["--family", "grid", "--d", "2", "--side", "3"], ["greedy", "blind:l=4", "dp"]),
    )

    def report(instance, rules):
        argv = ["run", *instance, "--mode", "mc", "--reps", "60", "--seed", "8"]
        code, out, _ = _run(capsys, *argv, *(f for rule in rules for f in ("--strategy", rule)))
        assert code == 0, rules
        report = json.loads(out)
        del report["wall_clock_s"], report["strategies"]
        return report

    for instance, rules in cases:
        together = report(instance, rules)
        results = together.pop("results")
        assert [r["strategy"] for r in results] == rules
        for rule, result in zip(rules, results):
            alone = report(instance, [rule])
            assert json.dumps(alone.pop("results")) == json.dumps([result]), rule
            assert alone == together, rule


def test_run_mc_draws_checks_and_traces_each_replication_once(capsys):
    reps = 7
    draw = mock.patch.object(montecarlo, "replication_permutation",
                             wraps=montecarlo.replication_permutation)
    check = mock.patch.object(strategies, "check_permutation",
                              wraps=strategies.check_permutation)
    trace = mock.patch.object(strategies, "nbr_sum_trace", wraps=strategies.nbr_sum_trace)
    with draw as draws, check as checks, trace as traces:
        code, _, _ = _run(capsys, "run", "--ktree", "2", "--n", "50", "--mode", "mc",
                          "--strategy", "greedy", "--strategy", "greedy:strict",
                          "--reps", str(reps))
    assert code == 0
    assert (draws.call_count, checks.call_count, traces.call_count) == (reps, reps, reps)


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
        rules = ("--strategy", "dp") if mode == "dp" else ("--strategy", "blind:l=2",
                                                            "--strategy", "dp")
        r = report("run", *path, *rules, "--mode", mode, "--reps", "5")
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
    code, out, err = _run(capsys, "run", "--ktree", "2", "--strategy", "greedy", "--mode", "mc")
    assert code == cli.EXIT_USAGE and out == ""
    assert err.strip() == "stopcc: --ktree needs --n"


def test_run_seq_file_instance(tmp_path, capsys):
    path = tmp_path / "seq.txt"
    with open(path, "w") as fh:
        graphs.write_sequence(graphs.gen_random_ktree(1, 8, seed=2), fh)
    code, out, _ = _run(capsys, "run", "--seq-file", str(path),
                        "--strategy", "blind:l=4", "--mode", "exact")
    assert code == 0
    assert json.loads(out)["instance"]["source"] == "seq_file"


def test_instance_flags_the_source_ignores_exit_usage(tmp_path, monkeypatch, capsys):
    path = tmp_path / "s.txt"
    with open(path, "w") as fh:
        graphs.write_sequence(graphs.gen_random_ktree(1, 8, seed=2), fh)
    tail = ["--strategy", "greedy", "--mode", "exact"]
    # the family builder rejects a ratio on every family but two_star_plus_star
    for family, argv in (("path", ["run", "--family", "path", *tail]),
                         ("star", ["generate", "family", "--name", "star"])):
        code, out, err = _run(capsys, *argv, "--n", "5", "--ratio", "1/2")
        assert code == cli.EXIT_USAGE and out == "", argv
        assert err.strip() == f"stopcc: unknown parameters for {family}: ['ratio']", argv

    def no_instance(*args):
        raise AssertionError("an instance was built from conflicting flags")

    for name in ("gen_named_family", "gen_random_ktree", "read_sequence"):
        monkeypatch.setattr(graphs, name, no_instance)
    cases = (
        (["run", "--ktree", "2", "--n", "10", "--k", "5", "--d", "3", "--ratio", "1/2", *tail],
         "--ktree does not read --k, --d, --ratio"),
        (["run", "--seq-file", str(path), "--n", "99", "--side", "4", *tail],
         "--seq-file does not read --n, --side"),
        (["run", "--family", "path", "--ktree", "2", "--n", "10", *tail],
         "give one instance source, not --family and --ktree"),
        (["concentration", "--seq-file", str(path), "--ktree", "1", "--n", "8",
          "--alpha", "1/2", "--epsilon", "0.1"],
         "give one instance source, not --ktree and --seq-file"),
    )
    for argv, message in cases:
        code, out, err = _run(capsys, *argv)
        assert code == cli.EXIT_USAGE and out == "", argv
        assert err.strip() == f"stopcc: {message}", argv


def test_a_seed_numpy_cannot_take_exits_before_any_work(monkeypatch, capsys):
    def no_instance(*args):
        raise AssertionError("an instance was built for a negative seed")

    monkeypatch.setattr(graphs, "gen_named_family", no_instance)
    grid = ["--family", "grid", "--d", "2", "--side", "300", "--seed", "-1"]
    for argv in (["concentration", *grid, "--alpha", "1/2", "--epsilon", "0.1"],
                 ["run", *grid, "--strategy", "blind:l=3", "--mode", "mc"],
                 ["run", *grid, "--strategy", "blind:l=3", "--mode", "exact"],
                 ["run", *grid, "--strategy", "dp", "--mode", "dp"]):
        code, out, err = _run(capsys, *argv)
        assert code == cli.EXIT_USAGE and out == "", argv
        assert err.strip() == "stopcc: seed must be an integer >= 0, got -1", argv


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


def test_concentration_rejects_an_epsilon_too_large_for_a_float(monkeypatch, capsys):
    def no_instance(*args):
        raise AssertionError("an instance was built for an epsilon out of float range")

    monkeypatch.setattr(graphs, "gen_named_family", no_instance)
    # 1e400 overflows a float, and 1e200 overflows the tail bound eps^3/2000
    for eps in ("1e400", "1e200"):
        code, out, err = _run(capsys, "concentration", "--family", "path", "--n", "5",
                              "--alpha", "1/2", "--epsilon", eps)
        assert code == cli.EXIT_USAGE and out == "", eps
        assert err.startswith("stopcc:") and "--epsilon" in err and eps in err, eps
    # a negative epsilon is refused as such, however large
    code, _, err = _run(capsys, "concentration", "--family", "path", "--n", "5",
                        "--alpha", "1/2", "--epsilon=-1e400")
    assert code == cli.EXIT_USAGE and "--epsilon must be >= 0" in err


def test_concentration_checks_alpha_before_building(monkeypatch, capsys):
    def no_instance(*args):
        raise AssertionError("an instance was built for an alpha outside [0,1]")

    monkeypatch.setattr(graphs, "gen_named_family", no_instance)
    # 1e400 is checked as a fraction: it overflows a float
    for alpha in ("2", "-1/3", "1.5", "1e400"):
        code, out, err = _run(capsys, "concentration", "--family", "path", "--n", "10",
                              f"--alpha={alpha}", "--epsilon", "0.1")
        assert code == cli.EXIT_USAGE and out == "", alpha
        assert err.strip() == "stopcc: alpha must lie in [0,1]", alpha
    monkeypatch.undo()
    for alpha in ("0", "1"):
        code, out, _ = _run(capsys, "concentration", "--family", "path", "--n", "10",
                            "--alpha", alpha, "--epsilon", "0.1", "--reps", "20")
        assert code == 0 and json.loads(out)["alpha"] == float(alpha), alpha


def test_only_readers_of_a_sequence_build_one(tmp_path, capsys):
    # concentration and generate without --seq-out never read a tree
    # family's construction sequence, so none is built
    spy = mock.patch.object(graphs, "ConstructionSequence", wraps=graphs.ConstructionSequence)
    tree = ["--name", "random_tree", "--n", "40", "--seed", "2"]
    with spy as built:
        code, _, _ = _run(capsys, "concentration", "--family", *tree[1:], "--alpha", "1/2",
                          "--epsilon", "0.1", "--reps", "5")
        assert code == 0 and not built.called
        code, _, _ = _run(capsys, "generate", "family", *tree, "-o", str(tmp_path / "g.txt"))
        assert code == 0 and not built.called
        code, _, _ = _run(capsys, "generate", "family", *tree, "-o", str(tmp_path / "g.txt"),
                          "--seq-out", str(tmp_path / "s.txt"))
        assert code == 0 and built.call_count == 1
    g, seq = graphs.gen_named_family("random_tree", {"n": 40, "seed": 2})
    assert (tmp_path / "s.txt").read_text() == _written(graphs.write_sequence, seq)
    assert (tmp_path / "g.txt").read_text() == _written(graphs.write_graph, g)


def _written(write, obj):
    out = io.StringIO()
    write(obj, out)
    return out.getvalue()


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


def _python(code, *args, preexec_fn=None):
    """stdout of a fresh interpreter running code, with args as sys.argv[1:]
    and this package on its path; preexec_fn runs in the child first."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True, preexec_fn=preexec_fn).stdout


def test_cli_import_skips_scipy_optimize():
    out = _python("import stopcc.cli, sys; print('scipy.optimize' in sys.modules)")
    assert out.strip() == "False"


_SCIPY_FREE_RUNS = """
import contextlib, io, json, random, sys
from pathlib import Path
import stopcc.cli as cli
from stopcc import graphs

tmp = Path(sys.argv[1])
loaded = []  # the commands after which scipy was loaded

def main(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([str(a) for a in argv]) == 0, argv
    if "scipy" in sys.modules:
        loaded.append(argv)
    return out.getvalue()

# a 2-tree whose ids are not its construction order
seq = graphs.gen_random_ktree(2, 40, seed=7)
label = random.Random(7).sample(range(seq.n), seq.n)
seq = graphs.ConstructionSequence(2, [(label[v], {label[w] for w in m}) for v, m in seq.order])
assert not graphs.graph_from_construction(seq).ids_eliminate
with open(tmp / "relabelled.txt", "w") as fh:
    graphs.write_sequence(seq, fh)

main("generate", "ktree", "--k", 2, "--n", 12, "-o", tmp / "ktree.txt")
main("generate", "family", "--name", "random_tree", "--n", 30, "-o", tmp / "tree.txt",
     "--seq-out", tmp / "tree-seq.txt")
main("run", "--family", "two_star_plus_star", "--n", 3000, "--strategy", "blind:alpha=1/3",
     "--strategy", "twophase:alpha=1/3,gamma=1/2,trigger=0|1", "--mode", "mc", "--reps", 4)
main("run", "--ktree", 2, "--n", 60, "--strategy", "greedy", "--mode", "mc", "--reps", 4)
main("run", "--family", "path", "--n", 12, "--strategy", "dp", "--mode", "dp")
main("run", "--family", "grid", "--d", 2, "--side", 6, "--strategy", "blind:alpha=1/3",
     "--strategy", "greedy", "--mode", "mc", "--reps", 4)
main("run", "--family", "random_tree", "--n", 7, "--seed", 3, "--strategy", "blind:l=3",
     "--strategy", "greedy", "--mode", "exact")
main("run", "--seq-file", tmp / "relabelled.txt", "--strategy", "greedy",
     "--strategy", "blind:alpha=1/3", "--mode", "mc", "--reps", 4)
main("concentration", "--seq-file", tmp / "relabelled.txt", "--alpha", "1/2",
     "--epsilon", "0.1", "--reps", 4)
main("concentration", "--family", "random_tree", "--n", 50, "--alpha", "1/2",
     "--epsilon", "0.1", "--reps", 4)
main("blind-scan", "--kind", "ktree", "--k", 2, "--n", 50)
main("blind-scan", "--kind", "tree", "--n", 50)
main("metagame", "phi-max")
main("metagame", "mt-argmax", "--k", 3)
report = main("concentration", "--family", "grid", "--d", 2, "--side", 10,
              "--alpha", "1/3", "--epsilon", "0.1", "--reps", 20, "--seed", 5)
print(json.dumps([[str(a) for a in argv] for argv in loaded]))
print(report)
"""


def test_no_cli_command_imports_scipy(tmp_path):
    # scipy is a test-only oracle: no subcommand loads it, on forests, on
    # eliminating ids, or on the grids and relabelled graphs that need a
    # spanning forest; the grid's report is unchanged
    lines = _python(_SCIPY_FREE_RUNS, str(tmp_path)).splitlines()
    assert json.loads(lines[0]) == []
    report = json.loads("\n".join(lines[1:]))
    del report["wall_clock_s"]
    assert report == {
        "alpha": 1 / 3, "beta": 1.8, "epsilon": 0.1,
        "instance": {"family": "grid", "n": 100, "seed": 5},
        "tail_bound": 5.000000000000001e-07,
        "tail_estimate": {"ci_high": 0.36100627536567476, "ci_low": -0.061006275365674795,
                          "mean": 0.15, "replications": 20, "seed": 5,
                          "std_error": 0.08191780219091253, "zero_hit_upper": None},
        "threshold": 16.333333333333336, "tool": "stopcc", "version": "0.1.0"}


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


def test_rules_are_checked_before_the_instance_is_built(capsys, tmp_path):
    grid = ["--family", "grid", "--d", "2", "--side", "1000"]
    for rule, mode, message in (("mystery", "mc", "unknown strategy"),
                                ("greedy", "dp", "--mode dp solves only the dp rule")):
        with mock.patch.object(graphs, "gen_named_family") as build:
            code, out, err = _run(capsys, "run", *grid, "--strategy", rule, "--mode", mode)
        assert code == cli.EXIT_USAGE and out == "" and message in err
        assert not build.called
    # a bad rule wins over an unreadable instance file
    code, out, err = _run(capsys, "run", "--seq-file", str(tmp_path / "missing.txt"),
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


def test_chordal_instances_in_id_order_need_no_spanning_tree(capsys):
    # prefix counts need no merge times: the grid, the one non-chordal
    # instance, hooks its prefixes instead and alone needs a search for an
    # elimination order; the random tree, whose ids do not eliminate, reads
    # its edges alone
    rules = ["--strategy", "blind:alpha=1/3", "--strategy", "greedy"]
    for instance in (["--family", "two_star_plus_star", "--n", "3000"],
                     ["--ktree", "2", "--n", "300"], ["--ktree", "3", "--n", "300"],
                     ["--family", "random_tree", "--n", "300"],
                     ["--family", "grid", "--d", "2", "--side", "12"]):
        forest = mock.patch.object(activation, "spanning_forest", wraps=activation.spanning_forest)
        roots = mock.patch.object(activation, "component_roots", wraps=activation.component_roots)
        mcs = mock.patch.object(graphs, "_mcs_order", wraps=graphs._mcs_order)
        with forest as forest_spy, roots as roots_spy, mcs as mcs_spy:
            for argv in (["run", *rules, "--mode", "mc", "--reps", "6"],
                         ["concentration", "--alpha", "1/3", "--epsilon", "0.1", "--reps", "6"]):
                code, _, _ = _run(capsys, *argv, *instance)
                assert code == 0, (argv, instance)
        assert not forest_spy.called, instance
        assert roots_spy.called == mcs_spy.called == (instance[1] == "grid"), instance
