import json
import math
import shlex
import tracemalloc
from pathlib import Path

import pytest

from uvlab import cli, corpus
from uvlab.provers import MAX_PROOFS
from uvlab.sgraph import Coloring, ExplicitGraph, expand


def run_cli(args):
    return cli.main(args)


def instance_path(name):
    from importlib import resources
    return str(resources.files("uvlab") / "instances" / f"{name}.sgc")


class TestOracleProtocol:
    def test_k3_report(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(["run", "--instance", instance_path("k3_n2"),
                        "--protocol", "oracle", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["colorable"] is True
        g = expand(corpus.load("k3_n2"))
        assert Coloring(tuple(report["coloring"])).is_valid_for(g)

    def test_k4_not_colorable(self, tmp_path, capsys):
        code = run_cli(["run", "--instance", instance_path("k4_n2"),
                        "--protocol", "oracle"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["colorable"] is False and report["coloring"] is None


class TestQma2Protocol:
    def test_honest_k3_total_one(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(["run", "--instance", instance_path("k3_n2"),
                        "--protocol", "qma2", "--strategy", "honest",
                        "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["p_total"] == 1.0
        assert report["paper_soundness_floor"] == pytest.approx(1 / (3e10 * 16))

    def test_near_strategy_on_k4(self, capsys):
        code = run_cli(["run", "--instance", instance_path("k4_n2"),
                        "--protocol", "qma2", "--strategy", "near"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["p_total"] == pytest.approx(1 - 1 / 24, abs=1e-12)
        assert report["declared_violations"] == 1

    def test_near_strategy_rejected_on_colorable(self, capsys):
        code = run_cli(["run", "--instance", instance_path("k3_n2"),
                        "--protocol", "qma2", "--strategy", "near"])
        assert code == cli.EXIT_INSTANCE

    def test_byte_identical_reports(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run_cli(["run", "--instance", instance_path("k4_n2"),
                            "--protocol", "qma2", "--strategy", "random",
                            "--seed", "42", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_byte_identical_monte_carlo_reports(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run_cli(["run", "--instance", instance_path("k4_n2"),
                            "--protocol", "bellqma", "--strategy", "near",
                            "--k", "12", "--mode", "mc", "--samples", "5000",
                            "--seed", "3", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_byte_identical_sampled_reports(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run_cli(["run", "--instance", instance_path("k4_n2"),
                            "--protocol", "qma2", "--strategy", "near",
                            "--mode", "mc", "--samples", "100000", "--seed", "7",
                            "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        report = json.loads(outs[0])
        halfwidth = math.sqrt(math.log(2 / 0.01) / (2 * 100_000))
        assert abs(report["sampled_acceptance"] - report["p_total"]) < halfwidth

    def test_sample_count_is_not_allocated(self, capsys):
        code = run_cli(["run", "--instance", instance_path("k4_n2"),
                        "--protocol", "qma2", "--strategy", "near",
                        "--mode", "mc", "--samples", "1000000000000", "--seed", "7"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["sampled_acceptance"] - report["p_total"]) < 1e-5

    def test_sampled_mode(self, capsys):
        code = run_cli(["run", "--instance", instance_path("k3_n2"),
                        "--protocol", "qma2", "--strategy", "honest",
                        "--mode", "mc", "--samples", "200", "--seed", "7"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["sampled_acceptance"] == 1.0


class TestBellqmaProtocol:
    def test_honest_default_k(self, capsys):
        code = run_cli(["run", "--instance", instance_path("k3_n2"),
                        "--protocol", "bellqma", "--strategy", "honest",
                        "--k", "240"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["k"] == 240
        assert report["p_total"] >= 1 - 2.0 ** (-6)
        assert report["paper_completeness_floor"] == pytest.approx(1 - 2.0 ** (-6))

    def test_mc_requires_seed(self, capsys):
        code = run_cli(["run", "--instance", instance_path("k4_n2"),
                        "--protocol", "bellqma", "--strategy", "near",
                        "--k", "12", "--mode", "mc", "--samples", "1000"])
        assert code == cli.EXIT_INSTANCE

    def test_k_must_be_at_least_two(self):
        code = run_cli(["run", "--instance", instance_path("k3_n2"),
                        "--protocol", "bellqma", "--strategy", "honest",
                        "--k", "1"])
        assert code == cli.EXIT_INSTANCE


class TestSeesawGadgetProtocols:
    def test_seesaw_report(self, capsys):
        """Golden values: a change to the half-steps' arithmetic may move
        ``seesaw_best`` by a few ulps, but not the iteration count, and the
        eigensolve's ``lambda_max`` not at all."""
        code = run_cli(["run", "--instance", instance_path("k4_n2"),
                        "--protocol", "seesaw", "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert {"lambda_max", "seesaw_best", "restarts", "seed"} <= set(report)
        assert report["seesaw_best"] <= report["lambda_max"] + 1e-9
        assert report["lambda_max_error_bound"] == 1e-13
        assert abs(report["lambda_max"] - 1.0) <= report["lambda_max_error_bound"]
        assert abs(report["seesaw_best"] - 0.9896018645458695) <= 4 * math.ulp(0.9896018645458695)
        assert report["iterations"] == 79
        assert '"lambda_max": 1.0000000000000002,' in out

    def test_gadget_report(self, capsys):
        code = run_cli(["run", "--instance", instance_path("k3_n2"),
                        "--protocol", "gadget", "--seed", "5"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["reconstruction_error"] < 1e-9
        assert report["honest_reduction"]["t"] == 3


class TestErrorsAndFormats:
    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.sgc"
        bad.write_text("SGC 1\nn 1\nm 2\nw0 = AND u0 w9\nout pair w0\nout edge w0\n")
        assert run_cli(["run", "--instance", str(bad), "--protocol", "oracle"]) == 2

    def test_missing_file_exit_2(self):
        assert run_cli(["run", "--instance", "/nope.sgc", "--protocol", "oracle"]) == 2

    def test_capacity_exit_3(self, tmp_path):
        # qma2 runs at n = 11; m = 2^16 + 1 vertices meet the expand cap
        from uvlab.sgraph import encode_explicit, format_sgc
        wide = tmp_path / "wide.sgc"
        wide.write_text(format_sgc(encode_explicit(ExplicitGraph(2, frozenset({(0, 1)})), 11)))
        assert run_cli(["run", "--instance", str(wide),
                        "--protocol", "qma2", "--strategy", "honest"]) == 0
        big = tmp_path / "big.sgc"
        big.write_text("SGC 1\nn 17\nm 65537\nw0 = CONST0\nout pair w0\nout edge w0\n")
        assert run_cli(["run", "--instance", str(big),
                        "--protocol", "qma2", "--strategy", "honest"]) == 3

    def test_bellqma_near_past_n10_exit_0(self, tmp_path, capsys):
        # K4 at n = 11 and 12 with the default k = 120 n, exact consistency;
        # the near cheat is one proof of multiplicity k, so the proof-batch
        # cap that random proofs meet at n = 12 does not apply
        from uvlab.sgraph import encode_explicit, format_sgc
        for n in (11, 12):
            k4 = tmp_path / f"k4_n{n}.sgc"
            k4.write_text(format_sgc(encode_explicit(
                ExplicitGraph(4, frozenset({(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)})), n)))
            assert run_cli(["run", "--instance", str(k4), "--protocol", "bellqma",
                            "--strategy", "near"]) == 0
            report = json.loads(capsys.readouterr().out)
            q, k = 1 - 2.0 ** -n, 120 * n
            assert report["k"] == k
            assert abs(report["p_cons"] - (2 * q ** k - (2 * q - 1) ** k)) < 1e-12

    def test_proof_batch_cap_exit_3(self, tmp_path, capsys):
        from uvlab.sgraph import encode_explicit, format_sgc
        big = tmp_path / "edge14.sgc"
        big.write_text(format_sgc(
            encode_explicit(ExplicitGraph(2, frozenset({(0, 1)})), 14)))
        tracemalloc.start()
        try:
            code = run_cli(["run", "--instance", str(big), "--protocol", "bellqma",
                            "--strategy", "random", "--mode", "mc",
                            "--samples", "10", "--seed", "1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_CAPACITY
        assert "k=1680 proofs at n=14" in capsys.readouterr().err
        assert peak < 16 * 2 ** 20

    # width None runs on k3_n2, a name runs that bundled instance, an integer
    # width runs on one edge at that n, "dir" passes a directory as the
    # instance and "suite" runs ``uvlab suite`` with argv instead; {tmp} in
    # argv is the test's temporary directory.  Every row stays under 64 MB.
    # Row ids are spelled out, so a row keeps its name when others go.
    @pytest.mark.parametrize("width, argv, code, message", [
        pytest.param(None, ["--protocol", "oracle"], cli.EXIT_OK, "",
                     id="None-argv0-None-0-"),
        pytest.param(None, ["--protocol", "qma2", "--mode", "mc", "--samples", "-5",
                            "--seed", "1"],
                     cli.EXIT_INSTANCE, "--samples must be a positive integer",
                     id="None-argv1-None-2---samples must be a positive integer"),
        pytest.param(None, ["--protocol", "qma2", "--mode", "mc", "--samples", "0",
                            "--seed", "1"],
                     cli.EXIT_INSTANCE, "--samples must be a positive integer",
                     id="None-argv2-None-2---samples must be a positive integer"),
        pytest.param(None, ["--protocol", "bellqma", "--mode", "mc", "--samples", "-5",
                            "--seed", "1"],
                     cli.EXIT_INSTANCE, "--samples must be a positive integer",
                     id="None-argv3-None-2---samples must be a positive integer"),
        pytest.param(None, ["--protocol", "bellqma", "--mode", "mc", "--samples", "10"],
                     cli.EXIT_INSTANCE, "--seed", id="None-argv4-None-2---seed"),
        pytest.param(12, ["--protocol", "bellqma", "--strategy", "random", "--seed", "1"],
                     cli.EXIT_CAPACITY, "k=1440 proofs at n=12",
                     id="12-argv9-None-3-k=1440 proofs at n=12"),
        pytest.param("k4_n2", ["--protocol", "bellqma", "--strategy", "near"],
                     cli.EXIT_OK, "", id="k4_n2-argv10-None-0-"),
        pytest.param("k4_n4", ["--protocol", "bellqma", "--strategy", "random", "--seed", "1"],
                     cli.EXIT_CAPACITY, "use Monte-Carlo mode",
                     id="k4_n4-argv11-None-3-use Monte-Carlo mode"),
        pytest.param("dir", ["--protocol", "oracle"], cli.EXIT_INSTANCE, "Is a directory",
                     id="dir-argv12-None-2-Is a directory"),
        pytest.param(None, ["--protocol", "oracle", "--out", "{tmp}/missing/r.json"],
                     cli.EXIT_INSTANCE, "does not exist",
                     id="None-argv13-None-2-does not exist"),
        pytest.param(None, ["--protocol", "oracle", "--out", "{tmp}"],
                     cli.EXIT_INSTANCE, "Is a directory",
                     id="None-argv14-None-2-Is a directory"),
        pytest.param("suite", ["lemmas", "--out", "{tmp}/missing/s.json"],
                     cli.EXIT_INSTANCE, "does not exist",
                     id="suite-argv15-None-2-does not exist"),
        pytest.param(12, ["--protocol", "bellqma"], cli.EXIT_OK, "", id="12-argv16-None-0-"),
        pytest.param(None, ["--protocol", "bellqma", "--k", "0"],
                     cli.EXIT_INSTANCE, "bellqma needs k >= 2",
                     id="None-argv17-None-2-bellqma needs k >= 2"),
        pytest.param(None, ["--protocol", "bellqma", "--strategy", "honest",
                            "--k", str(MAX_PROOFS + 1)],
                     cli.EXIT_CAPACITY, f"k={MAX_PROOFS + 1} proofs exceed the proof-count cap",
                     id="k-past-proof-cap"),
        pytest.param(None, ["--protocol", "qma2", "--mode", "mc", "--samples", str(2 ** 63),
                            "--seed", "1"],
                     cli.EXIT_INSTANCE, "--samples must be a positive integer at most 2^63 - 1",
                     id="samples-past-int64"),
        pytest.param(None, ["--protocol", "qma2", "--strategy", "random", "--seed", "-1"],
                     cli.EXIT_INSTANCE, "--seed must be a non-negative integer",
                     id="negative-seed"),
        pytest.param(10, ["--protocol", "bellqma", "--strategy", "random", "--seed", "1",
                          "--k", "11"], cli.EXIT_CAPACITY, "use Monte-Carlo mode",
                     id="full-support-n10-k11-past-budget"),
        pytest.param(None, ["--protocol", "bellqma", "--strategy", "random", "--seed", "1",
                            "--mode", "mc", "--samples", str(10 ** 12)],
                     cli.EXIT_CAPACITY, "--samples 1000000000000 times 240 draw steps",
                     id="mc-samples-past-step-budget"),
        pytest.param(11, ["--protocol", "bellqma", "--strategy", "random", "--seed", "1",
                          "--k", "2", "--mode", "mc", "--samples", "5592406"],
                     cli.EXIT_CAPACITY, "--samples 5592406 times 2 draw steps of 96-word rows",
                     id="mc-wide-core-past-step-budget"),
        # the Monte-Carlo flags are checked before the instance is read
        pytest.param(20, ["--protocol", "qma2", "--strategy", "random", "--seed", "1",
                          "--mode", "mc"],
                     cli.EXIT_INSTANCE, "--mode mc requires --samples and --seed",
                     id="qma2-mc-without-samples-n20"),
        pytest.param(20, ["--protocol", "bellqma", "--strategy", "random", "--seed", "1",
                          "--k", "2", "--mode", "mc"],
                     cli.EXIT_INSTANCE, "--mode mc requires --samples and --seed",
                     id="bellqma-mc-without-samples-n20"),
    ])
    def test_exit_codes(self, width, argv, code, message, tmp_path, capsys):
        from uvlab.sgraph import encode_explicit, format_sgc
        path = instance_path(width if isinstance(width, str) else "k3_n2")
        if isinstance(width, int):
            path = tmp_path / "edge.sgc"
            path.write_text(format_sgc(
                encode_explicit(ExplicitGraph(2, frozenset({(0, 1)})), width)))
        if width == "dir":
            path = tmp_path
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        command = ["suite"] if width == "suite" else ["run", "--instance", str(path)]
        tracemalloc.start()
        try:
            assert run_cli([*command, *argv]) == code
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert message in capsys.readouterr().err
        assert peak < 64 * 2 ** 20

    def test_csv_flattening(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run_cli(["run", "--instance", instance_path("k3_n2"),
                        "--protocol", "oracle", "--csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("colorable,") for line in lines)

    QMA2_KEYS = {"instance", "n", "strategy", "seed", "paper_soundness_floor",
                 "p_eq", "p_cons", "p_unif", "p_total"}
    BELL_KEYS = {"instance", "n", "strategy", "paper_soundness_floor",
                 "paper_completeness_floor", "p_cons", "p_unif", "p_total", "mode",
                 "k", "samples", "seed", "ci_halfwidth", "z_tail"}
    MC = ["--strategy", "near", "--mode", "mc", "--samples", "10", "--seed", "1"]

    @pytest.mark.parametrize("name, argv, keys", [
        ("k3_n2", ["qma2"], QMA2_KEYS),
        ("k4_n2", ["qma2", *MC], QMA2_KEYS | {"declared_violations", "sampled_acceptance",
                                              "samples"}),
        ("k3_n2", ["bellqma"], BELL_KEYS),
        ("k4_n2", ["bellqma", *MC], BELL_KEYS | {"declared_violations"}),
    ])
    def test_report_keys(self, name, argv, keys, capsys):
        assert run_cli(["run", "--instance", instance_path(name), "--protocol", *argv]) == 0
        assert set(json.loads(capsys.readouterr().out)) == keys


class TestSuiteSummarySchema:
    def test_check_result_dict(self):
        from uvlab.suites import CheckResult
        r = CheckResult("x", True, "ok", 0.1, 2.0)
        assert set(r.to_dict()) == {"name", "passed", "detail", "seconds",
                                    "time_limit"}
        assert r.line().startswith("[PASS] x:")

    def test_failing_check_line_names_the_check(self):
        from uvlab.suites import CheckResult
        r = CheckResult("uniform_deviation_floor", False, "3 violations", 0.1)
        assert r.line().startswith("[FAIL] uniform_deviation_floor:")
        assert r.to_dict()["passed"] is False

    def test_over_budget_check_fails(self):
        from uvlab.suites import CheckResult
        r = CheckResult("slow", True, "ok", 9.0, 2.0)
        assert not r.in_budget and r.line().startswith("[FAIL]")

    def test_unknown_suite_name(self):
        from uvlab.suites import run_suite
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("everything")

    def test_lemma_suite_exit_0(self, tmp_path, capsys):
        out = tmp_path / "lemmas.json"
        assert run_cli(["suite", "lemmas", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("[PASS] ") for line in lines) == 13
        assert not any(line.startswith("[FAIL] ") for line in lines)
        summary = json.loads(out.read_text())
        assert summary["suite"] == "lemmas" and summary["passed"] is True
        assert len(summary["checks"]) == 13

    def test_failing_check_exit_1(self, tmp_path, capsys, monkeypatch):
        from uvlab import suites
        def failing():
            return suites.CheckResult("always_fails", False, "deliberate failure", 0.0)
        monkeypatch.setattr(suites, "LEMMA_CHECKS", suites.LEMMA_CHECKS + (failing,))
        out = tmp_path / "lemmas.json"
        assert run_cli(["suite", "lemmas", "--out", str(out)]) == 1
        assert "[FAIL] always_fails: deliberate failure" in capsys.readouterr().out
        assert json.loads(out.read_text())["passed"] is False


def readme_run_commands():
    """Every ``uvlab run`` command of the README's "Command line" block,
    backslash continuations joined, as argument lists for ``cli.main``."""
    root = Path(__file__).resolve().parents[1]
    text = (root / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words[:2] == ["uvlab", "run"]:
            commands.append(words[1:])
    return root, commands


def test_readme_commands_exit_0(monkeypatch, capsys):
    root, commands = readme_run_commands()
    assert len(commands) >= 7
    monkeypatch.chdir(root)
    for argv in commands:
        assert run_cli(argv) == 0, argv
        assert isinstance(json.loads(capsys.readouterr().out), dict), argv
