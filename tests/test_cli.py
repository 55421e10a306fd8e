import json
import subprocess
import sys
from dataclasses import fields

import pytest

from samecluster.cli import main, parse_synth
from samecluster.datasets import DatasetSpec, load
from samecluster.harness import (
    ExperimentPlan,
    read_records_json,
    read_table_csv,
    run_classify_study,
    run_error_report,
    run_fixed_budget,
    run_fixed_recovery,
    write_records_json,
    write_table_csv,
)
from samecluster.synthgen import SynthConfig

SYNTH = "n=800,K=4,sigma=0.15,d=4,seed=3"


def run_cli(args):
    return main(list(args))


class TestParseSynth:
    def test_basic(self):
        cfg = parse_synth("n=1000,K=7,alpha=2.0,p=0.1")
        assert (cfg.n, cfg.K, cfg.alpha, cfg.p_collision) == (1000, 7, 2.0, 0.1)

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            parse_synth("bogus=1")

    def test_every_field_by_name_with_its_type(self):
        want = SynthConfig(n=900, K=6, alpha=1.5, sigma=0.2, b=4.0, d=3,
                           rho=0.3, p_collision=0.25, seed=7)
        cfg = parse_synth(",".join(f"{f.name}={getattr(want, f.name)}"
                                   for f in fields(SynthConfig)))
        assert cfg == want
        assert {f.name: type(getattr(cfg, f.name)) for f in fields(SynthConfig)} == {
            "n": int, "K": int, "alpha": float, "sigma": float, "b": float,
            "d": int, "rho": float, "p_collision": float, "seed": int}
        assert type(parse_synth("b=4").b) is float
        with pytest.raises(ValueError):
            parse_synth("n=2.5")


class TestSynthCommand:
    def test_emits_loadable_csv(self, tmp_path):
        out = tmp_path / "data.csv"
        assert run_cli(["synth", "--synth", SYNTH, "--out", str(out)]) == 0
        ps, mapping = load(DatasetSpec(out, normalize=False))
        assert len(ps) == 800
        assert ps.n_clusters == 4

    def test_zero_dimension_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        assert run_cli(["synth", "--synth", "n=50,K=3,d=0,p=0.5", "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "ValueError", "message": "d must be >= 1, got 0"}
        assert not out.exists()


class TestSweepCommands:
    def test_budget_csv(self, tmp_path):
        out = tmp_path / "budget.csv"
        code = run_cli(["budget", "--budgets", "100,400", "--algo",
                        "uniform,basic", "--trials", "2", "--synth", SYNTH,
                        "--out", str(out)])
        assert code == 0
        rows = read_table_csv(out)
        assert {r["algorithm"] for r in rows} == {"uniform", "basic"}
        assert {r["x"] for r in rows} == {100, 400}

    def test_negative_budget_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "budget.json"
        code = run_cli(["budget", "--budgets=-5,10", "--algo", "uniform", "--trials", "1",
                        "--synth", SYNTH, "--out", str(out), "--format", "json"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "ValueError", "message": "budgets must be >= 0, got -5"}
        assert not out.exists()

    def test_negative_draw_cap_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "recovery.json"
        code = run_cli(["recovery", "--targets", "2", "--algo", "basic", "--trials", "1",
                        "--synth", SYNTH, "--draw-cap", "-1", "--out", str(out),
                        "--format", "json"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "ValueError", "message": "draw_cap must be >= 0, got -1"}
        assert not out.exists()

    def test_recovery_json(self, tmp_path):
        out = tmp_path / "recovery.json"
        code = run_cli(["recovery", "--targets", "2", "--algo", "basic",
                        "--trials", "2", "--synth", SYNTH,
                        "--out", str(out), "--format", "json"])
        assert code == 0
        plan, records = read_records_json(out)
        assert plan["mode"] == "fixed_recovery"
        assert len(records) == 2

    def test_errors_command(self, tmp_path):
        out = tmp_path / "errors.csv"
        code = run_cli(["errors", "--targets", "3", "--algo", "uniform",
                        "--trials", "2", "--synth", SYNTH, "--out", str(out)])
        assert code == 0
        rows = read_table_csv(out)
        assert all(0 <= r["mean"] < 1 for r in rows)

    def test_classify_command(self, tmp_path):
        out = tmp_path / "classify.json"
        code = run_cli(["classify", "--algo", "improved_simple", "--synth",
                        SYNTH, "--trials", "1", "--out", str(out),
                        "--format", "json"])
        assert code == 0
        _, records = read_records_json(out)
        assert records[0].classify_hist

    def test_classify_csv_mean_is_queries_per_point(self, tmp_path):
        out = tmp_path / "classify.csv"
        code = run_cli(["classify", "--algo", "improved_simple", "--synth",
                        "n=3000,K=8,p=0.3,seed=1", "--out", str(out)])
        assert code == 0
        [row] = read_table_csv(out)
        # The study's histogram is {1: 2324, 2: 340, 3: 336}.
        assert row["mean"] == (2324 + 2 * 340 + 3 * 336) / 3000

    @pytest.mark.parametrize("target,censored", [(20, True), (4, False)])
    def test_classify_censored_short_of_its_target(self, tmp_path, target, censored):
        # The set has 8 clusters: a target of 20 is missed, one of 4 met.
        for fmt in ("json", "csv"):
            code = run_cli(["classify", "--algo", "improved_simple", "--targets",
                            str(target), "--synth", "n=3000,K=8,p=0.3,seed=1",
                            "--out", str(tmp_path / f"classify.{fmt}"), "--format", fmt])
            assert code == 0
        _, [record] = read_records_json(tmp_path / "classify.json")
        assert record.clusters_recovered == (8 if censored else 4)
        assert record.censored is censored
        [row] = read_table_csv(tmp_path / "classify.csv")
        assert row["censored"] == int(censored)

    def test_classify_noisy_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "classify.json"
        code = run_cli(["classify", "--algo", "noisy", "--noise-p", "0.1",
                        "--synth", SYNTH, "--trials", "1", "--out", str(out)])
        assert code == 1
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"]["type"] == "ValueError"
        assert "exact-oracle" in doc["error"]["message"]
        assert not out.exists()


# Each sweep command, its axis flags, the harness runner and the plan it
# makes; the algorithms are out of sorted order, so the classify table
# keeps plan order while the grid tables sort.
SWEEPS = [
    ("budget", ["--budgets", "100,400"], run_fixed_budget,
     dict(mode="fixed_budget", budgets=[100, 400])),
    ("recovery", ["--targets", "2,3"], run_fixed_recovery,
     dict(mode="fixed_recovery", targets=[2, 3])),
    ("errors", ["--targets", "3"], run_error_report,
     dict(mode="error_report", targets=[3])),
    ("classify", [], run_classify_study, dict(mode="classify_study")),
]


@pytest.mark.parametrize("command,axis,runner,plan_kw", SWEEPS,
                         ids=[s[0] for s in SWEEPS])
def test_sweep_output_is_the_harness_output(tmp_path, command, axis, runner, plan_kw):
    algos = "improved_simple,basic" if command == "classify" else "basic,uniform"
    plan = ExperimentPlan(algorithms=algos.split(","), trials=2,
                          synth=parse_synth(SYNTH), **plan_kw)
    records, table = runner(plan)
    for fmt in ("csv", "json"):
        got, want = tmp_path / f"cli.{fmt}", tmp_path / f"harness.{fmt}"
        assert run_cli([command, *axis, "--algo", algos, "--trials", "2",
                        "--synth", SYNTH, "--out", str(got), "--format", fmt]) == 0
        if fmt == "csv":
            write_table_csv(want, table)
        else:
            write_records_json(want, plan, records)
        assert got.read_bytes() == want.read_bytes()


class TestReduceCheck:
    def test_pass_and_fail_exit_codes(self, tmp_path):
        data = tmp_path / "d.csv"
        run_cli(["synth", "--synth", SYNTH, "--out", str(data)])
        assert run_cli(["reduce-check", "--dataset", str(data),
                        "--recovered", "1,2,3,4", "--eps", "0.5"]) == 0
        assert run_cli(["reduce-check", "--dataset", str(data),
                        "--recovered", "1", "--eps", "0.0001"]) == 2

    def test_labels_as_the_file_writes_them(self, tmp_path, capsys):
        # Labels 7, 3, 5 load as ids 1, 2, 3 (first occurrence); --recovered
        # and the offender are both file labels.
        data = tmp_path / "relabelled.csv"
        data.write_text("0,0,7\n0,1,7\n100,0,3\n100,1,3\n2,0,5\n2,1,5\n")
        capsys.readouterr()
        assert run_cli(["reduce-check", "--dataset", str(data), "--recovered", "7"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["offender"] == "3" and 1.0 < doc["worst_ratio"] < float("inf")
        assert run_cli(["reduce-check", "--dataset", str(data),
                        "--recovered", "3,5,7"]) == 0
        assert json.loads(capsys.readouterr().out)["offender"] is None
        for unknown in ("9", "1", "7,9"):
            assert run_cli(["reduce-check", "--dataset", str(data),
                            "--recovered", unknown]) == 1
            err = json.loads(capsys.readouterr().err)["error"]
            assert err["type"] == "ValueError" and "labels not in" in err["message"]


    def test_eps_and_recovered_are_checked(self, tmp_path, capsys):
        # A non-positive or non-finite eps, or no recovered label, is an
        # error (exit 1), not a check that fails with a ratio of Infinity.
        data = tmp_path / "relabelled.csv"
        data.write_text("0,0,7\n0,1,7\n100,0,3\n100,1,3\n2,0,5\n2,1,5\n")
        capsys.readouterr()
        for args in (["7", "-1"], ["7", "0"], ["7", "nan"], ["7", "inf"], [",", "0.5"]):
            assert run_cli(["reduce-check", "--dataset", str(data),
                            "--recovered", args[0], "--eps", args[1]]) == 1
            out, err = capsys.readouterr()
            assert out == "" and json.loads(err)["error"]["type"] == "ValueError"

    def test_infinite_ratio_is_null(self, tmp_path, capsys):
        # The recovered cluster is one point, cost 0, so covering the other
        # costs infinitely more: exit 2, with strict JSON.
        data = tmp_path / "single.csv"
        data.write_text("0,0,7\n100,0,3\n100,1,3\n")
        capsys.readouterr()
        assert run_cli(["reduce-check", "--dataset", str(data), "--recovered", "7"]) == 2

        def strict(token):
            raise ValueError(f"not JSON: {token}")
        doc = json.loads(capsys.readouterr().out, parse_constant=strict)
        assert doc == {"reducible": False, "worst_ratio": None, "offender": "3"}


class TestErrorContract:
    def test_machine_readable_error(self, tmp_path, capsys):
        code = run_cli(["budget", "--budgets", "10", "--synth", "bogus=1",
                        "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        doc = json.loads(err)
        assert "error" in doc and doc["error"]["type"]

    def test_subprocess_entry(self, tmp_path):
        out = tmp_path / "sub.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "samecluster.cli", "synth",
             "--synth", SYNTH, "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert out.exists()

    def test_subprocess_error_object(self):
        proc = subprocess.run(
            [sys.executable, "-m", "samecluster.cli", "reduce-check",
             "--dataset", "/nonexistent.csv", "--recovered", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 1
        doc = json.loads(proc.stderr)
        assert doc["error"]["type"]
