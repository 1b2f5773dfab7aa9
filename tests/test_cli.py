import argparse
import json
from dataclasses import dataclass, field

import numpy as np
import pytest

import dapmean.cli as cli
from dapmean.bench import ATTACK_KINDS, ExperimentConfig, build_attack
from dapmean.cli import build_parser, main
from dapmean.filters import attacker_count
from dapmean.mechanism import Budget, pm_perturb
from dapmean.protocol import DegenerateFilterError, GroupFilterInput


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPlan:
    def test_prints_groups(self, capsys):
        code, out, _ = run_cli(
            capsys, "plan", "--eps", "1", "--eps0", "0.0625", "--n", "100000"
        )
        assert code == 0
        assert "h=5" in out
        assert "group 0: eps=1" in out
        assert "reports_per_user=16" in out

    def test_group_sizes_sum_to_n(self, capsys):
        code, out, _ = run_cli(capsys, "plan", "--eps", "1", "--eps0", "0.25", "--n", "1001")
        sizes = [int(line.split("users=")[1].split()[0]) for line in out.splitlines()[1:]]
        assert code == 0 and sum(sizes) == 1001

    def test_the_longest_ladder_at_eps_one(self, capsys):
        # eps0 = 2^-51: 52 groups, the last at the smallest budget with a finite C.
        argv = ["plan", "--eps", "1", "--eps0", repr(2.0**-51), "--n", "1000"]
        code, out, _ = run_cli(capsys, *argv)
        lines = out.splitlines()[1:]
        multiplicities = [int(line.split("reports_per_user=")[1].split()[0]) for line in lines]
        assert code == 0 and out.startswith("h=52\n")
        assert multiplicities == [2**t for t in range(52)]


class TestReduce:
    def test_values_flag(self, capsys):
        code, out, _ = run_cli(capsys, "reduce", "--values=-0.8,0.3", "--ref", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["reduced_values"] == [-0.5]
        assert payload["deviation_sum"] == pytest.approx(payload["reduced_deviation_sum"])

    def test_values_file(self, capsys, tmp_path):
        p = tmp_path / "vals.csv"
        p.write_text("-0.8\n0.3\n")
        code, out, _ = run_cli(capsys, "reduce", "--values-file", str(p))
        assert code == 0
        assert json.loads(out)["output_count"] == 1

    def test_values_file_skips_a_header(self, capsys, tmp_path):
        p = tmp_path / "vals.csv"
        p.write_text("value\n-0.8\n0.3\n")
        code, out, _ = run_cli(capsys, "reduce", "--values-file", str(p))
        assert code == 0
        payload = json.loads(out)
        assert (payload["input_count"], payload["reduced_values"]) == (2, [-0.5])

    def test_empty_values_file(self, capsys, tmp_path):
        p = tmp_path / "vals.csv"
        p.write_text("")
        code, out, err = run_cli(capsys, "reduce", "--values-file", str(p))
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError" and "empty file" in payload["message"]

    @pytest.mark.parametrize("extra", [[], ["--values=0.1", "--values-file=vals.csv"]])
    def test_needs_exactly_one_source(self, capsys, extra):
        with pytest.raises(SystemExit) as exc:
            main(["reduce", *extra])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [["--values=1,nan,-2"], ["--values=1,inf,-2"], ["--values=1,-2", "--ref", "nan"]],
        ids=["nan-value", "inf-value", "nan-ref"],
    )
    def test_non_finite_input_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, "reduce", *argv)
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError" and "finite" in payload["message"]

    def test_values_file_skips_non_finite_cells(self, capsys, tmp_path):
        p = tmp_path / "vals.csv"
        p.write_text("-0.8\nnan\n0.3\ninf\n")
        with pytest.warns(UserWarning, match="skipped 2"):
            code, out, _ = run_cli(capsys, "reduce", "--values-file", str(p))
        assert code == 0
        assert json.loads(out)["reduced_values"] == [-0.5]

    def test_values_not_a_number(self, capsys):
        code, out, err = run_cli(capsys, "reduce", "--values=1,x")
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ConfigurationError"
        assert "--values" in payload["message"] and "'1,x'" in payload["message"]


class TestProbe:
    def test_reports_csv(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        budget = Budget(2.0)
        c = budget.c_bound
        honest = pm_perturb(rng.uniform(-1, 1, 15_000), budget, rng)
        poison = rng.uniform(0.75 * c, c, 5_000)
        reports = np.concatenate([honest, poison])
        p = tmp_path / "reports.csv"
        p.write_text("\n".join(repr(float(v)) for v in reports) + "\n")
        code, out, _ = run_cli(capsys, "probe", "--reports", str(p), "--eps", "2.0")
        assert code == 0
        payload = json.loads(out)
        assert payload["side"] == "right"
        assert payload["gamma_hat"] == pytest.approx(0.25, abs=0.15)
        assert payload["n_reports"] == 20_000

    def test_prints_what_the_group_probe_returns(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        budget = Budget(0.5)
        c = budget.c_bound
        honest = pm_perturb(rng.beta(2, 5, 9_000) * 2 - 1, budget, rng)
        reports = np.concatenate([honest, rng.uniform(-c, -0.5 * c, 3_000)])
        p = tmp_path / "reports.csv"
        p.write_text("value\n" + "\n".join(repr(float(v)) for v in reports) + "\n")
        code, out, _ = run_cli(
            capsys, "probe", "--reports", str(p), "--column", "value", "--eps", "0.5"
        )
        assert code == 0
        payload = json.loads(out)
        probe = GroupFilterInput.from_reports(reports, budget).probe
        gamma_hat = probe.winning_pair.poison_mass
        assert payload["side"] == probe.side
        assert payload["gamma_hat"] == gamma_hat
        assert payload["m_hat"] == attacker_count(gamma_hat, reports.size)
        assert payload["var_left"] == probe.var_left
        assert payload["var_right"] == probe.var_right

    def test_prints_its_pinned_bytes(self, capsys, tmp_path):
        # The JSON for a fixed CSV, byte for byte.
        rng = np.random.default_rng(7)
        budget = Budget(1.0)
        c = budget.c_bound
        honest = pm_perturb(rng.beta(2, 5, 6_000) * 2 - 1, budget, rng)
        reports = np.concatenate([honest, rng.uniform(0.75 * c, c, 2_000)])
        p = tmp_path / "reports.csv"
        p.write_text("\n".join(repr(float(v)) for v in reports) + "\n")
        code, out, _ = run_cli(capsys, "probe", "--reports", str(p), "--eps", "1")
        assert code == 0
        assert out == (
            "{\n"
            '  "side": "right",\n'
            '  "gamma_hat": 0.2643813505380699,\n'
            '  "m_hat": 2115.0,\n'
            '  "var_left": 0.012599549003259176,\n'
            '  "var_right": 0.0015415959942964288,\n'
            '  "n_reports": 8000\n'
            "}\n"
        )

    def test_empty_reports_file(self, capsys, tmp_path):
        p = tmp_path / "reports.csv"
        p.write_text("")
        code, out, err = run_cli(capsys, "probe", "--reports", str(p), "--eps", "1")
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError" and "empty file" in payload["message"]

    def test_header_row_with_column_index(self, capsys, tmp_path):
        rng = np.random.default_rng(2)
        lines = [repr(float(v)) for v in pm_perturb(rng.uniform(-1, 1, 2_000), Budget(1.0), rng)]
        bare, headed = tmp_path / "bare.csv", tmp_path / "headed.csv"
        bare.write_text("\n".join(lines) + "\n")
        headed.write_text("value\n" + "\n".join(lines) + "\n")
        outs = [
            run_cli(capsys, "probe", "--reports", str(p), "--column", "0", "--eps", "1.0")
            for p in (bare, headed)
        ]
        assert outs[0][0] == outs[1][0] == 0
        assert outs[0][1] == outs[1][1]


class TestSimulate:
    def test_flags_run_and_write(self, capsys, tmp_path):
        out_path = tmp_path / "res.csv"
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--dataset", "beta:2,5,2000",
            "--eps", "1.0",
            "--trials", "2",
            "--schemes", "ostrich,trimming",
            "--out", str(out_path),
        )
        assert code == 0
        assert out_path.exists()
        assert out_path.with_suffix(".json").exists()
        assert "mse scheme=ostrich" in out

    def test_input_attack_writes_no_range(self, capsys, tmp_path):
        out_path = tmp_path / "res.csv"
        code, _, _ = run_cli(
            capsys,
            "simulate",
            "--dataset", "beta:2,5,2000",
            "--trials", "1",
            "--schemes", "ostrich",
            "--dist", "input",
            "--out", str(out_path),
        )
        assert code == 0
        row = out_path.read_text().splitlines()[1].split(",")
        assert row[3:5] == ["", ""]  # range_lo, range_hi
        summary = json.loads(out_path.with_suffix(".json").read_text())
        assert summary["config"]["attack"] == {"kind": "input"}

    def test_evasive_attack_takes_the_factory_range(self, capsys, tmp_path):
        out_path = tmp_path / "res.csv"
        code, _, _ = run_cli(
            capsys,
            "simulate",
            "--dataset", "beta:2,5,2000",
            "--trials", "1",
            "--schemes", "ostrich",
            "--dist", "evasive",
            "--out", str(out_path),
        )
        assert code == 0
        row = out_path.read_text().splitlines()[1].split(",")
        assert row[3:5] == ["C/2", "C"]  # range_lo, range_hi
        summary = json.loads(out_path.with_suffix(".json").read_text())
        assert summary["config"]["attack"] == {"kind": "evasive"}

    def test_input_attack_with_a_range_fails(self, capsys):
        code, out, err = run_cli(
            capsys,
            "simulate",
            "--dataset", "beta:2,5,2000",
            "--trials", "1",
            "--schemes", "ostrich",
            "--dist", "input",
            "--range", "0:1",
        )
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ConfigurationError"
        # Of the two keys 'input' does not take, the message names the first in sort order.
        assert "attack kind 'input' does not take the key 'hi'" in payload["message"]
        assert "mse" not in out

    def test_dist_offers_every_attack_kind(self):
        [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        [dist] = [a for a in sub.choices["simulate"]._actions if a.dest == "dist"]
        assert list(dist.choices) == list(ATTACK_KINDS)
        for kind in dist.choices:
            out = build_attack({"kind": kind})(10, Budget(1.0), np.random.default_rng(0))
            assert out.shape == (10,)

    def test_flag_defaults_come_from_the_config(self, capsys, monkeypatch):
        # A config class with other defaults: the flag path must take them
        # all, with gamma = 0 turning the attack off.
        @dataclass
        class Shifted(ExperimentConfig):
            eps0: float = 0.125
            gamma: float = 0.0
            schemes: list = field(default_factory=lambda: ["ostrich"])
            trials: int = 3
            seed: int = 7
            workers: int = 2

        built = []

        def capture(cfg):
            built.append(cfg)
            raise RuntimeError("captured")

        monkeypatch.setattr(cli, "run_experiment", capture)
        dataset = {"type": "beta", "a": 2.0, "b": 5.0, "n": 100_000}
        assert run_cli(capsys, "simulate")[0] == 1
        monkeypatch.setattr(cli, "ExperimentConfig", Shifted)
        assert run_cli(capsys, "simulate")[0] == 1
        assert built == [
            ExperimentConfig(dataset=dataset, eps_list=[1.0]),
            Shifted(dataset=dataset, eps_list=[1.0], attack={"kind": "none"}),
        ]

    def test_config_file(self, capsys, tmp_path):
        cfg = {
            "dataset": {"type": "beta", "a": 2, "b": 5, "n": 2000},
            "eps_list": [1.0],
            "schemes": ["ostrich"],
            "trials": 2,
            "seed": 3,
        }
        p = tmp_path / "config.json"
        p.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, "simulate", "--config", str(p))
        assert code == 0
        assert "mse scheme=ostrich" in out

    def test_config_file_with_out(self, capsys, tmp_path):
        cfg = {
            "dataset": {"type": "beta", "a": 2, "b": 5, "n": 2000},
            "eps_list": [1.0],
            "schemes": ["ostrich"],
            "trials": 1,
        }
        p = tmp_path / "config.json"
        p.write_text(json.dumps(cfg))
        out_path = tmp_path / "p.csv"
        code, out, _ = run_cli(capsys, "simulate", "--config", str(p), "--out", str(out_path))
        assert code == 0
        assert f"wrote {out_path}" in out
        assert out_path.exists()
        summary = json.loads(out_path.with_suffix(".json").read_text())
        assert summary["config"]["out"] == str(out_path)


class TestErrors:
    def test_runtime_error_is_machine_readable(self, capsys):
        code, _, err = run_cli(capsys, "plan", "--eps", "0.5", "--eps0", "1", "--n", "10")
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ConfigurationError"

    @pytest.mark.parametrize(
        "eps,eps0",
        [("nan", "0.5"), ("1", "nan"), ("inf", "1"), ("1e308", "1e-10"), ("1", "1e-300")],
    )
    def test_non_finite_plan_budget_exits_nonzero(self, capsys, eps, eps0):
        code, out, err = run_cli(capsys, "plan", "--eps", eps, "--eps0", eps0, "--n", "10")
        assert code == 1
        assert json.loads(err)["error"] == "ConfigurationError"
        assert out == ""

    @pytest.mark.parametrize("eps,eps0", [("1", "1e-25"), ("100", "1")])
    def test_plan_with_a_budget_without_a_finite_c_above_1_exits_1(self, capsys, eps, eps0):
        # 1e-25: the last of 85 groups has eps 5.2e-26, and an int64
        # multiplicity would wrap at group 63; 100: the first group's C is 1.
        code, out, err = run_cli(capsys, "plan", "--eps", eps, "--eps0", eps0, "--n", "1000")
        assert code == 1
        assert json.loads(err)["error"] == "ConfigurationError"
        assert out == ""

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--gamma", "not-a-number"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flag",
        ["--eps=-1", "--eps=0", "--eps0=0", "--workers=0", "--schemes=ostrich,ostrich", "--eps=1,1"],
    )
    def test_invalid_config_exits_nonzero(self, capsys, flag):
        code, out, err = run_cli(
            capsys,
            "simulate",
            "--dataset", "beta:2,5,2000",
            "--trials", "1",
            "--schemes", "dap_emf_star,baseline",
            flag,
        )
        assert code == 1
        assert json.loads(err)["error"] == "ConfigurationError"
        assert "mse" not in out

    def test_cell_with_every_trial_failed_exits_nonzero(self, capsys, monkeypatch):
        import dapmean.bench as bench

        def boom(*args, **kwargs):
            raise DegenerateFilterError("synthetic failure")

        monkeypatch.setattr(bench, "run_dap", boom)
        code, out, err = run_cli(
            capsys,
            "simulate",
            "--dataset", "beta:2,5,2000",
            "--trials", "2",
            "--schemes", "ostrich,dap_emf_star",
        )
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "FailedCellError"
        assert "scheme=dap_emf_star eps=1" in payload["message"]
        assert "ostrich" not in payload["message"]
        assert "mse scheme=ostrich" in out

    @pytest.mark.parametrize("value", ["0.5", "0.5*C:C:2"])
    def test_range_needs_lo_and_hi(self, capsys, value):
        code, out, err = run_cli(
            capsys, "simulate", "--dataset", "beta:2,5,2000", "--trials", "1", "--range", value
        )
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ConfigurationError"
        assert "--range" in payload["message"] and "lo:hi" in payload["message"]
        assert "mse" not in out

    def test_eps_not_a_number(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--dataset", "beta:2,5,2000", "--trials", "1", "--eps", "abc"
        )
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ConfigurationError"
        assert "--eps" in payload["message"] and "'abc'" in payload["message"]
        assert "mse" not in out

    def test_misspelled_config_key(self, capsys, tmp_path):
        p = tmp_path / "config.json"
        p.write_text(json.dumps({"dataset": {"type": "beta"}, "eps_list": [1.0], "trails": 5}))
        code, out, err = run_cli(capsys, "simulate", "--config", str(p))
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ConfigurationError"
        assert "'trails'" in payload["message"]
        assert "mse" not in out

    def test_unhashable_attack_kind_in_config(self, capsys, tmp_path):
        p = tmp_path / "config.json"
        cfg = {"dataset": {"type": "beta", "a": 2, "b": 5, "n": 2000}, "eps_list": [1.0]}
        p.write_text(json.dumps(cfg | {"attack": {"kind": ["uniform"]}, "trials": 1}))
        code, out, err = run_cli(capsys, "simulate", "--config", str(p))
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ConfigurationError"
        assert "attack kind" in payload["message"]
        assert "mse" not in out

    def test_attack_parameter_its_distribution_never_reads(self, capsys, tmp_path):
        p = tmp_path / "config.json"
        cfg = {"dataset": {"type": "beta", "a": 2, "b": 5, "n": 2000}, "eps_list": [1.0]}
        p.write_text(json.dumps(cfg | {"attack": {"kind": "uniform", "mu": 3}, "trials": 1}))
        code, out, err = run_cli(capsys, "simulate", "--config", str(p))
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ConfigurationError"
        assert "'uniform'" in payload["message"] and "'mu'" in payload["message"]
        assert "mse" not in out

    def test_incomplete_beta_dataset(self, capsys, tmp_path):
        p = tmp_path / "config.json"
        p.write_text(json.dumps({"dataset": {"type": "beta", "a": 2, "b": 5}, "eps_list": [1.0]}))
        code, out, err = run_cli(capsys, "simulate", "--config", str(p))
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ConfigurationError"
        assert "'n'" in payload["message"]
        assert "mse" not in out

    def test_unknown_dataset_spec(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--dataset", "movies:1", "--trials", "1"
        )
        assert code == 1
        assert "dataset" in json.loads(err)["message"]

    @pytest.mark.parametrize(
        "text",
        [
            "beta:1,2",
            "beta:1,2,3,4",
            "beta:a,b,100",
            "beta:2,5,1e5",
            "csv:d.csv:x:0",
            "csv:d.csv:x:0:1:2",
            "csv:d.csv:x:lo:hi",
            "movies:1",
        ],
    )
    def test_malformed_dataset_flag(self, capsys, text):
        code, out, err = run_cli(capsys, "simulate", "--dataset", text, "--trials", "1")
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ConfigurationError"
        assert "--dataset" in payload["message"]
        assert "mse" not in out

    def test_csv_dataset_missing_column(self, capsys, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("x\n5\n10\n20\n")
        code, out, err = run_cli(
            capsys, "simulate", "--dataset", f"csv:{p}:y", "--trials", "1"
        )
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ConfigurationError"
        assert "'column'" in payload["message"]
        assert "mse" not in out

    @pytest.mark.parametrize(
        "extra, named",
        [
            (["--eps", "2,3", "--trials", "5"], "--eps, --trials"),
            (["--gamma", "0.25"], "--gamma"),  # the default value, given
            (["--dist", "uniform", "--out", "res.csv"], "--dist"),
        ],
    )
    def test_config_with_other_flags(self, capsys, tmp_path, extra, named):
        cfg = {"dataset": {"type": "beta", "a": 2, "b": 5, "n": 2000}, "eps_list": [1.0]}
        p = tmp_path / "config.json"
        p.write_text(json.dumps(cfg | {"schemes": ["ostrich"], "trials": 1}))
        code, out, err = run_cli(capsys, "simulate", "--config", str(p), *extra)
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ConfigurationError"
        assert payload["message"].endswith(named)
        assert "mse" not in out
