import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from dapmean.bench import (
    SCHEMES,
    ExperimentConfig,
    ExperimentResult,
    TrialRecord,
    build_attack,
    build_dataset,
    gen_beta,
    load_csv,
    run_experiment,
)
from dapmean.mechanism import Budget
from dapmean.protocol import (
    ConfigurationError,
    DegenerateFilterError,
    group_mean_statistics,
    run_dap,
)


class TestDatasets:
    def test_gen_beta_normalized(self):
        ds = gen_beta(2, 5, 10_000, 0)
        assert ds.values.size == 10_000
        assert ds.values.min() == pytest.approx(-1.0)
        assert ds.values.max() == pytest.approx(1.0)
        assert -1.0 < ds.true_mean < 0.0  # Beta(2,5) skews low

    def test_gen_beta_deterministic(self):
        a = gen_beta(5, 2, 1000, 42)
        b = gen_beta(5, 2, 1000, 42)
        np.testing.assert_array_equal(a.values, b.values)

    def test_load_csv_by_index(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("id,score\n1,10\n2,20\n3,30\n")
        ds = load_csv(p, column=1)
        np.testing.assert_allclose(ds.values, [-1.0, 0.0, 1.0])

    def test_load_csv_by_name(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("id,score\n1,10\n2,20\n3,30\n")
        ds = load_csv(p, column="score")
        np.testing.assert_allclose(ds.values, [-1.0, 0.0, 1.0])

    def test_load_csv_skips_bad_rows_with_warning(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("score\n10\nnot-a-number\n30\n")
        with pytest.warns(UserWarning, match="skipped"):
            ds = load_csv(p, column=0)
        assert ds.values.size == 2

    @pytest.mark.parametrize("column", [0, "x"])
    def test_load_csv_skips_non_finite_cells(self, tmp_path, column):
        p = tmp_path / "data.csv"
        p.write_text("x\n10\nnan\n20\ninf\n30\n-inf\nNaN\n")
        with pytest.warns(UserWarning, match="skipped 4 unparsable rows"):
            ds = load_csv(p, column=column)
        np.testing.assert_allclose(ds.values, [-1.0, 0.0, 1.0])

    @pytest.mark.parametrize("text, clip", [("x\n10\n", None), ("x\n5\n10\n20\n", (6, 15))])
    def test_load_csv_needs_two_usable_rows(self, tmp_path, text, clip):
        p = tmp_path / "data.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match="fewer than 2 usable rows"):
            load_csv(p, column=0, clip=clip)

    def test_load_csv_clip(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("x\n5\n10\n20\n100\n")
        ds = load_csv(p, column=0, clip=(10, 20))
        assert ds.values.size == 2

    def test_build_dataset_kinds(self, tmp_path):
        ds = build_dataset({"type": "beta", "a": 2, "b": 5, "n": 100}, seed=0)
        assert ds.values.size == 100
        with pytest.raises(ConfigurationError):
            build_dataset({"type": "parquet"}, seed=0)

    def test_build_dataset_csv(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("x\n5\n10\n20\n100\n")
        ds = build_dataset({"type": "csv", "path": str(p), "column": "x", "clip": [10, 20]}, seed=0)
        assert ds.values.size == 2

    @pytest.mark.parametrize(
        "spec, key",
        [
            ({"type": "beta", "N": 10}, "N"),
            ({"type": "csv", "path": "data.csv", "columns": 0}, "columns"),
        ],
        ids=["beta", "csv"],
    )
    def test_build_dataset_rejects_unknown_key(self, spec, key):
        with pytest.raises(ConfigurationError, match=f"{spec['type']!r}.*{key!r}"):
            build_dataset(spec, seed=0)

    @pytest.mark.parametrize(
        "over, key",
        [
            ({"a": "x"}, "a"),
            ({"a": 0}, "a"),
            ({"b": -1.0}, "b"),
            ({"b": float("inf")}, "b"),
            ({"a": True}, "a"),
            ({"n": "10"}, "n"),
            ({"n": 10.0}, "n"),
            ({"n": True}, "n"),
            ({"n": 1}, "n"),
        ],
    )
    def test_beta_values_checked(self, over, key):
        spec = {"type": "beta", "a": 2, "b": 5, "n": 100} | over
        with pytest.raises(ConfigurationError, match=f"'beta' key {key!r}"):
            build_dataset(spec, seed=0)

    @pytest.mark.parametrize("key", ["a", "b", "n"])
    def test_beta_values_required(self, key):
        spec = {"type": "beta", "a": 2, "b": 5, "n": 100}
        del spec[key]
        with pytest.raises(ConfigurationError, match=f"'beta' needs the key {key!r}"):
            build_dataset(spec, seed=0)

    @pytest.mark.parametrize(
        "over, key",
        [
            ({"path": 5}, "path"),
            ({"column": True}, "column"),
            ({"column": 1.5}, "column"),
            ({"column": None}, "column"),
            ({"clip": [1]}, "clip"),
            ({"clip": "x"}, "clip"),
            ({"clip": [1, 2, 3]}, "clip"),
            ({"clip": [1, "x"]}, "clip"),
            ({"clip": [True, 2]}, "clip"),
            ({"clip": [0, float("inf")]}, "clip"),
            ({"clip": [20, 10]}, "clip"),
            ({"clip": [10, 10]}, "clip"),
            ({"column": "y"}, "column"),
        ],
    )
    def test_csv_values_checked(self, tmp_path, over, key):
        p = tmp_path / "data.csv"
        p.write_text("x\n5\n10\n20\n100\n")
        spec = {"type": "csv", "path": str(p), "column": "x", "clip": None} | over
        with pytest.raises(ConfigurationError, match=f"'csv' key {key!r}"):
            build_dataset(spec, seed=0)

    def test_csv_column_index_past_every_row(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("5\n10\n20\n")
        spec = {"type": "csv", "path": str(p), "column": 5}
        with pytest.raises(ConfigurationError, match="'csv' key 'column'"):
            build_dataset(spec, seed=0)

    def test_csv_dataset_needs_a_path(self):
        with pytest.raises(ConfigurationError, match="'csv'.*'path'"):
            build_dataset({"type": "csv", "column": 0}, seed=0)


def test_cell_mse():
    cfg = ExperimentConfig(
        dataset={"type": "beta"}, eps_list=[1.0], schemes=["ostrich", "trimming"]
    )
    nan = float("nan")
    records = [
        TrialRecord(scheme, 1.0, trial, estimate=est, truth=0.5, diagnostics={})
        for trial, (scheme, est) in enumerate(
            [("ostrich", 1.5), ("ostrich", nan), ("ostrich", 2.5), ("trimming", nan)]
        )
    ]
    res = ExperimentResult(config=cfg, records=records)
    assert [r.sq_error for r in records[::2]] == [1.0, 4.0]
    assert res.cell_mse("ostrich", 1.0) == pytest.approx(2.5)
    assert math.isnan(res.cell_mse("trimming", 1.0))
    assert res.failed_cells() == [("trimming", 1.0)]


class TestConfig:
    def base(self, **over):
        d = {
            "dataset": {"type": "beta", "a": 2, "b": 5, "n": 2000},
            "eps_list": [1.0],
            "trials": 2,
        }
        d.update(over)
        return d

    def test_round_trips_through_json(self, tmp_path):
        p = tmp_path / "config.json"
        p.write_text(json.dumps(self.base(seed=7)))
        cfg = ExperimentConfig.from_file(p)
        assert cfg.seed == 7
        assert cfg.eps0 == pytest.approx(1.0 / 16.0)

    @pytest.mark.parametrize(
        "over",
        [
            {"trials": 0},
            {"schemes": []},
            {"schemes": ["dap_emf_star", "mystery"]},
            {"gamma": 0.7},
            {"eps_list": []},
            {"eps_list": [1.0, -1.0]},
            {"eps_list": [0.0]},
            {"eps_list": [float("nan")]},
            {"eps_list": [float("inf")]},
            {"eps0": 0.0},
            {"eps0": -0.0625},
            {"eps0": float("nan")},
            {"workers": 0},
            {"workers": -2},
            {"schemes": ["dap_emf_star", "dap_emf_star", "ostrich"]},
            {"eps_list": [1.0, 1.0]},
            {"schemes": ["dap_emf_star", "dap_emf_star", "ostrich"], "eps_list": [1.0, 1.0]},
        ],
    )
    def test_validation(self, over):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict(self.base(**over))

    @pytest.mark.parametrize(
        "over",
        [
            {"trials": 1.5},
            {"trials": True},
            {"seed": 1.5},
            {"seed": -1},
            {"seed": True},
            {"gamma": "0.1"},
            {"gamma": False},
            {"eps_list": [True]},
            {"eps_list": ["1.0"]},
            {"eps0": True},
            {"eps0": "0.0625"},
            {"workers": 1.5},
            {"workers": True},
            {"eps_list": 1.0},
            {"eps_list": (1.0,)},
            {"schemes": "ostrich"},
            {"attack": "uniform"},
            {"dataset": [1, 2]},
            {"schemes": [["ostrich"]]},
            {"schemes": ["ostrich", 1, "x"]},
            {"out": 5},
            {"out": Path("r.csv")},
        ],
    )
    def test_wrong_types_rejected(self, over):
        [key] = over
        with pytest.raises(ConfigurationError, match=f"^{key}"):
            ExperimentConfig.from_dict(self.base(**over))

    def test_integer_numbers_accepted(self):
        cfg = ExperimentConfig.from_dict(self.base(eps_list=[1, 2], eps0=1, gamma=0, seed=3))
        assert (cfg.eps_list, cfg.eps0, cfg.gamma, cfg.seed) == ([1, 2], 1, 0, 3)

    def test_all_schemes_known(self):
        cfg = ExperimentConfig.from_dict(self.base(schemes=list(SCHEMES)))
        assert set(cfg.schemes) == set(SCHEMES)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="'trails'"):
            ExperimentConfig.from_dict(self.base(trails=5))

    @pytest.mark.parametrize(
        "dataset",
        [
            {"type": "beta"},
            {"type": "beta", "a": "x", "b": 5, "n": 100},
            {"type": "beta", "a": 2, "b": 5, "n": "10"},
        ],
    )
    def test_run_rejects_a_bad_beta_spec(self, dataset):
        cfg = ExperimentConfig.from_dict(self.base(dataset=dataset))
        with pytest.raises(ConfigurationError, match="'beta'"):
            run_experiment(cfg)

    @pytest.mark.parametrize("gamma", [0.0, 0.25])
    def test_run_rejects_a_bad_attack_side_before_any_trial(self, gamma, monkeypatch):
        import dapmean.bench as bench

        def trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(bench, "_run_trial", trial)
        attack = {"kind": "uniform", "lo": "0.75*C", "hi": "C", "side": "Right"}
        cfg = ExperimentConfig.from_dict(self.base(gamma=gamma, attack=attack))
        with pytest.raises(ConfigurationError, match="side"):
            run_experiment(cfg)

    @pytest.mark.parametrize("schemes", [["ostrich", "dap_emf_star"], ["dap_emf_star"]])
    @pytest.mark.parametrize(
        "attack, kind",
        [
            ({"kind": "uniform", "lo": "D"}, "uniform"),
            ({"kind": "evasive", "a": "x"}, "evasive"),
            ({"kind": "uniform", "lo": "C/0"}, "uniform"),
            ({"kind": "uniform", "lo": 2, "hi": 1}, "uniform"),
            ({"kind": "uniform", "lo": "2*C", "hi": "3*C"}, "uniform"),
            ({"kind": "gaussian", "mu": 50, "sigma": 0}, "gaussian"),
            ({"kind": "gaussian", "mu": 50, "sigma": 1}, "gaussian"),
            ({"kind": "point", "value": 0}, "point"),  # outside [0.75C, C]
        ],
    )
    def test_run_rejects_bad_attack_values_before_any_trial(
        self, schemes, attack, kind, monkeypatch
    ):
        import dapmean.bench as bench

        def trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(bench, "_run_trial", trial)
        cfg = ExperimentConfig.from_dict(self.base(schemes=schemes, attack=attack))
        with pytest.raises(ConfigurationError, match=f"attack kind {kind!r}"):
            run_experiment(cfg)

    @pytest.mark.parametrize("schemes", [["ostrich"], ["trimming"], ["baseline"], ["dap_emf_star"]])
    def test_run_checks_attack_at_every_budget_before_any_trial(self, schemes, monkeypatch):
        # [3, 4] lies inside [-C, C] at eps=1 (C = 4.08) but not at eps=4 (C = 1.31).
        import dapmean.bench as bench

        def trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(bench, "_run_trial", trial)
        attack = {"kind": "uniform", "lo": 3, "hi": 4}
        cfg = ExperimentConfig.from_dict(self.base(schemes=schemes, attack=attack, eps_list=[1, 4]))
        with pytest.raises(ConfigurationError, match="attack kind 'uniform' at eps=.*entry 4"):
            run_experiment(cfg)

    def test_run_checks_attack_down_the_dap_ladder(self, monkeypatch):
        # hi = 8 - C is above lo = 0.5 at eps=1 (C = 4.08) but below it at eps=0.5 (C = 8.04).
        import dapmean.bench as bench

        def trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(bench, "_run_trial", trial)
        attack = {"kind": "uniform", "lo": 0.5, "hi": "8 - C"}
        cfg = ExperimentConfig.from_dict(self.base(schemes=["dap_emf_star"], attack=attack))
        with pytest.raises(ConfigurationError, match="at eps=0.5 .*must not exceed"):
            run_experiment(cfg)

    def test_run_with_attack_valid_at_every_budget(self):
        attack = {"kind": "uniform", "lo": 3, "hi": 4}
        cfg = ExperimentConfig.from_dict(self.base(attack=attack, eps_list=[1]))
        result = run_experiment(cfg)
        assert result.failed_cells() == []

    @pytest.mark.parametrize("attack", [{"kind": "none"}, {"kind": "uniform"}])
    @pytest.mark.parametrize("eps", [2000, 80, 1e-17])
    def test_run_rejects_a_budget_whose_c_is_not_above_one(self, eps, attack, monkeypatch):
        # e^(eps/2) overflows at 2000, C rounds to 1 at 80 and divides by zero at 1e-17.
        import dapmean.bench as bench

        def trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(bench, "_run_trial", trial)
        schemes = ["ostrich", "dap_emf_star"]
        cfg = ExperimentConfig.from_dict(self.base(eps_list=[eps], attack=attack, schemes=schemes))
        with pytest.raises(ConfigurationError, match=f"eps_list entry {eps:g}.*epsilon"):
            run_experiment(cfg)

    @pytest.mark.parametrize("schemes", [["baseline"], ["dap_emf_star"]])
    def test_run_rejects_a_derived_budget_whose_c_is_not_above_one(self, schemes):
        # eps/16 for baseline and eps0 for DAP divide C by zero, eps itself does not.
        d = self.base(eps_list=[1e-15], eps0=1e-17, schemes=schemes, attack={"kind": "none"})
        with pytest.raises(ConfigurationError, match=r"budget at eps=\S+ \(eps_list entry 1e-15\)"):
            run_experiment(ExperimentConfig.from_dict(d))

    def test_run_at_the_largest_budget_with_c_above_one(self):
        # C - 1 is about 2e-16 at eps=73: the run goes ahead.
        d = self.base(eps_list=[73], schemes=["ostrich", "dap_emf_star"], trials=1)
        for attack in ({"kind": "none"}, {"kind": "uniform"}):
            result = run_experiment(ExperimentConfig.from_dict(d | {"attack": attack}))
            assert len(result.records) == 2

    def test_infinite_eps0_rejected(self):
        with pytest.raises(ConfigurationError, match="^eps0 must be a finite number > 0, got inf"):
            ExperimentConfig.from_dict(self.base(eps0=float("inf")))

    def test_run_skips_non_finite_csv_cells(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("x\n1\n2\nnan\n4\n5\n6\ninf\n")
        dataset = {"type": "csv", "path": str(p), "column": "x"}
        cfg = ExperimentConfig.from_dict(self.base(dataset=dataset, schemes=["ostrich"], trials=1))
        with pytest.warns(UserWarning, match="skipped 2"):
            [record] = run_experiment(cfg).records
        assert math.isfinite(record.estimate) and math.isfinite(record.truth)

    @pytest.mark.parametrize("key", ["dataset", "eps_list"])
    def test_missing_key_rejected(self, key):
        d = self.base()
        del d[key]
        with pytest.raises(ConfigurationError, match=f"missing the key {key!r}"):
            ExperimentConfig.from_dict(d)


class TestBuildAttack:
    def test_none(self):
        assert build_attack({"kind": "none"}) is None

    def test_uniform_scales_with_budget(self):
        strat = build_attack({"kind": "uniform", "lo": "0.5*C", "hi": "C"})
        b = Budget(1.0)
        out = strat(100, b, np.random.default_rng(0))
        assert np.all((out >= 0.5 * b.c_bound) & (out <= b.c_bound))

    def test_point(self):
        strat = build_attack({"kind": "point", "lo": 1.0, "hi": 2.0, "value": 1.5})
        out = strat(10, Budget(1.0), np.random.default_rng(0))
        np.testing.assert_array_equal(out, np.full(10, 1.5))

    def test_input_kind(self):
        strat = build_attack({"kind": "input", "g": 1.0})
        b = Budget(1.0)
        out = strat(100, b, np.random.default_rng(0))
        assert np.all(np.abs(out) <= b.c_bound)

    def test_evasive_kind(self):
        strat = build_attack({"kind": "evasive", "a": 0.5})
        b = Budget(1.0)
        out = strat(100, b, np.random.default_rng(0))
        assert np.sum(out == -b.c_bound / 2) == 50

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            build_attack({"kind": "ddos"})

    def test_unhashable_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="attack kind"):
            build_attack({"kind": ["uniform"]})

    @pytest.mark.parametrize(
        "spec, key",
        [
            ({"kind": "none", "lo": "0.5*C"}, "lo"),
            ({"kind": "uniform", "low": "0.5*C"}, "low"),
            ({"kind": "gaussian", "lo": "0.5*C", "mean": 3.0}, "mean"),
            ({"kind": "point", "dist": "uniform"}, "dist"),
            ({"kind": "input", "lo": "0.5*C"}, "lo"),
            ({"kind": "evasive", "side": "left"}, "side"),
            ({"kind": "uniform", 1: 2, "x": 3}, 1),
            ({"kind": "uniform", "mu": 3, "sigma": 0.01}, "mu"),
            ({"kind": "point", "sigma": 0.1}, "sigma"),
            ({"kind": "gaussian", "value": 1.0}, "value"),
        ],
        ids=[
            "none", "uniform", "gaussian", "point", "input", "evasive", "mixed-key-types",
            "uniform-reads-no-mu", "point-reads-no-sigma", "gaussian-reads-no-value",
        ],
    )
    def test_unknown_key_rejected(self, spec, key):
        with pytest.raises(ConfigurationError, match=f"{spec['kind']!r}.*{key!r}"):
            build_attack(spec)

    def test_factory_looked_up_at_call_time(self, monkeypatch):
        # A wrapped factory (as a tracer installs) must be the one called,
        # with only the keys the spec gives plus the default reference.
        import dapmean.attacks as attacks

        calls = []
        real = attacks.evasive_strategy

        @functools.wraps(real)
        def spy(**kwargs):
            calls.append(kwargs)
            return real(**kwargs)

        monkeypatch.setattr(attacks, "evasive_strategy", spy)
        build_attack({"kind": "evasive", "a": 0.5}, default_reference=-0.1)
        assert calls == [{"a": 0.5, "reference_mean": -0.1}]

    @pytest.mark.parametrize("kind", ["uniform", "gaussian", "point"])
    @pytest.mark.parametrize("side", ["Right", "up", ""])
    def test_bad_side_rejected(self, kind, side):
        with pytest.raises(ConfigurationError, match=f"{kind!r}.*side"):
            build_attack({"kind": kind, "side": side})

    def test_reference_mean_default_applies(self):
        # A range written relative to O must resolve against the supplied
        # reference, not 0, or a left-of-zero reference would be rejected.
        strat = build_attack({"kind": "uniform", "lo": "O", "hi": "C"}, default_reference=-0.4)
        out = strat(50, Budget(1.0), np.random.default_rng(0))
        assert np.all(out >= -0.4)


SMALL = {
    "dataset": {"type": "beta", "a": 2, "b": 5, "n": 2000},
    "eps_list": [1.0],
    "gamma": 0.25,
    "schemes": ["ostrich", "trimming", "dap_emf_star"],
    "trials": 3,
    "seed": 11,
}


class TestRunExperiment:
    def test_produces_all_cells(self):
        res = run_experiment(ExperimentConfig.from_dict(SMALL))
        assert len(res.records) == 3 * 3
        for r in res.records:
            assert np.isfinite(r.estimate)
        assert res.cell_mse("ostrich", 1.0) > 0

    def test_sequential_matches_parallel(self):
        seq = run_experiment(ExperimentConfig.from_dict(SMALL | {"workers": 1}))
        par = run_experiment(ExperimentConfig.from_dict(SMALL | {"workers": 4}))
        for a, b in zip(seq.records, par.records):
            assert a == b

    def test_outputs_written(self, tmp_path):
        out = tmp_path / "results.csv"
        res = run_experiment(ExperimentConfig.from_dict(SMALL | {"out": str(out)}))
        assert out.exists()
        summary = json.loads(out.with_suffix(".json").read_text())
        assert {c["scheme"] for c in summary["cells"]} == set(SMALL["schemes"])
        header, *rows = out.read_text().strip().split("\n")
        assert header == "scheme,epsilon,gamma,range_lo,range_hi,trial,estimate,sq_error"
        assert len(rows) == len(res.records)

    @pytest.mark.parametrize(
        "kind, ends", [("uniform", ["0.75*C", "C"]), ("evasive", ["C/2", "C"])]
    )
    def test_csv_names_the_factory_default_range(self, tmp_path, kind, ends):
        out = tmp_path / "results.csv"
        cfg = SMALL | {"attack": {"kind": kind}, "schemes": ["ostrich"], "trials": 1}
        run_experiment(ExperimentConfig.from_dict(cfg | {"out": str(out)}))
        rows = [row.split(",") for row in out.read_text().strip().split("\n")[1:]]
        assert [row[3:5] for row in rows] == [ends]

    def test_float_fields_reload_exactly(self, tmp_path):
        out = tmp_path / "results.csv"
        res = run_experiment(ExperimentConfig.from_dict(SMALL | {"out": str(out)}))
        rows = out.read_text().strip().split("\n")[1:]
        reloaded = [float(r.split(",")[6]) for r in rows]
        for got, rec in zip(reloaded, res.records):
            assert got == rec.estimate

    def test_failed_scheme_recorded_not_raised(self, tmp_path, monkeypatch):
        import dapmean.bench as bench

        def boom(*args, **kwargs):
            raise DegenerateFilterError("synthetic failure")

        monkeypatch.setattr(bench, "run_dap", boom)
        res = run_experiment(ExperimentConfig.from_dict(SMALL))
        dap = [r for r in res.records if r.scheme == "dap_emf_star"]
        assert all(math.isnan(r.sq_error) for r in dap)
        assert all("synthetic failure" in r.diagnostics["error"] for r in dap)
        ostrich_recs = [r for r in res.records if r.scheme == "ostrich"]
        assert all(np.isfinite(r.estimate) for r in ostrich_recs)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_programming_error_propagates(self, monkeypatch, workers):
        import dapmean.bench as bench

        def bug(*args, **kwargs):
            raise TypeError("synthetic bug")

        monkeypatch.setattr(bench, "run_dap", bug)
        with pytest.raises(TypeError, match="synthetic bug"):
            run_experiment(ExperimentConfig.from_dict(SMALL | {"workers": workers}))


# Every scheme on a small run, two epsilons and two trials.
SIX = {
    "dataset": {"type": "beta", "a": 2, "b": 5, "n": 3000},
    "eps_list": [1.0, 0.5],
    "gamma": 0.25,
    "schemes": list(SCHEMES),
    "trials": 2,
    "seed": 21,
}
DAP_SCHEMES = ("dap_emf", "dap_emf_star", "dap_cemf_star")


def estimates(config: dict) -> dict:
    """{(scheme, epsilon, trial): estimate} of one run_experiment call."""
    res = run_experiment(ExperimentConfig.from_dict(config))
    return {(r.scheme, r.epsilon, r.trial): r.estimate for r in res.records}


@functools.cache
def solo_dap_estimates() -> dict:
    """Each DAP variant's run_dap estimate per SIX cell, run alone on a fresh
    generator from the cell's DAP stream (child 4 of the cell's seed)."""
    cfg = ExperimentConfig.from_dict(SIX)
    ds = build_dataset(cfg.dataset, np.random.SeedSequence(cfg.seed, spawn_key=(0,)))
    attack = build_attack(cfg.attack, default_reference=ds.true_mean)
    n = ds.values.size
    out = {}
    for ei, eps in enumerate(cfg.eps_list):
        for t in range(cfg.trials):
            children = np.random.SeedSequence(cfg.seed, spawn_key=(1 + ei, t)).spawn(5)
            mask = np.zeros(n, dtype=bool)
            identity = np.random.default_rng(children[0])
            mask[identity.choice(n, size=int(cfg.gamma * n), replace=False)] = True
            for scheme in DAP_SCHEMES:
                res = run_dap(
                    ds.values, mask, eps, min(cfg.eps0, eps), attack,
                    np.random.default_rng(children[4]), scheme.removeprefix("dap_"),
                )
                out[(scheme, eps, t)] = res.mean
    return out


class TestSharedDapRun:
    """The DAP schemes of a trial share one collection and probe, and each
    record equals a solo run_dap of its variant on the trial's DAP stream."""

    # ostrich, trimming, baseline and dap_emf_star estimates of SIX, recorded
    # when each DAP scheme drew from its own stream: sharing the DAP run
    # leaves them bit-identical.
    PINNED = {
        ("ostrich", 1.0, 0): "0x1.505dc097b186cp-1",
        ("trimming", 1.0, 0): "-0x1.84e1cdd840f20p+0",
        ("baseline", 1.0, 0): "0x1.6b025d789d857p-1",
        ("dap_emf_star", 1.0, 0): "0x1.09def91a31665p+0",
        ("ostrich", 1.0, 1): "0x1.5ac9f1b6aa038p-1",
        ("trimming", 1.0, 1): "-0x1.81ad3773378a8p+0",
        ("baseline", 1.0, 1): "0x1.6335841a15f70p-1",
        ("dap_emf_star", 1.0, 1): "0x1.0efdef5cab301p+0",
        ("ostrich", 0.5, 0): "0x1.79aa9f80d2bd6p+0",
        ("trimming", 0.5, 0): "-0x1.76f0f4fc6300ap+1",
        ("baseline", 0.5, 0): "0x1.8b34ab41287f4p+0",
        ("dap_emf_star", 0.5, 0): "0x1.178182551dd92p+1",
        ("ostrich", 0.5, 1): "0x1.7daf548c90ea4p+0",
        ("trimming", 0.5, 1): "-0x1.6e5a6cbcec0bep+1",
        ("baseline", 0.5, 1): "0x1.ddf4147e18abep+0",
        ("dap_emf_star", 0.5, 1): "0x1.1fff161659135p+1",
    }

    def test_undefended_baseline_and_emf_star_keep_their_bits(self):
        got = estimates(SIX)
        assert {cell: got[cell].hex() for cell in self.PINNED} == self.PINNED

    def test_every_dap_record_equals_a_solo_run(self):
        got = estimates(SIX)
        solo = solo_dap_estimates()
        assert {cell: got[cell] for cell in solo} == solo

    @pytest.mark.parametrize(
        "schemes",
        [
            ["dap_emf"],
            ["dap_emf_star"],
            ["dap_cemf_star"],
            ["dap_cemf_star", "dap_emf"],
            ["dap_emf", "dap_emf_star", "dap_cemf_star"],
            ["dap_emf_star", "dap_cemf_star", "dap_emf"],
            ["dap_cemf_star", "dap_emf", "dap_emf_star"],
        ],
    )
    def test_independent_of_selection_and_order(self, schemes):
        got = estimates(SIX | {"schemes": schemes})
        solo = solo_dap_estimates()
        assert got == {cell: v for cell, v in solo.items() if cell[0] in schemes}

    def test_dap_records_carry_the_group_mean_statistics(self, tmp_path):
        out = tmp_path / "six.csv"
        cfg = ExperimentConfig.from_dict(SIX | {"eps_list": [1.0], "trials": 1, "out": str(out)})
        res = run_experiment(cfg)
        ds = build_dataset(cfg.dataset, np.random.SeedSequence(cfg.seed, spawn_key=(0,)))
        attack = build_attack(cfg.attack, default_reference=ds.true_mean)
        children = np.random.SeedSequence(cfg.seed, spawn_key=(1, 0)).spawn(5)
        n = ds.values.size
        mask = np.zeros(n, dtype=bool)
        identity = np.random.default_rng(children[0])
        mask[identity.choice(n, size=int(cfg.gamma * n), replace=False)] = True
        rng = np.random.default_rng(children[4])
        run = run_dap(ds.values, mask, 1.0, min(cfg.eps0, 1.0), attack, rng)
        z, q = group_mean_statistics(run.groups)
        diagnostics = {r.scheme: r.diagnostics for r in res.records}
        for scheme in DAP_SCHEMES:
            assert (diagnostics[scheme]["slope_z"], diagnostics[scheme]["spread_q"]) == (z, q)
        for scheme in ("ostrich", "trimming", "baseline"):
            assert "slope_z" not in diagnostics[scheme]
        summary = json.loads(out.with_suffix(".json").read_text())
        cell = next(c for c in summary["cells"] if c["scheme"] == "dap_emf_star")
        assert cell["diagnostics"][0]["slope_z"] == z

    @pytest.mark.parametrize("cemf_first", [True, False])
    def test_a_failing_variant_leaves_its_siblings_draws(self, monkeypatch, cemf_first):
        # Suppressing every bucket fails only CEMF*, in its filter stage.
        import dapmean.protocol as protocol

        solo = solo_dap_estimates()
        monkeypatch.setattr(
            protocol, "suppression_mask", lambda prior_y, gamma: np.ones(len(prior_y), bool)
        )
        schemes = ["dap_emf", "dap_emf_star"]
        schemes = ["dap_cemf_star", *schemes] if cemf_first else [*schemes, "dap_cemf_star"]
        res = run_experiment(ExperimentConfig.from_dict(SIX | {"schemes": schemes}))
        for r in res.records:
            if r.scheme == "dap_cemf_star":
                assert math.isnan(r.estimate)
                assert r.diagnostics["error"].startswith("InconsistentSuppressionError")
            else:
                assert r.estimate == solo[(r.scheme, r.epsilon, r.trial)]
