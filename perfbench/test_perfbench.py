"""Tests of the benchmark's own logic: the failure rule, the statistics, self
time, and a tiny-size run of every workload."""

import contextlib
import dataclasses
import json
import math

import pytest

import run
import tracing
import workloads

assert run.import_dapmean() is not None

from dapmean import bench, filters, protocol  # noqa: E402

from workloads import Estimate  # noqa: E402


def est(scheme, value=0.1, sq=0.01, ref=0.02, error=None):
    return Estimate(
        unit=0, scheme=scheme, epsilon=1.0, trial=0, value=value, sq_error=sq,
        ostrich_sq_error=ref, error=error,
    )


class TestFailureRule:
    def test_defended_worse_than_ostrich_fails(self):
        for scheme in workloads.DEFENDED:
            assert workloads.failed(est(scheme, sq=0.03, ref=0.02))
            assert not workloads.hard_failed(est(scheme, sq=0.03, ref=0.02))

    def test_defended_not_worse_passes(self):
        assert not workloads.failed(est("dap_emf_star", sq=0.02, ref=0.02))
        assert not workloads.failed(est("baseline", sq=0.01, ref=0.02))

    def test_undefended_schemes_are_not_compared(self):
        assert not workloads.failed(est("ostrich", sq=5.0, ref=None))
        assert not workloads.failed(est("trimming", sq=5.0, ref=None))

    @pytest.mark.parametrize("scheme", ["ostrich", "trimming", "dap_emf"])
    def test_raised_or_nonfinite_fails(self, scheme):
        for e in (
            est(scheme, value=math.nan, sq=math.nan),
            est(scheme, value=math.inf, sq=math.inf),
            est(scheme, error="DegenerateFilterError: all attackers"),
        ):
            assert workloads.failed(e)
            assert workloads.hard_failed(e)


class TestStatistics:
    def test_summary_medians_and_failures(self):
        units = [
            workloads.Unit(wall=w, estimates=[est("ostrich", ref=None), est("baseline", sq=1.0)],
                           consistent=True)
            for w in (4.0, 1.0, 2.0)
        ]
        s = workloads.summarize(units)
        assert s["estimate_s"] == 1.0  # per-estimate walls 2.0, 0.5, 1.0
        assert s["trials_per_s"] == 1.0  # per-unit rates 0.5, 2.0, 1.0
        assert s["attempted"] == 6
        assert s["failed"] == 0
        assert s["failed_frac"] == pytest.approx(0.5)
        assert s["failed_by_scheme"] == {"baseline": 3}
        assert s["correct"]

    def test_digest_depends_on_every_estimate(self):
        a = [est("ostrich", value=0.1), est("dap_emf", value=0.2)]
        b = [est("ostrich", value=0.1), est("dap_emf", value=0.2 + 1e-16)]
        assert workloads.digest(a) == workloads.digest(list(a))
        assert workloads.digest(a) != workloads.digest(b)


def span(id, parent, start, end, layer="filters"):
    return tracing.Span(
        id=id, name=f"{layer}.f{id}", layer=layer, parent=parent, parent_layer=None,
        trial=0, start=start, cpu_start=0.0, end=end,
    )


class TestSelfTime:
    def test_covered_is_a_clipped_union(self):
        assert tracing.covered([], 0.0, 1.0) == 0.0
        assert tracing.covered([(0.1, 0.4), (0.3, 0.5), (0.7, 2.0)], 0.0, 1.0) == pytest.approx(0.7)

    def test_self_time_subtracts_children_once(self):
        spans = [
            span(1, None, 0.0, 10.0, layer="perfbench"),
            span(2, 1, 1.0, 6.0, layer="bench"),  # two overlapping worker children
            span(3, 1, 2.0, 7.0, layer="bench"),
            span(4, 2, 1.5, 2.5),
        ]
        st = tracing.self_times(spans)
        assert st[1] == pytest.approx(4.0)
        assert st[2] == pytest.approx(4.0)
        assert st[3] == pytest.approx(5.0)
        assert st[4] == pytest.approx(1.0)

    def test_instrument_restores_the_modules(self):
        originals = (protocol.run_dap, bench.run_experiment, filters.probe_side)
        with tracing.instrument(tracing.Recorder()):
            assert protocol.run_dap is not originals[0]
            assert bench.run_dap.__wrapped__ is originals[0]
        assert (protocol.run_dap, bench.run_experiment, filters.probe_side) == originals


def tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], n=3000, trials=1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_runs_traced(name):
    w = tiny(name)
    recorder = tracing.Recorder()
    with tracing.instrument(recorder):
        _, inputs = workloads.timed_setup(w, seed=3)
        units = workloads.measure(w, inputs, 3, 1e-3, recorder.root)
    assert len(units) == 1
    s = workloads.summarize(units)
    assert s["correct"]
    assert s["attempted"] == len(w.schemes) * len(w.eps_list) * w.trials
    names = {s.id: s.name for s in recorder.spans}
    assert not any(names.get(s.parent) == s.name for s in recorder.spans)  # wrapped once
    m = tracing.layer_metrics(recorder.spans)
    assert all(math.isfinite(v) for v, _ in m.values())
    assert m["filters.transform_builds"][0] == 3 * m["protocol.groups"][0]
    if name == "baselines_1e6":
        assert m["filters.em_calls"][0] == 0
    else:
        assert m["filters.em_calls"][0] > 0
        assert m["filters.self_s"][0] > 0
    assert m["mechanism.perturb_s"][0] > 0


def test_same_seed_same_digest():
    w = tiny("sweep_1e5")
    digests = set()
    for _ in range(2):
        _, inputs = workloads.timed_setup(w, seed=5)
        units = workloads.measure(w, inputs, 5, 1e-3, lambda u: contextlib.nullcontext())
        digests.add(workloads.summarize(units)["digest_all"])
    assert len(digests) == 1


def test_command_prints_the_declared_metrics_last(monkeypatch, tmp_path, capsys):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in declared["workloads"]} == set(workloads.WORKLOADS)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setitem(workloads.WORKLOADS, "baselines_1e6", tiny("baselines_1e6"))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        args = ["--workload", "baselines_1e6", "--seed", "1", "--seconds", "0.001"]
        assert run.main(args + ["--trace", str(trace)]) == 0
        last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["attempted"] >= 1 and last["failed"] == 0
        printed = {k: v["unit"] for k, v in last["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in declared[key]}


def test_command_fails_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    args = ["--workload", "dap_1e6", "--seed", "1", "--seconds", "1"]
    assert run.main(args) != 0
    assert capsys.readouterr().out == ""
