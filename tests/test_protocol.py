import functools
import hashlib
import math
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from dapmean.attacks import evasive_strategy, input_manipulation_strategy, poison_strategy
from dapmean.bench import ExperimentConfig, gen_beta, run_experiment
from dapmean.filters import (
    ObservedCounts,
    attacker_count,
    bucket_counts,
    build_transform,
    default_tolerance,
    em,
    suppression_mask,
)
from dapmean.mechanism import BucketGrid, Budget, DomainError, pm_perturb, worst_case_variance
from dapmean.protocol import (
    ConfigurationError,
    DapResult,
    Decision,
    DegenerateFilterError,
    GroupEstimate,
    GroupFilterInput,
    GroupPlan,
    aggregate_means,
    baseline_run,
    budget_ladder,
    collect_reports,
    dap_collect,
    dap_plan,
    decide,
    group_mean_statistics,
    intra_group_mean,
    ostrich,
    run_dap,
    trimming,
)

SHAPE_ERROR = r"^values and attacker_mask must have shape"
COLLECT_SHAPE_ERROR = r"^values must be 1-D and attacker_mask of its shape"


class TestPlan:
    def test_group_count_and_budgets(self):
        plan = dap_plan(100_000, 1.0, 1.0 / 16.0, np.random.default_rng(0))
        assert plan.h == 5
        np.testing.assert_allclose(plan.budgets, [1, 0.5, 0.25, 0.125, 0.0625])
        np.testing.assert_array_equal(plan.reports_per_user, [1, 2, 4, 8, 16])

    def test_equal_sizes_within_one(self):
        plan = dap_plan(100_003, 1.0, 1.0 / 16.0, np.random.default_rng(0))
        sizes = np.bincount(plan.assignment, minlength=plan.h)
        assert sizes.max() - sizes.min() <= 1
        assert sizes.sum() == 100_003

    def test_single_group_when_budgets_equal(self):
        plan = dap_plan(1000, 0.5, 0.5, np.random.default_rng(0))
        assert plan.h == 1
        assert plan.reports_per_user[0] == 1

    def test_every_user_spends_full_budget(self):
        plan = dap_plan(5000, 2.0, 0.25, np.random.default_rng(1))
        np.testing.assert_allclose(plan.budgets * plan.reports_per_user, 2.0)

    def test_assignment_is_shuffled(self):
        plan = dap_plan(10_000, 1.0, 0.25, np.random.default_rng(2))
        # A sorted assignment would make the first block all group 0.
        assert len(set(plan.assignment[:100])) > 1

    def test_group_members_are_each_groups_users_in_order(self):
        plan = dap_plan(10_003, 1.0, 1.0 / 16.0, np.random.default_rng(4))
        for t in range(plan.h):
            members = plan.group_members(t)
            np.testing.assert_array_equal(members, np.flatnonzero(plan.assignment == t))
            assert members.dtype == np.intp
            assert plan.expected_reports(t) == members.size * 2**t

    @pytest.mark.parametrize(
        "n,eps,eps0,h,dtype",
        [
            (1_000, 0.5, 0.5, 1, np.uint8),
            (100_003, 1.0, 1.0 / 16.0, 5, np.uint8),
            (10_007, 1.0, 2.0**-51, 52, np.uint8),
        ],
    )
    def test_narrow_assignment_matches_the_int64_plan(self, n, eps, eps0, h, dtype):
        # The shuffle takes the same draws whatever the assignment's dtype, so
        # the narrow plan is the int64 plan, and the generator ends in the
        # same state.
        rng = np.random.default_rng(7)
        plan = dap_plan(n, eps, eps0, rng)
        sizes = np.full(h, n // h)
        sizes[: n - (n // h) * h] += 1
        ref = np.repeat(np.arange(h, dtype=np.int64), sizes)
        ref_rng = np.random.default_rng(7)
        ref_rng.shuffle(ref)
        assert plan.h == h
        assert plan.assignment.dtype == dtype
        np.testing.assert_array_equal(plan.assignment, ref)
        assert rng.random() == ref_rng.random()
        for t in range(h):
            np.testing.assert_array_equal(plan.group_members(t), np.flatnonzero(ref == t))

    def test_plan_keeps_one_byte_per_user(self):
        # One uint8 group index per user; each group's members are scanned on
        # demand and not kept by the plan.
        n = 1_000_000
        tracemalloc.start()
        try:
            plan = dap_plan(n, 1.0, 1.0 / 16.0, np.random.default_rng(0))
            for t in range(plan.h):
                plan.group_members(t)
            alive = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert alive <= 1.1 * n

    @pytest.mark.parametrize(
        "eps,eps0",
        [
            (0.5, 1.0),
            (0.0, 0.5),
            (1.0, 0.0),
            (1.0, float("nan")),
            (float("nan"), 0.5),
            (float("nan"), float("nan")),
            (float("inf"), 1.0),
            (float("inf"), float("inf")),
            (1.0, float("-inf")),
            (1e308, 1e-10),
            (1.0, 1e-300),
            (True, 0.5),
            (1.0, True),
            ("1", 0.5),
            (1.0, "0.5"),
            (np.array([1.0, 2.0]), 0.5),
            (1.0, np.array([0.5])),
        ],
    )
    def test_rejects_bad_budgets(self, eps, eps0):
        with pytest.raises(ConfigurationError):
            dap_plan(100, eps, eps0, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "eps,eps0,named",
        [(True, 0.5, "eps"), ("1", 0.5, "eps"), (1.0, np.array([0.5]), "eps0"), (1.0, -1.0, "eps0")],
    )
    def test_ladder_names_a_bad_budget(self, eps, eps0, named):
        with pytest.raises(ConfigurationError, match=f"^{named} must be a finite number > 0, got"):
            budget_ladder(eps, eps0)

    def test_refused_ladder_end_draws_nothing(self):
        # eps0 = 1e-25 gives 85 groups, and the last one's C is not finite.
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(ConfigurationError, match="budget_ladder"):
            dap_plan(10_000, 1.0, 1e-25, rng)
        assert rng.bit_generator.state == state


class TestPlanRecord:
    """A GroupPlan stores eps, eps0 and its assignment; its budgets are
    ``budget_ladder(eps, eps0)`` and each group's report multiplicity is
    derived, so every user spends the plan's whole budget."""

    def test_multiplicity_comes_from_the_budgets(self):
        plan = GroupPlan(eps=1.0, eps0=0.5, assignment=np.repeat([0, 1], 500))
        np.testing.assert_array_equal(plan.reports_per_user, [1, 2])
        np.testing.assert_array_equal(plan.budgets * plan.reports_per_user, [1.0, 1.0])

    def test_half_budget_group_reports_twice(self):
        # 500 users at eps/2 send 1000 reports, so each spends eps.
        assignment = np.repeat(np.arange(2, dtype=np.uint8), 500)
        plan = GroupPlan(eps=1.0, eps0=0.5, assignment=assignment)
        values, mask = np.zeros(1000), np.zeros(1000, dtype=bool)
        g = dap_collect(values, mask, plan, 1, None, np.random.default_rng(0))
        assert g.counts.n_reports == plan.expected_reports(1) == 1000

    def test_multiplicity_is_not_stored(self):
        with pytest.raises(TypeError):
            GroupPlan(eps=1.0, eps0=0.5, assignment=np.array([0, 1]), reports_per_user=[1, 1])
        plan = dap_plan(100, 1.0, 0.25, np.random.default_rng(0))
        with pytest.raises(FrozenInstanceError):
            plan.reports_per_user = np.ones(plan.h)

    @pytest.mark.parametrize("eps,eps0", [(1.0, 0.5), (2.0, 0.3), (0.7, 0.7), (1.0, 2.0**-51)])
    def test_budgets_are_the_ladder(self, eps, eps0):
        plan = GroupPlan(eps=eps, eps0=eps0, assignment=np.zeros(4, dtype=np.uint8))
        assert np.array_equal(plan.budgets, budget_ladder(eps, eps0))
        with pytest.raises(TypeError):
            GroupPlan(eps=eps, eps0=eps0, assignment=np.zeros(4, dtype=np.uint8), budgets=[eps])

    # ``budgets`` holds (eps, eps0); each case's first budget, eps, has no
    # valid C (or eps0 does not lie below it).
    @pytest.mark.parametrize(
        "budgets", [(0.0, 0.0), (-1.0, -2.0), (math.nan, 0.5), (math.inf, 0.5), (100.0, 1.0)]
    )
    def test_rejects_a_bad_first_budget(self, budgets):
        with pytest.raises(ConfigurationError, match="eps"):
            GroupPlan(*budgets, assignment=np.zeros(4, dtype=np.uint8))

    @pytest.mark.parametrize(
        "eps0",
        [0.0, -0.5, math.nan, 2.0, 2.0**-52, 1e-25, 2.0**-300],
        ids=["zero", "negative", "nan", "above-eps", "2^-52", "1e-25", "2^-300"],
    )
    def test_rejects_a_bad_last_budget(self, eps0):
        # From 2^-52 on the last budget has no finite C; 1e-25 (85 groups)
        # would also wrap the int64 multiplicity at group 63.
        with pytest.raises(ConfigurationError, match="eps"):
            GroupPlan(eps=1.0, eps0=eps0, assignment=np.zeros(4, dtype=np.uint8))

    @pytest.mark.parametrize(
        "assignment",
        [[0, 2], [-1, 0], [0.0, 1.0], [[0, 1]], [True, False]],
        ids=["past-h", "negative", "float", "2-D", "bool"],
    )
    def test_rejects_a_bad_assignment(self, assignment):
        with pytest.raises(ConfigurationError, match="assignment"):
            GroupPlan(eps=1.0, eps0=0.5, assignment=np.array(assignment))


def recording_attack(calls):
    """An attack that logs each requested count and reports 2C, outside [-C, C]."""

    def strategy(count, budget, rng):
        calls.append(count)
        return np.full(count, 2.0 * budget.c_bound)

    return strategy


class TestCollectReports:
    def setup_method(self):
        rng = np.random.default_rng(3)
        self.values = rng.uniform(-1, 1, 500)
        self.mask = np.zeros(500, dtype=bool)
        self.mask[rng.choice(500, 120, replace=False)] = True
        self.budget = Budget(0.5)

    def test_honest_first_then_attack_draws(self):
        calls = []
        rng = np.random.default_rng(8)
        reports = collect_reports(
            self.values, self.mask, self.budget, recording_attack(calls), rng, reps=3
        )
        ref = np.random.default_rng(8)
        honest = pm_perturb(np.repeat(self.values[~self.mask], 3), self.budget, ref)
        assert calls == [120 * 3]
        np.testing.assert_array_equal(reports[: honest.size], honest)
        np.testing.assert_array_equal(reports[honest.size :], 2.0 * self.budget.c_bound)
        assert reports.size == 500 * 3

    @pytest.mark.parametrize("reps", [1, 2])
    @pytest.mark.parametrize("case", ["no_attack", "no_attacker"])
    def test_unattacked_streams_perturb_own_values(self, case, reps):
        # No attack, or an attack with no attacker to run it: every user
        # perturbs their own value, honest users first.
        calls = []
        if case == "no_attack":
            mask, attack = self.mask, None
        else:
            mask, attack = np.zeros(500, dtype=bool), recording_attack(calls)
        rng = np.random.default_rng(9)
        reports = collect_reports(self.values, mask, self.budget, attack, rng, reps=reps)
        ref = np.random.default_rng(9)
        expect = np.concatenate(
            [
                pm_perturb(np.repeat(self.values[~mask], reps), self.budget, ref),
                pm_perturb(np.repeat(self.values[mask], reps), self.budget, ref),
            ]
        )
        assert calls == []
        np.testing.assert_array_equal(reports, expect)
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("returned", [1, 120 * 2 - 1, 120 * 2 + 1])
    def test_attack_must_return_every_poison_report(self, returned):
        # A length-1 result would otherwise broadcast over the poison tail.
        def strategy(count, budget, rng):
            return np.full(returned, budget.c_bound)

        with pytest.raises(ValueError, match="expected \\(240,\\)"):
            collect_reports(
                self.values, self.mask, self.budget, strategy, np.random.default_rng(0), reps=2
            )

    @pytest.mark.parametrize("bins", [None, "grid"], ids=["reports", "counts"])
    @pytest.mark.parametrize("case", ["values-2d", "mask-short", "mask-long"])
    def test_inputs_must_be_one_user_per_entry(self, case, bins):
        values, mask = self.values, self.mask
        if case == "values-2d":
            values, mask = values.reshape(20, 25), mask.reshape(20, 25)
        else:
            mask = mask[1:] if case == "mask-short" else np.append(mask, True)
        if bins == "grid":
            bins = BucketGrid.for_reports(500, self.budget).output_edges
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=COLLECT_SHAPE_ERROR):
            collect_reports(values, mask, self.budget, poison_strategy(), rng, bins=bins)
        assert rng.bit_generator.state == state

    def test_peak_memory_within_one_and_three_quarter_outputs(self):
        # Honest and poison reports are written into one preallocated stream:
        # no repeated copy of the values and no concatenation.
        rng = np.random.default_rng(0)
        n = 62_500
        values = rng.uniform(-1.0, 1.0, n)
        mask = np.zeros(n, dtype=bool)
        mask[rng.choice(n, n // 4, replace=False)] = True
        attack = poison_strategy()
        tracemalloc.start()
        try:
            out = collect_reports(
                values, mask, Budget(1.0 / 16.0), attack, np.random.default_rng(1), reps=16
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * out.nbytes


def pin_collect_inputs(n):
    rng = np.random.default_rng(n)
    return rng.uniform(-1.0, 1.0, n), rng.random(n) < 0.25


class TestPinnedCollectBits:
    """``collect_reports`` outputs (sha256 prefix of the float64 bytes) and the
    generator's next double, recorded when the collector repeated each
    user's value with ``np.repeat`` and concatenated honest and poison
    reports.  Users x reps straddle the 2^16-value perturbation block.
    Recorded with numpy 2.4 on x86-64."""

    PINS = {
        (300, 1, False): ("59aedbb664efcff9", "0x1.ce2452e2870c8p-4"),
        (300, 1, True): ("2735d2d6234796f0", "0x1.a46e6b9f59e88p-1"),
        (300, 2, False): ("db4b4ff1c22e948d", "0x1.a8459e558694ap-1"),
        (300, 2, True): ("90e71130bdccfcf6", "0x1.cfde7b47d6450p-5"),
        (300, 16, False): ("4e9c224d0a1fc94e", "0x1.0cdc30f754bffp-1"),
        (300, 16, True): ("8929bc76d3276553", "0x1.6711c33e1d34cp-2"),
        (4_097, 1, False): ("3288ddf2c112f476", "0x1.1cadd41f2a064p-1"),
        (4_097, 1, True): ("c443c21490a41422", "0x1.879f202525276p-2"),
        (4_097, 2, False): ("dcadaf0e3bd84159", "0x1.7b2e8e5f42fa0p-2"),
        (4_097, 2, True): ("aeed9256ac7690c9", "0x1.f10a7a7159f88p-3"),
        (4_097, 16, False): ("0abafc46ede65df6", "0x1.bbe71661bdc30p-1"),
        (4_097, 16, True): ("b1da2af05e280ca3", "0x1.e069d7bce8aacp-3"),
        (65_537, 1, False): ("96b918faab1ac1f5", "0x1.1c0ac70fe639cp-3"),
        (65_537, 1, True): ("0343ed52350e246c", "0x1.35d6049b7e10dp-1"),
        (65_537, 2, False): ("99f09af482aea200", "0x1.5bbfc1b4bbd00p-7"),
        (65_537, 2, True): ("4d429f22dc2052e8", "0x1.2e1198e223960p-3"),
        (65_537, 16, False): ("51f7df5dc337512a", "0x1.07a093ee71d50p-5"),
        (65_537, 16, True): ("89f9873ff034894e", "0x1.7a3ca8a90b2e0p-1"),
    }

    @pytest.mark.parametrize("n,reps,attacked", list(PINS), ids=str)
    def test_output_and_stream(self, n, reps, attacked):
        values, mask = pin_collect_inputs(n)
        rng = np.random.default_rng(2025)
        attack = poison_strategy() if attacked else None
        out = collect_reports(values, mask, Budget(1.0 / reps), attack, rng, reps=reps)
        assert (bits(out), rng.random().hex()) == self.PINS[(n, reps, attacked)]


COUNTED_ATTACKS = {
    "uniform": poison_strategy(),
    "gaussian": poison_strategy(dist="gaussian"),
    "point": poison_strategy(dist="point"),
    "input": input_manipulation_strategy(0.5),
    "evasive": evasive_strategy(),
    "honest": None,  # attackers perturb their own values
}


class TestCountingPath:
    """``collect_reports`` with ``bins`` against the report path on the same
    draws: 20 000 users, a quarter of them attackers, so the honest reports
    span several perturbation blocks and, at 16 reports per user, several
    histogram stages."""

    def setup_method(self):
        rng = np.random.default_rng(17)
        self.values = rng.uniform(-1.0, 1.0, 20_000)
        self.mask = rng.random(20_000) < 0.25

    @pytest.mark.parametrize("reps", [1, 2, 16])
    @pytest.mark.parametrize("kind", list(COUNTED_ATTACKS))
    def test_counts_the_report_streams_draws(self, kind, reps):
        budget, attack = Budget(1.0 / reps), COUNTED_ATTACKS[kind]
        got_rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        reports = collect_reports(self.values, self.mask, budget, attack, ref_rng, reps)
        grid = BucketGrid.for_reports(reports.size, budget)
        counts, report_sum = collect_reports(
            self.values, self.mask, budget, attack, got_rng, reps, bins=grid.output_edges
        )
        np.testing.assert_array_equal(counts, bucket_counts(reports, grid).counts)
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state
        # Each sum is within n * 2^-53 * sum|r| of the exact one, so the two
        # differ by at most n * eps * sum|r|.
        bound = reports.size * np.finfo(float).eps * np.abs(reports).sum()
        assert abs(report_sum - reports.sum()) <= bound

    def test_a_nan_report_is_refused(self):
        def strategy(count, budget, rng):
            return np.where(np.arange(count) == count // 2, np.nan, budget.c_bound)

        grid = BucketGrid.for_reports(self.values.size, Budget(1.0))
        with pytest.raises(ValueError, match="NaN"):
            collect_reports(
                self.values, self.mask, Budget(1.0), strategy, np.random.default_rng(0),
                bins=grid.output_edges,
            )

    def test_reports_beyond_c_land_in_the_end_buckets(self):
        def strategy(count, budget, rng):
            return np.where(np.arange(count) % 2 == 0, -2.0, 2.0) * budget.c_bound

        budget = Budget(1.0)
        n_poison = int(np.count_nonzero(self.mask))
        grid = BucketGrid.for_reports(self.values.size, budget)
        counts, _ = collect_reports(
            self.values, self.mask, budget, strategy, np.random.default_rng(0),
            bins=grid.output_edges,
        )
        # The honest reports are drawn first, so the same generator gives them alone.
        honest, _ = collect_reports(
            self.values[~self.mask], np.zeros(self.values.size - n_poison, bool), budget,
            None, np.random.default_rng(0), bins=grid.output_edges,
        )
        poison = np.zeros(grid.d_out, dtype=np.int64)
        poison[0], poison[-1] = (n_poison + 1) // 2, n_poison // 2
        np.testing.assert_array_equal(counts, honest + poison)


def collect_all(values, mask, plan, attack, rng):
    return [dap_collect(values, mask, plan, t, attack, rng) for t in range(plan.h)]


class TestCollect:
    def setup_method(self):
        self.rng = np.random.default_rng(7)
        self.n = 4000
        self.values = self.rng.uniform(-1, 1, self.n)

    def test_no_attack_report_counts(self):
        plan = dap_plan(self.n, 1.0, 0.25, self.rng)
        mask = np.zeros(self.n, dtype=bool)
        groups = collect_all(self.values, mask, plan, None, self.rng)
        for g, t in zip(groups, range(plan.h)):
            assert g.counts.n_reports == plan.expected_reports(t)
            assert g.budget.epsilon == pytest.approx(plan.budgets[t])

    def test_unattacked_attackers_report_honestly(self):
        # With no attack, attackers perturb their own values: every group
        # holds the plan's full report count, inside [-C, C].
        mask = np.zeros(self.n, dtype=bool)
        mask[self.rng.choice(self.n, 1000, replace=False)] = True
        plan = dap_plan(self.n, 1.0, 0.25, self.rng)
        groups = collect_all(self.values, mask, plan, None, self.rng)
        for g, t in zip(groups, range(plan.h)):
            assert g.counts.n_reports == plan.expected_reports(t)
            members = plan.group_members(t)
            reps = int(plan.reports_per_user[t])
            reports = collect_reports(
                self.values[members], mask[members], g.budget, None, self.rng, reps
            )
            assert reports.size == plan.expected_reports(t)
            assert np.all(np.abs(reports) <= g.budget.c_bound)

    def test_attacker_fraction_concentrates(self):
        gamma = 0.25
        m = int(gamma * self.n)
        mask = np.zeros(self.n, dtype=bool)
        mask[self.rng.choice(self.n, m, replace=False)] = True
        plan = dap_plan(self.n, 1.0, 0.25, self.rng)
        for t in range(plan.h):
            members = plan.group_members(t)
            frac = mask[members].mean()
            se = np.sqrt(gamma * (1 - gamma) / members.size)
            assert abs(frac - gamma) <= 3 * se

    def test_deterministic_given_seed(self):
        mask = np.zeros(self.n, dtype=bool)
        out = []
        for _ in range(2):
            rng = np.random.default_rng(99)
            plan = dap_plan(self.n, 0.5, 0.125, rng)
            groups = collect_all(self.values, mask, plan, None, rng)
            out.append([(g.report_sum.hex(), g.counts.counts) for g in groups])
        for (sum_a, counts_a), (sum_b, counts_b) in zip(*out):
            assert sum_a == sum_b
            np.testing.assert_array_equal(counts_a, counts_b)

    def test_draw_order_matches_the_inline_sequence(self):
        # One group's draws: its reports, then their shuffle; the probe draws
        # nothing.
        mask = np.zeros(self.n, dtype=bool)
        mask[self.rng.choice(self.n, 1000, replace=False)] = True
        attack = poison_strategy()
        plan = dap_plan(self.n, 1.0, 0.25, self.rng)
        rng = np.random.default_rng(21)
        ref = np.random.default_rng(21)
        for t in range(plan.h):
            g = dap_collect(self.values, mask, plan, t, attack, rng)
            budget = Budget(float(plan.budgets[t]))
            reps = int(plan.reports_per_user[t])
            members = plan.group_members(t)
            reports = collect_reports(self.values[members], mask[members], budget, attack, ref, reps)
            ref.shuffle(reports)
            counts = bucket_counts(reports, BucketGrid.for_reports(reports.size, budget))
            assert g.report_sum.hex() == reports.sum().hex()
            np.testing.assert_array_equal(g.counts.counts, counts.counts)
            assert rng.random() == ref.random()

    def test_peak_memory_below_the_stream_it_does_not_build(self):
        # The eps/16 group of 320 000 users: 64 000 users x 16 reports.  Its
        # collection counts the reports as they are drawn, so it peaks below
        # the 8 bytes per report their stream would take; the attack's draws
        # (a quarter of the reports) and the in-band mask are its largest
        # arrays.
        rng = np.random.default_rng(3)
        n = 320_000
        values = rng.uniform(-1.0, 1.0, n)
        mask = rng.random(n) < 0.25
        plan = dap_plan(n, 1.0, 1.0 / 16.0, rng)
        t = plan.h - 1
        assert plan.reports_per_user[t] == 16
        tracemalloc.start()
        try:
            g = dap_collect(values, mask, plan, t, poison_strategy(), rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.counts.n_reports == plan.expected_reports(t)
        assert peak < 8 * g.counts.n_reports

    @pytest.mark.parametrize("t", [-1, 3, 1.5, True, "0"])
    def test_bad_group_index_rejected(self, t):
        plan = dap_plan(self.n, 1.0, 0.25, self.rng)
        assert plan.h == 3
        with pytest.raises(ConfigurationError, match="^t must be an integer"):
            dap_collect(self.values, np.zeros(self.n, bool), plan, t, None, self.rng)

    def test_plan_must_cover_users(self):
        plan = dap_plan(self.n + 1, 1.0, 0.25, self.rng)
        for t in range(plan.h):
            with pytest.raises(ConfigurationError):
                dap_collect(self.values, np.zeros(self.n, bool), plan, t, None, self.rng)

    @pytest.mark.parametrize("case", ["values", "mask"])
    def test_inputs_must_have_the_plans_shape(self, case):
        # One entry per user, but in two dimensions: the sizes match the plan.
        plan = dap_plan(self.n, 1.0, 0.25, self.rng)
        values, mask = self.values, np.zeros(self.n, bool)
        if case == "values":
            values = values.reshape(40, 100)
        else:
            mask = mask.reshape(40, 100)
        state = self.rng.bit_generator.state
        with pytest.raises(ConfigurationError, match=SHAPE_ERROR + r" \(4000,\)"):
            dap_collect(values, mask, plan, 0, None, self.rng)
        assert self.rng.bit_generator.state == state


class TestIntraGroupMean:
    def test_hand_example(self):
        # Reports {1, 1, 3}; the filter attributes one report of value 3 to
        # attackers, so the honest mean is (5 - 3) / 2 = 1.
        reports = np.array([1.0, 1.0, 3.0])
        est = intra_group_mean(
            reports.sum(),
            reports.size,
            y_hat=np.array([1.0 / 3.0]),
            poison_midpoints=np.array([3.0]),
            budget=Budget(1.0),
            eps_total=1.0,
        )
        assert est.mean == pytest.approx(1.0)
        assert est.m_hat == 1.0
        assert est.n_hat == pytest.approx(2.0)

    def test_ground_truth_labels_recover_honest_mean(self):
        # Oracle: with the exact poison histogram the honest mean comes back.
        rng = np.random.default_rng(0)
        honest = rng.uniform(-1, 1, 900)
        midpoints = np.array([2.0, 3.0])
        poison = np.concatenate([np.full(60, 2.0), np.full(40, 3.0)])
        reports = np.concatenate([honest, poison])
        y_hat = np.array([0.06, 0.04])
        est = intra_group_mean(
            reports.sum(), reports.size, y_hat, midpoints, Budget(1.0), eps_total=1.0
        )
        assert est.mean == pytest.approx(honest.mean())

    def test_n_hat_scales_with_budget_share(self):
        reports = np.zeros(100)
        est = intra_group_mean(
            reports.sum(), reports.size, np.array([0.0]), np.array([1.0]), Budget(0.25),
            eps_total=1.0,
        )
        assert est.n_hat == pytest.approx(25.0)

    def test_m_hat_clamped_below_report_count(self):
        reports = np.array([1.0, 1.0])
        est = intra_group_mean(
            reports.sum(), reports.size, np.array([0.99]), np.array([1.0]), Budget(1.0),
            eps_total=1.0,
        )
        assert est.m_hat == 1.0  # round(1.98) clamped to n - 1

    def test_removal_lowers_the_sum_by_m_hat_times_poison_midpoint(self):
        # Top-quarter poison on the right: the estimate takes m_hat times the
        # poison histogram's mass-weighted midpoint out of the report sum.
        rng = np.random.default_rng(0)
        budget = Budget(2.0)
        n = 20_000
        values = rng.beta(2, 5, n) * 2 - 1
        mask = np.arange(n) < n // 4
        reports = collect_reports(values, mask, budget, poison_strategy(), rng)
        grid = BucketGrid.for_reports(n, budget)
        transform = build_transform(grid, side="right")
        pair = em(transform, bucket_counts(reports, grid), tau=1e-4)
        midpoints = transform.poison_midpoints
        est = intra_group_mean(
            reports.sum(), reports.size, pair.y_hat, midpoints, budget, eps_total=2.0
        )
        mu = np.dot(pair.y_hat, midpoints) / pair.poison_mass
        assert est.m_hat == attacker_count(pair.poison_mass, n) > 0
        assert est.mean * (n - est.m_hat) == pytest.approx(reports.sum() - est.m_hat * mu)
        assert mu > 0.5 * midpoints.max()

    def test_zero_poison_mass_keeps_the_plain_mean(self):
        reports = np.array([1.0, 2.0, 6.0])
        est = intra_group_mean(
            reports.sum(), reports.size, np.zeros(2), np.array([1.0, 2.0]), Budget(1.0),
            eps_total=1.0,
        )
        assert est.m_hat == 0.0
        assert est.mean == pytest.approx(3.0)

    def test_all_poison_is_degenerate(self):
        reports = np.ones(10)
        with pytest.raises(DegenerateFilterError):
            intra_group_mean(
                reports.sum(), reports.size, np.array([1.0]), np.array([1.0]), Budget(1.0),
                eps_total=1.0,
            )


def make_estimate(eps, n_hat, mean):
    return GroupEstimate(
        budget=Budget(eps),
        mean=mean,
        gamma_hat=0.0,
        m_hat=0.0,
        n_hat=n_hat,
    )


def weights(eps, n_hats):
    """The weights ``aggregate_means`` gives groups of these budgets and sizes."""
    return aggregate_means([make_estimate(e, k, 0.0) for e, k in zip(eps, n_hats)]).weights


class TestAggregation:
    def test_weights_two_group_closed_form(self):
        eps = np.array([1.0, 0.5])
        n = np.array([100.0, 200.0])
        w = weights(eps, n)
        score = n / np.array([worst_case_variance(e) for e in eps])
        np.testing.assert_allclose(w, score / score.sum())
        assert w.sum() == pytest.approx(1.0)

    def test_equal_groups_equal_weights(self):
        w = weights([1.0, 1.0, 1.0], [50.0, 50.0, 50.0])
        np.testing.assert_allclose(w, 1.0 / 3.0)

    def test_aggregate_mean_and_variance(self):
        ests = [make_estimate(1.0, 100.0, 0.2), make_estimate(0.5, 200.0, 0.4)]
        agg = aggregate_means(ests)
        w = agg.weights
        assert agg.mean == pytest.approx(w[0] * 0.2 + w[1] * 0.4)
        b = np.array([100.0 * worst_case_variance(1.0), 200.0 * worst_case_variance(0.5)])
        expect_var = 1.0 / np.sum(np.array([100.0, 200.0]) ** 2 / b)
        assert agg.predicted_variance == pytest.approx(expect_var)

    def test_predicted_variance_is_inverse_total_score_exactly(self):
        eps = [1.0, 0.5, 0.25, 0.125]
        n = [100.0, 0.0, 350.0, 720.5]
        agg = aggregate_means([make_estimate(e, k, 0.1) for e, k in zip(eps, n)])
        b = np.array([k * worst_case_variance(e) for e, k in zip(eps, n)])
        score = np.where(b > 0.0, np.square(n) / np.where(b > 0.0, b, 1.0), 0.0)
        assert agg.predicted_variance == float(1.0 / score.sum())
        assert np.array_equal(agg.weights, score / score.sum())

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            aggregate_means([])

    def test_no_signal_rejected(self):
        with pytest.raises(ConfigurationError):
            weights([1.0], [0.0])


def stored_group(eps, report_sum, n_reports):
    """A group record with the given sum and count; its counts, on the group's
    own grid, sit in one bucket."""
    counts = np.zeros(BucketGrid.for_reports(n_reports, Budget(eps)).d_out)
    counts[0] = n_reports
    return GroupFilterInput(Budget(eps), report_sum, ObservedCounts(counts))


class TestGroupRecord:
    """A group record holds counts on its own grid and a finite report sum."""

    def test_rejects_counts_of_another_grid(self):
        # 100 reports at eps 1 size a grid of d_out = 10.
        with pytest.raises(ValueError, match="d_out = 10 entries, got shape \\(2,\\)"):
            GroupFilterInput(Budget(1.0), 37.0, ObservedCounts(np.array([100.0, 0.0])))

    @pytest.mark.parametrize("report_sum", [math.nan, math.inf, -math.inf, "37", None])
    def test_rejects_a_bad_report_sum(self, report_sum):
        counts = stored_group(1.0, 37.0, 100).counts
        with pytest.raises(ValueError, match="report_sum"):
            GroupFilterInput(Budget(1.0), report_sum, counts)

    def test_rejects_too_few_reports(self):
        with pytest.raises(ValueError, match="too few reports"):
            GroupFilterInput(Budget(1.0), 3.0, ObservedCounts(np.array([10.0, 0.0, 0.0, 0.0])))


def collected_groups(attack, gamma, seed, n=20_000):
    """The collected groups of one run (beta(2,5), eps 1, eps0 1/16); no EM runs."""
    ds = gen_beta(2, 5, n, seed)
    rng = np.random.default_rng(seed)
    mask = np.zeros(n, dtype=bool)
    mask[rng.choice(n, int(gamma * n), replace=False)] = True
    plan = dap_plan(n, 1.0, 1.0 / 16.0, rng)
    return [dap_collect(ds.values, mask, plan, t, attack, rng) for t in range(plan.h)]


class TestGroupMeanStatistics:
    def test_hand_example(self):
        eps, sums, ns = (1.0, 0.5, 0.25), (10.0, -40.0, 600.0), (100, 200, 400)
        groups = [stored_group(e, s, n) for e, s, n in zip(eps, sums, ns)]
        m = np.array([0.1, -0.2, 1.5])
        c = np.array([Budget(e).c_bound for e in eps])
        w = np.array([n / worst_case_variance(e) for e, n in zip(eps, ns)])
        # z is the weighted least-squares slope of m on C over its standard
        # error; np.polyfit weights the unsquared residuals, hence sqrt(w).
        slope = np.polyfit(c, m, 1, w=np.sqrt(w))[0]
        c_bar, m_bar = np.average(c, weights=w), np.average(m, weights=w)
        sxx = float(np.sum(w * (c - c_bar) ** 2))
        z, q = group_mean_statistics(groups)
        assert z == pytest.approx(slope * math.sqrt(sxx), rel=1e-9)
        assert q == pytest.approx(float(np.sum(w * (m - m_bar) ** 2)), rel=1e-12)
        assert z > 0  # the mean grows with C

    # In the last two, m - sum(w m) / sum(w) leaves a residue of about 1e-18.
    @pytest.mark.parametrize(
        "eps, report_sum, n", [(1.0, 37.0, 100), (0.1, 37.0, 700), (2.0, 0.7, 100)]
    )
    def test_one_group_gives_zeros(self, eps, report_sum, n):
        assert group_mean_statistics([stored_group(eps, report_sum, n)]) == (0.0, 0.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_right_poison_gives_a_positive_slope(self, seed):
        z, _ = group_mean_statistics(collected_groups(poison_strategy(), 0.25, seed))
        assert z >= 3

    @pytest.mark.parametrize("seed", range(3))
    def test_left_poison_gives_a_negative_slope(self, seed):
        attack = poison_strategy(lo="-C", hi="-0.75*C", side="left")
        z, _ = group_mean_statistics(collected_groups(attack, 0.1, seed))
        assert z <= -3

    @pytest.mark.parametrize("seed", range(3))
    def test_no_attack_stays_in_the_null(self, seed):
        z, q = group_mean_statistics(collected_groups(None, 0.0, seed))
        assert abs(z) < 3
        assert q < 18.47  # the chi-square 99.9% quantile at h - 1 = 4 degrees of freedom


class TestBaselines:
    def test_ostrich_is_plain_mean(self):
        assert ostrich([1.0, 2.0, 6.0]) == pytest.approx(3.0)

    def test_trimming_right(self):
        assert trimming([1.0, 2.0, 3.0, 4.0], side="right") == pytest.approx(1.5)

    def test_trimming_left(self):
        assert trimming([1.0, 2.0, 3.0, 4.0], side="left") == pytest.approx(3.5)

    def test_trimming_odd_count(self):
        assert trimming([1.0, 2.0, 3.0], side="right") == pytest.approx(1.5)

    @pytest.mark.parametrize("side", ["Right", "LEFT", "up", ""])
    def test_trimming_rejects_an_unknown_side(self, side):
        with pytest.raises(ValueError, match="side"):
            trimming(np.arange(10.0), side)

    @pytest.mark.parametrize(
        "scheme",
        [ostrich, lambda r: trimming(r, "left"), lambda r: trimming(r, "right")],
        ids=["ostrich", "trimming-left", "trimming-right"],
    )
    def test_no_reports_rejected(self, scheme):
        with pytest.raises(ValueError, match="no reports"):
            scheme(np.empty(0))

    def test_trimming_needs_a_side(self):
        with pytest.raises(TypeError):
            trimming(np.arange(10.0))

    @pytest.mark.parametrize("side", ["right", "left"])
    @pytest.mark.parametrize("n", [1, 2, 3, 1_000, 100_001])
    @pytest.mark.parametrize("ties", [False, True])
    def test_trimming_equals_full_sort(self, n, side, ties):
        # Oracle: sort everything, keep the half away from the poisoned
        # side, average it in ascending order.  Bit-equal, not approximate.
        r = np.random.default_rng(n).normal(size=n)
        if ties:
            r = np.round(r, 1)  # a few dozen distinct values, many at the cut
        s = np.sort(r)
        half = n // 2
        expect = float((s[: n - half] if side == "right" else s[half:]).mean())
        assert trimming(r, side=side) == expect


class TestRunDap:
    def test_no_attack_recovers_mean(self):
        rng = np.random.default_rng(0)
        values = rng.beta(2, 5, 20_000) * 2 - 1
        mask = np.zeros(values.size, dtype=bool)
        res = run_dap(values, mask, 1.0, 0.25, None, rng, "emf_star")
        assert res.mean == pytest.approx(values.mean(), abs=0.1)
        assert len(res.estimates) == 3

    def test_filters_right_poison(self):
        rng = np.random.default_rng(1)
        values = rng.beta(2, 5, 20_000) * 2 - 1
        mask = np.zeros(values.size, dtype=bool)
        mask[rng.choice(values.size, 5_000, replace=False)] = True
        truth = values[~mask].mean()
        res = run_dap(values, mask, 1.0, 0.25, poison_strategy(), rng, "emf_star")
        naive = np.abs(truth)  # any unfiltered estimate is far off
        assert abs(res.mean - truth) < 0.2
        assert res.side == "right"
        assert res.gamma_hat == pytest.approx(0.25, abs=0.1)
        assert naive >= 0  # sanity on the fixture

    def test_peak_memory_set_by_the_largest_group(self):
        # Each group's reports are dropped once their sum is taken, so the
        # peak is set by the largest (last) group alone, not by all of them.
        rng = np.random.default_rng(0)
        values = rng.beta(2, 5, 200_000) * 2 - 1
        mask = np.zeros(values.size, dtype=bool)
        mask[rng.choice(values.size, values.size // 4, replace=False)] = True
        # run_dap's first draws are the plan's, so this plan is its plan.
        plan = dap_plan(values.size, 1.0, 1.0 / 16.0, np.random.default_rng(1))
        largest = max(plan.expected_reports(t) for t in range(plan.h)) * 8
        tracemalloc.start()
        try:
            run_dap(values, mask, 1.0, 1.0 / 16.0, poison_strategy(), np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.75 * largest

    @pytest.mark.parametrize("variant", ["emf", "emf_star", "cemf_star"])
    def test_variants_run(self, variant):
        rng = np.random.default_rng(2)
        values = rng.uniform(-1, 1, 8_000)
        mask = np.zeros(values.size, dtype=bool)
        mask[:2000] = True
        rng.shuffle(mask)
        res = run_dap(values, mask, 0.5, 0.25, poison_strategy(), rng, variant)
        assert np.isfinite(res.mean)

    def test_list_values_run_as_their_array(self):
        values = np.random.default_rng(5).uniform(-1, 1, 4_000)
        mask = np.zeros(values.size, dtype=bool)
        mask[:1_000] = True
        got = run_dap(list(values), mask, 1.0, 0.25, poison_strategy(), np.random.default_rng(3))
        want = run_dap(values, mask, 1.0, 0.25, poison_strategy(), np.random.default_rng(3))
        assert got.mean.hex() == want.mean.hex()

    def test_two_dimensional_values_rejected(self):
        # 40 x 100 values are as many as a 4000-user plan's users, but not 1-D.
        values = np.random.default_rng(5).uniform(-1, 1, (40, 100))
        with pytest.raises(ConfigurationError, match=SHAPE_ERROR):
            run_dap(values, np.zeros(4_000, bool), 1.0, 0.25, None, np.random.default_rng(0))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigurationError):
            run_dap(np.zeros(10), np.zeros(10, bool), 1.0, 0.5, None,
                    np.random.default_rng(0), "median")

    def test_deterministic_given_seed(self):
        values = np.random.default_rng(5).uniform(-1, 1, 6_000)
        mask = np.zeros(values.size, dtype=bool)
        a = run_dap(values, mask, 0.5, 0.25, None, np.random.default_rng(77), "emf_star")
        b = run_dap(values, mask, 0.5, 0.25, None, np.random.default_rng(77), "emf_star")
        assert a.mean == b.mean


def reference_filter(g, side, gamma_hat, variant):
    """One group's filter written out: its probe's fit on ``side``, then EMF*
    or CEMF* from that fit on a fresh transform of ``side``."""
    transform = build_transform(g.grid, side=side)
    pair = g.probe.pair(side)
    if variant != "emf":
        suppress = None
        if variant == "cemf_star":
            suppress = suppression_mask(pair.y_hat, gamma_hat)
        pair = em(
            transform, g.counts, default_tolerance(g.budget),
            gamma=gamma_hat, suppress=suppress, start=pair,
        )
    return pair, transform


def sequential_run_dap(values, mask, eps, eps0, attack, rng, variant):
    """run_dap's steps one after another on one thread: the plan, then per
    group its reports counted on its grid and the draws of their shuffle
    (taken by shuffling as many doubles), then the probes, filters, group
    means and their aggregate."""
    plan = dap_plan(values.size, eps, eps0, rng)
    inputs = []
    for t in range(plan.h):
        members = plan.group_members(t)
        budget = Budget(float(plan.budgets[t]))
        reps = int(plan.reports_per_user[t])
        grid = BucketGrid.for_reports(members.size * reps, budget)
        counts, report_sum = collect_reports(
            values[members], mask[members], budget, attack, rng, reps, bins=grid.output_edges
        )
        rng.shuffle(np.empty(members.size * reps))
        inputs.append(GroupFilterInput(budget, report_sum, ObservedCounts(counts)))
    decision = decide(inputs)
    estimates = []
    for g, side in zip(inputs, decision.sides):
        pair, transform = reference_filter(g, side, decision.gamma_hat, variant)
        midpoints = transform.poison_midpoints
        estimates.append(
            intra_group_mean(
                g.report_sum, g.counts.n_reports, pair.y_hat, midpoints, g.budget, eps
            )
        )
    return aggregate_means(estimates), estimates


class TestRunDapReplay:
    @pytest.mark.parametrize("variant", ["emf", "emf_star", "cemf_star"])
    def test_equals_the_sequential_composition(self, variant):
        rng = np.random.default_rng(8)
        values = rng.beta(2, 5, 20_000) * 2 - 1
        mask = np.zeros(values.size, dtype=bool)
        mask[rng.choice(values.size, 5_000, replace=False)] = True
        attack = poison_strategy()
        got_rng, ref_rng = np.random.default_rng(31), np.random.default_rng(31)
        res = run_dap(values, mask, 1.0, 0.125, attack, got_rng, variant)
        agg, estimates = sequential_run_dap(values, mask, 1.0, 0.125, attack, ref_rng, variant)
        assert [e.mean for e in res.estimates] == [e.mean for e in estimates]
        assert res.mean == agg.mean
        assert got_rng.random() == ref_rng.random()

    def test_a_late_shuffle_still_ends_before_its_group_is_read(self):
        # Each shuffle starts 20 ms late: the next group's draws, and so every
        # group's counts and mean, must still come after it, in order.
        class LateShuffle(np.random.Generator):
            def shuffle(self, x, axis=0):
                time.sleep(0.02)
                super().shuffle(x, axis)

        rng = np.random.default_rng(8)
        values = rng.uniform(-1, 1, 4_000)
        mask = np.zeros(values.size, dtype=bool)
        mask[:1_000] = True
        attack = poison_strategy()
        got_rng, ref_rng = LateShuffle(np.random.PCG64(5)), np.random.default_rng(5)
        res = run_dap(values, mask, 1.0, 0.125, attack, got_rng, "emf_star")
        agg, estimates = sequential_run_dap(values, mask, 1.0, 0.125, attack, ref_rng, "emf_star")
        assert [e.mean for e in res.estimates] == [e.mean for e in estimates]
        assert got_rng.random() == ref_rng.random()

    def test_every_draw_happens_on_the_callers_thread(self):
        idents = set()

        class RecordingThreads(np.random.Generator):
            def shuffle(self, x, axis=0):
                idents.add(threading.get_ident())
                super().shuffle(x, axis)

            def random(self, *args, **kwargs):
                idents.add(threading.get_ident())
                return super().random(*args, **kwargs)

        rng = np.random.default_rng(8)
        values = rng.uniform(-1, 1, 4_000)
        mask = np.zeros(values.size, dtype=bool)
        mask[:1_000] = True
        got_rng = RecordingThreads(np.random.PCG64(5))
        run_dap(values, mask, 1.0, 0.125, poison_strategy(), got_rng, "emf_star")
        assert idents == {threading.get_ident()}


VARIANTS = ("emf", "emf_star", "cemf_star")


@functools.cache
def refilter_fixture_run(variant):
    """A run_dap result of one variant."""
    rng = np.random.default_rng(17)
    values = rng.beta(2, 5, 8_000) * 2 - 1
    mask = np.zeros(values.size, dtype=bool)
    mask[rng.choice(values.size, 2_000, replace=False)] = True
    return run_dap(values, mask, 1.0, 0.25, poison_strategy(), np.random.default_rng(5), variant)


class TestRefilter:
    """refilter gives, from one run, what run_dap gives for another variant on
    the same generator state, bit for bit, and draws nothing."""

    @pytest.mark.parametrize("target", VARIANTS)
    @pytest.mark.parametrize("source", VARIANTS)
    def test_equals_a_direct_run(self, source, target):
        res, direct = refilter_fixture_run(source), refilter_fixture_run(target)
        got = res.refilter(target)
        # The fixture's variants disagree, so a refilter that kept its
        # source's estimates would show.
        assert (res.mean == direct.mean) == (source == target)
        assert got.mean.hex() == direct.mean.hex()
        assert [g.mean.hex() for g in got.estimates] == [g.mean.hex() for g in direct.estimates]
        assert [g.gamma_hat for g in got.estimates] == [g.gamma_hat for g in direct.estimates]
        assert bits(got.aggregate.weights) == bits(direct.aggregate.weights)
        assert (got.side, got.gamma_hat) == (direct.side, direct.gamma_hat)

    def test_draws_nothing(self):
        rng = np.random.default_rng(17)
        values = rng.uniform(-1, 1, 4_000)
        mask = np.zeros(values.size, dtype=bool)
        mask[:1_000] = True
        got_rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        res = run_dap(values, mask, 1.0, 0.125, poison_strategy(), got_rng, "emf")
        run_dap(values, mask, 1.0, 0.125, poison_strategy(), ref_rng, "emf")
        for variant in VARIANTS:
            res.refilter(variant)
        assert got_rng.random() == ref_rng.random()

    def test_unknown_variant_rejected(self):
        res = refilter_fixture_run("emf_star")
        with pytest.raises(ConfigurationError, match="mystery"):
            res.refilter("mystery")

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_result_records_its_variant(self, variant):
        assert refilter_fixture_run(variant).filter_variant == variant

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_refilter_back_is_bit_identical(self, variant):
        res = refilter_fixture_run(variant)
        back = res.refilter("cemf_star").refilter(res.filter_variant)
        assert back.mean.hex() == res.mean.hex()
        assert [g.mean.hex() for g in back.estimates] == [g.mean.hex() for g in res.estimates]
        assert back.gamma_hat.hex() == res.gamma_hat.hex()


def counting_builds(monkeypatch):
    """(side, record) of every transform the protocol builds from now on."""
    import dapmean.protocol as protocol

    builds = []

    def counting(grid, side):
        record = build_transform(grid, side=side)
        builds.append((side, record))
        return record

    monkeypatch.setattr(protocol, "build_transform", counting)
    return builds


def counting_blocks(monkeypatch):
    """Every grid that computes its perturbation block from now on."""
    prop = BucketGrid.__dict__["perturbation"]
    computed = []

    def counting(grid, build=prop.func):
        computed.append(grid)
        return build(grid)

    monkeypatch.setattr(prop, "func", counting)
    return computed


class TestTransformBuilds:
    def test_three_per_group_and_none_on_refilter(self, monkeypatch):
        # Collection builds none.  The probe builds both sides on its first
        # read; the decided side is built once more, when the filter stage
        # first asks for its transform.  All three records hold the group's
        # grid.
        builds = counting_builds(monkeypatch)
        rng = np.random.default_rng(17)
        values = rng.uniform(-1, 1, 4_000)
        mask = np.zeros(values.size, dtype=bool)
        mask[:1_000] = True
        plan = dap_plan(values.size, 1.0, 0.25, np.random.default_rng(5))
        g = dap_collect(values, mask, plan, 0, poison_strategy(), np.random.default_rng(5))
        assert builds == []
        assert g.probe is g.probe
        assert [side for side, _ in builds] == ["left", "right"]
        side = decide((g,)).sides[0]
        assert g.transform(side) is g.transform(side)
        assert [side for side, _ in builds] == ["left", "right", side]
        assert all(record.grid is g.grid for _, record in builds)
        assert g.grid == BucketGrid.for_reports(g.counts.n_reports, g.budget)

        builds.clear()
        res = run_dap(values, mask, 1.0, 0.125, poison_strategy(), np.random.default_rng(5))
        assert len(builds) == 3 * len(res.groups) == 3 * 4
        for variant in VARIANTS:
            res.refilter(variant)
        assert len(builds) == 3 * len(res.groups)

    def test_one_read_only_block_per_group(self, monkeypatch):
        # The three records share their grid's one block: collection computes
        # none, the probe's first EM read computes it, and nothing after that
        # computes another, refilters included.
        builds = counting_builds(monkeypatch)
        blocks = counting_blocks(monkeypatch)
        rng = np.random.default_rng(17)
        values = rng.uniform(-1, 1, 4_000)
        mask = np.zeros(values.size, dtype=bool)
        mask[:1_000] = True
        plan = dap_plan(values.size, 1.0, 0.25, np.random.default_rng(5))
        g = dap_collect(values, mask, plan, 0, poison_strategy(), np.random.default_rng(5))
        assert blocks == []
        side = decide((g,)).sides[0]
        assert blocks == [g.grid]
        g.transform(side)
        assert [s for s, _ in builds] == ["left", "right", side]
        assert all(record.grid is g.grid for _, record in builds)
        block = g.grid.perturbation
        assert block is g.grid.perturbation and not block.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            block[0, 0] = 0.0
        assert blocks == [g.grid]

        blocks.clear()
        res = run_dap(values, mask, 1.0, 0.125, poison_strategy(), np.random.default_rng(5))
        assert len(blocks) == len(res.groups) == 4
        assert all(grid is g.grid for grid, g in zip(blocks, res.groups))
        for variant in VARIANTS:
            res.refilter(variant)
        assert len(blocks) == len(res.groups)


class TestReplay:
    """A run's groups stored as plain numbers, (epsilon, report sum, integer
    counts) per group, rebuild the run with no collection, bit for bit."""

    def test_stored_groups_replay_every_variant(self, monkeypatch):
        run = refilter_fixture_run("emf_star")
        wants = [refilter_fixture_run(variant) for variant in VARIANTS]
        records = [
            (g.budget.epsilon, g.report_sum.hex(), [int(c) for c in g.counts.counts])
            for g in run.groups
        ]
        builds = counting_builds(monkeypatch)
        groups = tuple(
            GroupFilterInput(Budget(eps), float.fromhex(s), ObservedCounts(counts))
            for eps, s, counts in records
        )
        replay = DapResult(groups, "emf_star")
        assert len(builds) == 3 * len(groups)
        for variant, want in zip(VARIANTS, wants):
            got = replay.refilter(variant)
            assert got.mean.hex() == want.mean.hex()
            assert [g.mean.hex() for g in got.estimates] == [g.mean.hex() for g in want.estimates]
            assert got.gamma_hat.hex() == want.gamma_hat.hex()
            assert bits(got.aggregate.weights) == bits(want.aggregate.weights)
        assert len(builds) == 3 * len(groups)


class TestRunBudget:
    def test_is_the_first_groups_budget(self):
        run = refilter_fixture_run("emf_star")
        assert "eps_total" not in {f.name for f in fields(DapResult)}
        with pytest.raises(TypeError):
            DapResult(eps_total=1.0, groups=run.groups, filter_variant="emf_star")
        # run_dap's eps is 1.0: n_hat scales each group's honest count by eps_t / eps.
        assert run.groups[0].budget.epsilon == 1.0
        for g, est in zip(run.groups, run.estimates):
            n_hat = max((g.counts.n_reports - est.m_hat) * g.budget.epsilon / 1.0, 0.0)
            assert est.n_hat == n_hat


class TestRecordsAcrossScale:
    """At each n the collected records pass their checks, spend the whole
    budget per user, and replay from (epsilon, report-sum hex, integer counts)
    every variant bit for bit: 3 transform builds per group, none on refilter."""

    @pytest.mark.parametrize("n", [2_000, 20_000, 200_000])
    def test_collected_groups_replay(self, n, monkeypatch):
        ds = gen_beta(2, 5, n, n)
        rng = np.random.default_rng(n)
        mask = np.zeros(n, dtype=bool)
        mask[rng.choice(n, n // 4, replace=False)] = True
        plan = dap_plan(n, 1.0, 1.0 / 16.0, np.random.default_rng(n + 1))
        run = run_dap(ds.values, mask, 1.0, 1.0 / 16.0, poison_strategy(), np.random.default_rng(n + 1))
        wants = [run.refilter(variant) for variant in VARIANTS]
        for t, (g, side) in enumerate(zip(run.groups, run.decision.sides)):
            assert g.budget.epsilon == plan.budgets[t]
            assert g.counts.n_reports == plan.expected_reports(t)
            assert g.counts.counts.shape == (g.grid.d_out,)
            assert g.transform(side).grid.perturbation.shape == (g.grid.d_out, g.grid.d)
        records = [
            (g.budget.epsilon, g.report_sum.hex(), [int(c) for c in g.counts.counts])
            for g in run.groups
        ]
        builds = counting_builds(monkeypatch)
        groups = tuple(
            GroupFilterInput(Budget(eps), float.fromhex(s), ObservedCounts(counts))
            for eps, s, counts in records
        )
        replay = DapResult(groups, "emf")
        assert len(builds) == 3 * plan.h
        for variant, want in zip(VARIANTS, wants):
            got = replay.refilter(variant)
            assert got.mean.hex() == want.mean.hex()
            assert [g.mean.hex() for g in got.estimates] == [g.mean.hex() for g in want.estimates]
            assert got.gamma_hat.hex() == want.gamma_hat.hex()
            assert bits(got.aggregate.weights) == bits(want.aggregate.weights)
        assert len(builds) == 3 * plan.h


FLIP = {"left": "right", "right": "left"}


class TestDecisionIsTheOnlySource:
    """``decide`` patched to flip every group's side and pin gamma_hat: the
    filter stage, ``side``, ``gamma_hat``, ``refilter`` and the runner's
    diagnostics all follow the patched record."""

    PINNED = 0.0625

    def flip_decisions(self, monkeypatch):
        import dapmean.protocol as protocol

        def flipped(groups):
            sides = tuple(FLIP[g.probe.side] for g in groups)
            return Decision(sides=sides, gamma_hat=self.PINNED)

        monkeypatch.setattr(protocol, "decide", flipped)

    def test_filter_stage_reads_the_record(self, monkeypatch):
        unpatched = refilter_fixture_run("emf_star")
        self.flip_decisions(monkeypatch)
        builds = counting_builds(monkeypatch)
        groups = tuple(
            GroupFilterInput(g.budget, g.report_sum, ObservedCounts(g.counts.counts))
            for g in unpatched.groups
        )
        res = DapResult(groups, "emf_star")
        h = len(groups)
        # Both probe sides per group, then each group's flipped side once.
        assert [side for side, _ in builds] == ["left", "right"] * h + list(res.decision.sides)
        assert res.decision.sides == tuple(FLIP[g.probe.side] for g in groups)
        assert (res.side, res.gamma_hat) == (FLIP[groups[-1].probe.side], self.PINNED)
        assert res.mean != unpatched.mean
        for variant in VARIANTS:
            got = res.refilter(variant)
            assert (got.side, got.gamma_hat) == (res.side, self.PINNED)
            # Each estimate records the side its filter removed, not its probe's.
            assert [est.side for est in got.estimates] == list(got.decision.sides)
            assert [est.probe.side for est in got.estimates] == [g.probe.side for g in groups]
            for g, est in zip(got.groups, got.estimates):
                pair, transform = reference_filter(g, FLIP[g.probe.side], self.PINNED, variant)
                want = intra_group_mean(
                    g.report_sum, g.counts.n_reports, pair.y_hat,
                    transform.poison_midpoints, g.budget, got.groups[0].budget.epsilon,
                )
                assert est.mean.hex() == want.mean.hex()
        assert len(builds) == 3 * h

    def test_baseline_estimate_carries_its_decided_side(self, monkeypatch):
        values = np.random.default_rng(5).uniform(-1, 1, 8_000)
        mask = np.zeros(values.size, dtype=bool)
        mask[:2_000] = True
        before = baseline_run(values, mask, 1.0, poison_strategy(), np.random.default_rng(42))
        self.flip_decisions(monkeypatch)
        after = baseline_run(values, mask, 1.0, poison_strategy(), np.random.default_rng(42))
        assert after.probe.side == before.probe.side == before.side
        assert after.side == FLIP[before.side]
        assert after.mean != before.mean

    def test_runner_diagnostics_report_the_record(self, monkeypatch):
        config = ExperimentConfig(
            dataset={"type": "beta", "a": 2, "b": 5, "n": 4_000},
            eps_list=[1.0],
            eps0=0.25,
            schemes=["dap_emf", "dap_emf_star", "dap_cemf_star"],
            trials=2,
        )
        before = run_experiment(config).records
        self.flip_decisions(monkeypatch)
        after = run_experiment(config).records
        assert len(after) == len(before) == 6
        for a, b in zip(after, before):
            assert "error" not in a.diagnostics
            assert a.diagnostics["gamma_hat"] == self.PINNED != b.diagnostics["gamma_hat"]
            assert a.diagnostics["side"] == FLIP[b.diagnostics["side"]]


def failing_on_call(k, exc):
    """An attack that draws default poison but raises ``exc`` on its k-th call."""
    calls = []
    attack = poison_strategy()

    def strategy(count, budget, rng):
        calls.append(count)
        if len(calls) == k:
            raise exc
        return attack(count, budget, rng)

    return strategy


class AttackFailed(RuntimeError):
    pass


class TestRunDapThreads:
    """run_dap leaves no thread behind on any exit, re-raises what collection
    raised, with its type, and keeps every caller's draws in order when
    several threads call it at once."""

    def setup_method(self):
        rng = np.random.default_rng(9)
        self.values = rng.uniform(-1, 1, 8_000)
        self.mask = np.zeros(self.values.size, dtype=bool)
        self.mask[rng.choice(self.values.size, 2_000, replace=False)] = True

    def run(self, values, attack):
        before = threading.active_count()
        mask = self.mask[: values.size]
        try:
            return run_dap(values, mask, 1.0, 0.125, attack, np.random.default_rng(0))
        finally:
            assert threading.active_count() == before

    def test_no_thread_left_after_success(self):
        assert np.isfinite(self.run(self.values, poison_strategy()).mean)

    def test_out_of_domain_value_in_the_last_group(self):
        # run_dap's first draws are the plan's, so this plan is its plan.
        plan = dap_plan(self.values.size, 1.0, 0.125, np.random.default_rng(0))
        last = plan.group_members(plan.h - 1)
        values = self.values.copy()
        values[last[~self.mask[last]][0]] = 1.5
        with pytest.raises(DomainError) as err:
            self.run(values, None)
        assert err.type is DomainError

    def test_attack_error_in_a_later_group(self):
        exc = AttackFailed("boom")
        with pytest.raises(AttackFailed) as err:
            self.run(self.values, failing_on_call(3, exc))
        assert err.value is exc

    def test_concurrent_callers_match_the_sequential_run(self):
        # More callers than cores, each with its own generator, switching
        # threads as often as the interpreter allows: run_dap must be
        # re-entrant, and any state shared between callers, or a draw out of
        # order, would move some result off its sequential replay.
        seeds = range(40, 46)
        attack = poison_strategy()
        expect = [
            sequential_run_dap(
                self.values, self.mask, 1.0, 0.125, attack, np.random.default_rng(s), "emf_star"
            )[0].mean
            for s in seeds
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(seeds)) as pool:
                futures = [
                    pool.submit(
                        run_dap, self.values, self.mask, 1.0, 0.125, attack,
                        np.random.default_rng(s),
                    )
                    for s in seeds
                ]
                got = [f.result(timeout=120).mean for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == expect

    def test_too_few_reports(self):
        with pytest.raises(ValueError, match="too few reports") as err:
            self.run(self.values[:40], None)
        assert err.type is ValueError


def pinned_reports(eps, n=20_000, seed=41):
    """Honest beta(2, 5) reports with a quarter of default uniform poison."""
    rng = np.random.default_rng(seed)
    budget = Budget(eps)
    m = n // 4
    honest = pm_perturb(rng.beta(2, 5, n - m) * 2 - 1, budget, rng)
    return np.concatenate([honest, poison_strategy()(m, budget, rng)])


def bits(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()[:16]


class TestPinnedBits:
    """Bits of the side probe and of the EMF variant, recorded before the EM
    loop wrote into preallocated buffers.  That rewrite keeps every operation
    and its order, so it must reproduce them exactly.  The run_dap means were
    recorded again when collection began to count each group's reports as
    they are drawn: the draws, and so the next draw, did not move, and only
    the report sums round differently.  Recorded with numpy 2.4 on x86-64
    OpenBLAS; another BLAS build may round differently."""

    PROBES = {
        1.0: {
            "left": (259, "16315d76c7c02752", "539c0881351b675f"),
            "right": (128, "11f059352976f637", "97093ab9cb022502"),
        },
        1.0 / 16.0: {
            "left": (48, "55afe4e71bc7d630", "8b794447251b9dbd"),
            "right": (95, "cf09ed8f7c98315c", "f2d36bfbe4bddff2"),
        },
    }

    @pytest.mark.parametrize("eps", sorted(PROBES))
    def test_group_probe(self, eps):
        # The probe reads only bucket counts, so permuted reports give the
        # same bits.
        reports = pinned_reports(eps)
        for given in (reports, np.random.default_rng(12).permutation(reports)):
            probe = GroupFilterInput.from_reports(given, Budget(eps)).probe
            for side, pair in (("left", probe.pair_left), ("right", probe.pair_right)):
                got = (pair.iterations, bits(pair.x_hat), bits(pair.y_hat))
                assert got == self.PROBES[eps][side], side

    def test_run_dap_emf_mean(self):
        rng = np.random.default_rng(43)
        values = rng.beta(2, 5, 20_000) * 2 - 1
        mask = np.zeros(values.size, dtype=bool)
        mask[rng.choice(values.size, 5_000, replace=False)] = True
        res = run_dap(values, mask, 1.0, 0.125, poison_strategy(), rng, "emf")
        assert res.mean.hex() == "-0x1.f642164de7e9dp-2"

    # run_dap means of every variant and the generator's next draw after the
    # call.
    RUN_DAP = {
        "emf": "-0x1.f642164de7e9dp-2",
        "emf_star": "-0x1.12f3f263673c7p-1",
        "cemf_star": "-0x1.4a9e3162ae9a9p-1",
    }
    NEXT_DRAW = "0x1.efb8c89c46945p-1"

    @pytest.mark.parametrize("variant", sorted(RUN_DAP))
    def test_run_dap_mean_and_final_state(self, variant):
        rng = np.random.default_rng(43)
        values = rng.beta(2, 5, 20_000) * 2 - 1
        mask = np.zeros(values.size, dtype=bool)
        mask[rng.choice(values.size, 5_000, replace=False)] = True
        res = run_dap(values, mask, 1.0, 0.125, poison_strategy(), rng, variant)
        assert (res.mean.hex(), rng.random().hex()) == (self.RUN_DAP[variant], self.NEXT_DRAW)


class TestBaselineRun:
    def test_returns_finite_estimate_and_features(self):
        rng = np.random.default_rng(3)
        values = rng.beta(2, 5, 30_000) * 2 - 1
        mask = np.zeros(values.size, dtype=bool)
        res = baseline_run(values, mask, 1.0, None, rng)
        assert np.isfinite(res.mean)
        assert res.side in ("left", "right")
        assert 0.0 <= res.gamma_hat < 1.0
        assert res.m_hat == attacker_count(res.gamma_hat, values.size)

    def test_returns_the_beta_estimate_with_the_alpha_probe(self):
        values = np.random.default_rng(5).uniform(-1, 1, 8_000)
        mask = np.zeros(values.size, dtype=bool)
        res = baseline_run(values, mask, 1.0, None, np.random.default_rng(42))
        assert isinstance(res, GroupEstimate)
        assert res.budget.epsilon == 15.0 / 16.0
        # The probe ran on the eps/16 stream of every user: its fits have that grid's sizes.
        grid = BucketGrid.for_reports(values.size, Budget(1.0 / 16.0))
        for pair in (res.probe.pair_left, res.probe.pair_right):
            assert (pair.x_hat.size, pair.y_hat.size) == (grid.d, grid.d_out // 2)
        assert (res.side, res.gamma_hat) == (res.probe.side, res.probe.winning_pair.poison_mass)

    def test_mask_of_another_length_rejected(self):
        values = np.random.default_rng(5).uniform(-1, 1, 8_000)
        with pytest.raises(ValueError, match=COLLECT_SHAPE_ERROR):
            baseline_run(values, np.zeros(7_999, bool), 1.0, None, np.random.default_rng(42))

    def test_deterministic_given_seed(self):
        values = np.random.default_rng(5).uniform(-1, 1, 8_000)
        mask = np.zeros(values.size, dtype=bool)
        runs = [
            baseline_run(values, mask, 1.0, None, np.random.default_rng(42)).mean
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_honest_probing_probes_the_unattacked_stream(self):
        # attack_on_alpha=False: the alpha stream is collect_reports with no
        # attack, and its probe is removed from the attacked beta stream.
        rng = np.random.default_rng(6)
        values = rng.beta(2, 5, 8_000) * 2 - 1
        mask = np.zeros(values.size, dtype=bool)
        mask[rng.choice(values.size, 2_000, replace=False)] = True
        attack = poison_strategy()
        res = baseline_run(
            values, mask, 1.0, attack, np.random.default_rng(12), attack_on_alpha=False
        )
        ref = np.random.default_rng(12)
        b_alpha, b_beta = Budget(1.0 / 16.0), Budget(15.0 / 16.0)
        alpha = collect_reports(values, mask, b_alpha, None, ref)
        beta = collect_reports(values, mask, b_beta, attack, ref)
        group = GroupFilterInput.from_reports(alpha, b_alpha)
        probe = group.probe
        transform = build_transform(group.grid, side=probe.side)
        est = intra_group_mean(
            beta.sum(), beta.size, probe.winning_pair.y_hat, transform.poison_midpoints, b_beta,
            eps_total=1.0,
        )
        assert (res.side, res.gamma_hat) == (probe.side, probe.winning_pair.poison_mass)
        assert (res.mean, res.m_hat) == (est.mean, est.m_hat)

    def test_honest_probing_flaw(self):
        # Attackers hiding during probing keep more of their injected bias
        # than attackers whose poison is visible to the probe.
        rng = np.random.default_rng(4)
        values = rng.beta(2, 5, 30_000) * 2 - 1
        mask = np.zeros(values.size, dtype=bool)
        mask[rng.choice(values.size, 7_500, replace=False)] = True
        truth = values[~mask].mean()
        visible = baseline_run(
            values, mask, 1.0, poison_strategy(),
            np.random.default_rng(10),
        )
        hidden = baseline_run(
            values, mask, 1.0, poison_strategy(),
            np.random.default_rng(10), attack_on_alpha=False,
        )
        assert hidden.mean - truth > visible.mean - truth
        assert hidden.mean - truth > 0.3
