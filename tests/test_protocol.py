import numpy as np
import pytest

from dapmean.attacks import poison_strategy
from dapmean.filters import attacker_count
from dapmean.mechanism import Budget, worst_case_variance
from dapmean.protocol import (
    ConfigurationError,
    DegenerateFilterError,
    GroupEstimate,
    aggregate_means,
    baseline_run,
    dap_collect,
    dap_plan,
    intra_group_mean,
    optimal_weights,
    ostrich,
    run_dap,
    trimming,
)


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

    @pytest.mark.parametrize("eps,eps0", [(0.5, 1.0), (0.0, 0.5), (1.0, 0.0)])
    def test_rejects_bad_budgets(self, eps, eps0):
        with pytest.raises(ConfigurationError):
            dap_plan(100, eps, eps0, np.random.default_rng(0))


class TestCollect:
    def setup_method(self):
        self.rng = np.random.default_rng(7)
        self.n = 4000
        self.values = self.rng.uniform(-1, 1, self.n)

    def test_no_attack_report_counts(self):
        plan = dap_plan(self.n, 1.0, 0.25, self.rng)
        mask = np.zeros(self.n, dtype=bool)
        groups = dap_collect(self.values, mask, plan, None, self.rng)
        for g, t in zip(groups, range(plan.h)):
            assert g.reports.size == plan.expected_reports(t)
            assert g.n_attacker_reports == 0
            assert g.budget.epsilon == pytest.approx(plan.budgets[t])

    def test_unattacked_attackers_report_honestly(self):
        # With no attack, attackers perturb their own values: every group
        # holds the plan's full report count.
        mask = np.zeros(self.n, dtype=bool)
        mask[self.rng.choice(self.n, 1000, replace=False)] = True
        plan = dap_plan(self.n, 1.0, 0.25, self.rng)
        groups = dap_collect(self.values, mask, plan, None, self.rng)
        for g, t in zip(groups, range(plan.h)):
            assert g.reports.size == plan.expected_reports(t)
            reps = int(plan.reports_per_user[t])
            assert g.n_attacker_reports == int(mask[plan.group_members(t)].sum()) * reps
            assert np.all(np.abs(g.reports) <= g.budget.c_bound)

    def test_attacker_fraction_concentrates(self):
        gamma = 0.25
        m = int(gamma * self.n)
        mask = np.zeros(self.n, dtype=bool)
        mask[self.rng.choice(self.n, m, replace=False)] = True
        plan = dap_plan(self.n, 1.0, 0.25, self.rng)
        groups = dap_collect(
            self.values, mask, plan, poison_strategy(), self.rng
        )
        for g in groups:
            n_members = g.reports.size / (2 ** g.index)
            frac = g.n_attacker_reports / g.reports.size
            se = np.sqrt(gamma * (1 - gamma) / n_members)
            assert abs(frac - gamma) <= 3 * se

    def test_deterministic_given_seed(self):
        mask = np.zeros(self.n, dtype=bool)
        out = []
        for _ in range(2):
            rng = np.random.default_rng(99)
            plan = dap_plan(self.n, 0.5, 0.125, rng)
            groups = dap_collect(self.values, mask, plan, None, rng)
            out.append([g.reports for g in groups])
        for a, b in zip(*out):
            np.testing.assert_array_equal(a, b)

    def test_plan_must_cover_users(self):
        plan = dap_plan(self.n + 1, 1.0, 0.5, self.rng)
        with pytest.raises(ConfigurationError):
            dap_collect(self.values, np.zeros(self.n, bool), plan, None, self.rng)


class TestIntraGroupMean:
    def test_hand_example(self):
        # Reports {1, 1, 3}; the filter attributes one report of value 3 to
        # attackers, so the honest mean is (5 - 3) / 2 = 1.
        reports = np.array([1.0, 1.0, 3.0])
        est = intra_group_mean(
            reports,
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
        est = intra_group_mean(reports, y_hat, midpoints, Budget(1.0), eps_total=1.0)
        assert est.mean == pytest.approx(honest.mean())

    def test_n_hat_scales_with_budget_share(self):
        reports = np.zeros(100)
        est = intra_group_mean(
            reports, np.array([0.0]), np.array([1.0]), Budget(0.25), eps_total=1.0
        )
        assert est.n_hat == pytest.approx(25.0)

    def test_m_hat_clamped_below_report_count(self):
        reports = np.array([1.0, 1.0])
        est = intra_group_mean(
            reports, np.array([0.99]), np.array([1.0]), Budget(1.0), eps_total=1.0
        )
        assert est.m_hat == 1.0  # round(1.98) clamped to n - 1

    def test_all_poison_is_degenerate(self):
        with pytest.raises(DegenerateFilterError):
            intra_group_mean(
                np.ones(10), np.array([1.0]), np.array([1.0]), Budget(1.0), eps_total=1.0
            )


def make_estimate(eps, n_hat, mean):
    return GroupEstimate(
        index=0,
        budget=Budget(eps),
        mean=mean,
        gamma_hat=0.0,
        m_hat=0.0,
        n_hat=n_hat,
    )


class TestAggregation:
    def test_weights_two_group_closed_form(self):
        eps = np.array([1.0, 0.5])
        n = np.array([100.0, 200.0])
        w = optimal_weights(eps, n)
        score = n / np.array([worst_case_variance(e) for e in eps])
        np.testing.assert_allclose(w, score / score.sum())
        assert w.sum() == pytest.approx(1.0)

    def test_equal_groups_equal_weights(self):
        w = optimal_weights(np.array([1.0, 1.0, 1.0]), np.array([50.0, 50.0, 50.0]))
        np.testing.assert_allclose(w, 1.0 / 3.0)

    def test_aggregate_mean_and_variance(self):
        ests = [make_estimate(1.0, 100.0, 0.2), make_estimate(0.5, 200.0, 0.4)]
        agg = aggregate_means(ests)
        w = optimal_weights(np.array([1.0, 0.5]), np.array([100.0, 200.0]))
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
        assert np.array_equal(agg.weights, optimal_weights(np.array(eps), np.array(n)))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            aggregate_means([])

    def test_no_signal_rejected(self):
        with pytest.raises(ConfigurationError):
            optimal_weights(np.array([1.0]), np.array([0.0]))


class TestBaselines:
    def test_ostrich_is_plain_mean(self):
        assert ostrich([1.0, 2.0, 6.0]) == pytest.approx(3.0)

    def test_trimming_right(self):
        assert trimming([1.0, 2.0, 3.0, 4.0], side="right") == pytest.approx(1.5)

    def test_trimming_left(self):
        assert trimming([1.0, 2.0, 3.0, 4.0], side="left") == pytest.approx(3.5)

    def test_trimming_odd_count(self):
        assert trimming([1.0, 2.0, 3.0], side="right") == pytest.approx(1.5)


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

    @pytest.mark.parametrize("variant", ["emf", "emf_star", "cemf_star"])
    def test_variants_run(self, variant):
        rng = np.random.default_rng(2)
        values = rng.uniform(-1, 1, 8_000)
        mask = np.zeros(values.size, dtype=bool)
        mask[:2000] = True
        rng.shuffle(mask)
        res = run_dap(values, mask, 0.5, 0.25, poison_strategy(), rng, variant)
        assert np.isfinite(res.mean)

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


class TestBaselineRun:
    def test_budget_split_validated(self):
        with pytest.raises(ConfigurationError):
            baseline_run(
                np.zeros(10), np.zeros(10, bool), 0.5, 1.0, None,
                np.random.default_rng(0),
            )

    def test_returns_finite_estimate_and_features(self):
        rng = np.random.default_rng(3)
        values = rng.beta(2, 5, 30_000) * 2 - 1
        mask = np.zeros(values.size, dtype=bool)
        res = baseline_run(values, mask, 1.0 / 16.0, 15.0 / 16.0, None, rng)
        assert np.isfinite(res.mean)
        assert res.side in ("left", "right")
        assert 0.0 <= res.gamma_hat < 1.0
        assert res.m_hat == attacker_count(res.gamma_hat, values.size)

    def test_deterministic_given_seed(self):
        values = np.random.default_rng(5).uniform(-1, 1, 8_000)
        mask = np.zeros(values.size, dtype=bool)
        runs = [
            baseline_run(values, mask, 1.0 / 16.0, 15.0 / 16.0, None,
                         np.random.default_rng(42)).mean
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_honest_probing_flaw(self):
        # Attackers hiding during probing keep more of their injected bias
        # than attackers whose poison is visible to the probe.
        rng = np.random.default_rng(4)
        values = rng.beta(2, 5, 30_000) * 2 - 1
        mask = np.zeros(values.size, dtype=bool)
        mask[rng.choice(values.size, 7_500, replace=False)] = True
        truth = values[~mask].mean()
        visible = baseline_run(
            values, mask, 1.0 / 16.0, 15.0 / 16.0, poison_strategy(),
            np.random.default_rng(10),
        )
        hidden = baseline_run(
            values, mask, 1.0 / 16.0, 15.0 / 16.0, poison_strategy(),
            np.random.default_rng(10), attack_on_alpha=False,
        )
        assert hidden.mean - truth > visible.mean - truth
        assert hidden.mean - truth > 0.3
