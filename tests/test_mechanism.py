import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dapmean.mechanism import (
    Budget,
    BucketGrid,
    DomainError,
    InvalidBudgetError,
    normalize_dataset,
    perturbation_matrix,
    pm_perturb,
    worst_case_variance,
)


# At eps = ln 9 we have e^{eps/2} = 3, so every closed form collapses to a
# small rational that can be checked by hand.
EPS_LN9 = math.log(9.0)


class TestBudget:
    def test_c_bound_hand_value(self):
        b = Budget(EPS_LN9)
        assert b.c_bound == pytest.approx((3 + 1) / (3 - 1))  # = 2

    def test_band_edges_at_extremes(self):
        b = Budget(EPS_LN9)
        c = b.c_bound
        assert b.low_edge(1.0) == pytest.approx(1.0)
        assert b.high_edge(1.0) == pytest.approx(c)
        assert b.low_edge(-1.0) == pytest.approx(-c)
        assert b.high_edge(-1.0) == pytest.approx(-1.0)

    def test_band_width_constant(self):
        b = Budget(0.7)
        for v in (-1.0, -0.3, 0.0, 0.5, 1.0):
            assert b.high_edge(v) - b.low_edge(v) == pytest.approx(b.c_bound - 1.0)

    def test_high_band_prob(self):
        assert Budget(EPS_LN9).high_band_prob == pytest.approx(0.75)

    @pytest.mark.parametrize("eps", [0.0, -1.0])
    def test_rejects_nonpositive_epsilon(self, eps):
        with pytest.raises(InvalidBudgetError):
            Budget(eps)


def test_worst_case_variance_hand_value():
    # 1/(3-1) + (3+3)/(3*(3-1)^2) = 1/2 + 1/2 = 1
    assert worst_case_variance(EPS_LN9) == pytest.approx(1.0)


def test_worst_case_variance_decreases_with_epsilon():
    eps = np.linspace(0.1, 4.0, 40)
    var = [worst_case_variance(e) for e in eps]
    assert all(a > b for a, b in zip(var, var[1:]))


class TestPerturb:
    def test_rejects_out_of_domain(self):
        with pytest.raises(DomainError):
            pm_perturb(np.array([1.2]), Budget(1.0), np.random.default_rng(0))

    @settings(max_examples=30, deadline=None)
    @given(
        v=st.floats(min_value=-1.0, max_value=1.0),
        eps=st.floats(min_value=0.05, max_value=6.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_output_stays_in_perturbed_domain(self, v, eps, seed):
        b = Budget(eps)
        out = pm_perturb(np.full(200, v), b, np.random.default_rng(seed))
        assert np.all(out >= -b.c_bound) and np.all(out <= b.c_bound)

    def test_unbiased(self):
        b = Budget(1.0)
        n = 200_000
        v = 0.37
        out = pm_perturb(np.full(n, v), b, np.random.default_rng(7))
        tol = 4.0 * math.sqrt(worst_case_variance(1.0) / n)
        assert abs(out.mean() - v) <= tol

    def test_high_band_frequency(self):
        b = Budget(1.5)
        n = 100_000
        v = -0.2
        out = pm_perturb(np.full(n, v), b, np.random.default_rng(3))
        in_band = np.mean((out >= b.low_edge(v)) & (out <= b.high_edge(v)))
        # Binomial: 4 standard errors around the two-level split probability.
        se = math.sqrt(b.high_band_prob * (1 - b.high_band_prob) / n)
        assert abs(in_band - b.high_band_prob) <= 4 * se

    def test_deterministic_given_seed(self):
        b = Budget(0.5)
        v = np.linspace(-1, 1, 101)
        a = pm_perturb(v, b, np.random.default_rng(11))
        c = pm_perturb(v, b, np.random.default_rng(11))
        np.testing.assert_array_equal(a, c)

    def test_empty_input_draws_nothing(self):
        # dap_collect perturbs an empty attacker set in every unattacked
        # group; that must leave the random stream where it was.
        rng = np.random.default_rng(11)
        assert pm_perturb(np.empty(0), Budget(0.5), rng).size == 0
        assert rng.random() == np.random.default_rng(11).random()


class TestBucketGrid:
    def test_default_sizes(self):
        # d_out = even floor of sqrt(N); d = even floor of the shrunken count.
        b = Budget(1.0)
        g = BucketGrid.for_reports(10_000, b)
        assert g.d_out == 100
        expect_d = 100 * (math.exp(0.5) - 1) / (math.exp(0.5) + 1)
        assert g.d == int(expect_d) - (int(expect_d) % 2)

    def test_sizes_are_even(self):
        for n in (777, 10_001, 54_321):
            g = BucketGrid.for_reports(n, Budget(0.25))
            assert g.d % 2 == 0 and g.d_out % 2 == 0

    def test_edges_cover_domains(self):
        b = Budget(2.0)
        g = BucketGrid.for_reports(5_000, b)
        assert g.input_edges[0] == pytest.approx(-1.0)
        assert g.input_edges[-1] == pytest.approx(1.0)
        assert g.output_edges[0] == pytest.approx(-b.c_bound)
        assert g.output_edges[-1] == pytest.approx(b.c_bound)
        assert g.input_edges.size == g.d + 1
        assert g.output_edges.size == g.d_out + 1

    def test_default_split_is_half(self):
        g = BucketGrid.for_reports(10_000, Budget(1.0))
        assert g.poison_indices("right")[0] == g.d_out // 2

    def test_poison_indices(self):
        g = BucketGrid.for_reports(10_000, Budget(1.0))
        half = g.d_out // 2
        right = g.poison_indices("right")
        left = g.poison_indices("left")
        assert right.size == g.d_out - half
        assert left.size == half
        assert right[0] == half and left[-1] == half - 1


def transition_column(input_bucket: int, budget: Budget, grid: BucketGrid) -> np.ndarray:
    """Oracle for one column of ``perturbation_matrix``: all d_out transition
    probabilities of one input bucket's midpoint, written per column."""
    v = grid.input_midpoints[input_bucket]
    c = budget.c_bound
    lo = float(budget.low_edge(v))
    hi = lo + c - 1.0
    dens_high = budget.high_band_prob / (c - 1.0)
    dens_low = (1.0 - budget.high_band_prob) / (c + 1.0)
    edges = grid.output_edges
    a, b = edges[:-1], edges[1:]
    overlap = np.clip(np.minimum(b, hi) - np.maximum(a, lo), 0.0, None)
    probs = overlap * dens_high + (b - a - overlap) * dens_low
    return np.clip(probs, 0.0, 1.0)


class TestTransitionProbs:
    def test_columns_stochastic(self):
        b = Budget(0.8)
        g = BucketGrid.for_reports(4_000, b)
        m = perturbation_matrix(b, g)
        assert m.shape == (g.d_out, g.d)
        np.testing.assert_allclose(m.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(m >= 0)

    @pytest.mark.parametrize("eps", [1.0 / 16.0, 0.25, 1.0, 2.0, 4.0])
    @pytest.mark.parametrize("n_reports", [100, 20_000, 1_000_000])
    def test_matrix_equals_column_stack_exactly(self, eps, n_reports):
        # The broadcast build must reproduce the per-column expressions bit
        # for bit, so EM results do not move with the construction.
        b = Budget(eps)
        g = BucketGrid.for_reports(n_reports, b)
        m = perturbation_matrix(b, g)
        stacked = np.column_stack([transition_column(k, b, g) for k in range(g.d)])
        assert m.flags.c_contiguous
        assert np.array_equal(m, stacked)

    def test_matches_monte_carlo(self):
        # Oracle: empirical perturbation frequencies of a bucket midpoint.
        b = Budget(1.2)
        g = BucketGrid.for_reports(2_500, b)
        rng = np.random.default_rng(42)
        n = 400_000
        for k in (0, g.d // 2, g.d - 1):
            v = g.input_midpoints[k]
            out = pm_perturb(np.full(n, v), b, rng)
            hist, _ = np.histogram(out, bins=g.output_edges)
            emp = hist / n
            col = transition_column(k, b, g)
            # Each bucket probability is O(1/d_out); 5 binomial SEs per bucket.
            se = np.sqrt(np.maximum(col * (1 - col), 1e-12) / n)
            assert np.all(np.abs(emp - col) <= 5 * se + 1e-4)


class TestNormalize:
    def test_min_max_to_symmetric_unit(self):
        ds = normalize_dataset(np.array([10.0, 20.0, 30.0]))
        np.testing.assert_allclose(ds.values, [-1.0, 0.0, 1.0])

    def test_mean_matches_linear_map(self):
        raw = np.random.default_rng(0).uniform(5, 9, size=1000)
        ds = normalize_dataset(raw)
        lo, hi = raw.min(), raw.max()
        expect = (raw.mean() - lo) / (hi - lo) * 2 - 1
        assert ds.true_mean == pytest.approx(expect)

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError):
            normalize_dataset(np.full(5, 3.0))
