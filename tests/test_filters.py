import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from dapmean.attacks import PoisonSpec, gen_bba
from dapmean.filters import (
    HistogramPair,
    InconsistentSuppressionError,
    ObservedCounts,
    SideProbe,
    TransformMatrix,
    attacker_count,
    bucket_counts,
    build_transform,
    default_tolerance,
    em,
    probe_side,
    suppression_mask,
)
from dapmean.mechanism import Budget, BucketGrid, pm_perturb


def make_setup(eps=2.0, n=20_000, seed=0, gamma=0.25, lo_frac=0.5, hi_frac=1.0):
    """Honest perturbations of a skewed dataset plus right-side uniform poison."""
    rng = np.random.default_rng(seed)
    budget = Budget(eps)
    c = budget.c_bound
    m = int(gamma * n)
    honest = rng.beta(2, 5, n - m) * 2 - 1
    reports_h = pm_perturb(honest, budget, rng)
    spec = PoisonSpec(range_lo=lo_frac * c, range_hi=hi_frac * c)
    reports_p = gen_bba(spec, m, budget, rng)
    reports = np.concatenate([reports_h, reports_p])
    rng.shuffle(reports)
    grid = BucketGrid.for_reports(n, budget)
    counts = bucket_counts(reports, grid)
    transform = build_transform(grid, side="right")
    return budget, grid, counts, transform, gamma


def reference_em(m, counts, theta0, n_iter):
    """Independent plain-EM oracle: textbook update, no shortcuts shared with
    the implementation under test."""
    theta = theta0.copy()
    c = counts / counts.sum()
    for _ in range(n_iter):
        new = np.zeros_like(theta)
        for k in range(theta.size):
            # responsibility of component k for each observed bucket
            denom = m @ theta
            resp = np.where(denom > 0, m[:, k] * theta[k] / np.where(denom > 0, denom, 1), 0.0)
            new[k] = np.dot(c, resp)
        theta = new / new.sum()
    return theta


def dense_em(m, counts, theta0, n_iter, m_step):
    """Textbook EM on the dense mixture matrix: full responsibility matrix,
    expected counts per component, then the variant's M-step."""
    theta = theta0.copy()
    for _ in range(n_iter):
        resp = m * theta / (m @ theta)[:, None]
        theta = m_step(counts @ resp)
    return theta


def production_counts(grid, budget, seed=5):
    """Bucket counts drawn from a skewed honest histogram plus poison on the
    upper quarter of the output range (no report-level simulation needed)."""
    rng = np.random.default_rng(seed)
    x = rng.dirichlet(np.linspace(1.0, 4.0, grid.d)) * 0.75
    mix = grid.perturbation @ x
    top = grid.d_out - grid.d_out // 4
    mix[top:] += 0.25 / (grid.d_out - top)
    n = grid.d_out**2
    return ObservedCounts(counts=rng.multinomial(n, mix / mix.sum()))


class TestStructuredKernel:
    """The EM loop multiplies only the perturbation block and indexes the
    poison block; at production grid sizes it must agree with textbook EM on
    the dense [P | I_S] matrix."""

    GRIDS = [(3_200_000, 1.0 / 16.0), (200_000, 1.0)]

    @staticmethod
    def m_steps(d, gamma, mask):
        keep = ~mask

        def plain(r):
            return r / r.sum()

        def pinned(r):
            x, y = r[:d], r[d:]
            return np.concatenate([(1 - gamma) * x / x.sum(), gamma * y / y.sum()])

        def suppressed(r):
            x, y = r[:d], np.where(keep, r[d:], 0.0)
            return np.concatenate([(1 - gamma) * x / x.sum(), gamma * y / y[keep].sum()])

        return plain, pinned, suppressed

    @pytest.mark.parametrize("n_reports,eps", GRIDS)
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_matches_dense_em(self, n_reports, eps, side):
        budget = Budget(eps)
        grid = BucketGrid.for_reports(n_reports, budget)
        counts = production_counts(grid, budget)
        transform = build_transform(grid, side=side)
        m = transform.matrix
        d, p = transform.grid.d, transform.n_poison
        k = d + p
        gamma, n_iter = 0.25, 50
        mask = np.zeros(p, dtype=bool)
        mask[::3] = True
        plain, pinned, suppressed = self.m_steps(d, gamma, mask)
        theta0 = np.full(k, 1.0 / k)
        theta0_suppressed = theta0.copy()
        theta0_suppressed[d:][mask] = 0.0

        runs = [
            (em(transform, counts, tau=0.0, max_iter=n_iter), theta0, plain),
            (em(transform, counts, 0.0, n_iter, gamma=gamma), theta0, pinned),
            (
                em(transform, counts, 0.0, n_iter, gamma=gamma, suppress=mask),
                theta0_suppressed,
                suppressed,
            ),
        ]
        for pair, start, m_step in runs:
            expect = dense_em(m, counts.counts, start, n_iter, m_step)
            got = np.concatenate([pair.x_hat, pair.y_hat])
            assert pair.iterations == n_iter and not pair.converged
            np.testing.assert_allclose(got, expect, rtol=1e-12, atol=0.0)


class TestTransform:
    def test_block_is_contiguous_and_dense_view_embeds_it(self):
        budget, grid, _, transform, _ = make_setup()
        assert transform.grid is grid
        assert grid.perturbation.shape == (grid.d_out, grid.d)
        assert grid.perturbation.flags.c_contiguous
        np.testing.assert_array_equal(transform.matrix[:, : grid.d], grid.perturbation)
        assert [f.name for f in dataclasses.fields(TransformMatrix)] == ["grid", "side"]

    def test_shape_and_blocks(self):
        budget, grid, _, transform, _ = make_setup()
        p = grid.d_out // 2
        assert transform.matrix.shape == (grid.d_out, grid.d + p)
        # Poison block: one unit of mass per poison output bucket.
        block = transform.matrix[:, grid.d :]
        np.testing.assert_allclose(block.sum(axis=0), 1.0)
        rows = np.flatnonzero(block.sum(axis=1))
        np.testing.assert_array_equal(rows, np.arange(grid.d_out)[grid.poison_slice("right")])

    def test_all_columns_stochastic(self):
        _, _, _, transform, _ = make_setup(eps=0.5)
        np.testing.assert_allclose(transform.matrix.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(transform.matrix >= 0)

    def test_left_side_block(self):
        budget, grid, _, _, _ = make_setup()
        t = build_transform(grid, side="left")
        assert t.n_poison == grid.d_out // 2
        # One unit of mass per poison bucket, on the left half's rows only.
        expected = np.zeros((grid.d_out, t.n_poison))
        expected[: grid.d_out // 2] = np.eye(t.n_poison)
        np.testing.assert_array_equal(t.matrix[:, grid.d :], expected)
        np.testing.assert_array_equal(t.poison_midpoints, grid.output_midpoints[: grid.d_out // 2])

    def test_rejects_an_unknown_side(self):
        budget = Budget(1.0)
        grid = BucketGrid(d=3, d_out=6, budget=budget)
        with pytest.raises(ValueError, match="side"):
            TransformMatrix(grid, "up")

    def test_odd_input_grid(self):
        # Only the output grid splits into side halves, so an odd d works.
        budget = Budget(1.0)
        grid = BucketGrid(d=5, d_out=8, budget=budget)
        transform = build_transform(grid, side="right")
        np.testing.assert_allclose(transform.grid.perturbation.sum(axis=0), 1.0, atol=1e-12)
        rng = np.random.default_rng(0)
        counts = bucket_counts(pm_perturb(rng.uniform(-1, 1, 2_000), budget, rng), grid)
        pair = em(transform, counts, tau=1e-6)
        assert pair.x_hat.size == 5 and pair.y_hat.size == 4
        assert pair.x_hat.sum() + pair.y_hat.sum() == pytest.approx(1.0)


class TestCounts:
    def test_total_preserved(self):
        _, grid, counts, _, _ = make_setup()
        assert counts.counts.sum() == counts.n_reports

    def test_out_of_range_reports_clipped(self):
        budget = Budget(1.0)
        grid = BucketGrid.for_reports(100, budget)
        c = budget.c_bound
        counts = bucket_counts(np.array([-2 * c, 2 * c, 0.0]), grid)
        assert counts.counts.sum() == 3
        assert counts.counts[0] >= 1 and counts.counts[-1] >= 1

    @pytest.mark.parametrize("scale", [0.5, 1.0, 1.5])
    def test_counts_equal_clipped_histogram(self, scale):
        # Oracle: clip every report, then histogram.  Scale 1.0 puts reports
        # on both edges, 1.5 puts some outside [-C, C].
        budget = Budget(1.0)
        grid = BucketGrid.for_reports(10_000, budget)
        c = budget.c_bound
        r = np.random.default_rng(0).uniform(-scale * c, scale * c, 10_000)
        r[:2] = -scale * c, scale * c
        expect, _ = np.histogram(np.clip(r, -c, c), bins=grid.output_edges)
        np.testing.assert_array_equal(bucket_counts(r, grid).counts, expect)

    def test_in_range_reports_are_not_copied(self):
        budget = Budget(1.0 / 16.0)
        grid = BucketGrid.for_reports(1_000_000, budget)
        c = budget.c_bound
        r = np.random.default_rng(0).uniform(-c, c, 1_000_000)
        tracemalloc.start()
        try:
            counts = bucket_counts(r, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.n_reports == r.size
        assert peak < r.nbytes / 2

    def test_nan_report_rejected_and_inf_clipped(self):
        # A NaN lands in no bucket, so the counts would size a smaller grid
        # than the one they were counted on; +-inf lands in an end bucket.
        grid = BucketGrid.for_reports(100, Budget(1.0))
        r = np.random.default_rng(0).uniform(-1, 1, 100)
        r[[3, 50, 99]] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            bucket_counts(r, grid)
        r[[3, 50, 99]] = -np.inf, np.inf, 0.0
        counts = bucket_counts(r, grid)
        assert counts.n_reports == 100
        assert counts.counts[0] >= 1 and counts.counts[-1] >= 1

    @pytest.mark.parametrize(
        "counts",
        [[[1.0, 2.0]], [1.0, np.nan], [1.0, np.inf], [1.0, -1.0]],
        ids=["2-d", "nan", "inf", "negative"],
    )
    def test_bad_counts_rejected(self, counts):
        with pytest.raises(ValueError, match="counts must be"):
            ObservedCounts(counts)


def test_default_tolerance():
    assert default_tolerance(Budget(1.0)) == pytest.approx(0.01 * math.e)


class TestEMF:
    def test_outputs_form_distribution(self):
        _, _, counts, transform, _ = make_setup()
        pair = em(transform, counts, tau=1e-6)
        assert np.all(pair.x_hat >= 0) and np.all(pair.y_hat >= 0)
        assert pair.x_hat.sum() + pair.y_hat.sum() == pytest.approx(1.0)

    def test_matches_reference_em(self):
        # Oracle: a per-component textbook EM loop run the same number of
        # fixed iterations from the same start.
        _, grid, counts, transform, _ = make_setup(n=5_000)
        k = transform.matrix.shape[1]
        theta0 = np.full(k, 1.0 / k)
        n_iter = 50
        expect = reference_em(transform.matrix, counts.counts.astype(float), theta0, n_iter)
        pair = em(transform, counts, tau=0.0, max_iter=n_iter)
        got = np.concatenate([pair.x_hat, pair.y_hat])
        np.testing.assert_allclose(got, expect, atol=1e-10)

    def test_recovers_attacker_proportion(self):
        _, _, counts, transform, gamma = make_setup(eps=1.0 / 16.0, n=100_000)
        pair = em(transform, counts, tau=default_tolerance(Budget(1.0 / 16.0)))
        assert pair.poison_mass == pytest.approx(gamma, abs=0.05)

    def test_iteration_cap_returns_unconverged(self):
        _, _, counts, transform, _ = make_setup(n=5_000)
        pair = em(transform, counts, tau=0.0, max_iter=5)
        assert not pair.converged
        assert pair.iterations == 5

    @pytest.mark.parametrize("delta", [-2, 2])
    def test_rejects_counts_of_another_grid(self, delta):
        _, grid, _, transform, _ = make_setup(n=5_000)
        other = ObservedCounts(np.ones(grid.d_out + delta))
        with pytest.raises(ValueError, match="^counts must have"):
            em(transform, other, tau=1e-4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tau": np.nan},
            {"tau": -1.0},
            {"tau": np.inf},
            {"tau": 1e-4, "max_iter": 0},
            {"tau": 1e-4, "max_iter": 1.5},
            {"tau": 1e-4, "max_iter": True},
        ],
        ids=["tau-nan", "tau-negative", "tau-inf", "max_iter-0", "max_iter-float", "max_iter-bool"],
    )
    def test_rejects_bad_tau_and_max_iter(self, kwargs):
        _, _, counts, transform, _ = make_setup(n=5_000)
        name = "max_iter" if "max_iter" in kwargs else "tau"
        with pytest.raises(ValueError, match=f"^{name} must be"):
            em(transform, counts, **kwargs)


class TestEMFStar:
    def test_pinned_masses(self):
        _, _, counts, transform, _ = make_setup()
        for gamma_hat in (0.1, 0.25, 0.4):
            pair = em(transform, counts, tau=1e-4, gamma=gamma_hat)
            assert pair.x_hat.sum() == pytest.approx(1.0 - gamma_hat, abs=1e-12)
            assert pair.y_hat.sum() == pytest.approx(gamma_hat, abs=1e-12)

    def test_zero_gamma_matches_no_poison(self):
        _, _, counts, transform, _ = make_setup()
        pair = em(transform, counts, tau=1e-4, gamma=0.0)
        assert pair.y_hat.sum() == 0.0
        assert pair.x_hat.sum() == pytest.approx(1.0)

    def test_rejects_bad_gamma(self):
        _, _, counts, transform, _ = make_setup()
        with pytest.raises(ValueError):
            em(transform, counts, tau=1e-4, gamma=1.0)

    def test_likelihood_nondecreasing(self):
        _, _, counts, transform, _ = make_setup(n=5_000)
        lls = []
        for it in range(1, 30, 3):
            pair = em(transform, counts, tau=0.0, max_iter=it, gamma=0.25)
            lls.append(pair.log_likelihood)
        assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))


class TestCEMFStar:
    def test_suppressed_buckets_stay_zero(self):
        _, _, counts, transform, _ = make_setup()
        p = transform.n_poison
        mask = np.zeros(p, dtype=bool)
        mask[: p // 2] = True
        pair = em(transform, counts, tau=1e-4, gamma=0.25, suppress=mask)
        np.testing.assert_array_equal(pair.y_hat[mask], 0.0)
        assert pair.y_hat.sum() == pytest.approx(0.25, abs=1e-12)

    def test_default_threshold_suppresses_empty_buckets(self):
        # Poison occupies only the top quarter of the output range; buckets
        # well below it should be suppressed by the default rule.
        _, grid, counts, transform, _ = make_setup(lo_frac=0.75)
        prior_y = em(transform, counts, tau=1e-4).y_hat
        mask = suppression_mask(prior_y, 0.25)
        pair = em(transform, counts, tau=1e-4, gamma=0.25, suppress=mask)
        lows = transform.poison_midpoints < 0.25 * grid.c_bound
        assert np.all(pair.y_hat[lows] == 0.0)

    def test_suppression_mask_threshold(self):
        prior_y = np.array([0.0, 0.01, 0.02, 0.2])
        # 0.5 * 0.16 / 4 = 0.02: strictly below it is suppressed.
        np.testing.assert_array_equal(
            suppression_mask(prior_y, 0.16), [True, True, False, False]
        )

    def test_all_suppressed_is_inconsistent(self):
        _, _, counts, transform, _ = make_setup()
        mask = np.ones(transform.n_poison, dtype=bool)
        with pytest.raises(InconsistentSuppressionError):
            em(transform, counts, tau=1e-4, gamma=0.25, suppress=mask)

    def test_suppression_requires_gamma(self):
        _, _, counts, transform, _ = make_setup()
        mask = np.zeros(transform.n_poison, dtype=bool)
        with pytest.raises(ValueError):
            em(transform, counts, tau=1e-4, suppress=mask)

    @pytest.mark.parametrize("gamma", [0.0, 0.25])
    def test_nothing_suppressed_is_emf_star_bit_for_bit(self, gamma):
        _, _, counts, transform, _ = make_setup(n=5_000)
        mask = np.zeros(transform.n_poison, dtype=bool)
        pinned = em(transform, counts, tau=1e-6, gamma=gamma)
        none_suppressed = em(transform, counts, tau=1e-6, gamma=gamma, suppress=mask)
        assert none_suppressed.iterations == pinned.iterations
        assert none_suppressed.log_likelihood == pinned.log_likelihood
        np.testing.assert_array_equal(none_suppressed.x_hat, pinned.x_hat)
        np.testing.assert_array_equal(none_suppressed.y_hat, pinned.y_hat)


def same_bits(a, b):
    return (
        a.iterations == b.iterations
        and a.converged == b.converged
        and a.log_likelihood == b.log_likelihood
        and a.x_hat.tobytes() == b.x_hat.tobytes()
        and a.y_hat.tobytes() == b.y_hat.tobytes()
    )


class TestWarmStart:
    def test_no_start_is_the_uniform_start_bit_for_bit(self):
        _, _, counts, transform, _ = make_setup(n=5_000)
        d, p = transform.grid.d, transform.n_poison
        k = d + p
        uniform = HistogramPair(
            x_hat=np.full(d, 1.0 / k), y_hat=np.full(p, 1.0 / k),
            iterations=0, converged=False, log_likelihood=-math.inf,
        )
        mask = np.zeros(p, dtype=bool)
        mask[::3] = True
        for kw in ({}, {"gamma": 0.25}, {"gamma": 0.25, "suppress": mask}):
            cold = em(transform, counts, 1e-6, **kw)
            warm = em(transform, counts, 1e-6, start=uniform, **kw)
            assert same_bits(cold, warm), kw

    def test_emf_pair_is_a_fixed_point_at_its_own_mass(self):
        budget, _, counts, transform, _ = make_setup()
        tau = default_tolerance(budget)
        pair = em(transform, counts, tau)
        kept = dataclasses.replace(pair, x_hat=pair.x_hat.copy(), y_hat=pair.y_hat.copy())
        warm = em(transform, counts, tau, gamma=pair.poison_mass, start=pair)
        assert warm.converged and warm.iterations <= 2
        assert warm.y_hat.sum() == pytest.approx(pair.poison_mass, abs=1e-12)
        cold = em(transform, counts, tau, gamma=pair.poison_mass)
        assert cold.iterations > warm.iterations
        # The start is read, not written, and the result shares no buffer.
        assert same_bits(pair, kept)
        assert not np.shares_memory(warm.x_hat, warm.y_hat)

    @pytest.mark.parametrize("suppressed", [False, True])
    def test_start_without_kept_poison_mass_still_pins_gamma(self, suppressed):
        _, _, counts, transform, _ = make_setup(n=5_000)
        pair = em(transform, counts, tau=1e-4)
        p = transform.n_poison
        mask = np.zeros(p, dtype=bool)
        y0 = np.zeros(p)
        if suppressed:
            mask[: p // 2] = True
            y0[mask] = 0.1  # mass only where it is suppressed
        start = dataclasses.replace(pair, y_hat=y0)
        got = em(transform, counts, 1e-4, gamma=0.25, suppress=mask, start=start)
        assert got.y_hat.sum() == pytest.approx(0.25, abs=1e-12)
        np.testing.assert_array_equal(got.y_hat[mask], 0.0)

    def test_start_without_normal_mass_still_pins_it(self):
        _, _, counts, transform, _ = make_setup(n=5_000)
        pair = em(transform, counts, tau=1e-4)
        start = dataclasses.replace(pair, x_hat=np.zeros_like(pair.x_hat))
        got = em(transform, counts, 1e-4, gamma=0.25, start=start)
        assert got.x_hat.sum() == pytest.approx(0.75, abs=1e-12)

    def test_suppressed_entries_of_a_start_come_back_zero(self):
        _, _, counts, transform, _ = make_setup(n=5_000)
        pair = em(transform, counts, tau=1e-4)
        assert np.all(pair.y_hat > 0)
        mask = np.zeros(transform.n_poison, dtype=bool)
        mask[1::2] = True
        got = em(transform, counts, 1e-4, gamma=0.25, suppress=mask, start=pair)
        np.testing.assert_array_equal(got.y_hat[mask], 0.0)
        assert got.y_hat.sum() == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("x_hat", lambda h: h[:-1]),
            ("y_hat", lambda h: np.append(h, 0.0)),
            ("x_hat", lambda h: np.where(np.arange(h.size) == 0, -1e-3, h)),
            ("y_hat", lambda h: np.where(np.arange(h.size) == 0, np.nan, h)),
            ("y_hat", lambda h: np.where(np.arange(h.size) == 0, np.inf, h)),
        ],
        ids=["short-x", "long-y", "negative", "nan", "inf"],
    )
    def test_rejects_a_malformed_start(self, field, value):
        _, _, counts, transform, _ = make_setup(n=5_000)
        pair = em(transform, counts, tau=1e-4)
        bad = dataclasses.replace(pair, **{field: value(getattr(pair, field))})
        with pytest.raises(ValueError, match=f"start {field}"):
            em(transform, counts, 1e-4, gamma=0.25, start=bad)

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_rejects_a_mask_of_the_wrong_length(self, delta):
        _, _, counts, transform, _ = make_setup(n=5_000)
        mask = np.zeros(transform.n_poison + delta, dtype=bool)
        with pytest.raises(ValueError, match="suppress"):
            em(transform, counts, 1e-4, gamma=0.25, suppress=mask)


class TestProbe:
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_finds_poisoned_side(self, side):
        rng = np.random.default_rng(3)
        budget = Budget(2.0)
        c = budget.c_bound
        n = 20_000
        m = int(0.25 * n)
        honest = rng.uniform(-1, 1, n - m)
        reports_h = pm_perturb(honest, budget, rng)
        if side == "right":
            spec = PoisonSpec(range_lo=0.5 * c, range_hi=c, side="right")
        else:
            spec = PoisonSpec(range_lo=-c, range_hi=-0.5 * c, side="left")
        reports_p = gen_bba(spec, m, budget, rng)
        reports = np.concatenate([reports_h, reports_p])
        grid = BucketGrid.for_reports(n, budget)
        counts = bucket_counts(reports, grid)
        tl = build_transform(grid, side="left")
        tr = build_transform(grid, side="right")
        probe = probe_side(tl, tr, counts)
        assert probe.side == side
        for pair in (probe.pair_left, probe.pair_right):
            assert (pair.x_hat.size, pair.y_hat.size) == (grid.d, grid.d_out // 2)
        winner = probe.var_right if side == "right" else probe.var_left
        loser = probe.var_left if side == "right" else probe.var_right
        assert winner < loser
        assert probe.winning_pair is (
            probe.pair_right if side == "right" else probe.pair_left
        )

    def test_a_probe_is_its_two_fits(self):
        # The grid and counts belong to the group, not to its probe.
        assert [f.name for f in dataclasses.fields(SideProbe)] == ["pair_left", "pair_right"]


class TestFeatures:
    def test_m_hat_rounds_gamma_times_reports(self):
        _, _, counts, transform, _ = make_setup()
        pair = em(transform, counts, tau=1e-4)
        m_hat = attacker_count(pair.poison_mass, counts.n_reports)
        assert m_hat == np.round(pair.poison_mass * counts.n_reports)

    def test_m_hat_clamped_to_leave_one_honest_report(self):
        assert attacker_count(0.94, 10) == 9.0
        assert attacker_count(0.97, 10) == 9.0  # round(9.7) = 10 would leave none

