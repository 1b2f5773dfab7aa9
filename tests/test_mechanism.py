import hashlib
import math
import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dapmean import mechanism
from dapmean.mechanism import (
    PM_BLOCK,
    Budget,
    BucketGrid,
    Dataset,
    DegenerateRangeError,
    DomainError,
    InvalidBudgetError,
    check_number,
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

    @pytest.mark.parametrize(
        "eps", [2000.0, 80.0, 1e-17, math.inf, math.nan, True, "1"],
        ids=["overflow", "c-rounds-to-1", "divides-by-zero", "inf", "nan", "bool", "str"],
    )
    def test_rejects_epsilon_whose_c_is_not_finite_and_above_one(self, eps):
        # e^(eps/2) overflows at 2000; at 80, C = (t+1)/(t-1) rounds to exactly
        # 1; at 1e-17, e^(eps/2) rounds to 1 and C divides by zero.
        with pytest.raises(InvalidBudgetError, match=r"^epsilon .*got"):
            Budget(eps)

    def test_epsilon_just_below_the_top_keeps_c_above_one(self):
        assert 1.0 < Budget(73.0).c_bound < 1.0 + 1e-15


class TestCheckNumber:
    @pytest.mark.parametrize("x", [0, -2.5, np.float32(0.5), np.int64(3)])
    def test_accepts_finite_reals(self, x):
        check_number("x", x)

    @pytest.mark.parametrize(
        "x", [True, None, "1", math.nan, math.inf, -math.inf, np.ones(1), -(10**400)]
    )
    def test_rejects_everything_else(self, x):
        with pytest.raises(ValueError, match=r"^x must be a finite number, got "):
            check_number("x", x)

    @pytest.mark.parametrize("x", [1.5, 2.0, np.float64(2.0), False])
    def test_integer_rejects_non_integers(self, x):
        with pytest.raises(ValueError, match=r"^n must be an integer, got "):
            check_number("n", x, integer=True)

    @pytest.mark.parametrize("x", [2, np.int64(2), 10**400])
    def test_integer_accepts_any_integral(self, x):
        check_number("n", x, integer=True)

    @pytest.mark.parametrize(
        "bounds, inside, outside",
        [({"ge": 0}, 0, -0.1), ({"gt": 0}, 0.1, 0), ({"le": 1}, 1, 1.1), ({"lt": 0.5}, 0.4, 0.5)],
    )
    def test_each_bound_is_checked(self, bounds, inside, outside):
        check_number("x", inside, **bounds)
        with pytest.raises(ValueError, match="^x must be a finite number [<>]"):
            check_number("x", outside, **bounds)

    def test_message_names_every_bound(self):
        with pytest.raises(ValueError) as exc:
            check_number("gamma", 0.5, ge=0, lt=0.5)
        assert str(exc.value) == "gamma must be a finite number >= 0 and < 0.5, got 0.5"


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_input(self, bad):
        with pytest.raises(DomainError):
            pm_perturb(np.array([0.5, bad, -0.5]), Budget(1.0), np.random.default_rng(0))

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


def whole_array_pm(v, budget, rng):
    """Oracle for ``pm_perturb``: the piecewise mechanism drawn as three
    full-length uniform streams, with every temporary full length."""
    arr = np.asarray(v, dtype=float)
    c = budget.c_bound
    lo = budget.low_edge(arr)
    hi = lo + c - 1.0
    in_band = rng.random(arr.shape) < budget.high_band_prob
    out = lo + rng.random(arr.shape) * (c - 1.0)
    w = rng.random(arr.shape) * (c + 1.0)
    left_len = lo + c
    tail = np.where(w < left_len, -c + w, hi + (w - left_len))
    return np.where(in_band, out, tail)


def pin_input(shape):
    if shape is None:
        return 0.3
    return np.random.default_rng(sum(shape) + 1).uniform(-1.0, 1.0, shape)


class TestPinnedPerturbBits:
    """Outputs (sha256 prefix of the float64 bytes) and the generator's next
    double, recorded when ``pm_perturb`` drew each stream in one call.  The
    sizes straddle 2^16-value blocks; the next double depends only on the
    number of values.  Recorded with numpy 2.4 on x86-64."""

    NEXT = {
        (0,): "0x1.5a0690ac7ba99p-1",
        (1,): "0x1.99539ec7d13e7p-1",
        (65_535,): "0x1.4125f84388b5ap-1",
        (65_536,): "0x1.39bdfad960d24p-1",
        (65_537,): "0x1.7098f5b40adbbp-1",
        (131_075,): "0x1.d4640f829a048p-2",
        (300, 700): "0x1.1fd14ef1b31a0p-2",
        None: "0x1.99539ec7d13e7p-1",
    }
    OUTPUT = {
        1.0 / 16.0: {
            (0,): "e3b0c44298fc1c14",
            (1,): "c25020d6b0018227",
            (65_535,): "5053ca4ee2c3f92b",
            (65_536,): "559baae9c200f799",
            (65_537,): "77acd7c61f0208e1",
            (131_075,): "80d878c4c90b7653",
            (300, 700): "f42773ff738b2289",
            None: "beecee5d6700a4b3",
        },
        1.0: {
            (0,): "e3b0c44298fc1c14",
            (1,): "70b4c7dbaceaf744",
            (65_535,): "2fc675176e945f17",
            (65_536,): "59a4977927a8dbce",
            (65_537,): "50006a597aeddb34",
            (131_075,): "0be7b026e0804303",
            (300, 700): "3b3a54e9bcb09091",
            None: "01f0b045d108034c",
        },
        4.0: {
            (0,): "e3b0c44298fc1c14",
            (1,): "0f67fe0783858d9f",
            (65_535,): "f1179448d7939f95",
            (65_536,): "39c3497d50d046ad",
            (65_537,): "8fcc3a9f767f9abc",
            (131_075,): "ab49fde364270e55",
            (300, 700): "ba7f81539b1f395b",
            None: "7febe9cc63dee9e3",
        },
    }

    @pytest.mark.parametrize("shape", list(NEXT), ids=str)
    @pytest.mark.parametrize("eps", sorted(OUTPUT))
    def test_output_and_stream(self, eps, shape):
        rng = np.random.default_rng(2024)
        out = pm_perturb(pin_input(shape), Budget(eps), rng)
        if shape is None:
            assert type(out) is float
        else:
            assert out.shape == shape
        digest = hashlib.sha256(np.asarray(out, dtype=float).tobytes()).hexdigest()[:16]
        assert digest == self.OUTPUT[eps][shape]
        assert rng.random().hex() == self.NEXT[shape]


# The block sizes the blocked draws are checked at.  Input sizes are written
# against the largest, a multiple of the others, so they straddle blocks of
# every size.
BLOCK_SIZES = (1 << 10, 1 << 14, 1 << 16)
BIG_BLOCK = max(BLOCK_SIZES)


def at_block_sizes(*cases):
    """Each ``pytest.param`` case once per block size, the size first; the
    case keeps its own id at the shipped ``PM_BLOCK``."""
    return [
        pytest.param(
            block, *case.values, id=case.id if block == PM_BLOCK else f"{case.id}-block{block}"
        )
        for case in cases
        for block in BLOCK_SIZES
    ]


class TestBlockedPerturb:
    @pytest.mark.parametrize(
        "block,v",
        at_block_sizes(
            pytest.param(np.linspace(-1.0, 1.0, BIG_BLOCK + 1), id="block+1"),
            pytest.param(
                np.random.default_rng(1).uniform(-1.0, 1.0, (2 * BIG_BLOCK + 3,)), id="2block+3"
            ),
            pytest.param(np.random.default_rng(2).uniform(-1.0, 1.0, (400, 300)).T, id="transposed"),
        ),
    )
    def test_equals_whole_array_draws(self, block, v, monkeypatch):
        monkeypatch.setattr(mechanism, "PM_BLOCK", block)
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = pm_perturb(v, Budget(1.0), rng)
        assert got.shape == v.shape
        assert np.array_equal(got, whole_array_pm(v, Budget(1.0), ref_rng))
        assert rng.random() == ref_rng.random()

    def test_peak_memory_within_twice_the_output(self):
        # Only the output and the in-band mask are full length; every other
        # temporary is one block.  The whole-array form peaks near 9x.
        v = np.random.default_rng(0).uniform(-1.0, 1.0, 1_000_000)
        tracemalloc.start()
        try:
            out = pm_perturb(v, Budget(1.0 / 16.0), np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * out.nbytes

    @pytest.mark.parametrize(
        "n,reps", [(70_000, 1), (1_000_000, 1), (15_000, 16)], ids=["70k", "1M", "15k-users-x16"]
    )
    def test_peak_memory_above_the_output_is_the_mask_and_one_block(self, n, reps):
        # Above the output, only the in-band mask (one byte per report) is
        # full length; the block temporaries stay under 1.5 MB at any size.
        v = np.random.default_rng(0).uniform(-1.0, 1.0, n)
        tracemalloc.start()
        try:
            out = pm_perturb(v, Budget(1.0 / 16.0), np.random.default_rng(1), reps=reps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= out.size + 1_500_000


class TestRepeatedPerturb:
    @pytest.mark.parametrize(
        "block,reps,n",
        at_block_sizes(
            pytest.param(1, BIG_BLOCK + 5, id="1"),
            pytest.param(3, 30_000, id="3"),
            pytest.param(16, 4_097, id="16"),
            pytest.param(2 * BIG_BLOCK, 3, id="2block"),
        ),
    )
    def test_equals_perturbing_the_repeated_values(self, block, reps, n, monkeypatch):
        monkeypatch.setattr(mechanism, "PM_BLOCK", block)
        v = np.random.default_rng(reps).uniform(-1.0, 1.0, n)
        rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
        got = pm_perturb(v, Budget(0.5), rng, reps=reps)
        expect = pm_perturb(np.repeat(v, reps), Budget(0.5), ref_rng)
        assert got.shape == (n * reps,)
        assert np.array_equal(got, expect)
        assert rng.random() == ref_rng.random()

    def test_writes_into_out(self):
        v = np.random.default_rng(1).uniform(-1.0, 1.0, 500)
        stream = np.full(1_600, 7.0)
        rng, ref_rng = np.random.default_rng(2), np.random.default_rng(2)
        got = pm_perturb(v, Budget(1.0), rng, out=stream[100:1_100], reps=2)
        assert got.base is stream
        assert np.array_equal(stream[100:1_100], pm_perturb(v, Budget(1.0), ref_rng, reps=2))
        assert np.all(stream[:100] == 7.0) and np.all(stream[1_100:] == 7.0)
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize(
        "out",
        [np.empty(999), np.empty(1_001), np.empty((500, 2)), np.empty(1_000, np.float32),
         np.empty(2_000)[::2], [0.0] * 1_000],
        ids=["short", "long", "2d", "float32", "strided", "list"],
    )
    def test_rejects_an_out_of_the_wrong_kind(self, out):
        v = np.zeros(500)
        with pytest.raises(ValueError, match="out must be"):
            pm_perturb(v, Budget(1.0), np.random.default_rng(0), out=out, reps=2)

    def test_rejects_zero_reps(self):
        with pytest.raises(ValueError, match="reps"):
            pm_perturb(np.zeros(3), Budget(1.0), np.random.default_rng(0), reps=0)

    @pytest.mark.parametrize("reps", [1.5, float("nan"), True, 2.0, "2", -1])
    def test_rejects_reps_that_are_not_counts(self, reps):
        with pytest.raises(ValueError, match="^reps must be an integer"):
            pm_perturb(np.zeros(3), Budget(1.0), np.random.default_rng(0), reps=reps)


B1 = Budget(1.0)


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
        input_edges = np.linspace(-1, 1, g.d + 1)
        assert input_edges[0] == pytest.approx(-1.0)
        assert input_edges[-1] == pytest.approx(1.0)
        assert g.output_edges[0] == pytest.approx(-b.c_bound)
        assert g.output_edges[-1] == pytest.approx(b.c_bound)
        assert input_edges.size == g.d + 1
        assert g.output_edges.size == g.d_out + 1
        np.testing.assert_array_equal(
            g.input_midpoints, 0.5 * (input_edges[:-1] + input_edges[1:])
        )

    @pytest.mark.parametrize(
        "n_reports", [float("nan"), float("inf"), 100.5, 100.0, True, "100"]
    )
    def test_for_reports_takes_an_integer_count(self, n_reports):
        with pytest.raises(ValueError, match="^n_reports must be an integer"):
            BucketGrid.for_reports(n_reports, Budget(1.0))

    def test_default_split_is_half(self):
        g = BucketGrid.for_reports(10_000, Budget(1.0))
        assert g.poison_slice("right").start == g.d_out // 2

    @pytest.mark.parametrize(
        "d, d_out, budget",
        [
            (0, 8, B1), (-2, 8, B1), (4, 7, B1), (4, 0, B1), (2.5, 4, B1), (4, 4.0, B1),
            (True, 8, B1), (4, "8", B1), (4, 8, 1.0), (4, 8, float("nan")), (4, 8, True),
            (4, 8, B1.c_bound), (4, 8, None),
        ],
        ids=[
            "d0", "d-neg", "odd-d_out", "d_out0", "d-float", "d_out-float", "d-bool",
            "d_out-str", "c_bound1", "c_bound-nan", "c_bound-bool", "c_bound", "budget-none",
        ],
    )
    def test_rejects_bad_sizes(self, d, d_out, budget):
        # A C bound where the Budget goes is not a budget, even a valid C.
        with pytest.raises(ValueError, match="^(d|d_out|budget) must be"):
            BucketGrid(d=d, d_out=d_out, budget=budget)

    def test_poison_slice_rejects_unknown_side(self):
        with pytest.raises(ValueError, match="side"):
            BucketGrid.for_reports(10_000, Budget(1.0)).poison_slice("up")

    def test_poison_indices(self):
        g = BucketGrid.for_reports(10_000, Budget(1.0))
        half = g.d_out // 2
        right = np.arange(g.d_out)[g.poison_slice("right")]
        left = np.arange(g.d_out)[g.poison_slice("left")]
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
        m = perturbation_matrix(g)
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
        m = perturbation_matrix(g)
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


class TestDataset:
    def test_rejects_nan_values(self):
        with pytest.raises(DomainError):
            Dataset(values=np.array([0.0, math.nan, 0.5]))

    def test_true_mean_is_the_values_mean(self):
        values = np.random.default_rng(3).uniform(-1, 1, 1001)
        assert Dataset(values=values).true_mean.hex() == float(values.mean()).hex()
        ds = normalize_dataset(np.random.default_rng(4).beta(2, 5, 999))
        assert ds.true_mean.hex() == float(ds.values.mean()).hex()

    def test_true_mean_cannot_be_set(self):
        with pytest.raises(TypeError):
            Dataset(values=np.array([-1.0, 1.0, 0.5]), true_mean=123.0)
        ds = Dataset(values=np.array([-1.0, 1.0, 0.5]))
        with pytest.raises(FrozenInstanceError):
            ds.true_mean = 123.0
        assert ds.true_mean == float(np.mean([-1.0, 1.0, 0.5]))


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

    @pytest.mark.parametrize("raw", [[], [3.0]], ids=["no-value", "one-value"])
    def test_fewer_than_two_values_rejected(self, raw):
        with pytest.raises(DegenerateRangeError, match="at least 2 values"):
            normalize_dataset(np.array(raw))
