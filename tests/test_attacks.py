import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dapmean.attacks import (
    NotBiasedError,
    PoisonSpec,
    evasion_bounds,
    evasive_strategy,
    gen_bba,
    gen_gba,
    gen_input_manipulation,
    input_manipulation_strategy,
    poison_strategy,
    reduce_gba_to_bba,
    resolve_endpoint,
)
from dapmean.bench import ATTACK_KINDS, build_attack
from dapmean.mechanism import Budget, DomainError


BUDGET = Budget(1.0)
C = BUDGET.c_bound


class TestPoisonSpec:
    def test_defaults_valid(self):
        PoisonSpec()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"range_lo": 1.0, "range_hi": 0.5},
            {"dist": "cauchy"},
            {"side": "up"},
            {"range_lo": "D"},
            {"mu": "x"},
            {"sigma": -1.0},
            {"mu": 3.0},
            {"dist": "point", "sigma": 0.1},
            {"dist": "gaussian", "value": 1.0},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            PoisonSpec(**kwargs)

    @pytest.mark.parametrize("c", [1.25, 4.328, 64.0])
    def test_expression_ends_resolve_like_resolve_endpoint(self, c):
        o = -0.2871
        spec = PoisonSpec(range_lo="(C + O) / 2", range_hi="C")
        expect = (resolve_endpoint("(C + O) / 2")(c, o), resolve_endpoint("C")(c, o))
        assert spec.range_at(c, o) == expect

    def test_inverted_expression_range_fails_when_resolved(self):
        spec = PoisonSpec(range_lo="C", range_hi="C/2")
        with pytest.raises(ValueError, match="must not exceed"):
            gen_bba(spec, 10, BUDGET, np.random.default_rng(0))


class TestGenBBA:
    def test_uniform_values_in_range(self):
        spec = PoisonSpec(range_lo=0.5 * C, range_hi=C)
        values = gen_bba(spec, 500, BUDGET, np.random.default_rng(0))
        assert values.dtype == np.float64 and values.size == 500
        assert np.all((values >= 0.5 * C) & (values <= C))
        assert np.all(values >= 0.0)

    def test_point_mass(self):
        spec = PoisonSpec(range_lo=0.0, range_hi=C, dist="point", value=1.5)
        values = gen_bba(spec, 10, BUDGET, np.random.default_rng(0))
        np.testing.assert_array_equal(values, np.full(10, 1.5))

    def test_gaussian_truncated_to_range(self):
        spec = PoisonSpec(range_lo=1.0, range_hi=2.0, dist="gaussian", mu=1.9, sigma=1.0)
        values = gen_bba(spec, 1000, BUDGET, np.random.default_rng(0))
        assert np.all((values >= 1.0) & (values <= 2.0))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            gen_bba(PoisonSpec(), -1, BUDGET, np.random.default_rng(0))

    @pytest.mark.parametrize("m", [1.5, True, float("nan"), 3.0, "3"])
    def test_count_must_be_an_integer(self, m):
        with pytest.raises(ValueError, match="^m must be an integer"):
            gen_bba(PoisonSpec(), m, BUDGET, np.random.default_rng(0))

    def test_crossing_reference_rejected(self):
        spec = PoisonSpec(range_lo=-0.5, range_hi=C, side="right")
        with pytest.raises(NotBiasedError):
            gen_bba(spec, 10, BUDGET, np.random.default_rng(0))

    def test_outside_perturbed_domain_rejected(self):
        spec = PoisonSpec(range_lo=0.0, range_hi=C + 1.0)
        with pytest.raises(DomainError):
            gen_bba(spec, 10, BUDGET, np.random.default_rng(0))

    @pytest.mark.parametrize("mu, sigma", [(50.0, 0.0), (50.0, 1.0)])
    def test_gaussian_without_mass_in_range_raises(self, mu, sigma):
        # Rejection sampling could never fill a range that holds no mass.
        spec = PoisonSpec(range_lo=0.75 * C, range_hi=C, dist="gaussian", mu=mu, sigma=sigma)
        for m in (10, 0):
            with pytest.raises(ValueError, match="mass"):
                gen_bba(spec, m, BUDGET, np.random.default_rng(0))

    def test_left_side_relative_to_reference(self):
        spec = PoisonSpec(range_lo=-C, range_hi=-0.7, side="left")
        values = gen_bba(spec, 50, BUDGET, np.random.default_rng(1), reference_mean=-0.6)
        assert np.all(values <= -0.6)
        assert np.sum(values - -0.6) < 0


class TestGenGBA:
    def test_two_sided_union(self):
        left = PoisonSpec(range_lo=-C, range_hi=-0.2, side="left")
        right = PoisonSpec(range_lo=0.3, range_hi=C, side="right")
        values = gen_gba(left, right, 40, 60, BUDGET, np.random.default_rng(0))
        assert values.dtype == np.float64 and values.size == 100
        assert np.all(values[:40] < 0.0)
        assert np.all(values[40:] > 0.0)

    def test_requires_opposite_sides(self):
        spec = PoisonSpec(range_lo=0.3, range_hi=C, side="right")
        with pytest.raises(ValueError):
            gen_gba(spec, spec, 10, 10, BUDGET, np.random.default_rng(0))


class TestReduction:
    def test_hand_example(self):
        # {-0.8, +0.3} about 0: deviation sum -0.5, so the one-sided
        # equivalent is the single value -0.5.
        vals = np.array([-0.8, 0.3])
        out = reduce_gba_to_bba(vals, bound=C)
        np.testing.assert_allclose(np.sort(out), [-0.5])
        assert np.sum(out) == pytest.approx(np.sum(vals))

    def test_one_sided_input_unchanged(self):
        vals = np.array([0.1, 0.7, 1.9])
        out = reduce_gba_to_bba(vals, 0.0, bound=C)
        np.testing.assert_array_equal(out, vals)

    def test_zero_deviation_reduces_to_empty(self):
        out = reduce_gba_to_bba(np.array([-0.4, 0.4]), 0.0, bound=C)
        assert out.shape == (0,)
        assert np.sum(out) == 0.0

    def test_reduces_about_the_trace_reference(self):
        # About 0.5, {0.0, 0.7} deviates by -0.5 and +0.2: one value at 0.2.
        out = reduce_gba_to_bba(np.array([0.0, 0.7]), 0.5)
        np.testing.assert_allclose(out, [0.2])

    @pytest.mark.parametrize(
        "values, ref",
        [([1.0, np.nan, -2.0], 0.0), ([1.0, np.inf, -2.0], 0.0), ([1.0, -2.0], np.nan)],
        ids=["nan-value", "inf-value", "nan-reference"],
    )
    def test_non_finite_input_rejected(self, values, ref):
        with pytest.raises(ValueError, match="finite"):
            reduce_gba_to_bba(np.array(values), ref)

    def test_bound_is_keyword_only(self):
        # The second positional argument is the reference; a third is refused.
        with pytest.raises(TypeError):
            reduce_gba_to_bba(np.array([-0.8, 0.3]), 0.0, C)

    @pytest.mark.parametrize("values", [[-0.8, C + 0.1], [-C - 0.1, 0.3]], ids=["above", "below"])
    def test_value_outside_bound_rejected(self, values):
        with pytest.raises(DomainError):
            reduce_gba_to_bba(np.array(values), bound=C)

    @pytest.mark.parametrize("bound", [float("nan"), -1.0, 0, True], ids=["nan", "neg", "zero", "bool"])
    def test_bad_bound_rejected(self, bound):
        with pytest.raises(ValueError, match="^bound must be a finite number > 0"):
            reduce_gba_to_bba(np.array([-0.8, 0.3]), bound=bound)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_left=st.integers(min_value=1, max_value=30),
        n_right=st.integers(min_value=1, max_value=30),
        o=st.floats(min_value=-0.5, max_value=0.5),
    )
    def test_reduction_properties(self, seed, n_left, n_right, o):
        rng = np.random.default_rng(seed)
        vals = np.concatenate(
            [rng.uniform(-C, o, n_left), rng.uniform(o, C, n_right)]
        )
        out = reduce_gba_to_bba(vals, o, bound=C)
        dev = np.sum(out - o)
        assert dev == pytest.approx(np.sum(vals - o), abs=1e-9)
        assert np.all(out <= o + 1e-12) or np.all(out >= o - 1e-12)
        assert np.all(np.abs(out) <= C + 1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(st.floats(min_value=-C, max_value=C), min_size=1, max_size=60),
        decimals=st.sampled_from([None, 0, 1]),
        o=st.one_of(st.floats(min_value=-1, max_value=1), st.sampled_from([0.0, -0.0, 0.5])),
    )
    def test_matches_the_list_reduction(self, values, decimals, o):
        # Rounded values bring ties and exact (signed) zeros.
        v = np.array(values) if decimals is None else np.round(values, decimals)
        got, want = reduce_gba_to_bba(v, o), reduce_by_list(v, o)
        assert_reduced(v, o, got)
        if math.copysign(1.0, o) < 0 and o == 0.0:
            # About -0.0 a +0.0 and a -0.0 deviation map to different outputs,
            # and equal deviations may come out in either order.
            np.testing.assert_array_equal(got, want)
        else:
            assert got.tobytes() == want.tobytes()

    def test_large_two_sided_trace(self):
        rng = np.random.default_rng(5)
        o = 0.1
        vals = np.concatenate([rng.uniform(-C, o, 47_500), rng.uniform(o, C, 52_500)])
        rng.shuffle(vals)
        out = reduce_gba_to_bba(vals, o, bound=C)
        assert_reduced(vals, o, out)
        assert np.all(out >= o)


def assert_reduced(values, o, out):
    """The reduction's guarantees: the same deviation sum, one side of o, no
    more values, and no value outside the input's range.  The side and the
    range hold up to the rounding of v - o and back: about -0.5, the trace
    [3.73, -0.5000000000000001] reduces to [3.7300000000000004]."""
    tol = 1e-12 * (1.0 + abs(o) + np.abs(values).max())
    scale = 1.0 + np.abs(values - o).sum()
    assert np.sum(out - o) == pytest.approx(np.sum(values - o), abs=1e-12 * scale)
    assert np.all(out <= o + tol) or np.all(out >= o - tol)
    assert out.size <= values.size
    assert np.all(out >= values.min() - tol) and np.all(out <= values.max() + tol)


def reduce_by_list(values, reference_mean):
    """The reduction with sorted lists: each minority value re-sorts, slices
    and front-inserts the whole dominant list, so it is quadratic.  Kept as
    the reference the heap pass must reproduce byte for byte."""
    v, o = np.asarray(values, dtype=float), reference_mean
    if not (np.any(v < o) and np.any(v > o)):
        return v.copy()
    dev_sum = float(np.sum(v - o))
    if dev_sum == 0.0:
        return np.empty(0)
    flip = dev_sum > 0.0
    dev = -(v - o) if flip else (v - o)
    keep = sorted(dev[dev <= 0.0].tolist())
    minority = sorted(dev[dev > 0.0].tolist())
    while minority:
        acc = minority.pop()
        absorbed = 0
        while acc > 0.0 and absorbed < len(keep):
            acc += keep[absorbed]
            absorbed += 1
        keep = keep[absorbed:]
        keep.insert(0, acc)
        keep.sort()
    out_dev = np.asarray(keep)
    return o + (-out_dev if flip else out_dev)


class TestInputManipulation:
    def test_reports_live_in_perturbed_domain(self):
        values = gen_input_manipulation(1.0, 1000, BUDGET, np.random.default_rng(0))
        assert values.dtype == np.float64 and values.size == 1000
        assert np.all(np.abs(values) <= C)

    def test_rejects_out_of_domain_input(self):
        with pytest.raises(DomainError):
            gen_input_manipulation(1.5, 10, BUDGET, np.random.default_rng(0))

    @pytest.mark.parametrize("m", [-1, 2.5, True, float("nan"), "3"])
    def test_count_must_be_an_integer_at_least_0(self, m):
        with pytest.raises(ValueError, match="^m must be an integer >= 0"):
            gen_input_manipulation(1.0, m, BUDGET, np.random.default_rng(0))

    def test_no_attackers_draw_nothing(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        values = gen_input_manipulation(1.0, 0, BUDGET, rng)
        assert values.shape == (0,)
        assert rng.bit_generator.state == before

    def test_biases_toward_input(self):
        values = gen_input_manipulation(1.0, 50_000, BUDGET, np.random.default_rng(0))
        assert values.mean() == pytest.approx(1.0, abs=0.05)


class TestEvasive:
    def test_counts(self):
        strat = evasive_strategy(a=0.2, lo=0.5 * C, hi=C, evasive=-0.5 * C)
        values = strat(100, BUDGET, np.random.default_rng(0))
        assert np.sum(values == -0.5 * C) == 20
        assert np.sum(values >= 0.5 * C) == 80

    def test_all_evasive_at_fraction_one(self):
        strat = evasive_strategy(a=1.0, lo=0.5 * C, hi=C, evasive=-1.0)
        values = strat(37, BUDGET, np.random.default_rng(0))
        np.testing.assert_array_equal(values, np.full(37, -1.0))

    def test_evasive_value_must_oppose_side(self):
        strat = evasive_strategy(a=0.2, lo=0.5 * C, hi=C, evasive=0.4)
        with pytest.raises(NotBiasedError):
            strat(10, BUDGET, np.random.default_rng(0))

    def test_true_values_are_gen_bba_draws(self):
        strat = evasive_strategy(a=0.3, lo=0.5 * C, hi=C, evasive=-0.5 * C)
        values = strat(50, BUDGET, np.random.default_rng(4))
        spec = PoisonSpec(range_lo=0.5 * C, range_hi=C)
        bba = gen_bba(spec, 35, BUDGET, np.random.default_rng(4))
        np.testing.assert_array_equal(values[15:], bba)

    @pytest.mark.parametrize(
        "lo, hi, evasive, error",
        [
            (0.5 * C, 3 * C, -0.5 * C, DomainError),
            (-C, C, -C, NotBiasedError),
            (0.5 * C, C, -2 * C, DomainError),
        ],
        ids=["range_outside_domain", "range_crosses_reference", "evasive_outside_domain"],
    )
    def test_checked_like_a_one_sided_attack(self, lo, hi, evasive, error):
        strat = evasive_strategy(a=0.2, lo=lo, hi=hi, evasive=evasive)
        with pytest.raises(error):
            strat(10, BUDGET, np.random.default_rng(0))


class TestEvasionBounds:
    def test_formulas_direct(self):
        m, n, a, c, o, op = 30, 70, 0.25, 3.0, 0.1, -0.2
        u_max, u_eva, delta = evasion_bounds(m, n, a, c, o, op)
        assert u_max == pytest.approx((m * c + n * o) / (m + n) - o)
        assert u_eva == pytest.approx(
            (m * (a * op + (1 - a) * c) + n * o) / (m + n) - o
        )
        assert delta == pytest.approx(m * a * (c - op) / (m + n))

    @pytest.mark.parametrize("m,n", [(0, 70), (-3, 70), (30, 0)])
    def test_rejects_no_attackers_or_no_users(self, m, n):
        with pytest.raises(ValueError, match="m and n must be positive"):
            evasion_bounds(m, n, 0.25, 3.0, 0.1, -0.2)

    def test_identity_random(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = int(rng.integers(1, 1000))
            n = int(rng.integers(1, 10_000))
            a = rng.uniform(0, 1)
            c = rng.uniform(1.1, 50)
            o = rng.uniform(-1, 1)
            op = rng.uniform(-c, o)
            u_max, u_eva, delta = evasion_bounds(m, n, a, c, o, op)
            assert abs((u_max - u_eva) - delta) <= 1e-12


class TestStrategies:
    def test_resolve_endpoint(self):
        assert resolve_endpoint("0.75*C")(4.0, 0.0) == pytest.approx(3.0)
        assert resolve_endpoint("O")(4.0, -0.3) == pytest.approx(-0.3)
        assert resolve_endpoint(1.25)(4.0, 0.0) == 1.25

    @pytest.mark.parametrize("c", [1.25, 4.328, 64.0])
    def test_resolve_endpoint_package_ranges(self, c):
        # Every default range in the package resolves to the same float as
        # the plain arithmetic it spells.
        o = -0.2871
        expect = {"0.75*C": 0.75 * c, "C/2": c / 2, "-C/2": -c / 2, "O": o, "C": c}
        for expr, value in expect.items():
            assert resolve_endpoint(expr)(c, o) == value
        assert resolve_endpoint("(C + O) / 2 - -1")(c, o) == (c + o) / 2 - -1

    @pytest.mark.parametrize(
        "expr",
        [
            "().__class__.__base__.__subclasses__().__len__()",
            "abs(C)",
            "C.real",
            "__import__('os')",
            "D",
            "C**2",
            "C if O else 1",
            "True",
            "'C'",
            "C/0",
            "",
        ],
    )
    def test_resolve_endpoint_rejects_code(self, expr):
        with pytest.raises(ValueError):
            resolve_endpoint(expr)(2.0, 0.0)

    @pytest.mark.parametrize(
        "factory, kwargs",
        [
            (poison_strategy, {"lo": "D"}),
            (poison_strategy, {"hi": "abs(C)"}),
            (poison_strategy, {"lo": True}),
            (poison_strategy, {"hi": float("nan")}),
            (poison_strategy, {"dist": "cauchy"}),
            (poison_strategy, {"mu": "x"}),
            (poison_strategy, {"sigma": -1.0}),
            (poison_strategy, {"value": float("inf")}),
            (poison_strategy, {"reference_mean": "O"}),
            (input_manipulation_strategy, {"g": 1.5}),
            (input_manipulation_strategy, {"g": "1"}),
            (evasive_strategy, {"a": "x"}),
            (evasive_strategy, {"a": -0.1}),
            (evasive_strategy, {"a": 1.2}),
            (evasive_strategy, {"evasive": "C.real"}),
            (evasive_strategy, {"reference_mean": None}),
        ],
        ids=lambda v: getattr(v, "__name__", str(v)),
    )
    def test_factories_check_values_when_built(self, factory, kwargs):
        with pytest.raises(ValueError):
            factory(**kwargs)

    def test_factories_take_any_real_number(self):
        strat = poison_strategy(lo=np.float64(0.5), hi=2, dist="gaussian", mu=1, sigma=np.int64(1))
        out = strat(100, BUDGET, np.random.default_rng(0))
        assert np.all((out >= 0.5) & (out <= 2))
        assert evasive_strategy(a=np.float32(0.5), reference_mean=np.float64(0.0))(
            10, BUDGET, np.random.default_rng(0)
        ).size == 10

    @pytest.mark.parametrize(
        "kwargs",
        [{"dist": "uniform"}, {"dist": "gaussian", "mu": 3.5, "sigma": 0.5}, {"dist": "point"}],
        ids=lambda kw: kw["dist"],
    )
    def test_poison_strategy_equals_gen_bba(self, kwargs):
        o = 0.125
        strat = poison_strategy(lo="0.75*C", hi="C", reference_mean=o, **kwargs)
        spec = PoisonSpec(range_lo="0.75*C", range_hi="C", **kwargs)
        rng, rng2 = np.random.default_rng(7), np.random.default_rng(7)
        out = strat(500, BUDGET, rng)
        expect = gen_bba(spec, 500, BUDGET, rng2, reference_mean=o)
        assert out.tobytes() == expect.tobytes()
        assert rng.random() == rng2.random()

    def test_evasive_strategy_equals_gen_gba(self):
        strat = evasive_strategy(a=0.3, lo="C/2", hi="C", evasive="-C/2")
        decoy = PoisonSpec(range_lo="-C/2", range_hi="-C/2", dist="point", side="left")
        spec = PoisonSpec(range_lo="C/2", range_hi="C")
        rng, rng2 = np.random.default_rng(7), np.random.default_rng(7)
        out = strat(500, BUDGET, rng)
        expect = gen_gba(decoy, spec, 150, 350, BUDGET, rng2)
        assert out.tobytes() == expect.tobytes()
        assert np.sum(out == -C / 2) == 150
        assert rng.random() == rng2.random()

    def test_poison_strategy_scales_with_budget(self):
        strat = poison_strategy(lo="0.75*C", hi="C")
        for eps in (0.25, 1.0, 2.0):
            b = Budget(eps)
            out = strat(200, b, np.random.default_rng(0))
            assert np.all((out >= 0.75 * b.c_bound) & (out <= b.c_bound))

    def test_input_manipulation_strategy(self):
        strat = input_manipulation_strategy(1.0)
        out = strat(100, BUDGET, np.random.default_rng(0))
        assert out.size == 100 and np.all(np.abs(out) <= C)

    def test_evasive_strategy_split(self):
        strat = evasive_strategy(a=0.5)
        out = strat(100, BUDGET, np.random.default_rng(0))
        assert np.sum(out == -C / 2) == 50
        assert np.sum(out >= C / 2) == 50


def bits(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()[:16]


class TestPinnedAttackBits:
    """Attack draws (sha256 prefix of the float64 bytes) and the generator's
    next double, recorded while the generators returned a record holding
    the values and the reference mean.  Returning the bare array must keep
    every draw and the stream after it.  Recorded with numpy 2.4 on x86-64."""

    KIND_PINS = {
        ("uniform", 1 / 16): ("e15e969fd776c59a", "0x1.ce7650e1142c5p-1"),
        ("gaussian", 1 / 16): ("93a2217020ee1e91", "0x1.4c803ecfa4600p-9"),
        ("point", 1 / 16): ("3edbacefa70b04a0", "0x1.fd2992cce51b2p-1"),
        ("input", 1 / 16): ("061ecf1ecfe42063", "0x1.829c8829f1223p-1"),
        ("evasive", 1 / 16): ("3275c793e8daa863", "0x1.9e01e0e7f9eddp-1"),
        ("uniform", 1.0): ("c6049614c9362e40", "0x1.ce7650e1142c5p-1"),
        ("gaussian", 1.0): ("81f2433eb0ff63e8", "0x1.4c803ecfa4600p-9"),
        ("point", 1.0): ("dddaa9202c3434af", "0x1.fd2992cce51b2p-1"),
        ("input", 1.0): ("e58afde5e2691bb8", "0x1.829c8829f1223p-1"),
        ("evasive", 1.0): ("cbfc724e72c2861c", "0x1.9e01e0e7f9eddp-1"),
    }
    GBA_PINS = {
        1 / 16: ("c67d06b284def66c", "0x1.68c90500899f0p-1"),
        1.0: ("9a09dd9c102ba194", "0x1.68c90500899f0p-1"),
    }
    REDUCE_PINS = {1 / 16: ("b71131ae2a77dd8c", 518), 1.0: ("d17d7df176d1fe87", 533)}

    def test_every_kind_is_pinned(self):
        assert {kind for kind, _ in self.KIND_PINS} == set(ATTACK_KINDS)

    @pytest.mark.parametrize("kind, eps", list(KIND_PINS), ids=str)
    def test_build_attack(self, kind, eps):
        rng = np.random.default_rng(2025)
        out = build_attack({"kind": kind}, 0.125)(1000, Budget(eps), rng)
        assert (bits(out), rng.random().hex()) == self.KIND_PINS[(kind, eps)]

    @pytest.mark.parametrize("eps", list(GBA_PINS), ids=str)
    def test_gen_gba(self, eps):
        rng = np.random.default_rng(2025)
        left = PoisonSpec(range_lo="-C", range_hi="O - 0.5", side="left")
        right = PoisonSpec(range_lo="O", range_hi="C", dist="gaussian", side="right")
        out = gen_gba(left, right, 300, 700, Budget(eps), rng, 0.125)
        assert (bits(out), rng.random().hex()) == self.GBA_PINS[eps]

    @pytest.mark.parametrize("eps", list(REDUCE_PINS), ids=str)
    def test_reduce_gba_to_bba(self, eps):
        c = Budget(eps).c_bound
        vals = np.random.default_rng(11).uniform(-c, c, 1000)
        out = reduce_gba_to_bba(vals, 0.125, bound=c)
        assert (bits(out), out.size) == self.REDUCE_PINS[eps]
