"""End-to-end acceptance checks, one test per criterion.

Each test pins the full desk-scale configuration it needs, so this module is
slower than the unit suites; the whole file stays within a few minutes.
"""

import itertools
import math

import numpy as np
import pytest

from dapmean.attacks import (
    PoisonSpec,
    evasion_bounds,
    evasive_strategy,
    gen_bba,
    reduce_gba_to_bba,
)
from dapmean.bench import ExperimentConfig, ExperimentResult, gen_beta, run_experiment
from dapmean.filters import bucket_counts, build_transform, em
from dapmean.mechanism import (
    Budget,
    BucketGrid,
    pm_perturb,
    worst_case_variance,
)
from dapmean.protocol import GroupEstimate, GroupFilterInput, aggregate_means, run_dap


def test_c01_perturbation_unbiased():
    """1e6 perturbations of a fixed value average to it within 4 sigma."""
    budget = Budget(1.0)
    n = 1_000_000
    v = 0.5
    out = pm_perturb(np.full(n, v), budget, np.random.default_rng(123))
    tol = 4.0 * math.sqrt(worst_case_variance(1.0) / n)
    assert abs(out.mean() - v) <= tol


def _poisoned_reports(seed, eps, gamma, make_range, n=100_000, a=2, b=5):
    """Honest Beta-data perturbations plus right-side uniform poison.

    ``make_range`` maps (C, O) to the poison range endpoints, so ranges tied
    to the true mean resolve against this seed's dataset.
    """
    rng = np.random.default_rng(seed)
    budget = Budget(eps)
    ds = gen_beta(a, b, n, seed)
    m = int(gamma * n)
    honest = pm_perturb(ds.values[: n - m], budget, rng)
    if m:
        lo, hi = make_range(budget.c_bound, ds.true_mean)
        spec = PoisonSpec(range_lo=lo, range_hi=hi, side="right")
        poison = gen_bba(spec, m, budget, rng, reference_mean=ds.true_mean)
        reports = np.concatenate([honest, poison])
    else:
        reports = honest
    rng.shuffle(reports)
    return reports, budget, ds


@pytest.mark.parametrize("eps", [2.0, 0.25])
def test_c02_side_probe_variance_ordering(eps):
    """The hypothesis matching the poisoned side yields the flatter normal
    histogram for every poison range, in 10/10 seeded runs."""
    ranges = {
        "[3C/4, C]": lambda c, o: (0.75 * c, c),
        "[C/2, C]": lambda c, o: (0.5 * c, c),
        "[O, C/2]": lambda c, o: (o, 0.5 * c),
        "[O, C]": lambda c, o: (o, c),
    }
    for label, make_range in ranges.items():
        for seed in range(10):
            reports, b, _ = _poisoned_reports(seed, eps, 0.25, make_range)
            probe = GroupFilterInput.from_reports(reports, b).probe
            assert probe.var_right < probe.var_left, (
                f"range {label} seed {seed}: "
                f"var_right {probe.var_right:g} !< var_left {probe.var_left:g}"
            )


def test_c03_attacker_proportion_estimate():
    """At the smallest budget the probed proportion lands within 0.05 of the
    truth in at least 9 of 10 runs, with a bounded false positive at zero."""
    eps = 1.0 / 16.0
    half_top = lambda c, o: (0.5 * c, c)
    for gamma in (0.1, 0.25, 0.4):
        hits = 0
        for seed in range(10):
            reports, budget, _ = _poisoned_reports(seed, eps, gamma, half_top)
            probe = GroupFilterInput.from_reports(reports, budget).probe
            gamma_hat = probe.winning_pair.poison_mass
            hits += abs(gamma_hat - gamma) <= 0.05
        assert hits >= 9, f"gamma={gamma}: only {hits}/10 within 0.05"
    for seed in range(10):
        reports, budget, _ = _poisoned_reports(seed, eps, 0.0, half_top)
        gamma_hat = GroupFilterInput.from_reports(reports, budget).probe.winning_pair.poison_mass
        assert gamma_hat <= 0.05, f"false positive {gamma_hat:g} at seed {seed}"


def _project_scaled_simplex(v, total):
    """Euclidean projection onto {x >= 0, sum x = total}."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, v.size + 1) > (css - total))[0][-1]
    theta = (css[rho] - total) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _pg_maximize(p, total, iters=100_000, tol=1e-14):
    """Projected-gradient ascent of sum(p * log(x)) on a scaled simplex."""
    x = np.full(p.size, total / p.size)
    step = 0.1 * total / max(p.max(), 1e-12)

    def obj(z):
        return float(np.dot(p, np.log(np.maximum(z, 1e-300))))

    for _ in range(iters):
        g = p / np.maximum(x, 1e-300)
        xn = _project_scaled_simplex(x + step * g, total)
        while obj(xn) < obj(x) - 1e-18 and step > 1e-18:
            step *= 0.5
            xn = _project_scaled_simplex(x + step * g, total)
        if np.max(np.abs(xn - x)) < tol:
            return xn
        x = xn
    return x


def test_c04_constrained_m_step_is_the_maximizer():
    """One constrained M-step equals an independent projected-gradient
    maximizer of the EM objective on 100 random responsibility vectors."""
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 100:
        eps = rng.uniform(0.2, 2.0)
        budget = Budget(eps)
        grid = BucketGrid(d=int(rng.choice([2, 4, 6])), d_out=int(rng.choice([8, 12])),
                          budget=budget)
        transform = build_transform(grid, side="right")
        m = transform.matrix
        counts_vec = rng.poisson(200, size=grid.d_out).astype(float)
        if counts_vec.sum() == 0:
            continue

        class Counts:
            counts = counts_vec
            n_reports = int(counts_vec.sum())

        gamma = float(rng.uniform(0.05, 0.45))
        got = em(transform, Counts(), tau=0.0, max_iter=1, gamma=gamma)

        # Independent E-step: textbook responsibilities from the uniform start.
        k = m.shape[1]
        theta0 = np.full(k, 1.0 / k)
        c_norm = counts_vec / counts_vec.sum()
        denom = m @ theta0
        p = theta0 * (m.T @ np.where(denom > 0, c_norm / denom, 0.0))
        d = transform.grid.d
        if p[:d].sum() <= 0 or p[d:].sum() <= 0:
            continue
        x_star = _pg_maximize(p[:d], 1.0 - gamma)
        y_star = _pg_maximize(p[d:], gamma)
        np.testing.assert_allclose(got.x_hat, x_star, atol=1e-6)
        np.testing.assert_allclose(got.y_hat, y_star, atol=1e-6)
        checked += 1


def test_c05_aggregation_weights_beat_grid_search():
    """Closed-form weights never lose to a 0.01-step simplex grid search."""
    rng = np.random.default_rng(9)
    steps = np.round(np.arange(0, 101) / 100.0, 2)
    w1, w2 = np.meshgrid(steps, steps, indexing="ij")
    w3 = 1.0 - w1 - w2
    valid = w3 >= -1e-12
    grid_w = np.stack([w1[valid], w2[valid], np.maximum(w3[valid], 0.0)], axis=1)
    for _ in range(100):
        eps = rng.uniform(0.1, 2.0, size=3)
        n_hat = rng.uniform(10.0, 1000.0, size=3)
        var_t = np.array([worst_case_variance(e) for e in eps]) / n_hat
        groups = [
            GroupEstimate(budget=Budget(e), mean=0.0, gamma_hat=0.0, m_hat=0.0, n_hat=n)
            for e, n in zip(eps, n_hat)
        ]
        closed = aggregate_means(groups).weights
        var_closed = float(np.sum(closed**2 * var_t))
        var_grid = float(np.min(grid_w**2 @ var_t))
        assert var_closed <= var_grid + 1e-9


def test_c06_reduction_preserves_deviation():
    """1000 random two-sided traces reduce to strictly one-sided traces with
    the deviation sum preserved."""
    rng = np.random.default_rng(6)
    c = Budget(1.0).c_bound
    for _ in range(1000):
        o = float(rng.uniform(-0.5, 0.5))
        n_l = int(rng.integers(1, 50))
        n_r = int(rng.integers(1, 50))
        vals = np.concatenate([rng.uniform(-c, o, n_l), rng.uniform(o, c, n_r)])
        out = reduce_gba_to_bba(vals, o, bound=c)
        assert abs(np.sum(out - o) - np.sum(vals - o)) <= 1e-9
        assert np.all(out <= o) or np.all(out >= o)


def test_c07_suppression_monotonically_recovers_mass():
    """On a d=4, d'=8 instance, suppressing empty poison buckets in any order
    never decreases the mass assigned to normal users plus true poison."""
    budget = Budget(0.5)
    grid = BucketGrid(d=4, d_out=8, budget=budget)
    rng = np.random.default_rng(0)
    n, gamma = 40_000, 0.25
    m = int(gamma * n)
    honest = pm_perturb(rng.beta(2, 5, n - m) * 2 - 1, budget, rng)
    c = budget.c_bound
    poison = rng.uniform(0.75 * c, c, m)  # only the top poison bucket
    counts = bucket_counts(np.concatenate([honest, poison]), grid)
    transform = build_transform(grid, side="right")
    true_set = np.array([3])
    complement = [0, 1, 2]
    for order in itertools.permutations(complement):
        mask = np.zeros(4, dtype=bool)
        prev = -np.inf
        for step in range(len(order) + 1):
            pair = em(transform, counts, tau=1e-8, gamma=gamma, suppress=mask.copy())
            recovered = pair.x_hat.sum() + pair.y_hat[true_set].sum()
            assert recovered >= prev - 1e-9, f"order {order}, step {step}"
            prev = recovered
            if step < len(order):
                mask[order[step]] = True


def test_c08_grouped_filter_beats_unprotected_baselines():
    """Grouped filtering cuts the poisoning MSE at least fivefold against
    both the ignore-everything mean and one-sided trimming."""
    cfg = ExperimentConfig(
        dataset={"type": "beta", "a": 2, "b": 5, "n": 100_000},
        eps_list=[1.0],
        eps0=1.0 / 16.0,
        gamma=0.25,
        attack={"kind": "uniform", "lo": "0.75*C", "hi": "C"},
        schemes=["ostrich", "trimming", "dap_emf_star"],
        trials=20,
        seed=8,
    )
    res = run_experiment(cfg)
    mse_dap = res.cell_mse("dap_emf_star", 1.0)
    mse_ostrich = res.cell_mse("ostrich", 1.0)
    mse_trim = res.cell_mse("trimming", 1.0)
    assert mse_dap <= mse_ostrich / 5.0
    assert mse_dap <= mse_trim / 5.0


def test_c09_evasion_identity_and_nonmonotone_sweep():
    """Utility-loss identity holds exactly; the evasion sweep rises while the
    side probe starts to misjudge, then falls as true poison thins out."""
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = int(rng.integers(1, 1000))
        n = int(rng.integers(1, 10_000))
        a = float(rng.uniform(0, 1))
        c = float(rng.uniform(1.1, 50))
        o = float(rng.uniform(-1, 1))
        op = float(rng.uniform(-c, o))
        u_max, u_eva, delta = evasion_bounds(m, n, a, c, o, op)
        assert abs((u_max - u_eva) - delta) <= 1e-12

    ds = gen_beta(5, 2, 100_000, 2)
    n_users = ds.values.size
    sweep = {}
    for a in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
        errs = []
        for t in range(5):
            trial_rng = np.random.default_rng(1000 + t)
            m = int(0.25 * n_users)
            mask = np.zeros(n_users, dtype=bool)
            mask[trial_rng.choice(n_users, m, replace=False)] = True
            truth = ds.values[~mask].mean()
            res = run_dap(
                ds.values, mask, 0.5, 1.0 / 16.0,
                evasive_strategy(a=a), trial_rng, "emf_star",
            )
            errs.append((res.mean - truth) ** 2)
        sweep[a] = float(np.mean(errs))
    mid_max = max(sweep[a] for a in (0.1, 0.2, 0.3, 0.4))
    assert mid_max > sweep[0.0], f"sweep {sweep}"
    assert mid_max > sweep[0.5], f"sweep {sweep}"


def test_c10_reproducibility_byte_identical(tmp_path):
    """Identical seed and config produce byte-identical output files, also
    under parallel trial execution."""
    base = {
        "dataset": {"type": "beta", "a": 2, "b": 5, "n": 5_000},
        "eps_list": [1.0, 0.5],
        "gamma": 0.2,
        "schemes": ["ostrich", "trimming", "dap_emf_star"],
        "trials": 4,
        "seed": 99,
    }
    blobs = []
    for i, workers in enumerate((1, 1, 4)):
        out = tmp_path / f"run{i}.csv"
        cfg = ExperimentConfig.from_dict(base | {"workers": workers, "out": str(out)})
        run_experiment(cfg)
        # The JSON summary embeds the output path, which differs by design;
        # compare it with the path-bearing config stripped.
        csv_bytes = out.read_bytes()
        summary = out.with_suffix(".json").read_text()
        summary = summary.replace(str(out), "OUT").replace(f'"workers": {workers}', '"workers": W')
        blobs.append((csv_bytes, summary))
    assert blobs[0] == blobs[1]
    assert blobs[0] == blobs[2]


# Gates for open ROADMAP items: each fails today, and the item that fixes it
# removes its marker.  strict=True turns an unexpected pass into a failure.
def roadmap_gate(item: int):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"ROADMAP item {item}")


def _lost_to_ostrich(res: ExperimentResult, schemes) -> list[str]:
    """The ``schemes`` records that neither refused the configuration nor
    kept their squared error within ``ostrich``'s on the same users."""
    ref = {r.trial: r.sq_error for r in res.records if r.scheme == "ostrich"}
    lost = []
    for r in res.records:
        error = r.diagnostics.get("error", "")
        if r.scheme not in schemes or error.startswith("ConfigurationError"):
            continue
        if not r.sq_error <= ref[r.trial]:
            lost.append(f"{r.scheme} {error or f'{r.sq_error:.3g} > ostrich {ref[r.trial]:.3g}'}")
    return lost


@roadmap_gate(2)
def test_gate_small_n_beats_ostrich_or_refuses():
    """At n <= 30k both constrained DAP variants, from one run_dap per cell,
    beat the undefended mean on the same users or raise ConfigurationError."""
    attacks = {
        "uniform": {"kind": "uniform", "lo": "0.75*C", "hi": "C"},
        "evasive": {"kind": "evasive", "a": 0.2},
    }
    failing = []
    for n, gamma, kind in itertools.product((5_000, 10_000, 20_000, 30_000), (0.1, 0.25), attacks):
        cfg = ExperimentConfig(
            dataset={"type": "beta", "a": 2, "b": 5, "n": n},
            eps_list=[1.0],
            eps0=1.0 / 16.0,
            gamma=gamma,
            attack=attacks[kind],
            schemes=["ostrich", "dap_emf_star", "dap_cemf_star"],
            trials=1,
            seed=0,
        )
        lost = _lost_to_ostrich(run_experiment(cfg), ("dap_emf_star", "dap_cemf_star"))
        failing += [f"n={n} gamma={gamma} {kind}: {loss}" for loss in lost]
    assert not failing, f"{len(failing)} losses:\n" + "\n".join(failing)


@roadmap_gate(2)
def test_gate_no_attack_leaves_the_mean():
    """With no attacker, emf_star lands within 0.1 of the mean in 12 of 12 seeds."""
    failing = []
    for seed in range(12):
        ds = gen_beta(2, 5, 20_000, seed)
        honest = np.zeros(ds.values.size, dtype=bool)
        res = run_dap(ds.values, honest, 1.0, 0.25, None, np.random.default_rng(seed), "emf_star")
        if not abs(res.mean - ds.true_mean) <= 0.1:
            failing.append(f"seed {seed}: error {res.mean - ds.true_mean:+.3f}")
    assert not failing, "\n".join(failing)


@roadmap_gate(4)
def test_gate_baseline_beats_ostrich():
    """The two-budget baseline beats the undefended mean on the same users."""
    cfg = ExperimentConfig(
        dataset={"type": "beta", "a": 2, "b": 5, "n": 100_000},
        eps_list=[1.0],
        gamma=0.25,
        attack={"kind": "uniform", "lo": "0.75*C", "hi": "C"},
        schemes=["ostrich", "baseline"],
        trials=1,
        seed=0,
    )
    lost = _lost_to_ostrich(run_experiment(cfg), ("baseline",))
    assert not lost, f"n=100000 gamma=0.25 uniform: {lost}"
