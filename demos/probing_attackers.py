"""Probing attacker features from nothing but the noisy reports.

A quarter of the users collude and report large values to drag the mean up.
The collector buckets the reports, runs the EM filter under both "poison on
the left" and "poison on the right" hypotheses, and reads three features off
the reconstruction: the poisoned side, the attacker proportion, and the
poison histogram itself.
"""

import numpy as np

from dapmean import (
    Budget,
    GroupFilterInput,
    PoisonSpec,
    attacker_count,
    gen_bba,
    pm_perturb,
)

rng = np.random.default_rng(7)
eps = 1.0 / 16.0  # probing works best at small budgets
budget = Budget(eps)
c = budget.c_bound

n = 100_000
gamma = 0.25
m = int(gamma * n)
values = rng.beta(2, 5, n - m) * 2 - 1
honest_reports = pm_perturb(values, budget, rng)

spec = PoisonSpec(range_lo=0.5 * c, range_hi=c, side="right")
poison_reports = gen_bba(spec, m, budget, rng)
reports = np.concatenate([honest_reports, poison_reports])
rng.shuffle(reports)

print(f"{n} reports at eps = {eps:g}; {gamma:.0%} of them are poison "
      f"uniform on [{0.5 * c:.1f}, {c:.1f}]")

group = GroupFilterInput.from_reports(reports, budget)
probe = group.probe
print(f"side probe: Var(x | left) = {probe.var_left:.2e}, "
      f"Var(x | right) = {probe.var_right:.2e} -> poisoned side is '{probe.side}'")

gamma_hat = probe.winning_pair.poison_mass
m_hat = attacker_count(gamma_hat, group.counts.n_reports)
print(f"estimated attacker proportion {gamma_hat:.3f} (truth {gamma})")
print(f"estimated attacker report count {m_hat:.0f} (truth {m})")

print()
print("reconstructed poison histogram, coarsened to eight bands:")
transform = group.transform(probe.side)
bands = np.array_split(np.arange(transform.n_poison), 8)
for idx in bands:
    mids = transform.poison_midpoints[idx]
    mass = probe.winning_pair.y_hat[idx].sum()
    bar = "#" * int(200 * mass)
    print(f"  [{mids[0]:+6.1f}, {mids[-1]:+6.1f}] : {mass:.3f} {bar}")
print("  (truth: the poison mass is uniform over the top four bands)")
