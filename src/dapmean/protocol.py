"""End-to-end defenses: two-budget baseline, grouped aggregation, naive baselines.

The grouped protocol assigns each user a single random per-group budget,
probes attacker features inside every group, removes the estimated poison
contribution from each group mean, and combines the group means with
minimum-variance weights.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .attacks import AttackStrategy
from .filters import (
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
from .mechanism import (
    Budget,
    BucketGrid,
    bin_counts,
    check_number,
    pm_perturb,
    worst_case_variance,
)


class ConfigurationError(ValueError):
    """Raised for invalid protocol parameters."""


class DegenerateFilterError(ValueError):
    """Raised when the filter attributes (almost) all reports to attackers."""


FILTER_VARIANTS = ("emf", "emf_star", "cemf_star")


@dataclass(frozen=True)
class GroupPlan:
    """Group assignment with halving budgets.

    ``budgets`` is ``budget_ladder(eps, eps0)``, built on first read, so the
    2^t reports of each user in group t spend exactly eps.  ``assignment``
    holds one group index in [0, h) per user; ``dap_plan`` stores it in the
    smallest unsigned dtype that fits every index: one byte per user up to
    256 groups.  Besides the ladder's errors, a first or last budget that is
    not a valid ``Budget``, or any other assignment, raises
    ``ConfigurationError``.  C falls as the budget rises, so the two ends
    bound every budget between them.
    """

    eps: float
    eps0: float
    assignment: np.ndarray  # shape (N,), group index per user

    def __post_init__(self) -> None:
        assignment = np.asarray(self.assignment)
        object.__setattr__(self, "assignment", assignment)
        budgets = self.budgets
        try:
            Budget(float(budgets[0]))
            Budget(float(budgets[-1]))
        except ValueError as exc:  # InvalidBudgetError
            raise ConfigurationError(f"budget_ladder({self.eps}, {self.eps0}): {exc}") from None
        if assignment.ndim != 1 or assignment.dtype.kind not in "iu":
            raise ConfigurationError("assignment must be a 1-D array of integer group indices")
        if assignment.size and not (assignment.min() >= 0 and assignment.max() < self.h):
            raise ConfigurationError(f"assignment holds a group index outside [0, {self.h})")

    @functools.cached_property
    def budgets(self) -> np.ndarray:
        return budget_ladder(self.eps, self.eps0)

    @property
    def h(self) -> int:
        return int(self.budgets.size)

    @property
    def reports_per_user(self) -> np.ndarray:
        """2^t reports per user in group t, so every user spends ``eps``."""
        return np.power(2, np.arange(self.h))

    @property
    def n_users(self) -> int:
        return int(self.assignment.size)

    def group_members(self, t: int) -> np.ndarray:
        """Indices of group t's users, ascending, from a fresh scan of the assignment."""
        return np.flatnonzero(self.assignment == t)

    def expected_reports(self, t: int) -> int:
        return self.group_members(t).size * int(self.reports_per_user[t])


def budget_ladder(eps: float, eps0: float) -> np.ndarray:
    """The h = ceil(log2(eps/eps0)) + 1 group budgets eps / 2^t, t = 0 .. h-1.

    Budgets halve from eps down to eps0; if eps/eps0 is not a power of two,
    eps0 is rounded down until it is.  An eps or eps0 that is not a finite
    number > 0 (``check_number``), budgets outside 0 < eps0 <= eps < inf, or a
    ratio eps/eps0 that overflows, raise ``ConfigurationError``.
    """
    try:
        check_number("eps", eps, gt=0)
        check_number("eps0", eps0, gt=0)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from None
    if not eps0 <= eps:
        raise ConfigurationError(f"budgets must satisfy eps0 <= eps, got eps={eps}, eps0={eps0}")
    ratio = eps / eps0
    if not math.isfinite(ratio):
        raise ConfigurationError(f"eps / eps0 overflows, got eps={eps}, eps0={eps0}")
    h = int(math.ceil(math.log2(ratio))) + 1 if eps0 < eps else 1
    return eps / np.power(2.0, np.arange(h))


def dap_plan(n_users: int, eps: float, eps0: float, rng: np.random.Generator) -> GroupPlan:
    """Split users into one equal-sized random group per ``budget_ladder`` budget.

    Users in group t report eps/eps_t times so every user spends exactly
    eps.  Remainder users go to the largest-budget groups.  More groups than
    users, or a ``GroupPlan`` error, raises ``ConfigurationError`` before the
    assignment is shuffled, so a refused plan draws nothing from ``rng``.
    """
    h = budget_ladder(eps, eps0).size
    if h > n_users:
        raise ConfigurationError(f"{h} groups need at least {h} users, got {n_users}")
    base = n_users // h
    sizes = np.full(h, base)
    sizes[: n_users - base * h] += 1
    # The plan's checks do not depend on the assignment's order, so they run
    # before the shuffle; a 1-D shuffle takes the same draws whatever its dtype.
    assignment = np.repeat(np.arange(h, dtype=np.min_scalar_type(h - 1)), sizes)
    plan = GroupPlan(eps=eps, eps0=eps0, assignment=assignment)
    rng.shuffle(plan.assignment)
    return plan


def collect_reports(
    values: np.ndarray,
    attacker_mask: np.ndarray,
    budget: Budget,
    attack: AttackStrategy | None,
    rng: np.random.Generator,
    reps: int = 1,
    *,
    bins=None,
):
    """One budget's reports: honest reports first, then poison reports.

    Honest users perturb their values ``reps`` times each.  Attackers submit
    ``count * reps`` fresh draws from the attack strategy; with no attack or
    no attacker they perturb their own values like honest users.  The
    stream is allocated once: honest reports are written into its head and
    the poison reports into its tail.

    With ``bins``, ascending bucket edges, the same draws are counted as
    they are made and the result is ``(counts, report_sum)``: ``bin_counts``
    of the stream over ``bins`` (a NaN refused, values beyond the ends
    clipped into the end buckets, as ``bucket_counts`` does) and the sum of
    the unclipped reports, which equals the stream's sum up to rounding.
    The stream is never held; the attack's draws are the only full-length
    float array.

    Raises:
        ValueError: if ``values`` is not 1-D or ``attacker_mask`` does not
            have its shape, if the attack does not return exactly
            ``count * reps`` values, or, with ``bins``, returns a NaN.
    """
    values = np.asarray(values, dtype=float)
    attacker_mask = np.asarray(attacker_mask, dtype=bool)
    if values.ndim != 1 or attacker_mask.shape != values.shape:
        raise ValueError("values must be 1-D and attacker_mask of its shape")
    n_poison = int(np.count_nonzero(attacker_mask)) * reps
    counting = bins is not None
    out = head = tail = None
    if not counting:
        out = np.empty(values.size * reps)
        head, tail = out[: out.size - n_poison], out[out.size - n_poison :]
    honest = pm_perturb(values[~attacker_mask], budget, rng, out=head, reps=reps, bins=bins)
    if n_poison and attack is not None:
        poison = np.asarray(attack(n_poison, budget, rng), dtype=float)
        if poison.shape != (n_poison,):
            raise ValueError(
                f"attack returned an array of shape {poison.shape}, expected ({n_poison},)"
            )
        if counting:
            poison = bin_counts(poison, bins), float(poison.sum())
        else:
            tail[:] = poison
    else:
        poison = pm_perturb(values[attacker_mask], budget, rng, out=tail, reps=reps, bins=bins)
    if not counting:
        return out
    return honest[0] + poison[0], honest[1] + poison[1]


@dataclass(frozen=True)
class GroupEstimate:
    """Intra-group mean estimate with the estimated attacker proportion and
    count, the side its filter removed poison from (None when no filter
    ran) and the side probe it came from."""

    budget: Budget
    mean: float
    gamma_hat: float
    m_hat: float
    n_hat: float
    side: str | None = None
    probe: SideProbe | None = None


def intra_group_mean(
    report_sum: float,
    n_reports: int,
    y_hat: np.ndarray,
    poison_midpoints: np.ndarray,
    budget: Budget,
    eps_total: float,
    side: str | None = None,
    probe: SideProbe | None = None,
) -> GroupEstimate:
    """Group mean with the estimated poison contribution removed.

    Subtracts N_t * sum_j(y_j * nu_j), the reconstructed poison sum, from
    the sum of the group's N_t reports and divides by the estimated number
    of honest reports N_t - m_hat, with m_hat from ``attacker_count``.  The
    reports themselves are not needed, only ``report_sum`` and
    ``n_reports`` (N_t).  ``side`` is the side whose poison ``y_hat``
    holds and ``probe`` the side probe it started from; the estimate keeps
    both.
    """
    n_t = int(n_reports)
    gamma_hat = float(np.sum(y_hat))
    m_hat = attacker_count(gamma_hat, n_t)
    if gamma_hat >= 1.0:
        raise DegenerateFilterError("filter attributed all reports to attackers")
    poison_sum = n_t * float(np.dot(y_hat, poison_midpoints))
    # Rescale the poison sum to the clamped count so both terms stay consistent.
    if gamma_hat > 0.0:
        poison_sum *= m_hat / (gamma_hat * n_t)
    mean = (report_sum - poison_sum) / (n_t - m_hat)
    n_hat = max((n_t - m_hat) * budget.epsilon / eps_total, 0.0)
    return GroupEstimate(
        budget=budget,
        mean=float(mean),
        gamma_hat=gamma_hat,
        m_hat=m_hat,
        n_hat=float(n_hat),
        side=side,
        probe=probe,
    )


@dataclass(frozen=True)
class AggregateResult:
    """Final mean, the group weights, and the predicted worst-case variance."""

    mean: float
    weights: np.ndarray
    predicted_variance: float


def aggregate_means(estimates: list[GroupEstimate]) -> AggregateResult:
    """Combine group means with minimum-variance weights, the one aggregation rule.

    The group-mean worst-case variance is Var_worst(eps_t)/n_t, so the
    optimal weights are proportional to n_t / Var_worst(eps_t), i.e. to
    n_t^2 / B_t with B_t = n_t * Var_worst(eps_t) (0 where B_t = 0).  The
    predicted variance of the combination is 1 / sum_t(n_t^2 / B_t).
    """
    if not estimates:
        raise ConfigurationError("need at least one group estimate")
    eps = np.array([g.budget.epsilon for g in estimates])
    n_hats = np.array([g.n_hat for g in estimates])
    means = np.array([g.mean for g in estimates])
    b = np.array([n * worst_case_variance(e) for e, n in zip(eps, n_hats)])
    score = np.where(b > 0.0, np.square(n_hats) / np.where(b > 0.0, b, 1.0), 0.0)
    total = score.sum()
    if total <= 0.0:
        raise ConfigurationError("no group carries signal")
    w = score / total
    return AggregateResult(
        mean=float(np.dot(w, means)), weights=w, predicted_variance=float(1.0 / total)
    )


def ostrich(reports) -> float:
    """Average every report, ignoring attackers."""
    r = np.asarray(reports, dtype=float)
    if r.size == 0:
        raise ValueError("no reports")
    return float(r.mean())


def trimming(reports, side: str) -> float:
    """Drop the extreme 50% of reports on the poisoned ``side``, "left" or
    "right", and average the rest; any other side raises ``ValueError``.

    The kept reports are selected by partition and then sorted, so they are
    averaged in ascending order, as after a full sort.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    r = np.asarray(reports, dtype=float).ravel()
    if r.size == 0:
        raise ValueError("no reports")
    half = r.size // 2
    if side == "right":
        kept = np.partition(r, r.size - half - 1)[: r.size - half]
    else:
        kept = np.partition(r, half)[half:]
    kept.sort()
    return float(kept.mean())


@dataclass(frozen=True)
class GroupFilterInput:
    """What one group hands the filter stage: its budget, report sum and
    bucket counts on ``grid``.  The probe (built on first read) and each
    side's transform (on first request) share ``grid`` and its one block.
    A report sum that is not a finite number, or counts without
    ``grid.d_out`` entries, raise ``ValueError``."""

    budget: Budget
    report_sum: float
    counts: ObservedCounts
    _transforms: dict[str, TransformMatrix] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        check_number("report_sum", self.report_sum)
        d_out = self.grid.d_out
        if self.counts.counts.shape != (d_out,):
            raise ValueError(
                f"counts must have the grid's d_out = {d_out} entries,"
                f" got shape {self.counts.counts.shape}"
            )

    @classmethod
    def from_reports(cls, reports: np.ndarray, budget: Budget) -> GroupFilterInput:
        """Bucket the reports on their budget's grid and take their sum."""
        grid = BucketGrid.for_reports(reports.size, budget)
        return cls(budget, reports.sum(), bucket_counts(reports, grid))

    @functools.cached_property
    def grid(self) -> BucketGrid:
        """``BucketGrid.for_reports(counts.n_reports, budget)``, the counts' grid,
        built at construction."""
        return BucketGrid.for_reports(self.counts.n_reports, self.budget)

    @functools.cached_property
    def probe(self) -> SideProbe:
        """Plain EM on the counts under each side, left first."""
        return probe_side(
            build_transform(self.grid, side="left"),
            build_transform(self.grid, side="right"),
            self.counts,
        )

    def transform(self, side: str) -> TransformMatrix:
        """The transform of ``side`` on ``grid``, built on first request and
        kept per side."""
        if side not in self._transforms:
            self._transforms[side] = build_transform(self.grid, side=side)
        return self._transforms[side]


@dataclass(frozen=True)
class Decision:
    """What a grouped run decides before it filters: the poisoned side that
    each group's filter removes, in group order, and the attacker
    proportion γ̂ that EMF* pins and CEMF* suppresses with."""

    sides: tuple[str, ...]
    gamma_hat: float


def decide(groups) -> Decision:
    """The one decision rule of the filter stage.

    Each group keeps its own probe's side.  γ̂ is the winning fit's poison
    mass in the smallest-budget (last) group, where the probe sees the most
    reports per user, capped at 0.999, below 1.  It reads only the groups'
    probes, which draw nothing, so their order does not matter.
    """
    return Decision(
        sides=tuple(g.probe.side for g in groups),
        gamma_hat=min(groups[-1].probe.winning_pair.poison_mass, 0.999),
    )


def group_mean_statistics(groups) -> tuple[float, float]:
    """The slope z and the spread Q of the groups' raw means.

    Every group's raw mean m_t = report_sum / N_t estimates the same mean,
    with variance at most Var_worst(eps_t) / N_t, so w_t = N_t /
    Var_worst(eps_t).  Q = sum_t w_t (m_t - m_bar)^2, with w-weighted means
    m_bar and C_bar, is close to chi^2 with h - 1 degrees of freedom (a
    conservative null) when no poison moves the means.  Poison drawn
    relative to C shifts group t's mean in proportion to C_t;
    z = sum_t w_t (C_t - C_bar)(m_t - m_bar) / sqrt(sum_t w_t (C_t - C_bar)^2)
    is the weighted least-squares slope of m on C over its standard error,
    and its sign is the poisoned side.  z is 0.0 when that sum is 0, as
    with one group.  Only each group's budget, report sum and count are read.
    """
    n = np.array([g.counts.n_reports for g in groups], dtype=float)
    m = np.array([g.report_sum for g in groups]) / n
    c = np.array([g.budget.c_bound for g in groups])
    w = n / np.array([worst_case_variance(g.budget.epsilon) for g in groups])

    def centred(v):
        # Taken about v[0], so that equal values centre to exact zeros.
        d = v - v[0]
        return d - np.dot(w, d) / w.sum()

    dm, dc = centred(m), centred(c)
    sxx = float(np.dot(w, dc * dc))
    z = float(np.dot(w, dc * dm)) / math.sqrt(sxx) if sxx > 0.0 else 0.0
    return z, float(np.dot(w, dm * dm))


def dap_collect(
    values: np.ndarray,
    attacker_mask: np.ndarray,
    plan: GroupPlan,
    t: int,
    attack: AttackStrategy | None,
    rng: np.random.Generator,
) -> GroupFilterInput:
    """Group t's step of the grouped protocol: collect and count.

    Every user in group t submits ``reports_per_user[t]`` reports at the
    group budget.  ``collect_reports`` counts them on the group's grid,
    ``BucketGrid.for_reports`` of their number, as they are drawn, so only
    their bucket counts and sum exist, never the reports.  The collector
    receives the reports shuffled; the counts and the sum do not read the
    order, but the shuffle's draws are still taken, so every later draw is
    the one a shuffle of the reports leaves.  A ``t`` that is not an integer
    in [0, plan.h), or ``values`` or ``attacker_mask`` of another shape than
    ``(plan.n_users,)``, raises ``ConfigurationError``.
    """
    try:
        check_number("t", t, integer=True, ge=0, lt=plan.h)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from None
    values = np.asarray(values, dtype=float)
    attacker_mask = np.asarray(attacker_mask, dtype=bool)
    if values.shape != (plan.n_users,) or attacker_mask.shape != values.shape:
        raise ConfigurationError(f"values and attacker_mask must have shape ({plan.n_users},)")
    budget = Budget(float(plan.budgets[t]))
    reps = int(plan.reports_per_user[t])
    members = plan.group_members(t)
    n_reports = members.size * reps
    grid = BucketGrid.for_reports(n_reports, budget)
    counts, report_sum = collect_reports(
        values[members], attacker_mask[members], budget, attack, rng, reps, bins=grid.output_edges
    )
    # A 1-D shuffle draws the same whatever its items hold, so n_reports
    # views of one double (stride 0) take the shuffle's draws with no memory.
    rng.shuffle(np.lib.stride_tricks.as_strided(np.empty(1), (n_reports,), (0,)))
    return GroupFilterInput(budget, report_sum, ObservedCounts(counts))


@dataclass(frozen=True)
class DapResult:
    """A grouped run's groups and the filter variant applied to them.

    Constructing a result runs the filter stage on ``groups``: ``decide``,
    whose record it keeps as ``decision``, then each group's filter on its
    decided side, ``intra_group_mean`` and ``aggregate_means``, which set
    ``estimates`` and ``aggregate``.  It draws nothing.  Its first run builds
    each group's probe and decided side's transform after the last
    collection, and no perturbation block exists until the first EM read,
    so none is alive at the collector's peak; ``refilter`` builds none.
    Each group's constrained filter starts from its probe's fit on the
    decided side, an EM fixed point at its own poison mass.  The run's total
    budget is the first group's, eps / 2^0.  An unknown variant raises
    ``ConfigurationError``.
    """

    groups: tuple[GroupFilterInput, ...]
    filter_variant: str
    decision: Decision = field(init=False)
    estimates: list[GroupEstimate] = field(init=False)
    aggregate: AggregateResult = field(init=False)

    def __post_init__(self) -> None:
        if self.filter_variant not in FILTER_VARIANTS:
            raise ConfigurationError(f"unknown filter variant {self.filter_variant!r}")
        decision = decide(self.groups)
        gamma_hat, estimates = decision.gamma_hat, []
        for g, side in zip(self.groups, decision.sides, strict=True):
            pair, transform = g.probe.pair(side), g.transform(side)
            if self.filter_variant != "emf":
                suppress = None
                if self.filter_variant == "cemf_star":
                    suppress = suppression_mask(pair.y_hat, gamma_hat)
                pair = em(
                    transform,
                    g.counts,
                    default_tolerance(g.budget),
                    gamma=gamma_hat,
                    suppress=suppress,
                    start=pair,
                )
            estimates.append(
                intra_group_mean(
                    g.report_sum,
                    g.counts.n_reports,
                    pair.y_hat,
                    transform.poison_midpoints,
                    g.budget,
                    eps_total=self.groups[0].budget.epsilon,
                    side=side,
                    probe=g.probe,
                )
            )
        object.__setattr__(self, "decision", decision)
        object.__setattr__(self, "estimates", estimates)
        object.__setattr__(self, "aggregate", aggregate_means(estimates))

    @property
    def mean(self) -> float:
        return self.aggregate.mean

    @property
    def side(self) -> str:
        """The side decided for the smallest-budget (last) group."""
        return self.decision.sides[-1]

    @property
    def gamma_hat(self) -> float:
        """The decided attacker proportion fed to the constrained filters."""
        return self.decision.gamma_hat

    def refilter(self, filter_variant: str) -> DapResult:
        """This run's result under another filter variant.

        It reruns only the filter stage on the stored groups, so it equals,
        bit for bit, ``run_dap`` with ``filter_variant`` on the same
        generator state.
        """
        return replace(self, filter_variant=filter_variant)


def run_dap(
    values: np.ndarray,
    attacker_mask: np.ndarray,
    eps: float,
    eps0: float,
    attack: AttackStrategy | None,
    rng: np.random.Generator,
    filter_variant: str = "emf_star",
) -> DapResult:
    """Full grouped run: plan, one ``dap_collect`` per group, then filter.

    Groups run one after another on the caller's thread, and each group's
    reports are counted as they are drawn, so none are ever held.  The
    returned ``DapResult`` runs the filter stage on the groups; that stage
    draws nothing, so the result's ``refilter`` gives the other variants of
    the same run.  An unknown variant raises ``ConfigurationError`` before
    any collection.
    """
    if filter_variant not in FILTER_VARIANTS:
        raise ConfigurationError(f"unknown filter variant {filter_variant!r}")
    values = np.asarray(values, dtype=float)
    plan = dap_plan(values.size, eps, eps0, rng)
    groups = tuple(dap_collect(values, attacker_mask, plan, t, attack, rng) for t in range(plan.h))
    return DapResult(groups=groups, filter_variant=filter_variant)


def baseline_budgets(eps: float) -> tuple[float, float]:
    """The two-budget baseline's split of eps: eps/16 to probe, 15*eps/16 to estimate."""
    return eps / 16.0, eps * 15.0 / 16.0


def baseline_run(
    values: np.ndarray,
    attacker_mask: np.ndarray,
    eps: float,
    attack: AttackStrategy | None,
    rng: np.random.Generator,
    attack_on_alpha: bool = True,
) -> GroupEstimate:
    """Two-budget protocol: probe features on the small budget, estimate on the large.

    The total budget ``eps`` splits into eps_alpha = eps/16 and eps_beta =
    15*eps/16 (``baseline_budgets``).  Every user reports once at each (see
    ``collect_reports``).  Attackers inject per their strategy into both streams; with
    ``attack_on_alpha=False`` they behave honestly on the probing stream,
    which is the protocol's known flaw.  The poison histogram probed on the
    alpha stream is removed from the beta reports by ``intra_group_mean``,
    at its bucket midpoints on the alpha grid, both on the side that
    ``decide`` gives the alpha stream as a one-group run.  The result is that
    call's ``GroupEstimate``: the beta budget, the mean, the probed
    proportion and count, the decided side and the alpha probe.
    """
    eps_alpha, eps_beta = baseline_budgets(eps)
    b_alpha, b_beta = Budget(eps_alpha), Budget(eps_beta)
    alpha_attack = attack if attack_on_alpha else None
    alpha_reports = collect_reports(values, attacker_mask, b_alpha, alpha_attack, rng)
    beta_reports = collect_reports(values, attacker_mask, b_beta, attack, rng)

    alpha = GroupFilterInput.from_reports(alpha_reports, b_alpha)
    (side,) = decide((alpha,)).sides
    # The poison midpoints live on the alpha grid's [-C_alpha, C_alpha] and
    # are subtracted from the beta reports as they are, without mapping to
    # the beta scale.  Beta reports lie on the narrower [-C_beta, C_beta], so
    # at a small eps_alpha this removes far more than the poison's sum and
    # drives the estimate far from the mean (a known defect, not yet fixed).
    return intra_group_mean(
        beta_reports.sum(),
        beta_reports.size,
        alpha.probe.pair(side).y_hat,
        alpha.transform(side).poison_midpoints,
        b_beta,
        eps_total=eps_alpha + eps_beta,
        side=side,
        probe=alpha.probe,
    )
