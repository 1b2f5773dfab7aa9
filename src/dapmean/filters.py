"""EM-based reconstruction of normal/poison report histograms.

The collector never labels individual reports.  It buckets the collected
values and models the bucket frequencies as the mixture ``P x + I_S y``:
``P`` is the d_out x d perturbation block that routes the normal-user input
histogram ``x`` through the piecewise mechanism, and the unit vectors
``I_S`` place each entry of the poison histogram ``y`` directly in its
bucket on the poisoned side ``S``.  ``I_S`` is never stored: the EM loop
multiplies only ``P`` and adds (or gathers) ``y`` at the poison bucket
indices, so an iteration costs O(d_out * d) however many poison buckets
there are.  Post-processing variants pin the total poison mass to a probed
attacker proportion and optionally suppress near-empty poison buckets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mechanism import Budget, BucketGrid, perturbation_matrix


class NoPoisonMassError(ValueError):
    """Raised when a poison mean is requested from an all-zero poison histogram."""


class InconsistentSuppressionError(ValueError):
    """Raised when every poison bucket is suppressed but the poison mass is positive."""


@dataclass(frozen=True)
class TransformMatrix:
    """Bucket transition model ``P x + I_S y`` of one side hypothesis.

    ``perturbation`` is the C-contiguous d_out x d block ``P``: column k holds
    the output-bucket probabilities of input bucket k.  The poison block
    ``I_S`` is implied by ``side`` and ``grid``: poison entry j lands in output
    bucket ``poison_output_indices[j]`` with probability 1.  ``matrix``
    assembles the dense d_out x (d + p) form ``[P | I_S]`` on every access,
    for inspection only; the EM loop works on the block and the indices.
    """

    perturbation: np.ndarray
    side: str
    grid: BucketGrid

    @property
    def n_normal(self) -> int:
        return self.grid.d

    @property
    def n_poison(self) -> int:
        return self.poison_output_indices.size

    @property
    def poison_output_indices(self) -> np.ndarray:
        return self.grid.poison_indices(self.side)

    @property
    def poison_midpoints(self) -> np.ndarray:
        return self.grid.output_midpoints[self.poison_output_indices]

    @property
    def matrix(self) -> np.ndarray:
        d, pois = self.n_normal, self.poison_output_indices
        dense = np.zeros((self.grid.d_out, d + pois.size))
        dense[:, :d] = self.perturbation
        dense[pois, d + np.arange(pois.size)] = 1.0
        return dense


def build_transform(budget: Budget, grid: BucketGrid, side: str = "right") -> TransformMatrix:
    """The perturbation block of the grid; the poison side only selects indices."""
    grid.poison_indices(side)  # raises on an unknown side
    return TransformMatrix(perturbation=perturbation_matrix(budget, grid), side=side, grid=grid)


@dataclass(frozen=True)
class ObservedCounts:
    """Per-output-bucket counts of collected values."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=float))

    @property
    def n_reports(self) -> int:
        return int(round(float(self.counts.sum())))


def bucket_counts(reports, grid: BucketGrid) -> ObservedCounts:
    """Histogram collected values over the output grid (values clipped to [-C, C])."""
    v = np.clip(np.asarray(reports, dtype=float), -grid.c_bound, grid.c_bound)
    counts, _ = np.histogram(v, bins=grid.output_edges)
    return ObservedCounts(counts=counts)


@dataclass(frozen=True)
class HistogramPair:
    """Reconstructed frequency histograms for normal users and poison values."""

    x_hat: np.ndarray
    y_hat: np.ndarray
    iterations: int
    converged: bool
    log_likelihood: float

    @property
    def poison_mass(self) -> float:
        return float(self.y_hat.sum())


@dataclass(frozen=True)
class ByzantineFeatures:
    """Probed attacker features: side, proportion, poison histogram, count."""

    side: str
    gamma_hat: float
    y_hat: np.ndarray
    m_hat: float


def default_tolerance(budget: Budget) -> float:
    """Log-likelihood convergence tolerance, 0.01 * e^eps."""
    return 0.01 * float(np.exp(budget.epsilon))


def _em_loop(
    transform: TransformMatrix,
    counts: np.ndarray,
    theta0: np.ndarray,
    tau: float,
    max_iter: int,
    m_step,
) -> tuple[np.ndarray, int, bool, float]:
    # theta = [x | y]: P @ x spreads the normal mass, y lands on its own
    # buckets; the transposed product splits the same way.
    block = transform.perturbation
    pois = transform.poison_output_indices
    d = block.shape[1]
    theta = theta0
    ll_prev = -np.inf
    ll = -np.inf
    it = 0
    for it in range(1, max_iter + 1):
        mixture = block @ theta[:d]
        mixture[pois] += theta[d:]
        safe = np.maximum(mixture, 1e-300)
        ll = float(counts @ np.log(safe))
        if abs(ll - ll_prev) < tau:
            return theta, it, True, ll
        ll_prev = ll
        ratio = counts / safe
        responsibilities = theta * np.concatenate([block.T @ ratio, ratio[pois]])
        theta = m_step(responsibilities)
    return theta, it, False, ll


def emf(
    transform: TransformMatrix,
    counts: ObservedCounts,
    tau: float,
    max_iter: int = 10_000,
) -> HistogramPair:
    """Reconstruct the joint histogram by plain EM.

    Starts from the uniform mixture and alternates the responsibility
    computation with a global renormalization, so the two histograms always
    sum to 1 together.  Stops when the log-likelihood change drops below
    ``tau``; a run that hits ``max_iter`` returns its last iterate with
    ``converged=False``.
    """
    d = transform.n_normal
    k = d + transform.n_poison
    theta0 = np.full(k, 1.0 / k)

    def m_step(p: np.ndarray) -> np.ndarray:
        return p / p.sum()

    theta, it, ok, ll = _em_loop(transform, counts.counts, theta0, tau, max_iter, m_step)
    return HistogramPair(
        x_hat=theta[:d], y_hat=theta[d:], iterations=it, converged=ok, log_likelihood=ll
    )


def emf_star(
    transform: TransformMatrix,
    counts: ObservedCounts,
    gamma_hat: float,
    tau: float,
    max_iter: int = 10_000,
) -> HistogramPair:
    """EM with the poison mass pinned to a probed attacker proportion.

    The maximization step has the closed form
    x_k = (1 - gamma) P_xk / sum(P_x) and y_j = gamma P_yj / sum(P_y),
    so the outputs satisfy sum(x) = 1 - gamma and sum(y) = gamma exactly.
    """
    if not (0.0 <= gamma_hat < 1.0):
        raise ValueError(f"gamma_hat must be in [0, 1), got {gamma_hat}")
    d = transform.n_normal
    k = d + transform.n_poison
    theta0 = np.full(k, 1.0 / k)

    def m_step(p: np.ndarray) -> np.ndarray:
        px, py = p[:d], p[d:]
        x = (1.0 - gamma_hat) * px / px.sum()
        sy = py.sum()
        y = gamma_hat * py / sy if sy > 0.0 else np.zeros_like(py)
        return np.concatenate([x, y])

    theta, it, ok, ll = _em_loop(transform, counts.counts, theta0, tau, max_iter, m_step)
    return HistogramPair(
        x_hat=theta[:d], y_hat=theta[d:], iterations=it, converged=ok, log_likelihood=ll
    )


def cemf_star(
    transform: TransformMatrix,
    counts: ObservedCounts,
    gamma_hat: float,
    tau: float | None = None,
    max_iter: int = 10_000,
    prior_y: np.ndarray | None = None,
    suppress_mask: np.ndarray | None = None,
) -> HistogramPair:
    """EM with pinned poison mass and suppression of near-empty poison buckets.

    Poison buckets whose prior mass (from a preceding plain EM run) falls
    below 0.5 * gamma_hat / p, where p is the number of poison buckets, are
    pinned to zero for all iterations; the remaining poison buckets share
    the probed mass.  A caller may hand in an explicit ``suppress_mask``
    instead.
    """
    if tau is None:
        raise ValueError("tau is required")
    p = transform.n_poison
    if suppress_mask is None:
        if prior_y is None:
            prior_y = emf(transform, counts, tau=tau, max_iter=max_iter).y_hat
        suppress_mask = np.asarray(prior_y) < 0.5 * gamma_hat / p
    else:
        suppress_mask = np.asarray(suppress_mask, dtype=bool)
    if suppress_mask.all() and gamma_hat > 0.0:
        raise InconsistentSuppressionError(
            "all poison buckets suppressed while the poison mass is positive"
        )

    d = transform.n_normal
    k = d + p
    keep = ~suppress_mask
    theta0 = np.full(k, 1.0 / k)
    theta0[d:][suppress_mask] = 0.0

    def m_step(resp: np.ndarray) -> np.ndarray:
        px, py = resp[:d], resp[d:].copy()
        py[suppress_mask] = 0.0
        x = (1.0 - gamma_hat) * px / px.sum()
        sy = py[keep].sum()
        y = np.zeros_like(py)
        if sy > 0.0 and gamma_hat > 0.0:
            y[keep] = gamma_hat * py[keep] / sy
        return np.concatenate([x, y])

    theta, it, ok, ll = _em_loop(transform, counts.counts, theta0, tau, max_iter, m_step)
    return HistogramPair(
        x_hat=theta[:d], y_hat=theta[d:], iterations=it, converged=ok, log_likelihood=ll
    )


@dataclass(frozen=True)
class SideProbe:
    """Outcome of the two-sided EM probe."""

    side: str
    var_left: float
    var_right: float
    pair_left: HistogramPair
    pair_right: HistogramPair

    @property
    def winning_pair(self) -> HistogramPair:
        return self.pair_right if self.side == "right" else self.pair_left


def probe_side(
    transform_left: TransformMatrix,
    transform_right: TransformMatrix,
    counts: ObservedCounts,
    tau: float,
    max_iter: int = 10_000,
) -> SideProbe:
    """Run EM under both side hypotheses; the poisoned side yields the flatter
    normal-user histogram, i.e. the smaller variance of x_hat."""
    pair_l = emf(transform_left, counts, tau=tau, max_iter=max_iter)
    pair_r = emf(transform_right, counts, tau=tau, max_iter=max_iter)
    var_l = float(np.var(pair_l.x_hat))
    var_r = float(np.var(pair_r.x_hat))
    side = "left" if var_l < var_r else "right"
    return SideProbe(
        side=side, var_left=var_l, var_right=var_r, pair_left=pair_l, pair_right=pair_r
    )


def estimate_features(
    pair: HistogramPair, side: str, counts: ObservedCounts
) -> ByzantineFeatures:
    """Attacker proportion and count from the reconstructed poison histogram."""
    gamma_hat = pair.poison_mass
    return ByzantineFeatures(
        side=side,
        gamma_hat=gamma_hat,
        y_hat=pair.y_hat.copy(),
        m_hat=float(np.round(gamma_hat * counts.n_reports)),
    )


def init_o_prime(collected, gamma_sup: float = 0.5, side: str = "right") -> float:
    """Pessimistic initialization of the true mean.

    Discards the ``ceil(gamma_sup * N)`` most extreme values on the poisoned
    side and rescales, which under-shoots (right side) or over-shoots (left
    side) the true normal-user mean whenever at most that many reports are
    poisoned.
    """
    v = np.sort(np.asarray(collected, dtype=float))
    n = v.size
    if n == 0:
        raise ValueError("collected set must be nonempty")
    if not (0.0 < gamma_sup <= 0.5):
        raise ValueError("gamma_sup must be in (0, 0.5]")
    t = int(np.ceil(gamma_sup * n))
    top = v[-t:] if side == "right" else v[:t]
    return float((v.mean() - top.sum() / n) / (1.0 - gamma_sup))


def poison_mean(pair: HistogramPair, transform: TransformMatrix) -> float:
    """Mass-weighted mean of the poison histogram over its bucket midpoints."""
    mass = pair.poison_mass
    if mass <= 0.0:
        raise NoPoisonMassError("poison histogram carries no mass")
    return float(np.dot(pair.y_hat, transform.poison_midpoints) / mass)
