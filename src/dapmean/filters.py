"""EM-based reconstruction of normal/poison report histograms.

The collector never labels individual reports.  It buckets the collected
values and models the bucket frequencies as the mixture ``P x + I_S y``:
``P`` is the d_out x d perturbation block that routes the normal-user input
histogram ``x`` through the piecewise mechanism, and the unit vectors
``I_S`` place each entry of the poison histogram ``y`` directly in its
bucket on the poisoned side ``S``.  ``I_S`` is never stored: the poisoned side
is one contiguous half of the output grid, so the EM loop multiplies only
``P`` and adds (or reads) ``y`` on that slice, and an iteration costs
O(d_out * d) however many poison buckets there are.  One EM function covers
every variant: its constraints pin the total poison mass to a probed attacker
proportion, optionally suppress near-empty poison buckets, and optionally
start from an earlier run's histograms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mechanism import Budget, BucketGrid, check_number, perturbation_matrix


class InconsistentSuppressionError(ValueError):
    """Raised when every poison bucket is suppressed but the poison mass is positive."""


@dataclass(frozen=True)
class TransformMatrix:
    """Bucket transition model ``P x + I_S y`` of one side hypothesis.

    ``perturbation`` is the C-contiguous d_out x d block ``P``,
    ``perturbation_matrix(grid)``, built at construction: column k holds
    the output-bucket probabilities of input bucket k.  The poison block
    ``I_S`` is implied by ``side`` and ``grid``: poison entry j lands with
    probability 1 in the j-th output bucket of ``grid.poison_slice(side)``,
    one half of the output grid.  ``matrix``
    assembles the dense d_out x (d + p) form ``[P | I_S]`` on every access,
    for inspection only; the EM loop works on the block and the slice.  A
    side other than "left" or "right" raises ``ValueError``.
    """

    grid: BucketGrid
    side: str
    perturbation: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.grid.poison_slice(self.side)  # raises on an unknown side
        object.__setattr__(self, "perturbation", perturbation_matrix(self.grid))

    @property
    def n_poison(self) -> int:
        sl = self.grid.poison_slice(self.side)
        return sl.stop - sl.start

    @property
    def poison_midpoints(self) -> np.ndarray:
        return self.grid.output_midpoints[self.grid.poison_slice(self.side)]

    @property
    def matrix(self) -> np.ndarray:
        d, p = self.grid.d, self.n_poison
        dense = np.zeros((self.grid.d_out, d + p))
        dense[:, :d] = self.perturbation
        np.fill_diagonal(dense[self.grid.poison_slice(self.side), d:], 1.0)
        return dense


def build_transform(grid: BucketGrid, side: str) -> TransformMatrix:
    """The transform of ``side`` on the grid; the side only selects indices."""
    return TransformMatrix(grid=grid, side=side)


@dataclass(frozen=True)
class ObservedCounts:
    """Per-output-bucket counts of collected values: a 1-D array of finite
    values >= 0, or ``ValueError``."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=float)
        if counts.ndim != 1 or not (np.isfinite(counts).all() and (counts >= 0.0).all()):
            raise ValueError("counts must be a 1-D array of finite values >= 0")
        object.__setattr__(self, "counts", counts)

    @property
    def n_reports(self) -> int:
        return int(round(float(self.counts.sum())))


def bucket_counts(reports, grid: BucketGrid) -> ObservedCounts:
    """Histogram collected values over the output grid (values clipped to [-C, C]).

    Only input with a value outside [-C, C] is clipped, into a copy; clipping
    in-range input would copy it unchanged.  A NaN value raises
    ``ValueError``, since it would land in no bucket.
    """
    v = np.asarray(reports, dtype=float)
    c = grid.c_bound
    if v.size:
        lo, hi = v.min(), v.max()  # NaN if any value is NaN
        if np.isnan(lo):
            raise ValueError("reports must not be NaN")
        if lo < -c or hi > c:
            v = np.clip(v, -c, c)
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


def default_tolerance(budget: Budget) -> float:
    """Log-likelihood convergence tolerance, 0.01 * e^eps."""
    return 0.01 * float(np.exp(budget.epsilon))


def em(
    transform: TransformMatrix,
    counts: ObservedCounts,
    tau: float,
    max_iter: int = 10_000,
    gamma: float | None = None,
    suppress: np.ndarray | None = None,
    start: HistogramPair | None = None,
) -> HistogramPair:
    """Reconstruct the normal-user and poison histograms by EM.

    Starts from ``start``'s histograms, or from the uniform mixture when
    ``start`` is None, and stops when the log-likelihood change drops below
    ``tau``; a run that hits ``max_iter`` returns its last iterate with
    ``converged=False``.  The M-step depends on the constraints:

    - ``gamma=None`` (EMF): global renormalization, so the two histograms
      sum to 1 together.
    - ``gamma`` given (EMF*): the poison mass is pinned, with the closed form
      x_k = (1 - gamma) P_xk / sum(P_x) and y_j = gamma P_yj / sum(P_y), so
      sum(x) = 1 - gamma and sum(y) = gamma exactly.
    - ``gamma`` and a boolean ``suppress`` mask over the poison buckets
      (CEMF*): suppressed buckets start and stay at zero and the others share
      the pinned mass.

    A start needs no rescaling, since the first M-step imposes the masses.
    Multiplicative updates never revive a zero entry, so a start histogram
    whose kept entries hold no mass, where the constraints give it mass,
    starts uniform instead, as the cold start does.  ``counts`` of another
    length than ``d_out``, a ``tau`` that is not a finite number >= 0 and a
    ``max_iter`` that is not an integer >= 1 raise ``ValueError``.
    """
    check_number("tau", tau, ge=0)
    check_number("max_iter", max_iter, integer=True, ge=1)
    if gamma is not None and not (0.0 <= gamma < 1.0):
        raise ValueError(f"gamma must be in [0, 1), got {gamma}")
    block = transform.perturbation
    block_t = block.T
    sl = transform.grid.poison_slice(transform.side)
    d_out, d = block.shape
    c = counts.counts
    if np.shape(c) != (d_out,):
        raise ValueError(f"counts must have d_out = {d_out} entries, got shape {np.shape(c)}")
    p = transform.n_poison
    k = d + p
    keep = None
    if suppress is not None:
        if gamma is None:
            raise ValueError("suppression needs a pinned poison mass gamma")
        suppress = np.asarray(suppress, dtype=bool)
        if suppress.shape != (p,):
            raise ValueError(f"suppress must have {p} entries, got shape {suppress.shape}")
        if suppress.all() and gamma > 0.0:
            raise InconsistentSuppressionError(
                "all poison buckets suppressed while the poison mass is positive"
            )
        keep = ~suppress

    # theta = [x | y]: P @ x spreads the normal mass, y lands on its own
    # slice; the transposed product splits the same way.  Every buffer is
    # allocated once and each iteration writes into it.  Sums call
    # np.add.reduce, the reduction ndarray.sum runs through a Python wrapper.
    theta = np.full(k, 1.0 / k)
    x, y = theta[:d], theta[d:]
    if start is not None:
        for name, h, size in (("x_hat", start.x_hat, d), ("y_hat", start.y_hat, p)):
            h = np.asarray(h)
            if h.shape != (size,):
                raise ValueError(f"start {name} must have {size} entries, got shape {h.shape}")
            if not np.all(np.isfinite(h)) or np.any(h < 0.0):
                raise ValueError(f"start {name} must be finite and nonnegative")
        x[:], y[:] = start.x_hat, start.y_hat
        if x.sum() == 0.0:
            x.fill(1.0 / k)
        if gamma != 0.0 and (y if keep is None else y[keep]).sum() == 0.0:
            y.fill(1.0 / k)
    if suppress is not None:
        y[suppress] = 0.0
        kept = np.empty(int(keep.sum()))

    mixture = np.empty(d_out)
    log = np.empty(d_out)
    ratio = np.empty(d_out)
    resp = np.empty(k)
    rx, ry = resp[:d], resp[d:]
    mixture_pois, ratio_pois = mixture[sl], ratio[sl]
    ll_prev = ll = -np.inf
    it = 0
    converged = False
    for it in range(1, max_iter + 1):
        np.matmul(block, x, out=mixture)
        mixture_pois += y
        np.maximum(mixture, 1e-300, out=mixture)
        np.log(mixture, out=log)
        ll = float(c @ log)
        if abs(ll - ll_prev) < tau:
            converged = True
            break
        ll_prev = ll
        np.divide(c, mixture, out=ratio)
        np.matmul(block_t, ratio, out=rx)
        ry[:] = ratio_pois
        resp *= theta
        if gamma is None:
            np.divide(resp, np.add.reduce(resp), out=theta)
            continue
        sx = np.add.reduce(rx)
        np.multiply(rx, 1.0 - gamma, out=x)
        x /= sx
        if keep is None:
            sy = np.add.reduce(ry)
        else:
            sy = np.add.reduce(np.compress(keep, ry, out=kept))
        if sy > 0.0:
            np.multiply(ry, gamma, out=y)
            y /= sy
        else:
            y.fill(0.0)
    return HistogramPair(
        x_hat=x.copy(), y_hat=y.copy(), iterations=it, converged=converged, log_likelihood=ll
    )


def suppression_mask(prior_y: np.ndarray, gamma: float) -> np.ndarray:
    """CEMF* rule: suppress poison buckets whose prior mass (from a plain EM
    run) falls below half the uniform share, 0.5 * gamma / p."""
    prior_y = np.asarray(prior_y)
    return prior_y < 0.5 * gamma / prior_y.size


@dataclass(frozen=True)
class SideProbe:
    """The plain EM fit under each side hypothesis.  The poisoned ``side`` is
    the one whose normal-user histogram x_hat is flatter."""

    pair_left: HistogramPair
    pair_right: HistogramPair

    @property
    def var_left(self) -> float:
        return float(np.var(self.pair_left.x_hat))

    @property
    def var_right(self) -> float:
        return float(np.var(self.pair_right.x_hat))

    @property
    def side(self) -> str:
        return "left" if self.var_left < self.var_right else "right"

    @property
    def winning_pair(self) -> HistogramPair:
        return self.pair(self.side)

    def pair(self, side: str) -> HistogramPair:
        """The fit under the ``side`` hypothesis; a side other than "left" or
        "right" raises ``ValueError``."""
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        return self.pair_left if side == "left" else self.pair_right


def probe_side(
    transform_left: TransformMatrix,
    transform_right: TransformMatrix,
    counts: ObservedCounts,
) -> SideProbe:
    """Run plain EM under both side hypotheses, left first, to the budget's
    ``default_tolerance``; the returned ``SideProbe`` decides the side."""
    tau = default_tolerance(transform_left.grid.budget)
    return SideProbe(
        pair_left=em(transform_left, counts, tau),
        pair_right=em(transform_right, counts, tau),
    )


def attacker_count(gamma_hat: float, n_reports: int) -> float:
    """Estimated attacker report count: round(gamma_hat * N) clamped to
    [0, N - 1], so probe noise can never leave zero honest reports."""
    return float(np.clip(np.round(gamma_hat * n_reports), 0, n_reports - 1))

