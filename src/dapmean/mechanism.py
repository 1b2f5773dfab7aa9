"""Privacy budgets, bucket grids and the piecewise perturbation primitive.

Everything downstream (attack generation, EM filtering, the grouped
protocol) is built on the objects in this module: a privacy budget with its
derived output bound ``C``, uniform bucket grids over the input/output
domains, dataset normalization, and the piecewise mechanism itself.
"""

from __future__ import annotations

import contextlib
import functools
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np


class InvalidBudgetError(ValueError):
    """Raised when a privacy budget's output bound C is not finite and above 1."""


class DomainError(ValueError):
    """Raised when a value lies outside its legal domain."""


class DegenerateRangeError(ValueError):
    """Raised when a dataset has no spread to normalize over."""


_COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}


def check_number(name: str, x, *, integer: bool = False, ge=None, gt=None, le=None, lt=None):
    """Raise ValueError, its message starting with ``name``, unless ``x`` is a
    finite real number, or an integer when ``integer`` (a bool is neither),
    with x >= ``ge``, x > ``gt``, x <= ``le`` and x < ``lt`` for each bound
    given.  This is the one check for a number from outside the program."""
    bounds = [(sym, b) for sym, b in ((">=", ge), (">", gt), ("<=", le), ("<", lt)) if b is not None]
    real = isinstance(x, numbers.Integral if integer else numbers.Real) and type(x) is not bool
    ok = False
    with contextlib.suppress(OverflowError):  # an int past the float range is not finite
        ok = real and (integer or math.isfinite(x)) and all(_COMPARE[s](x, b) for s, b in bounds)
    if not ok:
        what = "an integer" if integer else "a finite number"
        where = " and".join(f" {sym} {b:g}" for sym, b in bounds)
        raise ValueError(f"{name} must be {what}{where}, got {x!r}")


@dataclass(frozen=True)
class Budget:
    """A privacy budget epsilon and its derived perturbation-domain bound.

    The perturbed output domain is ``[-C, C]`` with
    ``C = (e^(eps/2) + 1) / (e^(eps/2) - 1)``, which is > 1 and strictly
    decreasing in epsilon.  An epsilon whose C is not finite and above 1 in
    floating point (roughly outside 2.2e-16 to 74) raises InvalidBudgetError.
    """

    epsilon: float

    def __post_init__(self) -> None:
        try:
            check_number("epsilon", self.epsilon, gt=0)
            check_number("C", self.c_bound, gt=1)  # may overflow or divide by zero
        except (ValueError, ArithmeticError):
            raise InvalidBudgetError(
                "epsilon must be a finite number > 0 whose output bound C is finite"
                f" and above 1 (roughly 2.2e-16 < epsilon < 74), got {self.epsilon!r}"
            ) from None

    @property
    def c_bound(self) -> float:
        t = math.exp(self.epsilon / 2.0)
        return (t + 1.0) / (t - 1.0)

    def low_edge(self, v):
        """Left endpoint l(v) of the high-probability output band."""
        c = self.c_bound
        return (c + 1.0) / 2.0 * np.asarray(v, dtype=float) - (c - 1.0) / 2.0

    def high_edge(self, v):
        """Right endpoint r(v) = l(v) + C - 1 of the high-probability band."""
        return self.low_edge(v) + self.c_bound - 1.0

    @property
    def high_band_prob(self) -> float:
        """Probability that the output lands inside [l(v), r(v)]."""
        t = math.exp(self.epsilon / 2.0)
        return t / (t + 1.0)


def worst_case_variance(epsilon: float) -> float:
    """Worst-case per-report variance of the piecewise mechanism.

    Attained at inputs v = +/-1:
    ``1/(e^(eps/2)-1) + (e^(eps/2)+3) / (3 (e^(eps/2)-1)^2)``.
    """
    t = math.exp(epsilon / 2.0)
    return 1.0 / (t - 1.0) + (t + 3.0) / (3.0 * (t - 1.0) ** 2)


PM_BLOCK = 1 << 14
"""Values per block in ``pm_perturb``.

A pass touches about eight block-length float64 arrays, ≈1 MB at this size,
so they fit a 2 MB L2 cache, and a call peaks about that much above its
output and its one-byte-per-report in-band mask.  The outputs and the
generator's final state do not depend on the block size.
"""


def pm_perturb(v, budget: Budget, rng: np.random.Generator, *, out=None, reps: int = 1):
    """Perturb values in [-1, 1] with the piecewise mechanism.

    With probability ``e^(eps/2)/(e^(eps/2)+1)`` the output is uniform on
    the band [l(v), r(v)]; otherwise it is uniform on the complement
    ``[-C, l(v)) U (r(v), C]``.  The output is an unbiased estimator of v.

    Three uniform streams are drawn, each over all values in C order: the
    in-band test, the band position, then the tail position.  Each stream is
    drawn and used in consecutive blocks of about ``PM_BLOCK`` values, which
    return the same doubles as one full-length draw, so the outputs and the
    generator's final state do not depend on the block size.  Only the
    output and the in-band mask are full length.

    With ``reps=r`` every value is perturbed r times, in ``np.repeat``
    order: the result equals ``pm_perturb(np.repeat(v, r), ...)`` bit for
    bit.  Blocks then hold whole users (``max(PM_BLOCK // r, 1) * r``
    values), and each block's values are repeated in the block, so the
    full repeated input is never built.

    Args:
        v: scalar or array of values in [-1, 1].
        budget: privacy budget.
        rng: seeded random generator.
        out: optional C-contiguous float64 array of shape ``(v.size * reps,)``
            to write the reports into.
        reps: reports per value, an integer >= 1 (else ``ValueError``).

    Returns:
        Perturbed value(s) in [-C, C]: ``out`` when given, else an array of
        the shape of ``v`` (a float for scalar ``v``) when ``reps`` is 1,
        else a 1-D array of ``v.size * reps`` values.
    """
    arr = np.asarray(v, dtype=float)
    if arr.size and not (arr.min() >= -1.0 and arr.max() <= 1.0):
        raise DomainError("input values must lie in [-1, 1]")
    check_number("reps", reps, integer=True, ge=1)
    c = budget.c_bound
    flat = arr.reshape(-1)
    n = flat.size * reps
    if out is None:
        result = np.empty(n)
    elif (
        not isinstance(out, np.ndarray)
        or out.dtype != np.float64
        or out.shape != (n,)
        or not out.flags.c_contiguous
    ):
        raise ValueError(f"out must be a C-contiguous float64 array of shape ({n},)")
    else:
        result = out
    step = max(PM_BLOCK // reps, 1) * reps
    blocks = [slice(i, min(i + step, n)) for i in range(0, n, step)]
    in_band = np.empty(n, dtype=bool)
    buf = np.empty(min(n, step))

    def low_edges(s):
        # l(v) of block s's reports; blocks start and end on user boundaries.
        lo = budget.low_edge(flat[s.start // reps : s.stop // reps])
        return np.repeat(lo, reps) if reps > 1 else lo

    for s in blocks:
        u = rng.random(out=buf[: s.stop - s.start])
        np.less(u, budget.high_band_prob, out=in_band[s])

    # High-probability band: uniform on [l(v), r(v)], written as l(v) + u (C - 1).
    for s in blocks:
        band = rng.random(out=result[s])
        band *= c - 1.0
        band += low_edges(s)

    # Low-probability tails: uniform on [-C, l(v)) U (r(v), C], total length C+1.
    for s in blocks:
        w = rng.random(out=buf[: s.stop - s.start])
        w *= c + 1.0
        left_len = low_edges(s) + c
        hi = left_len - 1.0
        tail = np.where(w < left_len, -c + w, hi + (w - left_len))
        np.copyto(result[s], tail, where=~in_band[s])

    if out is not None or reps > 1:
        return result
    if np.isscalar(v):
        return float(result[0])
    return result.reshape(arr.shape)


def _even_floor(x: float) -> int:
    k = int(math.floor(x))
    return k if k % 2 == 0 else k - 1


@dataclass(frozen=True)
class BucketGrid:
    """Uniform discretization of the input and output value domains.

    The input domain [-1, 1] is split into ``d`` buckets and the output
    domain [-C, C] of ``budget`` into ``d_out`` buckets.  ``d_out`` is even
    because side probing splits the output grid into two halves; ``d`` may
    be any positive count.  A size that is not an integer > 0, an odd
    ``d_out`` or a ``budget`` that is not a ``Budget`` raises ``ValueError``.
    """

    d: int
    d_out: int
    budget: Budget

    def __post_init__(self) -> None:
        check_number("d", self.d, integer=True, gt=0)
        check_number("d_out", self.d_out, integer=True, gt=0)
        if self.d_out % 2 != 0:
            raise ValueError(f"d_out must be even, got {self.d_out}")
        if not isinstance(self.budget, Budget):
            raise ValueError(f"budget must be a Budget, got {self.budget!r}")

    @classmethod
    def for_reports(cls, n_reports: int, budget: Budget) -> "BucketGrid":
        """Default grid: d_out = floor(sqrt(N)) and d scaled by (C-1)/(C+1), both even.

        An ``n_reports`` that is not an integer >= 16 raises ``ValueError``."""
        check_number("n_reports", n_reports, integer=True)
        if n_reports < 16:
            raise ValueError("too few reports to size a bucket grid")
        d_out = max(4, _even_floor(math.sqrt(n_reports)))
        t = math.exp(budget.epsilon / 2.0)
        d = max(2, _even_floor(d_out * (t - 1.0) / (t + 1.0)))
        return cls(d=d, d_out=d_out, budget=budget)

    @property
    def c_bound(self) -> float:
        return self.budget.c_bound

    @property
    def output_edges(self) -> np.ndarray:
        return np.linspace(-self.c_bound, self.c_bound, self.d_out + 1)

    @property
    def input_midpoints(self) -> np.ndarray:
        e = np.linspace(-1.0, 1.0, self.d + 1)
        return 0.5 * (e[:-1] + e[1:])

    @property
    def output_midpoints(self) -> np.ndarray:
        e = self.output_edges
        return 0.5 * (e[:-1] + e[1:])

    def poison_slice(self, side: str) -> slice:
        """The poison block as a slice of the output grid: its right or left half."""
        half = self.d_out // 2
        if side == "right":
            return slice(half, self.d_out)
        if side == "left":
            return slice(0, half)
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def perturbation_matrix(grid: BucketGrid) -> np.ndarray:
    """The d_out x d matrix of bucket transition probabilities for normal users.

    Column k holds the probability that a user whose value is the midpoint
    of input bucket k reports into each output bucket at the grid's budget;
    every column sums to 1.
    """
    budget, c = grid.budget, grid.c_bound
    lo = budget.low_edge(grid.input_midpoints)
    hi = lo + c - 1.0
    dens_high = budget.high_band_prob / (c - 1.0)
    dens_low = (1.0 - budget.high_band_prob) / (c + 1.0)
    edges = grid.output_edges
    a, b = edges[:-1, None], edges[1:, None]
    overlap = np.clip(np.minimum(b, hi) - np.maximum(a, lo), 0.0, None)
    probs = overlap * dens_high + (b - a - overlap) * dens_low
    return np.clip(probs, 0.0, 1.0)


@dataclass(frozen=True)
class Dataset:
    """Normalized user values in [-1, 1]; a value outside raises ``DomainError``."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.size and not (v.min() >= -1.0 and v.max() <= 1.0):
            raise DomainError("dataset values must lie in [-1, 1]")

    @functools.cached_property
    def true_mean(self) -> float:
        """The values' mean, computed on first read."""
        return float(self.values.mean())


def normalize_dataset(raw) -> Dataset:
    """Min-max normalize raw values onto [-1, 1].

    x -> 2 (x - min) / (max - min) - 1.  Requires at least two distinct
    values; a constant dataset has no usable range.
    """
    x = np.asarray(raw, dtype=float)
    if x.size < 2:
        raise DegenerateRangeError("need at least 2 values to normalize")
    lo, hi = float(x.min()), float(x.max())
    if hi <= lo:
        raise DegenerateRangeError("constant dataset cannot be normalized")
    v = 2.0 * (x - lo) / (hi - lo) - 1.0
    return Dataset(values=v)
