"""Generators for colluding-attacker behavior.

Covers one-sided (biased) attacks, two-sided general attacks and their
constructive reduction to a one-sided attack with the same deviation sum,
attackers who disguise as honest users by perturbing a chosen input, and
evasive attacks: general attacks that plant a fraction of their reports as
decoys on the opposite side.
"""

from __future__ import annotations

import ast
import functools
import heapq
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mechanism import Budget, DomainError, check_number, pm_perturb


_BINARY_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
}
_UNARY_OPS = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def resolve_endpoint(expr) -> Callable[[float, float], float]:
    """A range endpoint, given as a number or an expression in C and O, as a
    function of (c, o).

    An expression may use numbers, the names ``C`` and ``O``, binary
    ``+ - * /``, unary ``+ -`` and parentheses.  Anything else (calls,
    attribute access, other names, a non-finite number) raises
    ``ValueError`` here, before any value is computed; a division by zero
    raises it when the function is called.  Nothing is evaluated as Python
    code.  An expression is parsed once: later calls with the same string
    return the cached function.
    """
    if isinstance(expr, str):
        return _compile_endpoint(expr)
    check_number("a range endpoint that is not a string", expr)
    value = float(expr)
    return lambda c, o: value


@functools.lru_cache
def _compile_endpoint(expr: str) -> Callable[[float, float], float]:
    def build(node):
        # Each node becomes a function of (c, o) that computes what the node spells.
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return lambda c, o: node.value
        if isinstance(node, ast.Name) and node.id == "C":
            return lambda c, o: c
        if isinstance(node, ast.Name) and node.id == "O":
            return lambda c, o: o
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
            op, left, right = _BINARY_OPS[type(node.op)], build(node.left), build(node.right)
            return lambda c, o: op(left(c, o), right(c, o))
        if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY_OPS:
            op, operand = _UNARY_OPS[type(node.op)], build(node.operand)
            return lambda c, o: op(operand(c, o))
        raise ValueError(f"range endpoint {expr!r}: {type(node).__name__} is not allowed")

    try:
        at = build(ast.parse(expr, mode="eval").body)
    except SyntaxError as exc:
        raise ValueError(f"range endpoint {expr!r}: {exc}") from None

    def resolve(c: float, o: float) -> float:
        try:
            return float(at(c, o))
        except ZeroDivisionError as exc:
            raise ValueError(f"range endpoint {expr!r}: {exc}") from None

    return resolve


class NotBiasedError(ValueError):
    """Raised when a poison range crosses the reference mean."""


@dataclass(frozen=True)
class PoisonSpec:
    """One-sided poison value recipe.

    Attributes:
        range_lo, range_hi: poison value range inside [-C, C], each a number
            or an expression in C and O (see ``resolve_endpoint``).
        dist: "uniform", "gaussian" or "point".
        mu, sigma: gaussian parameters (defaults: midpoint and quarter-width
            of the range, used when the caller gives none).
        value: the point-mass location for dist="point" (defaults to range_hi).
        side: "left" or "right" of the reference mean.

    Every value that does not depend on C is checked when the spec is built,
    and a parameter its dist does not read is rejected; ``range_at`` resolves
    and checks the ends at each budget.
    """

    range_lo: float | str = 0.0
    range_hi: float | str = 1.0
    dist: str = "uniform"
    mu: float | None = None
    sigma: float | None = None
    value: float | None = None
    side: str = "right"

    def __post_init__(self) -> None:
        if self.dist not in ("uniform", "gaussian", "point"):
            raise ValueError(f"unknown distribution {self.dist!r}")
        if self.side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {self.side!r}")
        # Each optional parameter: its lower bound, and the one dist that reads it.
        for name, ge, reader in (
            ("mu", None, "gaussian"), ("sigma", 0, "gaussian"), ("value", None, "point")
        ):
            if getattr(self, name) is not None:
                check_number(name, getattr(self, name), ge=ge)
                if self.dist != reader:
                    raise ValueError(f"{name!r} is read only by {reader!r}, not {self.dist!r}")
        for end in (self.range_lo, self.range_hi):
            resolve_endpoint(end)  # an end outside the grammar fails now
        if not isinstance(self.range_lo, str) and not isinstance(self.range_hi, str):
            self.range_at(0.0, 0.0)  # two numbers: an inverted range fails now

    def range_at(self, c: float, o: float) -> tuple[float, float]:
        """The ends at output bound c and reference mean o; ValueError if lo > hi."""
        lo, hi = (resolve_endpoint(end)(c, o) for end in (self.range_lo, self.range_hi))
        if not lo <= hi:
            raise ValueError(f"range_lo {lo} must not exceed range_hi {hi}")
        return lo, hi


def _draw(spec: PoisonSpec, lo: float, hi: float, m: int, rng: np.random.Generator) -> np.ndarray:
    if spec.dist == "uniform":
        return rng.uniform(lo, hi, size=m)
    if spec.dist == "point":
        v = spec.value if spec.value is not None else hi
        if not (lo <= v <= hi):
            raise ValueError("point value outside poison range")
        return np.full(m, float(v))
    # Gaussian, rejection-truncated to the poison range, which must hold
    # enough of the normal's mass for the rejection loop to end.
    mu = spec.mu if spec.mu is not None else 0.5 * (lo + hi)
    sigma = spec.sigma if spec.sigma is not None else 0.25 * (hi - lo)
    if sigma > 0:
        z_lo, z_hi = ((x - mu) / (sigma * math.sqrt(2.0)) for x in (lo, hi))
        mass = 0.5 * (math.erf(z_hi) - math.erf(z_lo))
    else:
        mass = float(lo <= mu <= hi)
    if mass < 1e-3:
        raise ValueError(
            f"gaussian mu={mu} sigma={sigma} puts mass {mass:.3g} in [{lo}, {hi}], below 1e-3"
        )
    out = np.empty(m)
    filled = 0
    while filled < m:
        cand = rng.normal(mu, sigma, size=max(2 * (m - filled), 16))
        cand = cand[(cand >= lo) & (cand <= hi)]
        take = min(cand.size, m - filled)
        out[filled : filled + take] = cand[:take]
        filled += take
    return out


def gen_bba(
    spec: PoisonSpec,
    m: int,
    budget: Budget,
    rng: np.random.Generator,
    reference_mean: float = 0.0,
) -> np.ndarray:
    """Draw m one-sided poison values from the spec's distribution.

    The poison range, resolved at the budget's C and ``reference_mean``,
    must lie entirely on the spec's side of the reference mean and inside
    [-C, C].  An ``m`` that is not an integer >= 0 raises ``ValueError``.
    """
    c = budget.c_bound
    lo, hi = spec.range_at(c, reference_mean)
    if lo < -c or hi > c:
        raise DomainError(f"poison range outside [-{c}, {c}]")
    if spec.side == "right" and lo < reference_mean:
        raise NotBiasedError("right-side poison range crosses the reference mean")
    if spec.side == "left" and hi > reference_mean:
        raise NotBiasedError("left-side poison range crosses the reference mean")
    check_number("m", m, integer=True)
    if m < 0:
        raise ValueError("m must be non-negative")
    return _draw(spec, lo, hi, m, rng)


def gen_gba(
    left_spec: PoisonSpec,
    right_spec: PoisonSpec,
    m_left: int,
    m_right: int,
    budget: Budget,
    rng: np.random.Generator,
    reference_mean: float = 0.0,
) -> np.ndarray:
    """Union of a left-side and a right-side one-sided draw, left values first."""
    if left_spec.side != "left" or right_spec.side != "right":
        raise ValueError("gen_gba needs one left-side and one right-side spec")
    left = gen_bba(left_spec, m_left, budget, rng, reference_mean)
    return np.concatenate([left, gen_bba(right_spec, m_right, budget, rng, reference_mean)])


def reduce_gba_to_bba(
    values, reference_mean: float = 0.0, *, bound: float | None = None
) -> np.ndarray:
    """Merge two-sided poison values into one-sided ones with the same deviation sum.

    Sides and deviations are about ``reference_mean``.  Walks the minority
    side from its most extreme value down, merging each with the fewest most
    extreme opposing values that cover it into the single value that carries
    their combined deviation; a heap of the dominant side makes this
    O(n log n).  The output lies entirely on the side of the input's
    deviation-sum sign, has at most as many values, stays within the
    input's range and preserves the deviation sum (both up to float
    rounding).  Values with zero deviation sum reduce to the empty array.
    A non-finite value or reference mean raises ``ValueError``; with
    ``bound`` given, a ``bound`` that is not a number > 0 raises
    ``ValueError`` and a value outside [-bound, bound] ``DomainError``.
    """
    v, o = np.asarray(values, dtype=float), reference_mean
    check_number("reference_mean", o)
    if not np.isfinite(v).all():
        raise ValueError("trace values must be finite")
    if bound is not None:
        check_number("bound", bound, gt=0)
        if v.size and (v.min() < -bound or v.max() > bound):
            raise DomainError(f"trace values outside [-{bound}, {bound}]")
    if not (np.any(v < o) and np.any(v > o)):
        return v.copy()
    dev_sum = float(np.sum(v - o))
    if dev_sum == 0.0:
        return np.empty(0)

    # Mirror so the dominant side is always the left (negative deviations).
    flip = dev_sum > 0.0
    dev = -(v - o) if flip else (v - o)

    keep = dev[dev <= 0.0].tolist()
    heapq.heapify(keep)  # a min-heap: the most negative deviation pops first
    for acc in sorted(dev[dev > 0.0].tolist(), reverse=True):
        # Total deviation is negative, so the dominant side always covers acc.
        while acc > 0.0 and keep:
            acc += heapq.heappop(keep)
        heapq.heappush(keep, acc)

    out_dev = np.sort(keep)
    return o + (-out_dev if flip else out_dev)


def gen_input_manipulation(
    g: float, m: int, budget: Budget, rng: np.random.Generator
) -> np.ndarray:
    """Attackers disguise as honest users: perturb the chosen input g normally."""
    check_number("m", m, integer=True, ge=0)
    if not (-1.0 <= g <= 1.0):
        raise DomainError("manipulated input must lie in [-1, 1]")
    return pm_perturb(np.full(m, float(g)), budget, rng)


def evasion_bounds(
    m: int, n: int, a: float, c: float, o: float, o_prime: float
) -> tuple[float, float, float]:
    """Utility bounds of an evasive attack and their gap.

    Returns (U_max, U_eva, delta) where U_max is the estimation shift of an
    all-at-C attack, U_eva the shift when a fraction ``a`` of reports sits at
    the pessimistic mean, and delta = U_max - U_eva = m a (C - O') / (m + n).
    The two routes to delta are checked against each other.
    """
    if m <= 0 or n <= 0:
        raise ValueError("m and n must be positive")
    u_max = (m * c + n * o) / (m + n) - o
    u_eva = (m * (a * o_prime + (1.0 - a) * c) + n * o) / (m + n) - o
    delta = m * a * (c - o_prime) / (m + n)
    if abs((u_max - u_eva) - delta) > 1e-12 * max(1.0, abs(delta)):
        raise AssertionError("evasion bound identity violated beyond tolerance")
    return u_max, u_eva, delta


# --- report-level strategies -------------------------------------------------
#
# The grouped protocol fabricates attacker reports per budget stream, so a
# strategy is a callable (count, budget, rng) -> values.

AttackStrategy = Callable[[int, Budget, np.random.Generator], np.ndarray]


def poison_strategy(
    lo="0.75*C",
    hi="C",
    dist: str = "uniform",
    mu: float | None = None,
    sigma: float | None = None,
    value: float | None = None,
    reference_mean: float = 0.0,
    side: str = "right",
) -> AttackStrategy:
    """One-sided poison reports from one ``PoisonSpec``, its ends resolved per budget.

    A value the spec rejects or a non-finite ``reference_mean`` raises
    ``ValueError`` here, before any report is drawn.
    """
    spec = PoisonSpec(lo, hi, dist, mu, sigma, value, side=side)
    check_number("reference_mean", reference_mean)

    def strategy(count: int, budget: Budget, rng: np.random.Generator) -> np.ndarray:
        return gen_bba(spec, count, budget, rng, reference_mean)

    return strategy


def input_manipulation_strategy(g: float = 1.0) -> AttackStrategy:
    """Disguised attackers: every report is a normal perturbation of g.

    A ``g`` that is not a number in [-1, 1] raises ``ValueError`` here.
    """
    check_number("g", g, ge=-1, le=1)

    def strategy(count: int, budget: Budget, rng: np.random.Generator) -> np.ndarray:
        return gen_input_manipulation(g, count, budget, rng)

    return strategy


def evasive_strategy(
    a: float = 0.2,
    lo="C/2",
    hi="C",
    evasive="-C/2",
    reference_mean: float = 0.0,
) -> AttackStrategy:
    """Right-side poison with a fraction ``a`` of reports planted at the evasive value.

    Each draw is a ``gen_gba`` union of floor(a*count) decoys, a point mass
    at ``evasive`` on the left of the reference mean, and the rest drawn
    from the poison range, so ``gen_bba`` checks both at every budget.  An
    ``a`` that is not a number in [0, 1], an endpoint or evasive value
    outside ``resolve_endpoint``'s grammar or a non-finite
    ``reference_mean`` raises ``ValueError`` here, before any report is drawn.
    """
    check_number("a", a, ge=0, le=1)
    decoy = PoisonSpec(range_lo=evasive, range_hi=evasive, dist="point", side="left")
    spec = PoisonSpec(range_lo=lo, range_hi=hi, side="right")
    check_number("reference_mean", reference_mean)

    def strategy(count: int, budget: Budget, rng: np.random.Generator) -> np.ndarray:
        n_decoys = int(np.floor(a * count))
        return gen_gba(decoy, spec, n_decoys, count - n_decoys, budget, rng, reference_mean)

    return strategy
