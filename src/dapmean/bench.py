"""Dataset synthesis/ingestion and the seeded Monte-Carlo experiment runner.

A run compares defense schemes on identical per-trial inputs (same attacker
identities, same honest values) and reports per-trial estimates plus the
MSE against the honest users' true mean.  The DAP variants (EMF, EMF* and
CEMF*) differ only in how they post-process one probe, so in each (epsilon,
trial) cell they share one DAP collection and probe: ``run_dap`` runs once
and ``DapResult.refilter`` gives the other variants.  All randomness
derives from one master seed via counter-based spawn keys, so results are
byte-reproducible even when trials execute in parallel.
"""

from __future__ import annotations

import csv
import inspect
import json
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import attacks
from .attacks import AttackStrategy
from .mechanism import Budget, Dataset, check_number, normalize_dataset
from .protocol import (
    FILTER_VARIANTS,
    ConfigurationError,
    baseline_budgets,
    baseline_run,
    budget_ladder,
    collect_reports,
    group_mean_statistics,
    ostrich,
    run_dap,
    trimming,
)

SCHEMES = ("ostrich", "trimming", "baseline", *(f"dap_{v}" for v in FILTER_VARIANTS))


def gen_beta(a: float, b: float, n: int, seed) -> Dataset:
    """n Beta(a, b) samples, min-max normalized onto [-1, 1]."""
    rng = np.random.default_rng(seed)
    return normalize_dataset(rng.beta(a, b, size=n))


def read_column(path, column) -> np.ndarray:
    """The numeric values of one CSV column, as read (no normalization).

    ``column`` is a header name or a zero-based index; with an index, a
    first row that does not parse is a header.  A name the header lacks, or
    an index past every row's last column, raises ``KeyError``.  Rows whose
    value does not parse as a finite number (``nan`` and ``inf`` do not)
    are skipped, with a warning that counts them.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        raise ValueError(f"{path}: empty file")

    start = 0
    if isinstance(column, int) or (isinstance(column, str) and column.lstrip("-").isdigit()):
        idx = int(column)
        if not any(-len(row) <= idx < len(row) for row in rows):
            raise KeyError(f"{path}: no column numbered {idx}")
        # A non-numeric first row is a header, not data.
        try:
            float(rows[0][idx])
        except (ValueError, IndexError):
            start = 1
    else:
        header = rows[0]
        if column not in header:
            raise KeyError(f"{path}: no column named {column!r}")
        idx = header.index(column)
        start = 1

    values = []
    for row in rows[start:]:
        try:
            values.append(float(row[idx]))
        except (ValueError, IndexError):
            values.append(math.nan)
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        warnings.warn(f"{path}: skipped {(~finite).sum()} unparsable rows", stacklevel=2)
    return values[finite]


def load_csv(path, column, clip: tuple[float, float] | None = None) -> Dataset:
    """Load one numeric column from a CSV file (``read_column``) and min-max
    normalize it; with ``clip`` set, values outside the interval are dropped
    before normalization.
    """
    arr = read_column(path, column)
    if clip is not None:
        lo, hi = clip
        arr = arr[(arr >= lo) & (arr <= hi)]
    if arr.size < 2:
        raise ValueError(f"{path}: fewer than 2 usable rows")
    return normalize_dataset(arr)


@dataclass
class ExperimentConfig:
    """Everything a run needs; JSON-serializable.

    ``dataset`` is {"type": "beta", "a", "b", "n"} or
    {"type": "csv", "path", "column", "clip": [lo, hi] | null}.
    ``attack`` is {"kind": "none" or a key of ``ATTACK_KINDS``, ...} with
    range endpoints given as numbers or expressions in C and O (e.g.
    "0.75*C").
    """

    dataset: dict
    eps_list: list[float]
    eps0: float = 1.0 / 16.0
    gamma: float = 0.25
    attack: dict = field(default_factory=lambda: {"kind": "uniform", "lo": "0.75*C", "hi": "C"})
    schemes: list[str] = field(default_factory=lambda: ["ostrich", "trimming", "dap_emf_star"])
    trials: int = 20
    seed: int = 0
    out: str | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        shapes = {"dataset": dict, "attack": dict, "eps_list": list, "schemes": list}
        try:
            for name, kind in shapes.items():
                value = getattr(self, name)
                if not isinstance(value, kind):
                    raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")
            check_number("trials", self.trials, integer=True, ge=1)
            check_number("seed", self.seed, integer=True, ge=0)
            check_number("gamma", self.gamma, ge=0, lt=0.5)
            check_number("eps0", self.eps0, gt=0)
            check_number("workers", self.workers, integer=True, ge=1)
            if self.out is not None and not isinstance(self.out, str):
                raise ValueError(f"out must be a str or null, got {self.out!r}")
            for epsilon in self.eps_list:
                check_number("eps_list entry", epsilon, gt=0)
            # Compared by equality, not hashed: an entry may be any JSON value.
            unknown = [scheme for scheme in self.schemes if scheme not in SCHEMES]
            if unknown:
                raise ValueError(f"schemes has unknown entries: {unknown}")
            for name in ("schemes", "eps_list"):
                value = getattr(self, name)
                if not value or len(set(value)) < len(value):
                    raise ValueError(f"{name} must be nonempty and must not repeat, got {value}")
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from None

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Config from a dictionary; an unknown or missing key raises ConfigurationError."""
        spec = fields(cls)
        _check_keys("config", d, [f.name for f in spec])
        missing = [
            f.name
            for f in spec
            if f.name not in d and f.default is MISSING and f.default_factory is MISSING
        ]
        if missing:
            raise ConfigurationError(f"config is missing the key {missing[0]!r}")
        return cls(**d)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _check_keys(label: str, keys, takes) -> None:
    """Raise ConfigurationError naming the first spec key the reader does not
    take; ``label`` names the reader, e.g. "config" or "attack kind 'uniform'"."""
    unknown = sorted(set(keys) - set(takes), key=str)  # a key may be any hashable
    if unknown:
        raise ConfigurationError(
            f"{label} does not take the key {unknown[0]!r} (it takes {sorted(takes)})"
        )


# Each attack kind and the name of its factory in ``attacks``.  ``build_attack``
# looks the factory up by that name at call time, so that a wrapped factory
# is the one called; taking the names from the functions makes a renamed
# factory fail at import.
ATTACK_KINDS = {
    "uniform": attacks.poison_strategy.__name__,
    "gaussian": attacks.poison_strategy.__name__,
    "point": attacks.poison_strategy.__name__,
    "input": attacks.input_manipulation_strategy.__name__,
    "evasive": attacks.evasive_strategy.__name__,
}


def build_attack(spec: dict, default_reference: float = 0.0) -> AttackStrategy | None:
    """Attack strategy from its config dictionary.

    ``kind`` is "none" or a key of ``ATTACK_KINDS``.  Every other key is a
    keyword argument of the kind's factory in ``attacks``; a key the factory
    does not take, or a value it rejects with ``ValueError``, raises
    ConfigurationError.  ``default_reference`` is what "O" resolves to in
    range expressions when the config does not pin ``reference_mean``; the
    runner passes the dataset's true mean.
    """
    keys = dict(spec)
    kind = keys.pop("kind", "none")
    if kind == "none":
        _check_keys(f"attack kind {kind!r}", keys, ())
        return None
    if not isinstance(kind, str) or kind not in ATTACK_KINDS:
        raise ConfigurationError(f"unknown attack kind {kind!r}")
    factory = getattr(attacks, ATTACK_KINDS[kind])
    fixed = {"dist": kind} if factory is attacks.poison_strategy else {}
    takes = set(inspect.signature(factory).parameters) - set(fixed)
    _check_keys(f"attack kind {kind!r}", keys, takes)
    if "reference_mean" in takes:
        keys.setdefault("reference_mean", default_reference)
    try:
        return factory(**keys, **fixed)
    except ValueError as exc:
        raise ConfigurationError(f"attack kind {kind!r}: {exc}") from None


def build_dataset(spec: dict, seed) -> Dataset:
    """Dataset from its config dictionary: ``a``, ``b`` and ``n`` for
    "beta" (``gen_beta``), ``path``, ``column`` and ``clip`` for "csv"
    (``load_csv``).  An unknown key, a missing "beta" key or "csv" path, a
    value of the wrong type or range, or a "csv" column the file lacks
    raises ConfigurationError naming the key."""
    keys = dict(spec)
    kind = keys.pop("type", "beta")
    if kind not in ("beta", "csv"):
        raise ConfigurationError(f"unknown dataset type {kind!r}")
    takes = {"beta": ("a", "b", "n"), "csv": ("path", "column", "clip")}[kind]
    _check_keys(f"dataset type {kind!r}", keys, takes)
    # A "csv" spec needs only its path: column defaults to 0 and clip to null.
    for key in takes if kind == "beta" else ("path",):
        if key not in keys:
            raise ConfigurationError(f"dataset type {kind!r} needs the key {key!r}")
    path, column, clip = keys.get("path"), keys.get("column", 0), keys.get("clip")
    try:
        if kind == "beta":
            check_number("'a'", keys["a"], gt=0)
            check_number("'b'", keys["b"], gt=0)
            check_number("'n'", keys["n"], integer=True, ge=2)
        else:
            if not isinstance(path, str):
                raise ValueError(f"'path' must be a string, got {path!r}")
            if not isinstance(column, str):
                check_number("'column' that is not a string", column, integer=True)
            if clip is not None:
                if not (isinstance(clip, (list, tuple)) and len(clip) == 2):
                    raise ValueError(f"'clip' must be null or [lo, hi], got {clip!r}")
                check_number("'clip' lo", clip[0])
                check_number("'clip' hi", clip[1], gt=clip[0])
    except ValueError as exc:
        raise ConfigurationError(f"dataset type {kind!r} key {exc}") from None
    if kind == "beta":
        return gen_beta(keys["a"], keys["b"], int(keys["n"]), seed)
    try:
        return load_csv(path, column, None if clip is None else tuple(clip))
    except KeyError:
        raise ConfigurationError(
            f"dataset type {kind!r} key 'column' names no column of {path}, got {column!r}"
        ) from None


@dataclass(frozen=True)
class TrialRecord:
    """One scheme's estimate in one trial and the trial's honest mean (truth)."""

    scheme: str
    epsilon: float
    trial: int
    estimate: float
    truth: float
    diagnostics: dict

    @property
    def sq_error(self) -> float:
        """NaN for a failed trial, whose estimate is NaN."""
        return (self.estimate - self.truth) ** 2


class FailedCellError(RuntimeError):
    """Raised when every trial of a (scheme, epsilon) cell failed."""


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    records: list[TrialRecord]

    def _cell(self, scheme: str, epsilon: float) -> list[TrialRecord]:
        return [r for r in self.records if r.scheme == scheme and r.epsilon == epsilon]

    def cell_mse(self, scheme: str, epsilon: float) -> float:
        """Mean squared error over the cell's trials that did not fail; NaN if all failed."""
        errs = [r.sq_error for r in self._cell(scheme, epsilon) if not math.isnan(r.sq_error)]
        return float(np.mean(errs)) if errs else float("nan")

    def failed_cells(self) -> list[tuple[str, float]]:
        """(scheme, epsilon) cells in which every trial failed (NaN squared error)."""
        return [
            (scheme, eps)
            for eps in self.config.eps_list
            for scheme in self.config.schemes
            if math.isnan(self.cell_mse(scheme, eps))
        ]


def _run_trial(
    config: ExperimentConfig,
    dataset: Dataset,
    attack: AttackStrategy | None,
    eps_index: int,
    trial: int,
) -> list[TrialRecord]:
    """All schemes on one (epsilon, trial) cell, sharing identities and values.

    The two-budget baseline gets the cell's epsilon and splits it itself.
    The DAP schemes also share one collection and probe: the first DAP
    scheme to succeed runs ``run_dap`` and every later one takes its
    result's ``refilter``, which reruns only the filter stage on the same
    groups.  Each ``run_dap`` attempt starts a fresh generator on the DAP
    stream, so each DAP record equals a solo run of its variant on that
    stream, whichever sibling failed before it.
    """
    epsilon = config.eps_list[eps_index]
    ss = np.random.SeedSequence(config.seed, spawn_key=(1 + eps_index, trial))
    # Child 3 is left unused, so that the DAP stream is child 4, the one
    # dap_emf_star has always drawn from: its estimates keep their bits.
    identity, single_child, baseline_child, _, dap_child = ss.spawn(5)
    values = dataset.values
    n_users = values.size
    m = int(math.floor(config.gamma * n_users))
    mask = np.zeros(n_users, dtype=bool)
    # The drawn indices are not bound, so they are freed before collection.
    mask[np.random.default_rng(identity).choice(n_users, size=m, replace=False)] = True
    truth = float(values[~mask].mean())

    # One shared single-budget collection for the unprotected baselines.
    single = None
    if "ostrich" in config.schemes or "trimming" in config.schemes:
        single = collect_reports(
            values, mask, Budget(epsilon), attack, np.random.default_rng(single_child)
        )

    dap = None  # the trial's first successful DAP result
    records = []
    for scheme in config.schemes:
        variant = scheme.removeprefix("dap_")
        try:
            if scheme == "ostrich":
                est, diag = ostrich(single), {}
            elif scheme == "trimming":
                est, diag = trimming(single, side=config.attack.get("side", "right")), {}
            else:
                # A GroupEstimate (baseline) or a DapResult: both carry a side and a gamma_hat.
                if scheme == "baseline":
                    rng = np.random.default_rng(baseline_child)
                    res = baseline_run(values, mask, epsilon, attack, rng)
                elif dap is None:
                    eps0 = min(config.eps0, epsilon)
                    rng = np.random.default_rng(dap_child)
                    res = dap = run_dap(values, mask, epsilon, eps0, attack, rng, variant)
                else:
                    res = dap.refilter(variant)
                est = res.mean
                diag = {"gamma_hat": res.gamma_hat, "side": res.side}
                if scheme != "baseline":
                    diag["group_gamma_hats"] = [g.gamma_hat for g in res.estimates]
                    diag["slope_z"], diag["spread_q"] = group_mean_statistics(res.groups)
        except (ValueError, ArithmeticError) as exc:  # domain failure: record, keep going
            est = float("nan")
            diag = {"error": f"{type(exc).__name__}: {exc}"}
        records.append(
            TrialRecord(
                scheme=scheme,
                epsilon=epsilon,
                trial=trial,
                estimate=float(est),
                truth=truth,
                diagnostics=diag,
            )
        )
    return records


def _check_budgets(config: ExperimentConfig, attack: AttackStrategy | None) -> None:
    """Build every budget a selected scheme draws at (epsilon for ostrich and
    trimming, ``baseline_budgets`` for baseline, the ``budget_ladder`` down to
    min(eps0, epsilon) for DAP) and call the attack, if any, with count 0 at
    each, so that a budget whose C is not finite and above 1, or an attack value
    that depends on C, fails before any trial, naming the eps_list entry."""
    schemes = set(config.schemes)
    rng = np.random.default_rng(0)  # a count of 0 draws nothing from it
    for epsilon in config.eps_list:
        budgets = [epsilon] if schemes & {"ostrich", "trimming"} else []
        if "baseline" in schemes:
            budgets += baseline_budgets(epsilon)
        if any(scheme.startswith("dap_") for scheme in schemes):
            budgets += budget_ladder(epsilon, min(config.eps0, epsilon)).tolist()
        for eps in budgets:
            what = "budget"
            try:
                budget = Budget(eps)
                if attack is not None:
                    what = f"attack kind {config.attack['kind']!r}"
                    attack(0, budget, rng)
            except (ValueError, ArithmeticError) as exc:
                raise ConfigurationError(
                    f"{what} at eps={eps:g} (eps_list entry {epsilon:g}): {exc}"
                ) from None


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every (scheme, epsilon, trial) cell and optionally write CSV + JSON."""
    dataset = build_dataset(
        config.dataset, np.random.SeedSequence(config.seed, spawn_key=(0,))
    )
    attack = build_attack(config.attack, default_reference=dataset.true_mean)
    _check_budgets(config, attack)
    tasks = [(ei, t) for ei in range(len(config.eps_list)) for t in range(config.trials)]
    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        chunks = list(pool.map(lambda args: _run_trial(config, dataset, attack, *args), tasks))
    records = [r for chunk in chunks for r in chunk]
    result = ExperimentResult(config=config, records=records)
    if config.out:
        write_outputs(result)
    return result


def _fmt(x: float) -> str:
    return "%.17g" % x


def _attack_range(spec: dict) -> list:
    """The ``lo`` and ``hi`` an attack spec draws from: its own, else its kind
    factory's defaults; empty for a kind that draws from no range."""
    factory = ATTACK_KINDS.get(spec.get("kind", "none"))
    takes = inspect.signature(getattr(attacks, factory)).parameters if factory else {}
    return [spec.get(end, takes[end].default) if end in takes else "" for end in ("lo", "hi")]


def write_outputs(result: ExperimentResult) -> tuple[Path, Path]:
    """Long-form CSV plus a JSON summary next to it."""
    cfg = result.config
    csv_path = Path(cfg.out)
    json_path = csv_path.with_suffix(".json")
    range_lo, range_hi = _attack_range(cfg.attack)
    with csv_path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["scheme", "epsilon", "gamma", "range_lo", "range_hi", "trial", "estimate", "sq_error"]
        )
        for r in result.records:
            w.writerow(
                [
                    r.scheme,
                    _fmt(r.epsilon),
                    _fmt(cfg.gamma),
                    range_lo,
                    range_hi,
                    r.trial,
                    _fmt(r.estimate),
                    _fmt(r.sq_error),
                ]
            )
    cells = []
    for eps in cfg.eps_list:
        for scheme in cfg.schemes:
            cell = result._cell(scheme, eps)
            mse = result.cell_mse(scheme, eps)
            cells.append(
                {
                    "scheme": scheme,
                    "epsilon": eps,
                    "mse": None if math.isnan(mse) else mse,
                    "trials": len(cell),
                    "failed": sum(math.isnan(r.sq_error) for r in cell),
                    "diagnostics": [r.diagnostics for r in cell],
                }
            )
    with json_path.open("w") as fh:
        json.dump({"config": asdict(cfg), "cells": cells}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path
