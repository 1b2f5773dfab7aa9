"""The benchmark's workloads: inputs made from a seed, the timed loop and the output checks.

Every workload is a closed loop from one process: the benchmark thread makes
one call of dapmean's public API (a unit), waits for it and starts the next,
until the run's time is spent.  Runner workloads call
``dapmean.bench.run_experiment`` (one unit = one call, which runs its trials on
the runner's own worker threads); the direct workload calls
``dapmean.protocol.run_dap`` once per unit.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from dataclasses import dataclass

import numpy as np

DEFENDED = ("baseline", "dap_emf", "dap_emf_star", "dap_cemf_star")
SETUP_REPEATS = 11
EPS0 = 1.0 / 16.0
GAMMA = 0.25
BETA = (2.0, 5.0)
WORKERS = 2  # runner threads, so the thread pool's scaling shows


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    eps_list: tuple[float, ...]
    schemes: tuple[str, ...]
    attack: dict
    direct: bool = False  # sequential run_dap calls instead of run_experiment
    trials: int = 1  # trials per run_experiment call


EVASIVE = {"kind": "evasive", "a": 0.2, "lo": "C/2", "hi": "C", "evasive": "-C/2"}
UNIFORM = {"kind": "uniform", "lo": "0.75*C", "hi": "C"}

# Each workload loads a different layer.  sweep_1e5: many small EM runs under
# the GIL, so per-iteration overhead and the runner's threads show; the
# evasive decoys exercise the side probe.  dap_1e6: one large defended estimate
# whose EM matrix (~13 MB) exceeds L2, so bytes moved and BLAS threads show.
# baselines_1e6: no EM at all, the bypass case for every filters change, where
# perturbation, attack generation and the runner carry the load.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep_1e5",
            n=100_000,
            eps_list=(1.0, 0.5),
            schemes=("ostrich", "trimming", "baseline", "dap_emf", "dap_emf_star", "dap_cemf_star"),
            attack=EVASIVE,
        ),
        Workload(
            "dap_1e6",
            n=1_000_000,
            eps_list=(1.0,),
            schemes=("dap_emf_star",),
            attack=UNIFORM,
            direct=True,
        ),
        Workload(
            "baselines_1e6",
            n=1_000_000,
            eps_list=(1.0, 0.5),
            schemes=("ostrich", "trimming"),
            attack=UNIFORM,
            trials=10,
        ),
    )
}


@dataclass(frozen=True)
class Estimate:
    """One attempted estimate and the undefended estimate of the same users and trial."""

    unit: int
    scheme: str
    epsilon: float
    trial: int
    value: float
    sq_error: float
    ostrich_sq_error: float | None
    error: str | None = None


@dataclass(frozen=True)
class Unit:
    wall: float
    estimates: list[Estimate]
    consistent: bool  # the outputs passed the structural checks


def hard_failed(e: Estimate) -> bool:
    """The estimate raised or is non-finite."""
    return e.error is not None or not (math.isfinite(e.value) and math.isfinite(e.sq_error))


def failed(e: Estimate) -> bool:
    """An estimate fails if it raised or is non-finite, or if it is a defended
    estimate whose squared error exceeds that of the undefended mean."""
    return hard_failed(e) or (
        e.scheme in DEFENDED
        and e.ostrich_sq_error is not None
        and e.sq_error > e.ostrich_sq_error
    )


def digest(estimates) -> str:
    h = hashlib.sha256()
    for e in estimates:
        h.update(f"{e.unit}|{e.scheme}|{e.epsilon!r}|{e.trial}|{float(e.value).hex()}\n".encode())
    return h.hexdigest()[:16]


def _config(w: Workload, seed: int, unit: int):
    from dapmean import bench

    return bench.ExperimentConfig(
        dataset={"type": "beta", "a": BETA[0], "b": BETA[1], "n": w.n},
        eps_list=list(w.eps_list),
        eps0=EPS0,
        gamma=GAMMA,
        attack=dict(w.attack),
        schemes=list(w.schemes),
        trials=w.trials,
        seed=seed * 100_000 + unit,
        workers=WORKERS,
    )


def setup(w: Workload, seed: int):
    """Everything the first timed call needs: the dataset, attacker mask and attack."""
    import dapmean
    from dapmean import attacks, bench

    if not w.direct:
        config = _config(w, seed, 0)
        ds = bench.build_dataset(config.dataset, np.random.SeedSequence(config.seed, spawn_key=(0,)))
        bench.build_attack(config.attack, default_reference=ds.true_mean)
        return {}
    ds = dapmean.gen_beta(*BETA, w.n, np.random.SeedSequence(seed, spawn_key=(0,)))
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    mask = np.zeros(w.n, dtype=bool)
    mask[rng.choice(w.n, size=int(math.floor(GAMMA * w.n)), replace=False)] = True
    attack = attacks.poison_strategy(lo=w.attack["lo"], hi=w.attack["hi"], dist=w.attack["kind"])
    return {"values": ds.values, "mask": mask, "attack": attack, "truth": float(ds.values[~mask].mean())}


def timed_setup(w: Workload, seed: int):
    """Set up SETUP_REPEATS times; return the median time and the last inputs."""
    times, inputs = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = setup(w, seed)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), inputs


def _runner_unit(w: Workload, inputs, seed: int, u: int, root) -> Unit:
    from dapmean import bench

    config = _config(w, seed, u)
    with root(u):
        t0 = time.perf_counter()
        result = bench.run_experiment(config)
        wall = time.perf_counter() - t0
    ref = {
        (r.epsilon, r.trial): r.sq_error for r in result.records if r.scheme == "ostrich"
    }
    estimates = [
        Estimate(
            unit=u,
            scheme=r.scheme,
            epsilon=r.epsilon,
            trial=r.trial,
            value=r.estimate,
            sq_error=r.sq_error,
            ostrich_sq_error=ref.get((r.epsilon, r.trial)) if r.scheme in DEFENDED else None,
            error=r.diagnostics.get("error"),
        )
        for r in result.records
    ]
    cells = {(r.scheme, r.epsilon, r.trial) for r in result.records}
    expected = {(s, e, t) for s in w.schemes for e in w.eps_list for t in range(w.trials)}
    consistent = cells == expected and len(result.records) == len(expected)
    return Unit(wall=wall, estimates=estimates, consistent=consistent)


def _direct_unit(w: Workload, inputs, seed: int, u: int, root) -> Unit:
    import dapmean
    from dapmean import protocol

    eps = w.eps_list[0]
    values, mask, attack, truth = inputs["values"], inputs["mask"], inputs["attack"], inputs["truth"]
    # The undefended reference of the same users, drawn outside the timed call.
    ref_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2, u)))
    budget = dapmean.Budget(eps)
    single = np.concatenate(
        [
            dapmean.pm_perturb(values[~mask], budget, ref_rng),
            np.asarray(attack(int(mask.sum()), budget, ref_rng), dtype=float),
        ]
    )
    ref_sq = (dapmean.ostrich(single) - truth) ** 2

    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3, u)))
    variant = w.schemes[0].removeprefix("dap_")
    error, consistent = None, True
    with root(u):
        t0 = time.perf_counter()
        try:
            res = protocol.run_dap(values, mask, eps, EPS0, attack, rng, filter_variant=variant)
        except (ValueError, ArithmeticError) as exc:
            res, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
    if res is None:
        value = float("nan")
    else:
        value = res.mean
        weights = res.aggregate.weights
        h = math.ceil(math.log2(eps / EPS0)) + 1
        consistent = (
            len(res.estimates) == h
            and bool(np.all(weights >= 0.0))
            and abs(float(weights.sum()) - 1.0) < 1e-9
            and abs(value - float(np.dot(weights, [g.mean for g in res.estimates]))) < 1e-9
        )
    est = Estimate(
        unit=u,
        scheme=w.schemes[0],
        epsilon=eps,
        trial=0,
        value=value,
        sq_error=(value - truth) ** 2,
        ostrich_sq_error=ref_sq,
        error=error,
    )
    return Unit(wall=wall, estimates=[est], consistent=consistent)


def measure(w: Workload, inputs, seed: int, seconds: float, root) -> list[Unit]:
    """Run units while another one, as long as the last, still fits in the time."""
    run_unit = _direct_unit if w.direct else _runner_unit
    units: list[Unit] = []
    start = time.perf_counter()
    while True:
        units.append(run_unit(w, inputs, seed, len(units), root))
        if time.perf_counter() - start + units[-1].wall > seconds:
            return units


def summarize(units: list[Unit]) -> dict:
    """End-to-end figures of a run and its accuracy breakdown."""
    estimates = [e for u in units for e in u.estimates]
    walls = [u.wall / len(u.estimates) for u in units]
    # Medians over units, so that one disturbed unit does not move the figure.
    failures = [e for e in estimates if failed(e)]
    by_scheme: dict[str, list[float]] = {}
    for e in estimates:
        if math.isfinite(e.sq_error):
            by_scheme.setdefault(e.scheme, []).append(e.sq_error)
    return {
        "attempted": len(estimates),
        "failed": sum(hard_failed(e) for e in estimates),
        "correct": all(u.consistent for u in units) and not any(hard_failed(e) for e in estimates),
        "estimate_s": statistics.median(walls),
        "estimate_samples": len(walls),
        "trials_per_s": statistics.median(len(u.estimates) / u.wall for u in units),
        "failed_frac": len(failures) / len(estimates),
        "failed_by_scheme": {
            s: sum(e.scheme == s for e in failures) for s in sorted({e.scheme for e in failures})
        },
        "mse": {s: float(np.mean(v)) for s, v in by_scheme.items()},
        "digest_first_unit": digest(units[0].estimates),
        "digest_all": digest(estimates),
        "units": len(units),
    }
