"""The benchmark's first-unit estimates at seed 11, bit for bit, at its own sizes.

Each test builds one workload's unit-0 inputs through the public API, as the
benchmark does, and pins every estimate's ``float.hex``.  The runner
workloads call ``run_experiment`` with config seed 11 * 100 000 + 0; the
direct workload draws its dataset, attacker mask and run from
``SeedSequence(11)`` with spawn keys (0,), (1,) and (3, 0).  At these sizes
the eps/16 group of a direct run buckets 3.2M reports on d_out = 1788, so
its block and EM are pinned at the size the benchmark times.  ``digest``
hashes the estimates as the benchmark's first-unit digest does.  The DAP
estimates were recorded again when collection began to count each group's
reports as they are drawn, on the same draws: only the report sums round
differently.  Recorded with numpy 2.4 on x86-64 OpenBLAS; another BLAS build
may round differently.
"""

import hashlib
import math

import numpy as np

import dapmean
from dapmean import attacks, bench

EVASIVE = {"kind": "evasive", "a": 0.2, "lo": "C/2", "hi": "C", "evasive": "-C/2"}
UNIFORM = {"kind": "uniform", "lo": "0.75*C", "hi": "C"}


def digest(rows):
    h = hashlib.sha256()
    for scheme, epsilon, trial, value in rows:
        h.update(f"0|{scheme}|{epsilon!r}|{trial}|{float(value).hex()}\n".encode())
    return h.hexdigest()[:16]


def runner_unit(n, eps_list, schemes, attack, trials):
    config = bench.ExperimentConfig(
        dataset={"type": "beta", "a": 2.0, "b": 5.0, "n": n},
        eps_list=list(eps_list),
        eps0=1.0 / 16.0,
        gamma=0.25,
        attack=dict(attack),
        schemes=list(schemes),
        trials=trials,
        seed=11 * 100_000,
        workers=2,
    )
    return [(r.scheme, r.epsilon, r.trial, r.estimate) for r in bench.run_experiment(config).records]


def test_sweep_1e5():
    schemes = ("ostrich", "trimming", "baseline", "dap_emf", "dap_emf_star", "dap_cemf_star")
    rows = runner_unit(100_000, (1.0, 0.5), schemes, EVASIVE, 1)
    assert [r[:3] for r in rows] == [(s, e, 0) for e in (1.0, 0.5) for s in schemes]
    assert [float(r[3]).hex() for r in rows] == [
        "0x1.d484e032a3ff4p-3",
        "-0x1.cc30792662818p+0",
        "-0x1.5753e8856ac0bp+3",
        "-0x1.0b97afae95271p-1",
        "-0x1.7aaecceeaab0cp-2",
        "-0x1.7e8145903ee38p-2",
        "0x1.7a40612a9ad43p-1",
        "-0x1.b3bcdee372721p+1",
        "-0x1.51939e54c7c69p+4",
        "-0x1.398cc6138da39p-1",
        "-0x1.0661c2d651234p-1",
        "-0x1.0ae4c5122b0a3p-1",
    ]
    assert digest(rows) == "b4846f146031b8e1"


def test_dap_1e6():
    n, seed = 1_000_000, 11
    ds = dapmean.gen_beta(2.0, 5.0, n, np.random.SeedSequence(seed, spawn_key=(0,)))
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    mask = np.zeros(n, dtype=bool)
    mask[rng.choice(n, size=int(math.floor(0.25 * n)), replace=False)] = True
    attack = attacks.poison_strategy(lo="0.75*C", hi="C", dist="uniform")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3, 0)))
    res = dapmean.run_dap(ds.values, mask, 1.0, 1.0 / 16.0, attack, rng, "emf_star")
    assert res.groups[-1].grid.d_out == 1788
    assert res.mean.hex() == "-0x1.9474fd61cebf6p-2"
    assert digest([("dap_emf_star", 1.0, 0, res.mean)]) == "1569fdc7c8e73b46"


def test_baselines_1e6():
    rows = runner_unit(1_000_000, (1.0, 0.5), ("ostrich", "trimming"), UNIFORM, 10)
    cells = [(s, e, t) for e in (1.0, 0.5) for t in range(10) for s in ("ostrich", "trimming")]
    assert [r[:3] for r in rows] == cells
    assert [float(r[3]).hex() for r in rows] == [
        # eps 1, trials 0-9: ostrich, trimming
        "0x1.2bc304c0c63efp-1", "-0x1.9db44fc2ca96fp+0",
        "0x1.2b342062dce3cp-1", "-0x1.9e59ad3f81d37p+0",
        "0x1.2bfe2f48c6f3bp-1", "-0x1.9dbe2bc1481d4p+0",
        "0x1.2c7a8f08bba66p-1", "-0x1.9d765c931b64bp+0",
        "0x1.2cccd2c48d8dap-1", "-0x1.9d4534c692ce0p+0",
        "0x1.2a8526fc62531p-1", "-0x1.9e8147a1236fcp+0",
        "0x1.2d043c4db1d2ep-1", "-0x1.9ca7d08ba11c7p+0",
        "0x1.2d6b1646b8965p-1", "-0x1.9d1f8f28ace1fp+0",
        "0x1.2cdf0ae86f252p-1", "-0x1.9d565cef2e962p+0",
        "0x1.2c9c9c4e5d8f2p-1", "-0x1.9d5e2cb867227p+0",
        # eps 0.5, trials 0-9: ostrich, trimming
        "0x1.728bf30434780p+0", "-0x1.7b0d560cb2f30p+1",
        "0x1.755845d75ca35p+0", "-0x1.78f13791e4a02p+1",
        "0x1.72f0730b59b58p+0", "-0x1.7aca750bd8caap+1",
        "0x1.7355843127f93p+0", "-0x1.7a9d224124e2dp+1",
        "0x1.7498f4af720a9p+0", "-0x1.79456360ad002p+1",
        "0x1.738777cb88022p+0", "-0x1.7a6907ff0c4c8p+1",
        "0x1.74d779af5f4e5p+0", "-0x1.78e1f60b87202p+1",
        "0x1.731ad6a4a99d9p+0", "-0x1.7a4f95e8e006ap+1",
        "0x1.732df260fe4f7p+0", "-0x1.7ab1f4ae3d1fap+1",
        "0x1.740a9b6f42cf6p+0", "-0x1.7a3b5e98f1959p+1",
    ]
    assert digest(rows) == "e9c8e7b7aa374c85"
