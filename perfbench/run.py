"""The dapmean benchmark: one workload, one seed, one run.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload sweep_1e5 --seed 1 --seconds 40 --trace 0

It imports ``dapmean`` from the checkout's ``src`` directory, makes the
workload's inputs from the seed, times closed-loop calls of the public API for
about ``--seconds`` seconds, checks the outputs and prints every metric with
its unit.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The run's full record (machine, metrics, MSE per scheme, digests and, when
traced, every span) is written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"


def import_dapmean():
    """Import dapmean from this checkout's sources; None if they are missing."""
    src = ROOT / "src"
    if not (src / "dapmean" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import dapmean

    return dapmean


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; "unknown" outside a clone."""
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(ROOT / ".git" / ref)
    if direct:
        return direct
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, asked through its own API."""
    names = (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "blas" in line.rsplit("/", 1)[-1].lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in names:
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the machine so far, from /proc/stat."""
    line = (_read(Path("/proc/stat")) or "").split("\n", 1)[0].split()
    if len(line) < 9 or line[0] != "cpu":
        return None
    ticks = [int(x) for x in line[1:]]
    return ticks[7], sum(ticks)


def machine_info() -> dict:
    import numpy as np

    np.ones((64, 64)) @ np.ones(64)  # loads BLAS and starts its threads
    cpuinfo = _read(Path("/proc/cpuinfo")) or ""
    model = next(
        (line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "commit": git_commit(),
    }


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if import_dapmean() is None:
        print(f"perfbench: no dapmean sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import tracing

    w = workloads.WORKLOADS[args.workload]
    machine = machine_info()
    recorder = tracing.Recorder() if args.trace else None
    with tracing.instrument(recorder) if recorder else contextlib.nullcontext():
        setup_s, inputs = workloads.timed_setup(w, args.seed)
        root = recorder.root if recorder else (lambda unit: contextlib.nullcontext())
        ticks0 = cpu_ticks()
        units = workloads.measure(w, inputs, args.seed, args.seconds, root)
        ticks1 = cpu_ticks()
    s = workloads.summarize(units)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Time the hypervisor ran something else on this machine's CPUs: context
    # for timings, not a correction of them.
    steal = (
        (ticks1[0] - ticks0[0]) / max(ticks1[1] - ticks0[1], 1) if ticks0 and ticks1 else None
    )

    if recorder:
        metrics = tracing.layer_metrics(recorder.spans)
        metrics["trace.estimate_s"] = (s["estimate_s"], "s")
        metrics["trace.trials_per_s"] = (s["trials_per_s"], "1/s")
        metrics["failed_frac"] = (s["failed_frac"], "ratio")
    else:
        metrics = {
            "estimate_s": (s["estimate_s"], "s"),
            "trials_per_s": (s["trials_per_s"], "1/s"),
            "setup_s": (setup_s, "s"),
            "rss_peak_mb": (rss_mb, "MB"),
        }

    print(f"machine {json.dumps(machine, sort_keys=True)}")
    print(
        f"workload {w.name} seed {args.seed} trace {args.trace}: {s['units']} units, "
        f"{s['attempted']} estimates"
    )
    print(f"  estimate_s and trials_per_s are medians over {s['estimate_samples']} units")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    if not recorder:
        print(f"  failed_frac {s['failed_frac']:.6g} ratio")
    print(f"  failures by scheme {s['failed_by_scheme']}")
    print(f"  hard failures {s['failed']} of {s['attempted']}; outputs consistent: {s['correct']}")
    for scheme, value in s["mse"].items():
        print(f"  mse.{scheme} {value:.6g} sq_unit")
    print(f"  cpu steal share during the run {steal if steal is None else round(steal, 4)}")
    print(f"  digest first unit {s['digest_first_unit']}, all {s['units']} units {s['digest_all']}")

    printed = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "metrics": printed,
        "summary": s,
        "unit_walls": [u.wall for u in units],
        "steal_share": steal,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if recorder:
        with stem.with_suffix(".spans.jsonl").open("w") as fh:
            for span in recorder.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")

    print(
        json.dumps(
            {
                "correct": s["correct"],
                "attempted": s["attempted"],
                "failed": s["failed"],
                "metrics": printed,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
