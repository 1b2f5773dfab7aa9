"""Span tracing around the calls into each dapmean layer, and the per-layer metrics.

Tracing wraps functions from the benchmark's side only: every plain function
bound in the namespaces of ``dapmean.protocol``, ``dapmean.bench``,
``dapmean.filters`` and ``dapmean.attacks`` (the names those modules define or
import) is replaced by a wrapper that records a span, and so is every function
such a call returns (the attack strategies).  A span's layer is the last part
of the module that *defines* the wrapped function, so renaming or merging
functions inside a module keeps their time under the same layer.

Spans are recorded only inside a root span opened by the benchmark around one
timed call (a unit).  A span started on a thread with an empty stack, such as
a runner worker, takes the innermost open span of the benchmark thread as its
parent.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import threading
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("mechanism", "attacks", "filters", "protocol", "bench")
NAMESPACES = ("dapmean.protocol", "dapmean.bench", "dapmean.filters", "dapmean.attacks")


@dataclass(slots=True)
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    parent_layer: str | None
    trial: int
    start: float
    cpu_start: float
    end: float = 0.0
    cpu: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "layer": self.layer,
            "parent": self.parent,
            "trial": self.trial,
            "start": self.start,
            "end": self.end,
            "cpu": self.cpu,
            **self.info,
        }


class Recorder:
    """Collects spans; one per benchmark run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._summarize = _summarizer()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str, trial: int | None = None) -> Span | None:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        if parent is None and trial is None:
            return None  # outside any unit: not recorded
        span = Span(
            id=next(self._ids),
            name=name,
            layer=layer,
            parent=parent.id if parent else None,
            parent_layer=parent.layer if parent else None,
            trial=parent.trial if parent else trial,
            start=time.perf_counter(),
            cpu_start=time.process_time(),
        )
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.cpu = time.process_time() - span.cpu_start
        self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def root(self, trial: int):
        """Open the benchmark's span around one timed unit."""
        self._main_stack = self._stack()
        span = self._open("perfbench.unit", "perfbench", trial=trial)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__qualname__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            if span is None:
                return _wrap_returned(self, fn(*args, **kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            span.info = self._summarize(result, args, kwargs)
            return _wrap_returned(self, result)

        return traced


def _wrap_returned(recorder: Recorder, result):
    # A result that is already a wrapper came from a traced call further in.
    if (
        inspect.isfunction(result)
        and result.__module__.startswith("dapmean.")
        and not hasattr(result, "__wrapped__")
    ):
        return recorder.wrap(result)
    return result


def _summarizer():
    """Reads counts from a call's result; holds no reference to the result."""
    from dapmean.filters import HistogramPair, ObservedCounts, SideProbe, TransformMatrix
    from dapmean.protocol import DapResult

    def summarize(result, args, kwargs) -> dict:
        if isinstance(result, (HistogramPair, SideProbe)):
            pairs = [result] if isinstance(result, HistogramPair) else [
                result.pair_left,
                result.pair_right,
            ]
            mats = [a.matrix.nbytes for a in (*args, *kwargs.values()) if isinstance(a, TransformMatrix)]
            # Computed, not measured: each EM iteration reads the matrix twice
            # (M @ theta and M.T @ ratio).
            per_iter = 2 * sum(mats) / len(mats) if mats else 0.0
            return {
                "kind": "probe" if isinstance(result, SideProbe) else "filter",
                "em_iters": [p.iterations for p in pairs],
                "em_nonconverged": sum(not p.converged for p in pairs),
                "em_bytes_per_iter": per_iter,
            }
        if isinstance(result, TransformMatrix):
            return {"kind": "transform"}
        if isinstance(result, ObservedCounts):
            return {"kind": "bucket"}
        if isinstance(result, DapResult):
            sides = [g.probe.side for g in result.estimates if g.probe is not None]
            return {
                "kind": "dap",
                "groups": len(result.estimates),
                "side_disagreements": sum(s != result.side for s in sides),
            }
        if isinstance(result, np.ndarray):
            return {"reports": int(result.size)}
        return {}

    return summarize


@contextlib.contextmanager
def instrument(recorder: Recorder):
    """Wrap the layer functions for the duration of the block, then restore them."""
    patched = []
    try:
        for modname in NAMESPACES:
            mod = importlib.import_module(modname)
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__.startswith("dapmean."):
                    patched.append((mod, attr, obj))
                    setattr(mod, attr, recorder.wrap(obj))
        yield recorder
    finally:
        for mod, attr, obj in reversed(patched):
            setattr(mod, attr, obj)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered(children.get(s.id, ()), s.start, s.end) for s in spans
    }


def _fn(span: Span) -> str:
    return span.name.rsplit(".", 1)[-1]


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}.

    Times (unit "s") are seconds per unit, averaged over every unit of the
    run, so they compare across runs that fit different numbers of units.
    Counts cover the first unit only, so they repeat exactly for a fixed seed.
    A layer's self share is its self time over the units' wall time; runner
    worker threads overlap, so on runner workloads the shares can sum past 1.
    CPU per wall is the whole process's CPU time over a layer's outermost
    spans, BLAS threads included.  Only on the direct workload does it read the
    layer's own BLAS threading: on runner workloads the other worker's CPU
    falls inside the same spans, so it reads the runner's parallelism.
    """
    selft = self_times(spans)
    roots = [s for s in spans if s.layer == "perfbench"]
    roots_s = sum(s.duration for s in roots)

    def total(pred) -> float:
        return sum(s.duration for s in spans if pred(s))

    def named(layer: str, fn: str):
        return lambda s: s.layer == layer and _fn(s) == fn

    def outermost(s: Span, layer: str) -> bool:
        return s.layer == layer and s.parent_layer != layer

    def cpu_per_wall(layer: str) -> float:
        top = [s for s in spans if outermost(s, layer)]
        wall = sum(s.duration for s in top)
        return sum(s.cpu for s in top) / wall if wall > 0 else 0.0

    em = [s for s in spans if outermost(s, "filters") and "em_iters" in s.info]
    em_first = [s for s in em if s.trial == 0]
    em_s = sum(s.duration for s in em)
    em_iters_all = sum(sum(s.info["em_iters"]) for s in em)
    iters_first = sum(sum(s.info["em_iters"]) for s in em_first)
    bytes_first = sum(sum(s.info["em_iters"]) * s.info["em_bytes_per_iter"] for s in em_first)
    first = [s for s in spans if s.trial == 0]
    perturb = list(filter(named("mechanism", "pm_perturb"), spans))
    perturb_s = sum(s.duration for s in perturb)
    dap_first = [s for s in first if s.info.get("kind") == "dap"]
    baseline_first = list(filter(named("protocol", "baseline_run"), first))

    m: dict[str, tuple[float, str]] = {
        "filters.probe_s": (sum(s.duration for s in em if s.info["kind"] == "probe"), "s"),
        "filters.filter_s": (sum(s.duration for s in em if s.info["kind"] == "filter"), "s"),
        "filters.em_calls": (sum(len(s.info["em_iters"]) for s in em_first), "count"),
        "filters.em_iters": (iters_first, "count"),
        "filters.em_us_per_iter": (1e6 * em_s / em_iters_all if em_iters_all else 0.0, "us"),
        "filters.em_nonconverged": (sum(s.info["em_nonconverged"] for s in em_first), "count"),
        "filters.em_bytes_per_iter": (bytes_first / iters_first if iters_first else 0.0, "B_computed"),
        "filters.transform_s": (total(lambda s: s.info.get("kind") == "transform"), "s"),
        "filters.transform_builds": (
            sum(s.info.get("kind") == "transform" for s in first),
            "count",
        ),
        "filters.bucket_s": (total(lambda s: s.info.get("kind") == "bucket"), "s"),
        "mechanism.perturb_s": (perturb_s, "s"),
        "mechanism.reports_per_s": (
            sum(s.info.get("reports", 0) for s in perturb) / perturb_s if perturb_s else 0.0,
            "1/s",
        ),
        "mechanism.transition_matrix_s": (total(named("mechanism", "perturbation_matrix")), "s"),
        "attacks.poison_s": (total(lambda s: outermost(s, "attacks")), "s"),
        "attacks.poison_reports": (
            sum(s.info.get("reports", 0) for s in first if outermost(s, "attacks")),
            "count",
        ),
        "protocol.plan_s": (total(named("protocol", "dap_plan")), "s"),
        "protocol.collect_s": (
            sum(selft[s.id] for s in filter(named("protocol", "dap_collect"), spans)),
            "s",
        ),
        "protocol.aggregate_s": (total(named("protocol", "aggregate_means")), "s"),
        "protocol.baseline_s": (total(named("protocol", "baseline_run")), "s"),
        "protocol.trimming_s": (total(named("protocol", "trimming")), "s"),
        "protocol.groups": (
            sum(s.info["groups"] for s in dap_first) + len(baseline_first),
            "count",
        ),
        "protocol.side_disagreements": (
            sum(s.info["side_disagreements"] for s in dap_first),
            "count",
        ),
        "protocol.cpu_per_wall": (cpu_per_wall("protocol"), "ratio"),
        "bench.cpu_per_wall": (cpu_per_wall("bench"), "ratio"),
    }
    for layer in LAYERS:
        own = sum(selft[s.id] for s in spans if s.layer == layer)
        m[f"{layer}.self_s"] = (own, "s")
        m[f"{layer}.self_share"] = (own / roots_s if roots_s else 0.0, "ratio")
    m = {k: (v / len(roots) if unit == "s" else v, unit) for k, (v, unit) in m.items()}
    m["trace.spans"] = (len(first), "count")
    return m
