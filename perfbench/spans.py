"""In-memory span tracing of toepspec's layers, installed from outside.

``Tracer.install`` replaces every binding of a layer function in every
loaded ``toepspec`` module (``harness.eigenvalues``, ``expansion.lu_logdet``,
``cli.dominance_report``, ...) with one shared wrapper, and public methods of
public classes likewise. A span is named ``<module>.<qualname>`` after the
module that defines the function, so it keeps its name when a caller moves
to another module. ``uninstall`` puts the original objects back.

Each span records its parent, thread, wall interval (``perf_counter``) and
thread CPU interval (``thread_time``). A span opened on a pool thread with
no open span of its own is parented to the innermost span open on the main
thread, which is the runner that submitted the work.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
import types
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

PACKAGE = "toepspec"
LAYERS = ("cli", "harness", "noise", "toeplitz", "linalg", "symbol", "expansion", "_svg")
# Metric names start with a letter, so the _svg layer is reported as svg.
LAYER_NAMES = tuple(layer.lstrip("_") for layer in LAYERS)
# Private helpers traced because a metric names them.
PRIVATE = {"harness._mean_pairwise_abs", "harness._mean_cross_abs"}
RUNNERS = ("harness.run_esd", "harness.run_logpot", "harness.run_replacement", "harness.run_region_map")


def _n(args) -> int:
    return int(np.shape(args[0])[0])


# Nominal complex-flop counts (computed, not measured) from the matrix order.
def _eig_attrs(args, out):
    n = _n(args)
    return {"flops": 10.0 * n**3, "nonconverged": int(not out.converged)}


def _svd_attrs(args, out):
    return {"flops": 8.0 / 3.0 * _n(args) ** 3}


def _lu_attrs(args, out):
    return {"flops": 2.0 / 3.0 * _n(args) ** 3, "singular": int(out.singular)}


def _region_attrs(args, out):
    return {"nodes": int(out[1].size), "boundary": int(out[1].sum())}


def _write_attrs(args, out):
    return {"bytes": sum(p.stat().st_size for p in out)}


ATTRS = {
    "linalg.eigenvalues": _eig_attrs,
    "linalg.singular_values": _svd_attrs,
    "linalg.lu_logdet": _lu_attrs,
    "symbol.region_labels": _region_attrs,
    "harness.RunArtifact.write": _write_attrs,
}


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    thread: int
    t0: float
    t1: float
    c0: float
    c1: float
    attrs: dict | None
    error: str | None


def _layer(fn) -> str | None:
    """The reported layer name of the module defining ``fn``, if a layer."""
    head, _, last = (getattr(fn, "__module__", None) or "").rpartition(".")
    if head != PACKAGE or last not in LAYERS:
        return None
    return last.lstrip("_")


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._main = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        attrs_of = ATTRS.get(name)
        spans, ids, main_stack = self.spans, self._ids, self._main_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            sid = next(ids)
            stack.append(sid)
            error = None
            out = None
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time()
                stack.pop()
                attrs = attrs_of(args, out) if attrs_of and error is None else None
                spans.append(Span(sid, parent, name, threading.get_ident(), t0, t1, c0, c1, attrs, error))

        return traced

    def install(self) -> None:
        """Wrap every layer-function binding in the loaded toepspec modules."""
        wrappers: dict[int, object] = {}
        classes: set[int] = set()

        def wrapper_for(fn, qualname):
            layer = _layer(fn)
            if layer is None:
                return None
            name = f"{layer}.{qualname}"
            if qualname.startswith("_") and name not in PRIVATE:
                return None
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(name, fn)
            return wrappers[id(fn)]

        modules = [m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType):
                    w = wrapper_for(val, val.__name__)
                    if w is not None:
                        self._saved.append((mod, attr, val))
                        setattr(mod, attr, w)
                elif isinstance(val, type) and not attr.startswith("_") and id(val) not in classes:
                    classes.add(id(val))
                    for mname, meth in list(vars(val).items()):
                        if isinstance(meth, types.FunctionType) and not mname.startswith("_"):
                            w = wrapper_for(meth, meth.__qualname__)
                            if w is not None:
                                self._saved.append((val, mname, meth))
                                setattr(val, mname, w)

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._saved):
            setattr(owner, attr, val)
        self._saved.clear()


# ---------------------------------------------------------------------------
# Aggregation


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def tail(durations_ms) -> tuple[float, str, int]:
    """(value, percentile label, n): the highest of p99.9/p99/p90/p50 with at
    least ten calls beyond it, else the maximum."""
    n = len(durations_ms)
    if n == 0:
        return 0.0, "none", 0
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return float(np.percentile(durations_ms, p)), f"p{p:g}", n
    return float(max(durations_ms)), "max", n


@dataclass
class Stats:
    calls: int = 0
    self_s: float = 0.0
    wait_s: float = 0.0
    errors: int = 0
    durations_ms: list = field(default_factory=list)
    attrs: dict = field(default_factory=lambda: defaultdict(float))


# Stats reported per traced function; the metric is ``<span name>.<stat>``.
FUNCTION_STATS = {
    "linalg.eigenvalues": ("calls", "self_s", "wait_s", "p50_ms", "tail_ms", "nonconverged", "gflops_nominal"),
    "linalg.singular_values": ("calls", "self_s", "p50_ms", "tail_ms", "errors", "gflops_nominal"),
    "linalg.lu_logdet": ("calls", "self_s", "wait_s", "p50_ms", "tail_ms", "singular", "gflops_nominal"),
    "linalg.stieltjes_from_singvals": ("calls", "self_s"),
    "harness.ks_distance": ("self_s",),
    **{name: ("self_s",) for name in RUNNERS},
    "harness.RunArtifact.write": ("self_s", "bytes"),
    "svg.region_svg": ("self_s",),
    "svg.scatter_svg": ("self_s",),
    "symbol.region_labels": ("self_s", "nodes", "boundary_frac"),
    "symbol.root_profile": ("calls", "self_s", "p50_ms", "tail_ms", "errors"),
    "symbol.aberth_roots": ("calls", "self_s"),
    "symbol.classify_region": ("calls",),
    "symbol.limit_logpot": ("self_s",),
    "expansion.dominance_report": ("calls", "self_s", "p50_ms", "tail_ms"),
    "expansion.corner_pk": ("calls", "self_s"),
    "toeplitz.build_z": ("calls",),
    "toeplitz.build": ("self_s",),
    "noise.sample": ("calls", "self_s"),
    "noise.corner_delta": ("calls", "self_s"),
    "symbol.sample_mu_a": ("self_s",),
    "cli.main": ("self_s",),
}
STAT_UNITS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "wait_s": ("s", "lower"),
    "p50_ms": ("ms", "lower"),
    "tail_ms": ("ms", "lower"),
    "nonconverged": ("count", "lower"),
    "singular": ("count", "lower"),
    "errors": ("count", "lower"),
    "gflops_nominal": ("GFLOP/s", "higher"),
    "bytes": ("bytes", "lower"),
    "nodes": ("count", "higher"),
    "boundary_frac": ("frac", "lower"),
}
OTHER_METRICS = (
    ("harness.energy.calls", "count", "lower"),
    ("harness.energy.self_s", "s", "lower"),
    ("harness.mu_self_term_s", "s", "lower"),
    ("harness.pool.parallelism", "ratio", "higher"),
    ("harness.pool.wait_s", "s", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYER_NAMES),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.unattributed_s", "s", "lower"),
)


def metric_table() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    rows = [
        (f"{fn}.{stat}", *STAT_UNITS[stat])
        for fn, stats in FUNCTION_STATS.items()
        for stat in stats
    ]
    return rows + list(OTHER_METRICS)


def span_cost(repeats: int = 20000) -> float:
    """Seconds one traced call adds to a call, measured on a no-op."""

    def noop():
        return None

    traced = Tracer()._wrap("calibration.noop", noop)
    t0 = time.perf_counter()
    for _ in range(repeats):
        noop()
    t1 = time.perf_counter()
    for _ in range(repeats):
        traced()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / repeats)


def layer_metrics(spans: list[Span], main_thread: int, traced_walls, cost: float):
    """Per-layer metrics per traced pass, plus a note (percentile and sample
    count) for each tail metric. ``cost`` is the span_cost() estimate."""
    passes = len(traced_walls)
    by_id = {s.sid: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    stats: dict[str, Stats] = defaultdict(Stats)
    self_of = {}
    for s in spans:
        dur = s.t1 - s.t0
        kids = children.get(s.sid, ())
        self_of[s.sid] = dur - _covered([(k.t0, k.t1) for k in kids], s.t0, s.t1)
        st = stats[s.name]
        st.calls += 1
        st.self_s += self_of[s.sid]
        # Waiting (wall minus thread CPU) not already counted by a child on
        # the same thread.
        st.wait_s += (dur - (s.c1 - s.c0)) - sum(
            (k.t1 - k.t0) - (k.c1 - k.c0) for k in kids if k.thread == s.thread
        )
        st.errors += s.error is not None
        st.durations_ms.append(dur * 1e3)
        for key, val in (s.attrs or {}).items():
            st.attrs[key] += val

    values: dict[str, float] = {}
    notes: dict[str, str] = {}
    for fn, wanted in FUNCTION_STATS.items():
        st = stats.get(fn, Stats())
        for stat in wanted:
            key = f"{fn}.{stat}"
            if stat in ("calls", "errors", "self_s", "wait_s"):
                values[key] = getattr(st, stat) / passes
            elif stat == "p50_ms":
                values[key] = float(np.median(st.durations_ms)) if st.calls else 0.0
            elif stat == "tail_ms":
                values[key], label, n = tail(st.durations_ms)
                notes[key] = f"{label} of n={n}"
            elif stat == "gflops_nominal":
                values[key] = st.attrs["flops"] / st.self_s / 1e9 if st.self_s > 0 else 0.0
            elif stat == "boundary_frac":
                values[key] = st.attrs["boundary"] / st.attrs["nodes"] if st.attrs["nodes"] else 0.0
            else:
                values[key] = st.attrs[stat] / passes

    energy = [stats.get(f"harness.{h}", Stats()) for h in ("_mean_pairwise_abs", "_mean_cross_abs")]
    values["harness.energy.calls"] = sum(e.calls for e in energy) / passes
    values["harness.energy.self_s"] = sum(e.self_s for e in energy) / passes
    # The mu_a self-term is the first pairwise mean each ESD run computes,
    # before any cell starts.
    mu = 0.0
    for s in spans:
        if s.name == "harness.run_esd":
            first = min(
                (k for k in children.get(s.sid, ()) if k.name == "harness._mean_pairwise_abs"),
                key=lambda k: k.t0,
                default=None,
            )
            mu += self_of[first.sid] if first else 0.0
    values["harness.mu_self_term_s"] = mu / passes
    # Pool work: spans whose parent lives on another thread.
    pool = [
        s for s in spans
        if s.thread != main_thread and (s.parent is None or by_id[s.parent].thread != s.thread)
    ]
    runner_wall = sum(s.t1 - s.t0 for s in spans if s.name in RUNNERS)
    values["harness.pool.parallelism"] = (
        sum(s.t1 - s.t0 for s in pool) / runner_wall if runner_wall > 0 else 0.0
    )
    values["harness.pool.wait_s"] = sum((s.t1 - s.t0) - (s.c1 - s.c0) for s in pool) / passes
    for layer in LAYER_NAMES:
        values[f"{layer}.self_s"] = sum(
            self_of[s.sid] for s in spans if s.name.startswith(layer + ".")
        ) / passes
    values["trace.spans"] = len(spans) / passes
    # Estimated from the span count: on a shared machine the traced and
    # untraced passes differ by more noise than the tracing costs.
    values["trace.overhead_frac"] = values["trace.spans"] * cost / float(np.median(traced_walls))
    roots = sum(s.t1 - s.t0 for s in spans if s.parent is None and s.thread == main_thread)
    values["trace.unattributed_s"] = (sum(traced_walls) - roots) / passes
    return values, notes
