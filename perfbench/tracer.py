"""Outside-in span tracing of the hofq layers, from the benchmark's own code.

`install` wraps the public functions of each module of `src/hofq` in place;
nothing inside the package changes.  A wrapped name is rebound in every hofq
module that holds it, because `verify`, `triangle`, `analysis` and the package
itself bind `compute_q` and friends with `from .engine import ...`.  Only the
traced phase of a run installs the wrappers, so untraced timings carry no
tracing cost at all.

A span records its name, start, end and the span that caused it.  Spans are
kept per thread on a stack; a span opened on a pool thread while
`verify.run_suite` is open takes that span as its parent.  Self time is a
span's duration minus the part of it that its child spans cover (the union of
their intervals, so overlapping verifier threads are not counted twice).
Under the interpreter lock a span on a pool thread also counts the time the
thread waits for the lock.

Per-term scalar helpers (`exactfloor.ceil_div_pow`, `iroot`, ...) that
`FSpec.value` loops call once per term are left unwrapped: a wrapper would cost
more than the helper, so their time stays in the calling `fspec` span.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import defaultdict

# computed, not measured: 8 B for every int64 element a kernel reads or writes
ONE_TERM_BYTES = 32   # f(n), q(n-1), q(n - q(n-1)) read; q(n) written
TWO_TERM_BYTES = 40   # q(n-d1), q(n-d2) and the two nested terms; q(n)


class Tracer:
    """Span recorder.  Spans accumulate while `enabled`; `fold` turns them
    into per-name totals and clears them, once per round."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []  # [name, t0, t1, parent index or None]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.outer: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.root_s = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._fork: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, count=None, fork=False):
        """Wrap fn in a span called name.  count(counts, args, kwargs,
        result, seconds) runs after each call that is not nested in a span
        of the same name.  A fork span adopts root spans of other threads."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != self._main:
                parent = self._fork
            else:
                parent = None
            with self._lock:
                idx = len(self.spans)
                self.spans.append([name, 0.0, 0.0, parent])
                nested = parent is not None and self.spans[parent][0] == name
            stack.append(idx)
            if fork:
                self._fork = idx
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if fork:
                    self._fork = None
                with self._lock:
                    self.spans[idx][1:3] = (t0, t1)
            if count is not None and not nested:
                count(self.counts, args, kwargs, result, t1 - t0)
            return result

        return traced

    def fold(self) -> None:
        """Add the recorded spans to the per-name totals and drop them."""
        spans = self.spans
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, t0, t1, parent in spans:
            if parent is None:
                self.root_s += t1 - t0
            else:
                children[parent].append((t0, t1))
        for i, (name, t0, t1, parent) in enumerate(spans):
            dur = t1 - t0
            self.inclusive[name] += dur
            if parent is None or spans[parent][0] != name:
                self.outer[name] += dur
            self.self_time[name] += dur - _covered(children.get(i, ()), t0, t1)
        self.spans = []


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


# ---------------------------------------------------------------------------
# counters, called after a span ends


def _count_one_term(counts, args, kwargs, result, dt):
    status, where = result
    done = len(args[0]) if status == 0 else where - 1
    counts["kernels.calls"] += 1
    counts["kernels.terms"] += done
    counts["kernels.one_term_terms"] += done
    counts["kernels.bytes_computed"] += ONE_TERM_BYTES * done


def _count_two_term(counts, args, kwargs, result, dt):
    q, n_init, start = args[0], args[1], args[2]
    status, where = result
    done = (len(q) if status == 0 else where - start) - n_init
    counts["kernels.calls"] += 1
    counts["kernels.terms"] += done
    counts["kernels.bytes_computed"] += TWO_TERM_BYTES * done


def _count_values(counts, args, kwargs, result, dt):
    counts["fspec.values_terms"] += len(result)


def _count_trace(counts, args, kwargs, result, dt):
    counts["engine.q_terms"] += len(result.q_values)


def _count_compute_q(counts, args, kwargs, result, dt):
    counts["engine.compute_q_calls"] += 1
    _count_trace(counts, args, kwargs, result, dt)


def _count_batch(counts, args, kwargs, result, dt):
    rows, width = result[0].shape
    counts["engine.batch_rows"] += rows
    counts["engine.q_terms"] += rows * width


def _count_run_suite(counts, args, kwargs, result, dt):
    names = args[0] if args else kwargs.get("names")
    threads = args[2] if len(args) > 2 else kwargs.get("threads")
    workers = max(threads or min(len(names or result), 8), 1)
    counts["verify.pool_capacity_s"] += workers * dt


def _count_build_triangle(counts, args, kwargs, result, dt):
    n_max = result.n_max
    counts["triangle.distinct"] += sum(len(v) for v in result.cells.values())
    counts["triangle.examined"] += (1 << (n_max - 1)) * n_max


def _count_cli(counts, args, kwargs, result, dt):
    argv = list(args[0]) if args else []
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            counts["cli.bytes_out"] += os.path.getsize(path)


def _listed(fn):
    """Run a generator function to the end inside its span; callers get an
    iterator over the same items."""

    @functools.wraps(fn)
    def run(*args, **kwargs):
        return iter(list(fn(*args, **kwargs)))

    return run


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every hofq layer in tracer spans."""
    import hofq
    from hofq import (analysis, cli, engine, exactfloor, fspec, kernels,
                      triangle, verify)

    modules = [m for key, m in sys.modules.items()
               if key == "hofq" or key.startswith("hofq.")]

    def patch(owner, attr, name, count=None, fork=False, adapt=None):
        orig = getattr(owner, attr)
        wrapped = tracer.wrap(name, adapt(orig) if adapt else orig, count, fork)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)
        return wrapped

    patch(fspec, "parse_fspec", "fspec.parse")
    patch(fspec, "slow_prefix_matrix", "fspec.enumerate")
    patch(fspec, "enumerate_slow_prefixes", "fspec.enumerate", adapt=_listed)
    classes = [fspec.FSpec]
    while classes:
        cls = classes.pop()
        classes.extend(cls.__subclasses__())
        if "values" in vars(cls):
            cls.values = tracer.wrap("fspec.values", vars(cls)["values"],
                                     _count_values)

    patch(kernels, "one_term_trace", "kernels.one_term", _count_one_term)
    patch(kernels, "two_term_trace", "kernels.two_term", _count_two_term)

    patch(engine, "compute_q", "engine.compute_q", _count_compute_q)
    patch(engine, "compute_two_term", "engine.compute_two_term", _count_trace)
    patch(engine, "compute_q_batch", "engine.batch", _count_batch)

    for attr in ("isqrt_array", "floor_gamma_array", "floor_gamma_sq_array",
                 "staircase_value_array", "floor_gamma"):
        patch(exactfloor, attr, "exactfloor." + attr)

    patch(verify, "run_suite", "verify.run_suite", _count_run_suite, fork=True)
    for key, fn in list(verify.REGISTRY.items()):
        verify.REGISTRY[key] = patch(verify, fn.__name__, "verify." + key)

    patch(triangle, "build_triangle", "triangle.build", _count_build_triangle)
    for attr in ("check_containment", "check_min", "triangle_json"):
        patch(triangle, attr, "triangle." + attr)

    patch(analysis, "export_figure_data", "analysis.export")
    for attr in ("perturb_compare", "approx_error", "scan_self_similarity",
                 "propose_shifts"):
        patch(analysis, attr, "analysis." + attr)

    patch(cli, "main", "cli.main", _count_cli)
    if hofq.compute_q is not engine.compute_q:
        raise RuntimeError("tracing did not rebind hofq.compute_q")


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(tracer: Tracer, rounds: int, round_wall_s: float,
                  verifiers) -> dict[str, tuple[float, str]]:
    """Per-round layer metrics from the folded spans.  round_wall_s is the
    mean traced round; verifiers are the registered verifier names."""
    per = 1.0 / max(rounds, 1)
    c = {k: v * per for k, v in tracer.counts.items()}
    inc = {k: v * per for k, v in tracer.inclusive.items()}
    outer = {k: v * per for k, v in tracer.outer.items()}
    own = {k: v * per for k, v in tracer.self_time.items()}

    def layer_self(layer):
        return sum(v for k, v in own.items() if k.split(".")[0] == layer)

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    kernel_s = inc.get("kernels.one_term", 0.0) + inc.get("kernels.two_term", 0.0)
    values_s = outer.get("fspec.values", 0.0)
    cq_self = own.get("engine.compute_q", 0.0)
    m = {
        "kernels.one_term_s": (inc.get("kernels.one_term", 0.0), "s"),
        "kernels.two_term_s": (inc.get("kernels.two_term", 0.0), "s"),
        "kernels.calls": (c.get("kernels.calls", 0.0), "count"),
        "kernels.terms": (c.get("kernels.terms", 0.0), "count"),
        "kernels.ns_per_term": (ratio(kernel_s, c.get("kernels.terms"), 1e9), "ns"),
        "kernels.us_per_call": (ratio(kernel_s, c.get("kernels.calls"), 1e6), "us"),
        "kernels.bytes_computed": (c.get("kernels.bytes_computed", 0.0), "B"),
        "fspec.parse_s": (outer.get("fspec.parse", 0.0), "s"),
        "fspec.values_s": (values_s, "s"),
        "fspec.values_terms": (c.get("fspec.values_terms", 0.0), "count"),
        "fspec.values_ns_per_term": (
            ratio(values_s, c.get("fspec.values_terms"), 1e9), "ns"),
        "engine.compute_q_self_s": (cq_self, "s"),
        "engine.compute_q_calls": (c.get("engine.compute_q_calls", 0.0), "count"),
        "engine.us_per_call_self": (
            ratio(cq_self, c.get("engine.compute_q_calls"), 1e6), "us"),
        "engine.batch_s": (inc.get("engine.batch", 0.0), "s"),
        "engine.batch_rows": (c.get("engine.batch_rows", 0.0), "count"),
        "engine.f_used_ratio": (
            ratio(c.get("kernels.one_term_terms", 0.0),
                  c.get("fspec.values_terms")), "ratio"),
        "engine.q_terms": (c.get("engine.q_terms", 0.0), "count"),
        "exactfloor.s": (layer_self("exactfloor"), "s"),
        "verify.self_s": (layer_self("verify"), "s"),
    }
    for name in verifiers:
        m[f"verify.{name}_s"] = (inc.get("verify." + name, 0.0), "s")
    verifier_s = sum(inc.get("verify." + name, 0.0) for name in verifiers)
    m.update({
        "verify.overlap": (ratio(verifier_s, c.get("verify.pool_capacity_s")),
                           "ratio"),
        "triangle.build_self_s": (own.get("triangle.build", 0.0), "s"),
        "triangle.useful_ratio": (
            ratio(c.get("triangle.distinct", 0.0), c.get("triangle.examined")),
            "ratio"),
        "analysis.export_self_s": (own.get("analysis.export", 0.0), "s"),
        "cli.self_s": (own.get("cli.main", 0.0), "s"),
        "cli.bytes_out": (c.get("cli.bytes_out", 0.0), "B"),
    })
    for layer in ("fspec", "kernels", "engine", "triangle", "analysis"):
        m[f"{layer}.self_s"] = (layer_self(layer), "s")
    m["bench.self_s"] = (round_wall_s - tracer.root_s * per, "s")
    return m
