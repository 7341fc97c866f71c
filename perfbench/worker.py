"""One benchmark run of one workload, in a fresh process.

Started by run.py with PYTHONPATH pointing at the checkout's `src`.  Runs
rounds of the workload's operations until `--seconds` have passed (at least
one round), checks every operation's output, and prints one JSON object as
its last line of stdout.  With `--trace 1` the first half of the time is
untraced and the second half traced, so that the tracing overhead is the
difference of the two.

The wall time of a round is estimated in reference units (reference.py):
each operation is preceded by one run of the fixed `reference()` loop, outside
the timed region, and `wall_s` is REF_S times the sum over operations of the
median of (operation time / its reference time) across the rounds.  On a
shared 2-core virtual machine the CPU speed swung by 20% within seconds and
stayed slow for whole runs at times.  Over five 20 s runs of `export`, the
sum of per-operation minima spread 34% (quartile distance over median), the
sum of medians 13%, and the sum of median ratios to the reference 5%.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback

import workloads
from reference import REF_S, timed_reference


def run_rounds(ops, seconds, corrupt, tracer=None):
    """Rounds of ops for `seconds`; returns round times, per-op times, the
    reference time before each op, and the failures as (op label, reason)."""
    rounds, failures = [], []
    op_times = {op.label: [] for op in ops}
    ref_times = {op.label: [] for op in ops}
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        total = 0.0
        for op in ops:
            gc.collect()
            ref_times[op.label].append(timed_reference())
            if tracer is not None:
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                raw = op.run()
            except Exception:  # an op that raises is a failed op, not a crash
                raw = None
                failures.append((op.label, traceback.format_exc(limit=3)))
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            total += dt
            op_times[op.label].append(dt)
            if raw is None:
                continue
            try:
                out = op.output(raw)
                if corrupt:
                    out = op.corrupt(out)
                reason = op.check(out)
            except Exception:
                reason = traceback.format_exc(limit=3)
            if reason is not None:
                failures.append((op.label, reason))
        rounds.append(total)
        if tracer is not None:
            tracer.fold()
    return rounds, op_times, ref_times, failures


def raw_wall(op_times) -> float:
    """Sum over operations of each one's median time."""
    return sum(statistics.median(v) for v in op_times.values())


def normalised_wall(op_times, ref_times) -> float:
    """REF_S times the sum over operations of each one's median ratio to
    the reference run just before it."""
    return REF_S * sum(
        statistics.median(t / r for t, r in zip(op_times[k], ref_times[k]))
        for k in op_times)


def facts() -> dict:
    import importlib.util

    import mpmath
    import numpy

    import hofq
    return {
        "backend": hofq.BACKEND,
        "kernel_extension_importable":
            importlib.util.find_spec("hofq._kernels") is not None,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "hofq": hofq.__version__,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=tuple(workloads.SIZES), default="full")
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--tmp", required=True, help="directory for --out files")
    ap.add_argument("--corrupt", action="store_true",
                    help="self-test: corrupt every output before its check")
    args = ap.parse_args()

    ops = workloads.build(args.workload, args.seed, args.scale, args.tmp,
                          args.threads, workloads.load_digests())
    seconds = args.seconds / 2 if args.trace else args.seconds
    rounds, op_times, ref_times, failures = run_rounds(ops, seconds,
                                                       args.corrupt)
    attempted = len(rounds) * len(ops)
    result = {
        "facts": facts(),
        "rounds": len(rounds),
        "wall_s": normalised_wall(op_times, ref_times),
        "raw_wall_s": raw_wall(op_times),
        "round_median_s": statistics.median(rounds),
        "op_times": op_times,
        "ref_times": ref_times,
        "terms": sum(op.terms for op in ops),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if args.trace:
        import tracer as tracing
        from hofq import verify

        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced, traced_times, traced_refs, traced_failures = run_rounds(
            ops, seconds, args.corrupt, tracer)
        attempted += len(traced) * len(ops)
        failures += traced_failures
        layers = tracing.layer_metrics(tracer, len(traced),
                                       statistics.fmean(traced),
                                       list(verify.REGISTRY))
        untraced_s = result["wall_s"]
        traced_s = normalised_wall(traced_times, traced_refs)
        layers.update({
            "trace.untraced_wall_s": (untraced_s, "s"),
            "trace.wall_s": (traced_s, "s"),
            "trace.overhead_s": (traced_s - untraced_s, "s"),
            "trace.overhead_ratio": (traced_s / untraced_s - 1.0, "ratio"),
        })
        result["traced_rounds"] = len(traced)
        result["layers"] = layers
    result["attempted"] = attempted
    result["failed"] = len(failures)
    result["failures"] = [f"{label}: {reason}" for label, reason in failures[:5]]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
