#!/usr/bin/env python3
"""The hofq benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from a checkout of the repository; the program is used from its source
in `src` (PYTHONPATH=src, so the kernel backend is whatever `hofq.kernels`
selects there).  One run:

  1. starts one worker process (worker.py) that runs rounds of the
     workload's operations for S seconds and checks every output; `wall_s`
     is one round's time in reference units (reference.py, worker.py);
  2. times `setup_s`, a fresh `python -c "import hofq"`: one warm-up
     process, then the median of 12 timed ones, half of them before the
     worker and half after it, reported in reference units like `wall_s`
     (divided by the median time of the worker's reference loops);
  3. prints the comparability facts, one line per metric with its unit, and
     as the last line the JSON result.

With `--trace 0` the metrics are the end-to-end ones (wall_s, setup_s,
terms_per_s, peak_rss_mb); with `--trace 1` they are the per-layer ones from
a traced half of the run, plus the tracing overhead.  Operations whose exit
code or output check failed are counted in `failed` out of `attempted`.

`--smoke` runs every workload at a tiny size and checks that every metric of
BENCHMARK.json is printed with its unit, that every output check passes, and
that corrupting every output makes every operation count as failed.

Only one workload process runs at a time, verifier threads are capped at the
core count, and temporary outputs go to a directory under `.bench_build/`
that is removed afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from reference import REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-suite", "drivers", "export", "exhaustive")
SETUP_SAMPLES = 12
RUN_LIMIT_S = 170  # a run must end within 180 s


def cores() -> int:
    return len(os.sched_getaffinity(0))


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env(build: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get(
        "PYTHONPATH") else src
    # any cache the package writes stays inside the checkout
    env["XDG_CACHE_HOME"] = str(build / "cache")
    return env


def time_setup(env, samples: int, warm_up: bool) -> list[float]:
    """Wall times of fresh interpreters importing hofq."""
    cmd = [sys.executable, "-c", "import hofq"]
    if warm_up:
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


def reference_median(res: dict) -> float:
    """Median time of the reference loop over the worker's run."""
    return statistics.median(r for v in res["ref_times"].values() for r in v)


def run_worker(env, build: Path, workload, seed, seconds, trace, scale,
               corrupt=False, timeout=RUN_LIMIT_S) -> dict:
    with tempfile.TemporaryDirectory(dir=build) as tmp:
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--scale", scale, "--threads", str(min(2, cores())),
               "--tmp", tmp]
        if corrupt:
            cmd.append("--corrupt")
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(res: dict, setup_s: float) -> dict[str, tuple[float, str]]:
    wall = res["wall_s"]
    return {
        "wall_s": (wall, "s"),
        "setup_s": (setup_s, "s"),
        "terms_per_s": (res["terms"] / wall, "1/s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
    }


def measure(workload, seed, seconds, trace, scale, build, setup_samples,
            corrupt=False):
    """One run: returns (facts, metrics, worker result)."""
    env = child_env(build)
    started = time.perf_counter()
    before = setup_samples // 2
    setup = [] if trace else time_setup(env, before, warm_up=True)
    left = RUN_LIMIT_S - (time.perf_counter() - started)
    res = run_worker(env, build, workload, seed, seconds, trace, scale,
                     corrupt, timeout=left)
    if not trace:
        setup += time_setup(env, setup_samples - before, warm_up=False)
    facts = dict(res["facts"], nproc=cores(), git_commit=git_commit(),
                 workload=workload, seed=seed, trace=trace, scale=scale)
    if not trace:
        res["raw_setup_s"] = statistics.median(setup)
    metrics = res["layers"] if trace else end_to_end(
        res, REF_S * statistics.median(setup) / reference_median(res))
    return facts, metrics, res


def report(facts, metrics, res) -> dict:
    print("facts: " + json.dumps(facts, sort_keys=True))
    print(f"untraced rounds: {res['rounds']}, median {res['round_median_s']:.4f}"
          f" s; traced rounds: {res.get('traced_rounds', 0)}; "
          f"failed_ops: {res['failed']} of {res['attempted']}")
    print(f"reference loop: median {reference_median(res):.4f} s "
          f"(REF_S = {REF_S} s); raw wall (sum of op medians) "
          f"{res['raw_wall_s']:.4f} s"
          + (f"; raw setup {res['raw_setup_s']:.4f} s"
             if "raw_setup_s" in res else ""))
    for label, times in res["op_times"].items():
        print(f"  op {label[:64]:<64} median {statistics.median(times):.4f} s"
              f" of {len(times)}")
    for failure in res["failures"]:
        print("FAILED " + failure.strip().replace("\n", "\n    "))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def smoke(build) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
              1: [(m["name"], m["unit"]) for m in spec["per_layer"]]}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            _, metrics, res = measure(workload, 1, 0, trace, "smoke",
                                          build, 1)
            if res["failed"]:
                problems.append(f"{workload} trace={trace}: {res['failures']}")
            if sorted(wanted[trace]) != sorted(
                    (name, unit) for name, (_, unit) in metrics.items()):
                problems.append(f"{workload} trace={trace}: metrics differ "
                                "from BENCHMARK.json")
            if trace and metrics["engine.q_terms"][0] != res["terms"]:
                problems.append(
                    f"{workload}: traced q terms {metrics['engine.q_terms'][0]} "
                    f"!= workload terms {res['terms']}")
        _, _, bad = measure(workload, 1, 0, 0, "smoke", build, 1, corrupt=True)
        if bad["failed"] != bad["attempted"]:
            problems.append(f"{workload}: corrupted outputs counted "
                            f"{bad['failed']} failed of {bad['attempted']}")
        print(f"smoke {workload}: corrupted outputs -> "
              f"{bad['failed']} of {bad['attempted']} ops failed")
    for p in problems:
        print("SMOKE PROBLEM: " + p)
    print("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes: check every metric and output check")
    ap.add_argument("--record", help="also write the full record here")
    args = ap.parse_args()
    if not (ROOT / "src" / "hofq" / "__init__.py").is_file():
        print(f"hofq sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    if args.smoke:
        return smoke(build)
    facts, metrics, res = measure(args.workload, args.seed, args.seconds,
                                  args.trace, "full", build, SETUP_SAMPLES)
    result = report(facts, metrics, res)
    if args.record:
        record = dict(result, facts=facts, op_times=res["op_times"],
                      ref_times=res["ref_times"],
                      raw_wall_s=res["raw_wall_s"],
                      round_median_s=res["round_median_s"])
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
