"""The benchmark's four workloads: their operations, sizes and output checks.

Every operation calls a public entry point of hofq: `hofq.cli.main(argv)` for
CLI operations, `hofq.compute_q` and friends for library operations.  Each
operation is timed alone; turning its result into what the check reads, and
the check itself, happen outside the timed region.

Checks, one per operation:
  * fixed inputs: SHA-256 of exit code, stdout and the `--out` file (or of the
    trace arrays) against `digests.json`, recorded from the tree the
    benchmark was written on, since hofq output must stay byte-identical;
  * `verify`: also every verifier passes;
  * seeded `bits:` traces: the trace exists, 1 <= q(n) <= n, and
    `compute_f_from_q(q)` gives back the generated f;
  * the exhaustive sweep: scalar `compute_q` rows equal `compute_q_batch`.

The workload seed only generates the `bits:` streams; every other input is
fixed, so that it can be checked by digest.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

import hofq
import hofq.cli

WORKLOADS = ("verify-suite", "drivers", "export", "exhaustive")

# "full" keeps each operation short (most under 0.2 s on the pure-Python
# kernels) so that a run gives every operation many tries; "smoke" is the
# fast check that every operation and metric still works.
SIZES = {
    "full": {"verify_n": 60_000, "drivers_n": 50_000, "exp_n": 10_000,
             "bits_streams": 20, "bits_n": 25_000, "export_n": 60_000,
             "perturb_n": 2**16, "triangle_n": 18, "sweep_m": 14},
    "smoke": {"verify_n": 2_000, "drivers_n": 2_000, "exp_n": 300,
              "bits_streams": 2, "bits_n": 1_000, "export_n": 2_000,
              "perturb_n": 2**11, "triangle_n": 8, "sweep_m": 6},
}

DRIVER_FAMILIES = (
    "gamma2",
    "const-limit:sqrt:a=5",
    "const-limit:pow:a=5,b=1/2",
    "const-limit:exp:a=5,b=1/1000",
    "fracpow:3/4*n^1/2+3/32*n^1/4+5/128",
    "shift:3:(gamma2)",
    "perturb:16:+1:(floor:1/2)",
)

# verify_shift's exhaustive part: every slow prefix of length m <= 12, twice
_SHIFT_EXHAUSTIVE_TERMS = 2 * sum(m << (m - 1) for m in range(1, 13))

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "digests.json")


@dataclass
class Op:
    """One timed call into hofq and the check on its result."""

    label: str
    terms: int  # q terms the call produces, batch rows x width included
    run: Callable[[], object]
    output: Callable[[object], object]
    check: Callable[[object], str | None]  # the failure, or None
    corrupt: Callable[[object], object]
    payload: Callable[[object], bytes] | None = None  # digested bytes


def load_digests() -> dict[str, str]:
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest_check(label, payload, digests, extra=None):
    def check(out):
        want = digests.get(label)
        if want is None:
            return "no recorded digest"
        if sha256(payload(out)) != want:
            return "output differs from the recorded digest"
        return extra(out) if extra else None
    return check


def _flip_last(data: bytes) -> bytes:
    return data[:-1] + bytes([data[-1] ^ 1]) if data else b"\x01"


def _cli_op(argv, terms, tmp, digests, extra_args=(), extra_check=None):
    """`hofq <argv> --out FILE`; extra_args do not change the output and
    are left out of the digest label."""
    label = "hofq " + " ".join(argv)
    out_path = os.path.join(tmp, "out")
    full = [*argv, *extra_args, "--out", out_path]

    def run():
        sink_out, sink_err = io.StringIO(), io.StringIO()
        with redirect_stdout(sink_out), redirect_stderr(sink_err):
            code = hofq.cli.main(full)
        return code, sink_out.getvalue()

    def output(raw):
        code, stdout = raw
        data = b""
        if os.path.exists(out_path):
            with open(out_path, "rb") as fh:
                data = fh.read()
            os.remove(out_path)
        return code, stdout.encode(), data

    def payload(out):
        code, stdout, data = out
        return b"%d\0%s\0%s" % (code, stdout, data)

    digest = _digest_check(label, payload, digests, extra_check)

    def check(out):
        if out[0] != 0:
            return f"exit code {out[0]}"
        return digest(out)

    def corrupt(out):
        return out[0], out[1], _flip_last(out[2])

    return Op(label, terms, run, output, check, corrupt, payload)


def _trace_bytes(trace) -> bytes:
    parts = [str(trace.outcome).encode(), trace.q_values.tobytes()]
    if trace.f_values is not None:
        parts.append(trace.f_values.tobytes())
    return b"\0".join(parts)


def _compute_op(spec, n, digests):
    label = f"compute_q({spec!r}, {n})"
    return Op(label, n, lambda: hofq.compute_q(spec, n), _trace_bytes,
              _digest_check(label, lambda out: out, digests), _flip_last,
              lambda out: out)


def _bits_op(index, bits, n):
    spec = "bits:" + (bits + ord("0")).tobytes().decode()
    f_expected = np.concatenate([[0], np.cumsum(bits, dtype=np.int64)])

    def output(trace):
        return trace.exists, trace.q_values.copy()

    def check(out):
        exists, q = out
        if not exists or len(q) != n:
            return "trace does not exist to n"
        if q.min() < 1 or (q > np.arange(1, n + 1)).any():
            return "q(n) outside [1, n]"
        if not np.array_equal(hofq.compute_f_from_q(q), f_expected):
            return "compute_f_from_q(q) differs from f"
        return None

    def corrupt(out):
        q = out[1].copy()
        q[-1] += 1
        return out[0], q

    return Op(f"compute_q(bits #{index}, {n})", n,
              lambda: hofq.compute_q(spec, n), output, check, corrupt)


def _sweep_op(m):
    rows = 1 << (m - 1)

    def run():
        traces = [hofq.compute_q(p, m) for p in hofq.enumerate_slow_prefixes(m)]
        batch = hofq.compute_q_batch(hofq.fspec.slow_prefix_matrix(m, 0, rows))
        return traces, batch

    def output(raw):
        traces, (q_mat, died) = raw
        if not all(t.exists and len(t.q_values) == m for t in traces):
            return None, q_mat, died
        return np.stack([t.q_values for t in traces]), q_mat, died

    def check(out):
        scalar, q_mat, died = out
        if scalar is None:
            return "a scalar trace died"
        if died.any():
            return "a batch row died"
        if not np.array_equal(scalar, q_mat):
            return "scalar compute_q rows differ from compute_q_batch"
        return None

    def corrupt(out):
        scalar = out[0].copy()
        scalar[-1, -1] += 1
        return scalar, out[1], out[2]

    return Op(f"sweep m={m}", 2 * rows * m, run, output, check, corrupt)


def _verify_all_pass(out):
    doc = json.loads(out[2])
    if not doc["ok"] or not all(r["ok"] for r in doc["results"]):
        return "a verifier failed"
    return None


def build(workload: str, seed: int, scale: str, tmp: str, threads: int,
          digests: dict[str, str]) -> list[Op]:
    """The operations of one round of a workload."""
    s = SIZES[scale]
    if workload == "verify-suite":
        n = s["verify_n"]
        terms = 14 * n + (n - 2) + _SHIFT_EXHAUSTIVE_TERMS
        return [_cli_op(["verify", "--lemma", "all", "--n", str(n),
                         "--format", "json"], terms, tmp, digests,
                        extra_args=("--threads", str(threads)),
                        extra_check=_verify_all_pass)]
    if workload == "drivers":
        ops = [_compute_op(spec, s["exp_n"] if ":exp:" in spec else s["drivers_n"],
                           digests) for spec in DRIVER_FAMILIES]
        rng = np.random.default_rng(seed)
        n = s["bits_n"]
        for i in range(s["bits_streams"]):
            ops.append(_bits_op(i, rng.integers(0, 2, n - 1, dtype=np.uint8), n))
        return ops
    if workload == "export":
        n, pn = str(s["export_n"]), str(s["perturb_n"])
        nn = s["export_n"]
        return [
            _cli_op(["compute", "--f", "gamma2", "--n", n, "--format", "csv"],
                    nn, tmp, digests),
            _cli_op(["export-figure", "--which", "trace", "--f", "gamma2",
                     "--n", n, "--format", "json"], nn, tmp, digests),
            _cli_op(["hofstadter", "--variant", "hof", "--n", n,
                     "--format", "csv"], nn, tmp, digests),
            _cli_op(["export-figure", "--which", "perturbation", "--n", pn],
                    2 * s["perturb_n"], tmp, digests),
        ]
    if workload == "exhaustive":
        tn = s["triangle_n"]
        return [_cli_op(["triangle", "--n", str(tn), "--format", "json"],
                        (1 << (tn - 1)) * tn, tmp, digests),
                _sweep_op(s["sweep_m"])]
    raise ValueError(f"unknown workload {workload!r}")
