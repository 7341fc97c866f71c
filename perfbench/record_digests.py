#!/usr/bin/env python3
"""Write digests.json: the SHA-256 of every fixed-input operation's output,
at the full and the smoke sizes.

    PYTHONPATH=src python3 perfbench/record_digests.py

Record only from a tree whose output is known to be right: the benchmark
counts every later difference from these digests as a failed operation.
"""

import json
import os
import sys
import tempfile

import workloads


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    threads = min(2, len(os.sched_getaffinity(0)))
    digests = {}
    with tempfile.TemporaryDirectory(dir=build) as tmp:
        for scale in workloads.SIZES:
            for name in workloads.WORKLOADS:
                for op in workloads.build(name, 0, scale, tmp, threads, {}):
                    if op.payload is None:
                        continue
                    payload = op.payload(op.output(op.run()))
                    digests[op.label] = workloads.sha256(payload)
                    print(f"{digests[op.label][:16]}  {op.label}")
    with open(workloads.DIGESTS_PATH, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
