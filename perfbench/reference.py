"""A fixed reference computation that measures the machine's current speed.

The benchmark runs on shared virtual machines whose CPU speed swings by 20%
within seconds and by a third over half an hour, in CPU time as well as wall
time (other tenants' load).  No statistic of a program's own times removes
that.  So every timed operation is paired with a run of `reference()` just
before it, and the benchmark reports times in reference units:

    normalised time = REF_S * (operation time / reference time)

that is, the time the operation would take on a machine where `reference()`
takes REF_S seconds.  Set-up times, taken in separate processes, are divided
by the median reference time of the whole run instead.  A slowdown that hits
the operation and its reference alike cancels; a change to hofq does not touch
the reference, so it shows in full.  `reference()` imports nothing from hofq
and mixes the kinds of work hofq does on the pure backend: an index-chasing
Python loop like the trace kernels, integer-to-text formatting like the
writers, and numpy array passes.

REF_S is the median time of `reference()` on the machine the benchmark was
written on (2 shared cores of an x86-64 VM, Python 3.11, numpy 2.4), so
normalised times read close to wall times there.  The raw times are printed
next to every normalised figure.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.022


def reference() -> int:
    q = [0, 1, 1]
    for n in range(3, 30_000):
        q.append(q[n - q[n - 1]] + q[n - q[n - 2]])
    text = ",".join(map(str, q))
    a = np.arange(300_000, dtype=np.int64)
    b = np.cumsum(a) % 7
    return len(text) + int(b.sum())


def timed_reference() -> float:
    """Wall time of one `reference()` call."""
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0
