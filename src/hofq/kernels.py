"""Kernel backend selection.

The kernels are the two trace loops, `one_term_rows` (the one-term trace
on each row of a batch), the triangle's prefix-tree walk `slow_walk` and
`format_rows` (the table writer's rows of integer fields), in the C source
`_kernels.c`.  On first import it is compiled with the C compiler Python
was built with into the per-user cache
`${XDG_CACHE_HOME:-~/.cache}/hofq/kernels-<source hash>.so` and loaded with
ctypes.  When that fails (no compiler, unwritable cache) the pure-Python
twin `_kernels_py` runs instead; HOFQ_PURE=1 forces it.  BACKEND names the
one in use: "c" or "python".
"""

import ctypes
import functools
import importlib.util
import os
from pathlib import Path

import numpy as np

from . import _kernels_py

OK = _kernels_py.OK
DIED = _kernels_py.DIED
OVERFLOW = _kernels_py.OVERFLOW
walk_size = _kernels_py.walk_size
format_size = _kernels_py.format_size
FORMAT_MAX_WIDTH = _kernels_py.FORMAT_MAX_WIDTH
percent_rows = _kernels_py.percent_rows  # the one Python row formatter

SOURCE = Path(__file__).with_name("_kernels.c")


_BYTES = ctypes.c_char * 0  # a view of any buffer, even an empty one
_INT64 = np.dtype(np.int64)
_OK = (OK, 0)


def _address(a, name: str, write: bool = False, dtype=np.int64) -> int:
    """Data address of `a` once it is known to be safe to hand to C."""
    if (dtype is np.int64 and type(a) is np.ndarray and a.ndim == 1
            and a.dtype is _INT64):  # native int64: the trace kernels' case
        # from_buffer itself refuses, with TypeError, a buffer that is
        # read-only or not C-contiguous; those take the full check below,
        # which keeps every message
        try:
            return ctypes.addressof(_BYTES.from_buffer(a))
        except TypeError:
            pass
    _kernels_py.check_array(a, name, write, dtype)
    if not a.flags.writeable:  # from_buffer takes writeable buffers only
        return a.ctypes.data
    # a third of the cost of a.ctypes.data, which builds a Python object
    return ctypes.addressof(_BYTES.from_buffer(a))


def _status(r: int, start: int) -> tuple[int, int]:
    """(status, where) from a C kernel's return value; k maps to start + k."""
    if r == 0:
        return _OK
    return (DIED, start + r) if r > 0 else (OVERFLOW, start - r)


class CompiledKernels:
    """The C kernels of a shared library built from `_kernels.c`.

    Same call contracts as `_kernels_py`.  ctypes releases the interpreter
    lock during each call; the numpy arrays stay referenced by the caller's
    frame until the call returns.
    """

    IMPLEMENTATION = "c"

    def __init__(self, path: Path):
        lib = ctypes.CDLL(str(path))
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        self._one = lib.one_term_trace
        self._one.argtypes = [ptr, ptr, i64]
        self._one.restype = i64
        self._rows = lib.one_term_rows
        self._rows.argtypes = [ptr, ptr, ptr, i64, i64]
        self._rows.restype = None
        self._two = lib.two_term_trace
        self._two.argtypes = [ptr, i64, i64, i64, i64, i64]
        self._two.restype = i64
        self._walk = lib.slow_walk
        self._walk.argtypes = [ptr, i64]
        self._walk.restype = i64
        self._fmt = lib.format_rows
        self._fmt.argtypes = [ptr, ptr, i64, i64, ctypes.c_char_p, ptr, ptr]
        self._fmt.restype = i64

    def one_term_trace(self, f, q):
        pf, pq = _address(f, "f"), _address(q, "q", write=True)
        if len(q) < len(f):
            raise ValueError(f"q holds {len(q)} terms, f has {len(f)}")
        r = self._one(pf, pq, len(f))
        return _status(r, 0) if r else _OK

    def one_term_rows(self, f, q, status, m):
        pf, pq = _address(f, "f"), _address(q, "q", write=True)
        ps = _address(status, "status", write=True)
        if m < 0 or not len(f) == len(q) == len(status) * m:
            raise ValueError(f"need m >= 0 and len(f) = len(q) = len(status)"
                             f" * m; got m = {m}, {len(f)}, {len(q)} and"
                             f" {len(status)}")
        self._rows(pf, pq, ps, len(status), m)

    def two_term_trace(self, q, n_init, start, d1, d2, outer):
        pq = _address(q, "q", write=True)
        if d1 < 1 or d2 < 1 or outer not in (0, 1):
            raise ValueError("offsets must be positive and outer 0 or 1")
        if not max(d1, d2) <= n_init <= len(q):
            raise ValueError(
                f"n_init = {n_init} is outside [max(d1, d2), len(q)]")
        return _status(self._two(pq, len(q), n_init, d1, d2, outer), start)

    def slow_walk(self, seen, m):
        size = walk_size(m)
        ps = _address(seen, "seen", write=True, dtype=np.uint8)
        if len(seen) < size:
            raise ValueError(
                f"seen holds {len(seen)} bytes, the walk needs {size}")
        return _status(self._walk(ps, m), 0)

    def format_rows(self, cols, widths, rows, lit, ends, out):
        pcols = [_address(c, f"column {j}") for j, c in enumerate(cols)]
        if rows < 0 or any(len(c) < rows for c in cols):
            raise ValueError(f"every column must hold rows = {rows} >= 0"
                             f" values; got {[len(c) for c in cols]}")
        if len(widths) != len(cols) or len(ends) != len(cols) + 1:
            raise ValueError(f"need one width per column and one end per"
                             f" literal piece; got {len(widths)} and"
                             f" {len(ends)} for {len(cols)} columns")
        if ends[-1] != len(lit) or any(b < a for a, b in zip([0, *ends], ends)):
            raise ValueError(f"ends must rise from 0 to len(lit) ="
                             f" {len(lit)}; got {list(ends)}")
        need = format_size(rows, lit, widths)
        pout = _address(out, "out", write=True, dtype=np.uint8)
        if len(out) < need:
            raise ValueError(f"out holds {len(out)} bytes, the rows may"
                             f" need {need}")
        n = len(cols)
        return self._fmt((ctypes.c_void_p * n)(*pcols),
                         (ctypes.c_int64 * n)(*widths), n, rows, bytes(lit),
                         (ctypes.c_int64 * (n + 1))(*ends), pout)


def _cache_path(source: bytes) -> Path:
    # the interpreter's own 64-bit source hash, which importing hashlib
    # would not beat by enough to pay for its ~4 ms on every import
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    digest = importlib.util.source_hash(source).hex()
    return Path(cache) / "hofq" / f"kernels-{digest}.so"


def _build(so: Path) -> None:
    """Compile SOURCE to `so` through a temporary file, so that a process
    never loads a partly written library; raises OSError on failure."""
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    so.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=so.parent)
    os.close(fd)
    try:
        proc = subprocess.run(
            [*cc, "-O3", "-shared", "-fPIC", "-o", tmp, str(SOURCE)],
            capture_output=True, text=True)
        if proc.returncode != 0:
            raise OSError(f"compiling {SOURCE.name} failed: {proc.stderr}")
        os.replace(tmp, so)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


@functools.cache
def compiled() -> CompiledKernels:
    """The C kernels, compiled into the cache unless already there.

    Raises OSError when they cannot be built or loaded.
    """
    so = _cache_path(SOURCE.read_bytes())
    if not so.exists():
        _build(so)
    return CompiledKernels(so)


if os.environ.get("HOFQ_PURE"):
    _impl = _kernels_py
else:
    try:
        _impl = compiled()
    except OSError:
        _impl = _kernels_py

BACKEND = _impl.IMPLEMENTATION

one_term_trace = _impl.one_term_trace
one_term_rows = _impl.one_term_rows
two_term_trace = _impl.two_term_trace
slow_walk = _impl.slow_walk
format_rows = _impl.format_rows
