"""Kernel backends, and the one checked layer over them.

The kernels are the two trace loops, `one_term_rows` (the one-term trace
on each row of a batch), the triangle's prefix-tree walk `slow_walk` and
`format_rows` (the table writer's rows of `%d` and `%.12g` fields), in the
C source `_kernels.c`.  Neither it nor its pure-Python twin `_kernels_py`,
which takes the same arguments and returns the same codes, checks
anything.  The C `format_rows` prints a `%.12g` value only where it
certifies the 12 digits and %g's fixed notation, and stops before a row it
cannot certify, which the caller prints with `percent_rows`; the twin
prints every row with `percent_rows`.
This module compiles, caches and loads the C source: on first import it
is compiled with the C compiler Python was built with into the per-user
cache `${XDG_CACHE_HOME:-~/.cache}/hofq/kernels-<source hash>.so` and
loaded with ctypes.  `Kernels` checks and decodes every call on either
backend.  When the C kernels cannot be built (no compiler, unwritable
cache) the pure-Python twin runs instead; HOFQ_PURE=1 forces it.  BACKEND
names the one in use: "c" or "python".
"""

import ctypes
import functools
import importlib.util
import os
from pathlib import Path

import numpy as np

from . import _kernels_py

OK, DIED, OVERFLOW = 0, 1, 2  # a trace's status
WALK_MAX_DEPTH = 62  # the C walk keeps its path in fixed arrays of this depth
FORMAT_MAX_WIDTH = 64  # the widest %<w>d field of format_rows
FORMAT_G12 = _kernels_py.FORMAT_G12  # format_rows' field code of %.12g
percent_rows = _kernels_py.percent_rows  # the one Python row formatter

SOURCE = Path(__file__).with_name("_kernels.c")

_I64, _PTR = ctypes.c_int64, ctypes.c_void_p

# name: (argtypes, restype) of each function of _kernels.c, and of its twin
SIGNATURES = {
    "one_term_trace": ([_PTR, _PTR, _I64], _I64),
    "one_term_rows": ([_PTR, _PTR, _PTR, _I64, _I64], None),
    "two_term_trace": ([_PTR, _I64, _I64, _I64, _I64, _I64], _I64),
    "slow_walk": ([_PTR, _I64], _I64),
    "format_rows": ([_PTR, _PTR, _I64, _I64, ctypes.c_char_p, _PTR, _PTR,
                     _PTR], _I64),
}


def check_array(a, name, write=False, dtype=np.int64):
    """Raise ValueError unless a is a 1-D C-contiguous numpy array of dtype,
    writeable with write: what a kernel may be handed."""
    if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.ndim == 1
            and a.flags.c_contiguous and (a.flags.writeable or not write)):
        kind = "writeable " if write else ""
        raise ValueError(f"{name} must be a 1-D C-contiguous {kind}"
                         f"{np.dtype(dtype).name} array")


def walk_size(m):
    """Bytes of slow_walk's array for prefixes of length m: m*m*(m+1).

    Raises ValueError unless 1 <= m <= WALK_MAX_DEPTH, so that a caller can
    check m before it allocates anything."""
    if not 1 <= m <= WALK_MAX_DEPTH:
        raise ValueError(
            f"walk depth m = {m} is outside [1, {WALK_MAX_DEPTH}]")
    return m * m * (m + 1)


def format_size(rows, lit, fields):
    """Bytes of format_rows' out array for `rows` rows: a field takes at
    most 20 characters, or its width.

    Raises ValueError unless every field is FORMAT_G12 or a width in [0,
    FORMAT_MAX_WIDTH]."""
    if not all(0 <= w <= FORMAT_MAX_WIDTH or w == FORMAT_G12
               for w in fields):
        raise ValueError(f"fields {list(fields)} are neither {FORMAT_G12}"
                         f" (%.12g) nor widths in [0, {FORMAT_MAX_WIDTH}]")
    return rows * (len(lit) + sum(max(20, w) for w in fields))


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
    check_array(a, name, write, dtype)
    if not a.flags.writeable:  # from_buffer takes writeable buffers only
        return a.ctypes.data
    # a third of the cost of a.ctypes.data, which builds a Python object
    return ctypes.addressof(_BYTES.from_buffer(a))


def _checked(a, name: str, write: bool = False, dtype=np.int64):
    """`a` itself once it is known to be safe to hand to a pure kernel."""
    check_array(a, name, write, dtype)
    return a


def _status(r: int, start: int) -> tuple[int, int]:
    """(status, where) from a kernel's return value; k maps to start + k."""
    if r == 0:
        return _OK
    return (DIED, start + r) if r > 0 else (OVERFLOW, start - r)


class Kernels:
    """The kernels of one backend, each call checked and its code decoded.

    `raw` holds the unchecked functions named in SIGNATURES, `arg(a, name,
    write, dtype)` checks an array and returns what they take in its place,
    and `vector(ctype, values)` builds format_rows' pointer and field
    arrays.  Each trace returns (status, where): (OK, 0), or DIED or
    OVERFLOW with the first index that could not be computed.  The C
    kernels run with the interpreter lock released; the numpy arrays stay
    referenced by the caller's frame until the call returns.
    """

    def __init__(self, implementation: str, raw, arg, vector):
        self.implementation = implementation
        self._arg, self._vector = arg, vector
        self._one, self._rows, self._two, self._walk, self._fmt = (
            getattr(raw, name) for name in SIGNATURES)

    def one_term_trace(self, f, q):
        """q(1) = 1; q(n) = q(n - q(n-1)) + f(n); f sets the length."""
        pf, pq = self._arg(f, "f"), self._arg(q, "q", True)
        if len(q) < len(f):
            raise ValueError(f"q holds {len(q)} terms, f has {len(f)}")
        r = self._one(pf, pq, len(f))
        return _status(r, 0) if r else _OK

    def one_term_rows(self, f, q, status, m):
        """status[r] = 0, n (died at n) or -n (overflow at n) for row r."""
        pf, pq = self._arg(f, "f"), self._arg(q, "q", True)
        ps = self._arg(status, "status", True)
        if m < 0 or not len(f) == len(q) == len(status) * m:
            raise ValueError(f"need m >= 0 and len(f) = len(q) = len(status)"
                             f" * m; got m = {m}, {len(f)}, {len(q)} and"
                             f" {len(status)}")
        self._rows(pf, pq, ps, len(status), m)

    def two_term_trace(self, q, n_init, start, d1, d2, outer):
        """Extends q, whose q[j] is q(start + j), past its n_init terms."""
        pq = self._arg(q, "q", True)
        if d1 < 1 or d2 < 1 or outer not in (0, 1):
            raise ValueError("offsets must be positive and outer 0 or 1")
        if not max(d1, d2) <= n_init <= len(q):
            raise ValueError(
                f"n_init = {n_init} is outside [max(d1, d2), len(q)]")
        return _status(self._two(pq, len(q), n_init, d1, d2, outer), start)

    def slow_walk(self, seen, m):
        """Marks seen, walk_size(m) bytes, for every slow prefix f(1..m)."""
        size = walk_size(m)
        ps = self._arg(seen, "seen", True, np.uint8)
        if len(seen) < size:
            raise ValueError(
                f"seen holds {len(seen)} bytes, the walk needs {size}")
        return _status(self._walk(ps, m), 0)

    def format_rows(self, cols, fields, rows, lit, ends, out):
        """Writes rows into out, field j printing cols[j] as %<w>d for a
        width w = fields[j] >= 0 (an int64 column) or as %.12g for
        FORMAT_G12 (a float64 column); returns (rows written, bytes).  The
        C kernel stops before a row whose %.12g digits it cannot certify;
        the pure one writes every row."""
        if len(fields) != len(cols) or len(ends) != len(cols) + 1:
            raise ValueError(f"need one field per column and one end per"
                             f" literal piece; got {len(fields)} and"
                             f" {len(ends)} for {len(cols)} columns")
        need = format_size(rows, lit, fields)
        pcols = [self._arg(c, f"column {j}", False, np.float64
                           if w == FORMAT_G12 else np.int64)
                 for j, (c, w) in enumerate(zip(cols, fields))]
        if rows < 0 or any(len(c) < rows for c in cols):
            raise ValueError(f"every column must hold rows = {rows} >= 0"
                             f" values; got {[len(c) for c in cols]}")
        if ends[-1] != len(lit) or any(b < a for a, b in zip([0, *ends], ends)):
            raise ValueError(f"ends must rise from 0 to len(lit) ="
                             f" {len(lit)}; got {list(ends)}")
        pout = self._arg(out, "out", True, np.uint8)
        if len(out) < need:
            raise ValueError(f"out holds {len(out)} bytes, the rows may"
                             f" need {need}")
        size = np.zeros(1, dtype=np.int64)
        vec = self._vector
        done = self._fmt(vec(_PTR, pcols), vec(_I64, fields), len(cols),
                         rows, bytes(lit), vec(_I64, ends), pout,
                         self._arg(size, "size", True))
        return done, int(size[0])


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
def compiled() -> Kernels:
    """The C kernels, compiled into the cache unless already there.

    Raises OSError when they cannot be built or loaded.
    """
    so = _cache_path(SOURCE.read_bytes())
    if not so.exists():
        _build(so)
    lib = ctypes.CDLL(str(so))
    for name, (argtypes, restype) in SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, restype
    return Kernels("c", lib, _address,
                   lambda ctype, values: (ctype * len(values))(*values))


PURE = Kernels("python", _kernels_py, _checked,
               lambda ctype, values: list(values))

if os.environ.get("HOFQ_PURE"):
    _impl = PURE
else:
    try:
        _impl = compiled()
    except OSError:
        _impl = PURE

BACKEND = _impl.implementation

one_term_trace = _impl.one_term_trace
one_term_rows = _impl.one_term_rows
two_term_trace = _impl.two_term_trace
slow_walk = _impl.slow_walk
format_rows = _impl.format_rows
