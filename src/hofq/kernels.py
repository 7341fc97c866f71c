"""Kernel backends, and the one layer that says why a call is refused.

The kernels are the two trace loops, `one_term_rows` (the one-term trace
on each row of a batch), the triangle's prefix-tree walk `slow_walk`,
`step_sum` (the running sums of a uint8 step string: a `bits:` driver's f
from its difference bits), `read_ints` (a tuple of exact ints into an
int64 array: a `prefix:` driver's f, read once; the one kernel that reads
Python objects, so the C one keeps the interpreter lock) and
`format_rows` (the table writer's rows of `%d` and `%.12g` fields), in the
C source `_kernels.c`.  Its pure-Python
twin `_kernels_py` takes the same arguments and returns the same codes.
Both `format_rows` write every row: the twin with `percent_rows`; the C
one prints a `%.12g` value itself where it certifies the 12 digits and
%g's fixed notation, and any other with the call that Python's `%` makes.

This module compiles, caches and imports the C source as the CPython
extension module `hofq._kernels`: on first import it is compiled with the
C compiler Python was built with, against this interpreter's headers, into
the per-user cache, as
`${XDG_CACHE_HOME:-~/.cache}/hofq/kernels-<hash><EXT_SUFFIX>`, the hash
covering the source, the compiler flags and the interpreter (its version
and installation), so that a warm import neither asks sysconfig for the
compiler nor builds the compile command.  A build also removes the
ctypes-era kernels-<hash>.so libraries of earlier versions from that
directory.  Each of its entry points takes
the numpy arrays themselves and refuses, having written
nothing, any array or bound its loop could not take safely; the twins
check nothing.  `Kernels` gives both backends one contract and one set of
refusal messages: on the pure backend it runs the checks below before the
twin, and on the C backend, where the entry point is the check, it runs
them only to say why the entry point refused.  When the extension cannot
be built (no compiler, no Python.h, unwritable cache) the pure-Python
twin runs instead, and BUILD_ERROR holds the first line of the failure;
HOFQ_PURE=1 forces the twin.  BACKEND names the one in use: "c" or
"python".
"""

import functools
import importlib.machinery
import importlib.util
import operator
import os
import sys
from pathlib import Path

import numpy as np

from . import _kernels_py

OK, DIED, OVERFLOW = 0, 1, 2  # a trace's status
WALK_MAX_DEPTH = 62  # the C walk keeps its path in fixed arrays of this depth
STEP_MAX = _kernels_py.STEP_MAX  # step_sum's greatest step, a uint8
FORMAT_MAX_WIDTH = 64  # the widest %<w>d field of format_rows
FORMAT_G12 = _kernels_py.FORMAT_G12  # format_rows' field code of %.12g
percent_rows = _kernels_py.percent_rows  # the one Python row formatter

SOURCE = Path(__file__).with_name("_kernels.c")
# the kernels, by their names in both backends
KERNELS = ("one_term_trace", "one_term_rows", "two_term_trace", "slow_walk",
           "step_sum", "read_ints", "format_rows")


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


_OK = (OK, 0)


def _status(r: int, start: int) -> tuple[int, int]:
    """(status, where) from a kernel's return value; k maps to start + k."""
    if r == 0:
        return _OK
    return (DIED, start + r) if r > 0 else (OVERFLOW, start - r)


# The checks of each kernel's arguments, which raise the ValueError of
# record; each takes the kernel's arguments.


def _check_one_term_trace(f, q):
    check_array(f, "f")
    check_array(q, "q", True)
    if len(q) < len(f):
        raise ValueError(f"q holds {len(q)} terms, f has {len(f)}")


def _check_one_term_rows(f, q, status, m):
    check_array(f, "f")
    check_array(q, "q", True)
    check_array(status, "status", True)
    if m < 0 or not len(f) == len(q) == len(status) * m:
        raise ValueError(f"need m >= 0 and len(f) = len(q) = len(status)"
                         f" * m; got m = {m}, {len(f)}, {len(q)} and"
                         f" {len(status)}")


def _check_two_term_trace(q, n_init, d1, d2, outer):
    check_array(q, "q", True)
    if d1 < 1 or d2 < 1 or outer not in (0, 1):
        raise ValueError("offsets must be positive and outer 0 or 1")
    if not max(d1, d2) <= n_init <= len(q):
        raise ValueError(
            f"n_init = {n_init} is outside [max(d1, d2), len(q)]")


def _check_slow_walk(seen, m):
    size = walk_size(m)
    check_array(seen, "seen", True, np.uint8)
    if len(seen) < size:
        raise ValueError(
            f"seen holds {len(seen)} bytes, the walk needs {size}")


def _check_step_sum(steps, first, out):
    check_array(steps, "steps", False, np.uint8)
    check_array(out, "out", True)
    n = len(out)
    if len(steps) < n - 1:
        raise ValueError(f"steps holds {len(steps)} values, out needs"
                         f" {n - 1}")
    try:
        first = operator.index(first)
    except TypeError:
        raise ValueError("first must be an int") from None
    top = _kernels_py.INT64_MAX - STEP_MAX * max(n - 1, 0)
    if not _kernels_py.INT64_MIN <= first <= top:
        raise ValueError(f"first = {first} is outside [-2**63, {top}], where"
                         f" the sums of {n - 1} steps stay in int64")


def _check_read_ints(ints, out):
    if not isinstance(ints, tuple):
        raise ValueError("ints must be a tuple")
    check_array(out, "out", True)
    if len(out) != len(ints):
        raise ValueError(f"out holds {len(out)} values, ints has"
                         f" {len(ints)}")


def _check_format_rows(cols, fields, rows, lit, ends, out):
    if len(fields) != len(cols) or len(ends) != len(cols) + 1:
        raise ValueError(f"need one field per column and one end per"
                         f" literal piece; got {len(fields)} and"
                         f" {len(ends)} for {len(cols)} columns")
    need = format_size(rows, lit, fields)
    for j, (c, w) in enumerate(zip(cols, fields)):
        check_array(c, f"column {j}", False,
                    np.float64 if w == FORMAT_G12 else np.int64)
    if rows < 0 or any(len(c) < rows for c in cols):
        raise ValueError(f"every column must hold rows = {rows} >= 0"
                         f" values; got {[len(c) for c in cols]}")
    if ends[-1] != len(lit) or any(b < a for a, b in zip([0, *ends], ends)):
        raise ValueError(f"ends must rise from 0 to len(lit) ="
                         f" {len(lit)}; got {list(ends)}")
    check_array(out, "out", True, np.uint8)
    if len(out) < need:
        raise ValueError(f"out holds {len(out)} bytes, the rows may"
                         f" need {need}")


def _reason(refusal: ValueError, check, *args) -> ValueError:
    """The ValueError of record for arguments that a kernel refused: the
    one `check` raises, or the refusal itself should `check` pass them."""
    try:
        check(*args)
    except ValueError as reason:
        return reason
    return refusal


class Kernels:
    """The kernels of one backend, each call checked and its code decoded.

    `raw` holds the functions named in KERNELS; `checked` says whether
    they refuse, by ValueError, whatever their loops could not take, as
    the C entry points do.  Where they do not, as with the pure twins,
    each call is checked first.  Either way a refused call raises the
    ValueError of its check, so both backends refuse alike.  Each trace
    returns (status, where): (OK, 0), or DIED or OVERFLOW with the first
    index that could not be computed.
    """

    def __init__(self, implementation: str, raw, checked: bool):
        self.implementation = implementation
        self._check_first = not checked
        (self._one, self._rows, self._two, self._walk, self._steps,
         self._ints, self._fmt) = (getattr(raw, name) for name in KERNELS)

    def one_term_trace(self, f, q):
        """q(1) = 1; q(n) = q(n - q(n-1)) + f(n); f sets the length."""
        if self._check_first:
            _check_one_term_trace(f, q)
        try:
            r = self._one(f, q)
        except ValueError as refusal:
            raise _reason(refusal, _check_one_term_trace, f, q) from None
        return _status(r, 0) if r else _OK

    def one_term_rows(self, f, q, status, m):
        """status[r] = 0, n (died at n) or -n (overflow at n) for row r."""
        if self._check_first:
            _check_one_term_rows(f, q, status, m)
        try:
            self._rows(f, q, status, m)
        except ValueError as refusal:
            raise _reason(refusal, _check_one_term_rows, f, q, status,
                          m) from None

    def two_term_trace(self, q, n_init, start, d1, d2, outer):
        """Extends q, whose q[j] is q(start + j), past its n_init terms."""
        args = (q, n_init, d1, d2, outer)
        if self._check_first:
            _check_two_term_trace(*args)
        try:
            r = self._two(*args)
        except ValueError as refusal:
            raise _reason(refusal, _check_two_term_trace, *args) from None
        return _status(r, start)

    def slow_walk(self, seen, m):
        """Marks seen, walk_size(m) bytes, for every slow prefix f(1..m)."""
        if self._check_first:
            _check_slow_walk(seen, m)
        try:
            r = self._walk(seen, m)
        except ValueError as refusal:
            raise _reason(refusal, _check_slow_walk, seen, m) from None
        return _status(r, 0)

    def step_sum(self, steps, first, out):
        """out[0] = first, out[i] = out[i-1] + steps[i-1]: steps a uint8
        array of at least len(out) - 1 values, out an int64 one."""
        if self._check_first:
            _check_step_sum(steps, first, out)
        try:
            self._steps(steps, first, out)
        except ValueError as refusal:
            raise _reason(refusal, _check_step_sum, steps, first,
                          out) from None

    def read_ints(self, ints, out):
        """out[i] = ints[i], for a tuple ints and an int64 array out of its
        length, up to the first item that is not an exact int (not a bool,
        a numpy integer or an int subclass) or lies outside int64; returns
        the number of items read."""
        if self._check_first:
            _check_read_ints(ints, out)
        try:
            return self._ints(ints, out)
        except ValueError as refusal:
            raise _reason(refusal, _check_read_ints, ints, out) from None

    def format_rows(self, cols, fields, rows, lit, ends, out):
        """Writes rows into out, field j printing cols[j] as %<w>d for a
        width w = fields[j] >= 0 (an int64 column) or as %.12g for
        FORMAT_G12 (a float64 column); returns the number of bytes
        written."""
        args = (cols, fields, rows, lit, ends, out)
        if self._check_first:
            _check_format_rows(*args)
        try:
            return self._fmt(*args)
        except ValueError as refusal:
            raise _reason(refusal, _check_format_rows, *args) from None


# -falign-loops=64 starts every loop on a 64-byte boundary, so that a
# kernel's speed does not move with edits elsewhere in the source: a
# 25,000-term step_sum took twice as long in process when an unrelated
# edit left its loop across such a boundary.
_FLAGS = ("-O3", "-falign-loops=64", "-shared", "-fPIC")


def _command() -> list[str]:
    """The command that compiles SOURCE, less `-o OUT SOURCE`: the C
    compiler Python was built with, against this interpreter's headers.
    Built only to compile: sysconfig and shlex cost an import ~2 ms."""
    import shlex
    import sysconfig

    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    return [*cc, *_FLAGS, "-I" + sysconfig.get_paths()["include"]]


def _cache_path(source: bytes) -> Path:
    """The cached extension of this source and _FLAGS for this
    interpreter, which fixes the compiler and headers of _command: keyed on
    its version and installation, and named for its ABI (its first
    extension suffix, EXT_SUFFIX), so that no other interpreter loads it."""
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    # the interpreter's own 64-bit source hash, which importing hashlib
    # would not beat by enough to pay for its ~4 ms on every import
    recipe = b"\0".join([source, *(flag.encode() for flag in _FLAGS),
                         sys.version.encode(), os.fsencode(sys.base_prefix),
                         suffix.encode()])
    digest = importlib.util.source_hash(recipe).hex()
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    return Path(cache) / "hofq" / f"kernels-{digest}{suffix}"


def _build(path: Path, command: list[str]) -> None:
    """Compile SOURCE to `path` through a temporary file, so that a process
    never loads a partly written module; raises OSError on failure."""
    import subprocess
    import tempfile

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=path.suffix, dir=path.parent)
    os.close(fd)
    try:
        proc = subprocess.run([*command, "-o", tmp, str(SOURCE)],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise OSError(f"compiling {SOURCE.name} failed:"
                          f" {proc.stderr.strip() or proc.returncode}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _prune(path: Path) -> None:
    """Remove from path's directory the ctypes-era libraries
    kernels-<hash>.so, which no version that builds an extension module
    loads.  Every kernels-<hash><EXT_SUFFIX> stays: another interpreter
    or checkout may load it."""
    import re

    try:
        names = os.listdir(path.parent)
    except OSError:
        return
    for name in names:
        if name != path.name and re.fullmatch(r"kernels-[0-9a-f]{16}\.so",
                                              name):
            try:
                os.unlink(path.parent / name)
            except OSError:
                pass


@functools.cache
def extension():
    """The extension module `hofq._kernels`, compiled into the cache
    unless already there; a build also prunes the cache (_prune).

    Raises OSError when it cannot be built or imported.
    """
    path = _cache_path(SOURCE.read_bytes())
    if not path.exists():
        _build(path, _command())
        _prune(path)
    name = f"{__package__}._kernels"
    loader = importlib.machinery.ExtensionFileLoader(name, str(path))
    spec = importlib.util.spec_from_file_location(name, path, loader=loader)
    try:
        module = importlib.util.module_from_spec(spec)
    except ImportError as exc:
        raise OSError(f"importing {path.name} failed: {exc}") from exc
    sys.modules[name] = module
    return module


@functools.cache
def compiled() -> Kernels:
    """The C kernels; raises OSError when they cannot be built or
    imported."""
    return Kernels("c", extension(), checked=True)


PURE = Kernels("python", _kernels_py, checked=False)

BUILD_ERROR = None  # the first line of why the C kernels were not built
if os.environ.get("HOFQ_PURE"):
    _impl = PURE
else:
    try:
        _impl = compiled()
    except OSError as exc:
        _impl = PURE
        BUILD_ERROR = str(exc).splitlines()[0]

BACKEND = _impl.implementation

one_term_trace = _impl.one_term_trace
one_term_rows = _impl.one_term_rows
two_term_trace = _impl.two_term_trace
slow_walk = _impl.slow_walk
step_sum = _impl.step_sum
read_ints = _impl.read_ints
format_rows = _impl.format_rows
