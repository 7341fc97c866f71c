"""Kernel backends, and the one layer that says why a call is refused.

The kernels are the two trace loops, `one_term_rows` (the one-term trace
on each row of a batch), the triangle's prefix-tree walk `slow_walk`,
`step_sum` (the running sums of a uint8 step string: a `bits:` driver's f
from its difference bits), `root_floors` (exact floors of sqrt(n), gamma n,
gamma^2 n or the staircase (1 + sqrt(8n - 7))/2 over an int64 array, one
of the forms ROOT_ISQRT ... ROOT_STAIRCASE, each n in its ROOT_FORMS
domain: exactfloor's array floors), `read_ints` (a tuple of exact ints
into an int64 array: a `prefix:` driver's f, read once; the one kernel
that reads Python objects, so the C one keeps the interpreter lock) and
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
compiler nor builds the compile command.  A build writes that one module
and touches no other file.  Each of its entry points takes
the numpy arrays themselves and refuses, having written
nothing, any array or bound its loop could not take safely; the twins
check nothing.  `Kernels` gives both backends one contract and one set of
refusal messages.  It is built from one table, `_TABLE`, that names each
kernel once, with the check of its arguments and whether it is a trace,
whose code is decoded into (status, where); KERNELS is the table's names.
Every call goes through one checked call, `_checked`: on the pure backend
it runs the check before the twin, and on the C backend, where the entry
point is the check, it runs it only to say why the entry point refused.
Each kernel's contract is documented once, on its twin and in its C
docstring.  The module-level one_term_trace ... format_rows are the calls
of the backend in use.  When the extension cannot be built (no compiler,
no Python.h, unwritable cache) the pure-Python twin runs instead, and
BUILD_ERROR holds the first line of the failure; HOFQ_PURE=1, and no
other value, forces the twin.  BACKEND names the one in use: "c" or
"python".
"""

import functools
import importlib.machinery
import importlib.util
import math
import operator
import os
import sys
from pathlib import Path

import numpy as np

from . import _kernels_py
from ._kernels_py import (
    INT64_MAX,
    INT64_MIN,
    ROOT_GAMMA,
    ROOT_GAMMA_SQ,
    ROOT_ISQRT,
    ROOT_STAIRCASE,
)

OK, DIED, OVERFLOW = 0, 1, 2  # a trace's status
WALK_MAX_DEPTH = 62  # the C walk keeps its path in fixed arrays of this depth
STEP_MAX = _kernels_py.STEP_MAX  # step_sum's greatest step, a uint8
FORMAT_MAX_WIDTH = 64  # the widest %<w>d field of format_rows
FORMAT_G12 = _kernels_py.FORMAT_G12  # format_rows' field code of %.12g
percent_rows = _kernels_py.percent_rows  # the one Python row formatter
GAMMA_ARRAY_CAP = math.isqrt(INT64_MAX // 5)  # the greatest n: 5n^2 in int64
# root_floors' forms, by code: the floor each writes, and the least and
# greatest n it takes, where its radicand, n, 5n^2 or 8n - 7, fits int64
ROOT_FORMS = {
    ROOT_ISQRT: ("floor(sqrt(n))", 0, INT64_MAX),
    ROOT_GAMMA: ("floor(gamma n)", 0, GAMMA_ARRAY_CAP),
    ROOT_GAMMA_SQ: ("floor(gamma^2 n)", 0, GAMMA_ARRAY_CAP),
    ROOT_STAIRCASE: ("floor((1 + sqrt(8n - 7))/2)", 1, (INT64_MAX + 7) // 8),
}

SOURCE = Path(__file__).with_name("_kernels.c")


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


def _status(r: int) -> tuple[int, int]:
    """(status, where) from a trace kernel's nonzero code r: (DIED, r) or
    (OVERFLOW, -r); a call returns _OK for 0 without calling this."""
    return (DIED, r) if r > 0 else (OVERFLOW, -r)


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
    top = INT64_MAX - STEP_MAX * max(n - 1, 0)
    if not INT64_MIN <= first <= top:
        raise ValueError(f"first = {first} is outside [-2**63, {top}], where"
                         f" the sums of {n - 1} steps stay in int64")


def _check_root_floors(n, form, out):
    check_array(n, "n")
    check_array(out, "out", True)
    if len(out) != len(n):
        raise ValueError(f"out holds {len(out)} values, n has {len(n)}")
    try:
        form = operator.index(form)
    except TypeError:
        raise ValueError("form must be an int") from None
    if form not in ROOT_FORMS:
        raise ValueError(f"form = {form} is none of {sorted(ROOT_FORMS)}")
    name, lo, hi = ROOT_FORMS[form]
    low, high = (int(n.min()), int(n.max())) if len(n) else (lo, hi)
    if low < lo or high > hi:
        raise ValueError(f"n = {low if low < lo else high} is outside"
                         f" [{lo}, {hi}], the domain of {name}")


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


def _checked(raw, check, check_first, trace):
    """The call of the kernel `raw` through its `check`: first where
    check_first, as raw checks nothing, and otherwise only to say why raw
    refused.  A trace's call returns (status, where) for raw's code, any
    other what raw returns.  The call bears raw's name and docstring, the
    kernel's contract."""

    @functools.wraps(raw)
    def call(*args):
        if check_first:
            check(*args)
        try:
            r = raw(*args)
        except ValueError as refusal:
            raise _reason(refusal, check, *args) from None
        if not trace:
            return r
        return _status(r) if r else _OK

    return call


def _from_start(call):
    """two_term_trace's call, which also takes start, the index of q[0],
    after n_init: its kernel takes the other arguments, and where counts
    from start."""

    def two_term_trace(q, n_init, start, d1, d2, outer):
        status, k = call(q, n_init, d1, d2, outer)
        return (status, start + k) if status else _OK

    return two_term_trace


# Each kernel, by its name in both backends: the check of its arguments,
# and whether it is a trace, whose call decodes its code.
_TABLE = {
    "one_term_trace": (_check_one_term_trace, True),
    "one_term_rows": (_check_one_term_rows, False),
    "two_term_trace": (_check_two_term_trace, True),
    "slow_walk": (_check_slow_walk, True),
    "step_sum": (_check_step_sum, False),
    "root_floors": (_check_root_floors, False),
    "read_ints": (_check_read_ints, False),
    "format_rows": (_check_format_rows, False),
}
KERNELS = tuple(_TABLE)


class Kernels:
    """The kernels of one backend, each call checked and a trace's code
    decoded: an attribute of each name in KERNELS.

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
        for name, (check, trace) in _TABLE.items():
            setattr(self, name, _checked(getattr(raw, name), check,
                                         not checked, trace))
        self.two_term_trace = _from_start(self.two_term_trace)


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


@functools.cache
def extension():
    """The extension module `hofq._kernels`, compiled into the cache
    unless already there.

    Raises OSError when it cannot be built or imported.
    """
    path = _cache_path(SOURCE.read_bytes())
    if not path.exists():
        _build(path, _command())
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
if os.environ.get("HOFQ_PURE") == "1":
    _impl = PURE
else:
    try:
        _impl = compiled()
    except OSError as exc:
        _impl = PURE
        BUILD_ERROR = str(exc).splitlines()[0]

BACKEND = _impl.implementation
# one_term_trace, ..., format_rows: the calls of the backend in use
globals().update((name, getattr(_impl, name)) for name in KERNELS)
