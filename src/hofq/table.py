"""The one table writer behind every CSV, text and JSON output.

It writes bytes to a binary sink, `fh.write(b)` for a bytes-like b that
the sink reads before it returns, as io's binary streams do: an open(...,
"wb") file, stdout's buffer or io.BytesIO.  Text is encoded as UTF-8 once.
A column is an array or a range, which is never made into a whole array,
so a table's n column, a range, costs no memory.  Rows are written a
chunk at a time, each chunk as one `fh.write`, in one of two ways.  When
every field of `row_fmt` is `%d` or `%<w>d` on a column that casts
exactly to int64 (a range of int64 values does), or `%.12g` on one that
casts exactly to float64, the kernel
`kernels.format_rows` prints a chunk of up to CHUNK rows (fewer when their
worst case would pass BUFFER_BYTES) into a uint8 array, and the bytes it
wrote go to the sink as a memoryview of that array, the one copy of them
the writer makes.  A range that counts up by 1 from a chunk's first value
of 0 or more reaches the kernel as that int, which the C kernel prints and
adds 1 to row by row; any other range goes as an int64 array of the
chunk.  In Python, turning numbers
into text took three quarters of the time of an integer export, and five
sixths of that of the perturbation figure, whose log2 n column is `%.12g`.
The C kernel prints a `%.12g` value itself when it can certify its 12
digits and %g prints it in fixed notation, and any other (a tie, a zero,
a value that is not finite or one in exponent form) with the call that
Python's `%` makes, so it writes every row of the chunk.  It writes an
integer's digits 8 per 64-bit division, two at a time from a table of
"00".."99", and finds a `%.12g` value's decade by a binary search.  It
stores a literal piece of up to 8 bytes as one 8-byte word, so its out
array holds kernels.FORMAT_SLACK bytes past the rows' bound.
Otherwise `kernels.percent_rows` fills CHUNK rows' values, a range's as
its ints, into `row_fmt` repeated once per row by a single `%`, so no
Python code runs per row.
Either way `%d` prints an integer as `str(int(v))`; `%.12g` prints a float
as `format(v, ".12g")` and `%r` as `float.__repr__`, which is how `json`
spells finite floats.  `%r`, the shortest round-trip repr, stays on `%`,
as does a uint64 column, whose values may not fit int64.  write_json writes
a JSON document whose arrays of rows come from write_rows.  write writes a
list of text, tables and documents: every output of the command line and
of analysis.export_figure_data is one call to it.
"""

from __future__ import annotations

import re
from itertools import accumulate
from json import dumps

import numpy as np

from . import kernels

CHUNK = 65536

# the most bytes of format_rows' out array before its FORMAT_SLACK: the
# array is sized for the worst case, 20 bytes per field, so wide rows take
# fewer rows per call.  It is made once per table and each chunk goes to
# the sink from it, so that a chunk's text is held once, in it.
# Freeing a 4 MB buffer raises glibc's dynamic mmap threshold to 4 MB for
# the rest of the process, which sped up unrelated numpy code in it by a
# quarter (2-core VM); 1 MB stays within what the `%` path frees.
BUFFER_BYTES = 1 << 20

_FIELD = re.compile(r"%(?:([1-9][0-9]*)?d|\.12(g))")


def _exact_cast(dtype, target) -> bool:
    """Whether casting dtype to target keeps every value.  numpy counts
    64-bit integers to float64 as a safe cast, yet it rounds above 2^53."""
    return np.can_cast(dtype, target) and (
        target is np.int64 or dtype.kind not in "iu" or dtype.itemsize <= 4)


def _takes(col, target) -> bool:
    """Whether kernels.format_rows takes col as a column of target: an
    array that casts to it exactly, or, for int64, a range whose start,
    step and last value are int64."""
    if isinstance(col, range):
        return target is np.int64 and all(
            kernels.INT64_MIN <= v <= kernels.INT64_MAX
            for v in (col.start, col.step, col[-1]))
    return col.ndim == 1 and _exact_cast(col.dtype, target)


def _kernel_fields(row_fmt: str, cols):
    """(lit, ends, fields, dtypes) for kernels.format_rows when every field
    of row_fmt is %d or %<w>d on a column that casts exactly to int64, or
    %.12g on one that casts exactly to float64, one field per column; None
    when the rows need `%`.  The columns are not empty."""
    parts = _FIELD.split(row_fmt)
    pieces = parts[::3]
    fields = [kernels.FORMAT_G12 if g else int(w or 0)
              for w, g in zip(parts[1::3], parts[2::3])]
    dtypes = [np.float64 if w == kernels.FORMAT_G12 else np.int64
              for w in fields]
    if (any("%" in p for p in pieces) or len(fields) != len(cols)
            or any(w > kernels.FORMAT_MAX_WIDTH for w in fields)
            or not all(map(_takes, cols, dtypes))):
        return None
    encoded = [p.encode() for p in pieces]
    return (b"".join(encoded), list(accumulate(map(len, encoded))), fields,
            dtypes)


def _chunk(col, lo, k, dtype):
    """Rows lo..lo + k - 1 of a column that format_rows takes, as it takes
    them: a range that counts up by 1 from a first value there of 0 or
    more as that int, any other range as an int64 array, an array cast to
    dtype."""
    if not isinstance(col, range):
        return np.ascontiguousarray(col[lo:lo + k], dtype=dtype)
    first = col[lo]
    if col.step == 1 and first >= 0:
        return first
    # each first + i * step is an int64; where i * step wraps, adding
    # first undoes the wrap
    values = np.arange(k, dtype=np.int64)
    values *= col.step
    values += first
    return values


class _JsonFloat(float):
    """A float whose `%r` is its `json` spelling (NaN, not nan)."""

    __repr__ = dumps


def write_rows(fh, row_fmt: str, columns, json: bool = False) -> int:
    """Write `row_fmt % row` for every row of the equal-length columns to
    the binary sink fh and return the number of rows.  A column is an
    array or a range, which is never made into a whole array: a `%d`
    column of row numbers costs no memory.  json=True writes the rows as
    the elements of a JSON array: a comma between rows (not after the
    last), and non-finite floats spelled as `json` does (NaN, Infinity,
    -Infinity) in `%r` fields only, so those match `json.dumps`."""
    cols = [c if isinstance(c, range) else np.asarray(c) for c in columns]
    count = len(cols[0]) if cols else 0
    if any(len(c) != count for c in cols):
        raise ValueError("table columns differ in length: "
                         + ", ".join(str(len(c)) for c in cols))
    if json:  # a float column with a non-finite value, as _JsonFloats
        cols = [np.array(list(map(_JsonFloat, c.tolist())), dtype=object)
                if isinstance(c, np.ndarray) and c.dtype.kind == "f"
                and not np.isfinite(c).all() else c
                for c in cols]
    template = row_fmt + ("," if json else "")
    kernel = _kernel_fields(template, cols) if count else None
    step = CHUNK
    if kernel:
        lit, ends, fields, dtypes = kernel
        row_bytes = kernels.format_size(1, lit, fields) - kernels.FORMAT_SLACK
        step = min(CHUNK, max(1, BUFFER_BYTES // row_bytes))
        out = np.empty(kernels.format_size(min(step, count), lit, fields),
                       dtype=np.uint8)
        view = memoryview(out)
    for lo in range(0, count, step):
        k = min(step, count - lo)
        if kernel:
            chunk = [_chunk(c, lo, k, t) for c, t in zip(cols, dtypes)]
            size = kernels.format_rows(chunk, fields, k, lit, ends, out)
            data = view[:size]
        else:
            data = memoryview(kernels.percent_rows(
                template, [c[lo:lo + k] for c in cols], k).encode())
        # no comma after a JSON array's last row
        fh.write(data[:-1] if json and lo + k == count else data)
    return count


def write_json(fh, doc: dict, arrays=None) -> int:
    """Write doc as compact JSON and a newline to the binary sink fh, with
    the entries of arrays, {key: (row_fmt, columns)}, after doc's own: each
    the JSON array of the rows that write_rows(fh, row_fmt, columns,
    json=True) writes.  What json cannot encode is written as its str().
    Returns the number of rows.

    doc itself is one C-level json.dumps written at once (json.dump runs
    the pure-Python encoder, a write per token)."""
    text, count = dumps(doc, separators=(",", ":"), default=str)[:-1], 0
    for key, (row_fmt, columns) in (arrays or {}).items():
        # a comma before each key, except in front of an empty doc's first
        fh.write(f"{text}{',' if text != '{' else ''}{dumps(key)}:["
                 .encode())
        count += write_rows(fh, row_fmt, columns, json=True)
        text = "]"
    fh.write((text + "}\n").encode())
    return count


def write(fh, pieces) -> int:
    """Write pieces to the binary sink fh in order and return the number of
    table rows.  A piece is a str, written as UTF-8; a (row_fmt, columns)
    table, written by write_rows; or a (doc, arrays) document, written by
    write_json."""
    count = 0
    for piece in pieces:
        if isinstance(piece, str):
            fh.write(piece.encode())
        elif isinstance(piece[0], dict):
            count += write_json(fh, *piece)
        else:
            count += write_rows(fh, *piece)
    return count
