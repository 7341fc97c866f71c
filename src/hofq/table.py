"""The one table writer behind every CSV, text and JSON output.

Rows are written a chunk at a time, each chunk as one `fh.write`, in one of
two ways.  When every field of `row_fmt` is `%d` or `%<w>d` on a column
that casts exactly to int64, or `%.12g` on one that casts exactly to
float64, the kernel `kernels.format_rows` prints a chunk of up to CHUNK
rows (fewer when their worst case would pass BUFFER_BYTES): in Python,
turning numbers into text took three quarters of the time of an integer
export, and five sixths of that of the perturbation figure, whose log2 n
column is `%.12g`.
The C kernel prints a `%.12g` value only when it can certify its 12 digits
and %g prints it in fixed notation; it stops before any other row, which
`%` prints inside the same chunk, and the kernel resumes after it.
Otherwise `kernels.percent_rows` fills CHUNK rows' values into `row_fmt`
repeated once per row by a single `%`, so no Python code runs per row.
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

# the most bytes of format_rows' out array, which is sized for the worst
# case, 20 bytes per field, so wide rows take fewer rows per call.
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


def _kernel_fields(row_fmt: str, cols):
    """(lit, ends, fields, dtypes) for kernels.format_rows when every field
    of row_fmt is %d or %<w>d on a column that casts exactly to int64, or
    %.12g on one that casts exactly to float64, one field per column; None
    when the rows need `%`."""
    parts = _FIELD.split(row_fmt)
    pieces = parts[::3]
    fields = [kernels.FORMAT_G12 if g else int(w or 0)
              for w, g in zip(parts[1::3], parts[2::3])]
    dtypes = [np.float64 if w == kernels.FORMAT_G12 else np.int64
              for w in fields]
    if (any("%" in p for p in pieces) or len(fields) != len(cols)
            or any(w > kernels.FORMAT_MAX_WIDTH for w in fields)
            or not all(c.ndim == 1 and _exact_cast(c.dtype, t)
                       for c, t in zip(cols, dtypes))):
        return None
    encoded = [p.encode() for p in pieces]
    return (b"".join(encoded), list(accumulate(map(len, encoded))), fields,
            dtypes)


def _kernel_rows(template, cols, rows, lit, ends, fields, out) -> str:
    """The text of `rows` rows of the cast columns cols: kernels.format_rows
    writes them into out until it stops at a row whose %.12g digits it
    cannot certify, and `%` prints that row.  When the kernel stops again
    within as many rows as `%` took last, `%` takes twice as many, so that
    a run of such values costs a logarithmic number of kernel calls."""
    text, pos, r, run = [], 0, 0, 0
    while r < rows:
        done, size = kernels.format_rows([c[r:] for c in cols], fields,
                                         rows - r, lit, ends, out[pos:])
        text.append(str(out[pos:pos + size], "utf-8"))
        pos, r = pos + size, r + done
        if r < rows:
            run = 2 * run if run and done <= run else 1
            k = min(run, rows - r)
            text.append(kernels.percent_rows(
                template, [c[r:r + k] for c in cols], k))
            r += k
    return "".join(text)


class _JsonFloat(float):
    """A float whose `%r` is its `json` spelling (NaN, not nan)."""

    __repr__ = dumps


def write_rows(fh, row_fmt: str, columns, json: bool = False) -> int:
    """Write `row_fmt % row` for every row of the equal-length columns to
    fh and return the number of rows.  json=True writes the rows as the
    elements of a JSON array: a comma between rows (not after the last),
    and non-finite floats spelled as `json` does (NaN, Infinity,
    -Infinity) in `%r` fields only, so those match `json.dumps`."""
    cols = [np.asarray(c) for c in columns]
    count = len(cols[0]) if cols else 0
    if any(len(c) != count for c in cols):
        raise ValueError("table columns differ in length: "
                         + ", ".join(str(len(c)) for c in cols))
    if json:  # a float column with a non-finite value, as _JsonFloats
        cols = [np.array(list(map(_JsonFloat, c.tolist())), dtype=object)
                if c.dtype.kind == "f" and not np.isfinite(c).all() else c
                for c in cols]
    template = row_fmt + ("," if json else "")
    kernel = _kernel_fields(template, cols) if count else None
    step = CHUNK
    if kernel:
        lit, ends, fields, dtypes = kernel
        row_bytes = kernels.format_size(1, lit, fields)
        step = min(CHUNK, max(1, BUFFER_BYTES // row_bytes))
        out = np.empty(row_bytes * min(step, count), dtype=np.uint8)
    for lo in range(0, count, step):
        k = min(step, count - lo)
        if kernel:
            chunk = [np.ascontiguousarray(c[lo:lo + k], dtype=t)
                     for c, t in zip(cols, dtypes)]
            text = _kernel_rows(template, chunk, k, lit, ends, fields, out)
        else:
            text = kernels.percent_rows(template,
                                        [c[lo:lo + k] for c in cols], k)
        # no comma after a JSON array's last row
        fh.write(text[:-1] if json and lo + k == count else text)
    return count


def write_json(fh, doc: dict, arrays=None) -> int:
    """Write doc as compact JSON and a newline, with the entries of arrays,
    {key: (row_fmt, columns)}, after doc's own: each the JSON array of the
    rows that write_rows(fh, row_fmt, columns, json=True) writes.  What json
    cannot encode is written as its str().  Returns the number of rows.

    doc itself is one C-level json.dumps written at once (json.dump runs
    the pure-Python encoder, a write per token)."""
    text, count = dumps(doc, separators=(",", ":"), default=str)[:-1], 0
    for key, (row_fmt, columns) in (arrays or {}).items():
        # a comma before each key, except in front of an empty doc's first
        fh.write(f"{text}{',' if text != '{' else ''}{dumps(key)}:[")
        count += write_rows(fh, row_fmt, columns, json=True)
        text = "]"
    fh.write(text + "}\n")
    return count


def write(fh, pieces) -> int:
    """Write pieces to fh in order and return the number of table rows.  A
    piece is a str, written as is; a (row_fmt, columns) table, written by
    write_rows; or a (doc, arrays) document, written by write_json."""
    count = 0
    for piece in pieces:
        if isinstance(piece, str):
            fh.write(piece)
        elif isinstance(piece[0], dict):
            count += write_json(fh, *piece)
        else:
            count += write_rows(fh, *piece)
    return count
