"""The one table writer behind every CSV, text and JSON-rows output.

Rows are formatted from numpy columns CHUNK at a time: the chunk's values
are interleaved into one flat list and filled into `row_fmt` repeated once
per row by a single `%`, so no Python code runs per row, and each chunk is
one `fh.write`.  `%d` prints an integer as `str(int(v))`, `%.12g` a float as
`format(v, ".12g")` and `%r` a float as `float.__repr__`, which is how
`json` spells finite floats.
"""

from __future__ import annotations

import numpy as np

CHUNK = 65536


def write_rows(fh, row_fmt: str, columns, json: bool = False) -> int:
    """Write `row_fmt % row` for every row of the equal-length columns to
    fh and return the number of rows.  json=True writes the rows as the
    elements of a JSON array: a comma between rows (not after the last),
    and non-finite floats spelled as `json` does (NaN, Infinity,
    -Infinity), so `%r` fields match `json.dumps`."""
    cols = [np.asarray(c) for c in columns]
    count = len(cols[0]) if cols else 0
    if any(len(c) != count for c in cols):
        raise ValueError("table columns differ in length: "
                         + ", ".join(str(len(c)) for c in cols))
    width, sep = len(cols), "," if json else ""
    for lo in range(0, count, CHUNK):
        k = min(CHUNK, count - lo)
        flat = [None] * (k * width)
        for j, col in enumerate(cols):
            flat[j::width] = col[lo:lo + k].tolist()
        text = (row_fmt + sep) * k % tuple(flat)
        if json:
            if lo + k == count:
                text = text[:-1]
            text = text.replace("nan", "NaN").replace("inf", "Infinity")
        fh.write(text)
    return count
