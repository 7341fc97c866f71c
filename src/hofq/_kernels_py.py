"""Pure-Python trace kernels.

Fallback used when the C kernels of `_kernels.c` cannot be built (or when
HOFQ_PURE=1 forces it), and the reference the tests compare them against.
Call contracts, shared with the C kernels as hofq.kernels wraps them:

  * arrays are 1-D contiguous int64 numpy arrays (check_array, which
    one_term_trace applies here too, so both backends refuse the same f)
  * return value is (status, n) where status is OK / DIED / OVERFLOW and,
    for nonzero status, n is the first index that could not be computed
  * on return the output array holds every term before index n

one_term_rows is the batch form: one trace per row of flat f and q arrays,
its (status, n) pairs stored as one int64 per row in a status array.

Python ints do not wrap, so the int64 range is enforced explicitly to keep
overflow semantics identical to the compiled kernel.

slow_walk differs: it writes a 1-D contiguous uint8 array sized by
walk_size(m), which also bounds the walk's depth m.

format_rows is the table writer's kernel for rows of integer fields: it
writes their text into a uint8 array and returns the byte count.  Here it
is one call to percent_rows, the library's one Python row formatter, which
hofq.table also runs for the rows that hold float fields.
"""

import numpy as np

INT64_MAX = 2**63 - 1
INT64_MIN = -(2**63)

OK = 0
DIED = 1
OVERFLOW = 2

IMPLEMENTATION = "python"

WALK_MAX_DEPTH = 62  # the C walk keeps its path in fixed arrays of this depth

FORMAT_MAX_WIDTH = 64  # the widest %<w>d field of format_rows


def check_array(a, name, write=False, dtype=np.int64):
    """Raise ValueError unless a is a 1-D C-contiguous numpy array of dtype,
    writeable with write: what a C kernel may be handed."""
    if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.ndim == 1
            and a.flags.c_contiguous and (a.flags.writeable or not write)):
        kind = "writeable " if write else ""
        raise ValueError(f"{name} must be a 1-D C-contiguous {kind}"
                         f"{np.dtype(dtype).name} array")


def one_term_trace(f, q):
    """q(1) = 1; q(n) = q(n - q(n-1)) + f(n).  Fills q; f sets the length."""
    check_array(f, "f")
    check_array(q, "q", write=True)
    if len(q) < len(f):
        raise ValueError(f"q holds {len(q)} terms, f has {len(f)}")
    n_max = len(f)
    if n_max == 0:
        return OK, 0
    fl = f.tolist()
    ql = [0] * n_max
    ql[0] = 1
    status, where = OK, 0
    for n in range(2, n_max + 1):
        prev = ql[n - 2]
        # lookup index n - prev is in [1, n-1] iff prev is in [1, n-1]
        if prev < 1 or prev > n - 1:
            status, where = DIED, n
            break
        val = ql[n - prev - 1] + fl[n - 1]
        if val > INT64_MAX or val < INT64_MIN:
            status, where = OVERFLOW, n
            break
        ql[n - 1] = val
    done = n_max if status == OK else where - 1
    q[:done] = ql[:done]
    return status, where


def one_term_rows(f, q, status, m):
    """one_term_trace on each length-m row of the flat arrays f and q (row r
    is [r*m, (r+1)*m)); status[r] = 0, n for a death at n and -n for an
    overflow at n, the C kernel's return value.  Terms from n on are left
    as they were."""
    for r in range(len(status)):
        row = slice(r * m, (r + 1) * m)
        code, where = one_term_trace(f[row], q[row])
        status[r] = -where if code == OVERFLOW else where


def two_term_trace(q, n_init, start, d1, d2, outer):
    """q(n) = q(n - outer*d1 - q(n-d1)) + q(n - outer*d2 - q(n-d2)).

    q[j] holds the value at index start + j; the first n_init entries are
    the initial conditions, already stored.  Caller guarantees
    n_init >= max(d1, d2).
    """
    total = len(q)
    ql = q.tolist()
    status, where = OK, 0
    for j in range(n_init, total):
        n = start + j
        v1 = ql[j - d1]
        # arg = n - outer*d - v must lie in [start, n-1]
        if v1 < 1 - outer * d1 or v1 > n - outer * d1 - start:
            status, where = DIED, n
            break
        v2 = ql[j - d2]
        if v2 < 1 - outer * d2 or v2 > n - outer * d2 - start:
            status, where = DIED, n
            break
        t1 = ql[n - outer * d1 - v1 - start]
        t2 = ql[n - outer * d2 - v2 - start]
        val = t1 + t2
        if val > INT64_MAX or val < INT64_MIN:
            status, where = OVERFLOW, n
            break
        ql[j] = val
    done = total if status == OK else where - start
    q[n_init:done] = ql[n_init:done]
    return status, where


def walk_size(m):
    """Bytes of slow_walk's array for prefixes of length m: m*m*(m+1).

    Raises ValueError unless 1 <= m <= WALK_MAX_DEPTH, so that a caller can
    check m before it allocates anything."""
    if not 1 <= m <= WALK_MAX_DEPTH:
        raise ValueError(
            f"walk depth m = {m} is outside [1, {WALK_MAX_DEPTH}]")
    return m * m * (m + 1)


def slow_walk(seen, m):
    """Mark every (n, f(n), q(n)) over all slow zero-start prefixes f(1..m).

    Depth-first over the difference bits: node n extends q by one term and
    sets seen[((n-1)*m + f(n))*(m+1) + q(n)] = 1, so 2^m - 1 nodes in O(m)
    memory.  (DIED, n) is a dead lookup at n; (OVERFLOW, n) a q(n) outside
    [1, n], which would leave the array (it also covers the int64 range).
    """
    size = walk_size(m)
    if len(seen) < size:
        raise ValueError(f"seen holds {len(seen)} bytes, the walk needs {size}")
    marks = memoryview(seen)
    q, f, bit = [0] * (m + 1), [0] * (m + 1), [0] * (m + 1)
    q[1] = 1
    marks[1] = 1
    n = 2
    while n > 1 and m > 1:  # node n, reached by bit[n]
        prev = q[n - 1]
        if prev < 1 or prev > n - 1:
            return DIED, n
        fn = f[n] = f[n - 1] + bit[n]
        val = q[n - prev] + fn
        if val < 1 or val > n:
            return OVERFLOW, n
        q[n] = val
        marks[((n - 1) * m + fn) * (m + 1) + val] = 1
        if n < m:
            n += 1
            bit[n] = 0
        else:  # back up past every 1 bit, then take the next 1 branch
            while n > 1 and bit[n]:
                n -= 1
            bit[n] = 1
    return OK, 0


def format_size(rows, lit, widths):
    """Bytes of format_rows' out array for `rows` rows: an int64 field takes
    at most 20 characters, or its width.

    Raises ValueError unless every width is in [0, FORMAT_MAX_WIDTH]."""
    if not all(0 <= w <= FORMAT_MAX_WIDTH for w in widths):
        raise ValueError(f"field widths {list(widths)} are outside"
                         f" [0, {FORMAT_MAX_WIDTH}]")
    return rows * (len(lit) + sum(max(20, w) for w in widths))


def percent_rows(template, cols, rows):
    """`template % row` for the first `rows` rows of cols, concatenated.

    The rows' values are interleaved into one flat list and filled into
    the template repeated once per row by a single `%`, so no Python code
    runs per row.  `%d` prints an integer as `str(int(v))`, `%.12g` a float
    as `format(v, ".12g")` and `%r` a float as `float.__repr__`."""
    width = len(cols)
    flat = [None] * (rows * width)
    for j, col in enumerate(cols):
        flat[j::width] = col[:rows].tolist()
    return template * rows % tuple(flat)


def format_rows(cols, widths, rows, lit, ends, out):
    """Write `rows` rows of the int64 columns cols into the uint8 array out
    and return the number of bytes written.  Row r is piece 0, cols[0][r],
    piece 1, ..., piece len(cols), where piece j is the bytes
    lit[ends[j-1]:ends[j]] (from 0 for j = 0); field j is printed as `%d`
    right-justified to widths[j] characters (0 for none)."""
    starts = [0, *ends[:-1]]
    # latin-1 maps bytes to characters one to one, so the pieces come back
    # byte for byte whatever their encoding
    pieces = [lit[a:b].decode("latin-1").replace("%", "%%")
              for a, b in zip(starts, ends)]
    fields = [f"%{w}d" if w else "%d" for w in widths]
    template = pieces[0] + "".join(map(str.__add__, fields, pieces[1:]))
    text = percent_rows(template, cols, rows).encode("latin-1")
    out[:len(text)] = memoryview(text)
    return len(text)
