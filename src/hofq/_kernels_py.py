"""The C kernels' pure-Python twins: same arguments, same return codes,
no checks.

Each function here takes the arguments of its namesake in the extension
module that `_kernels.c` is compiled into, numpy arrays and ints, and
returns what that returns: 0 when every term was computed, +k when the
trace died at k and -k when the term at k leaves the int64 range
(step_sum and root_floors: nothing; read_ints: the items read;
format_rows: the bytes written).  On
return a trace array holds every term before k.  Unlike the C entry
points, which refuse what their loops could not take, this module checks
nothing: hofq.kernels.Kernels calls each function here through the check
that its table names for the kernel, run first, and decodes the traces'
codes of either backend.  Each function's docstring is its kernel's
contract, as the C entry point's docstring is.  It runs when the C kernels
cannot be built (or when HOFQ_PURE=1 forces it), and the tests compare
the two.

Python ints do not wrap, so the int64 range (INT64_MIN and INT64_MAX,
defined here for the whole package) is enforced explicitly to keep
overflow semantics identical to the compiled kernels.

percent_rows is the library's one Python row formatter and the formatter
of record: format_rows here is one call to it, and hofq.table runs it for
the rows of every row format that format_rows does not take.
"""

import numpy as np

INT64_MAX = 2**63 - 1
INT64_MIN = -(2**63)
STEP_MAX = 255  # step_sum's greatest step, a uint8
FORMAT_G12 = -1  # format_rows' field code of %.12g on a float64 column
# root_floors' forms: floor(sqrt(n)), floor(gamma n), floor(gamma^2 n) and
# the staircase floor((1 + sqrt(8n - 7))/2), gamma = (sqrt(5) - 1)/2
ROOT_ISQRT, ROOT_GAMMA, ROOT_GAMMA_SQ, ROOT_STAIRCASE = range(4)
ROOT_BLOCK = 8192  # root_floors' n per block, whose temporaries are 64 KiB


def one_term_trace(f, q):
    """q(1) = 1; q(n) = q(n - q(n-1)) + f(n) for n = 2..n_max, n_max =
    len(f); k is n."""
    n_max = len(f)
    if n_max == 0:
        return 0
    fl = f.tolist()
    ql = [0] * n_max
    ql[0] = 1
    code = 0
    for n in range(2, n_max + 1):
        prev = ql[n - 2]
        # lookup index n - prev is in [1, n-1] iff prev is in [1, n-1]
        if prev < 1 or prev > n - 1:
            code = n
            break
        val = ql[n - prev - 1] + fl[n - 1]
        if val > INT64_MAX or val < INT64_MIN:
            code = -n
            break
        ql[n - 1] = val
    done = abs(code) - 1 if code else n_max
    q[:done] = ql[:done]
    return code


def one_term_rows(f, q, status, m):
    """one_term_trace on each of the len(status) rows of length m, laid
    end to end in f and q; status[r] receives row r's return value."""
    for r in range(len(status)):
        row = slice(r * m, (r + 1) * m)
        status[r] = one_term_trace(f[row], q[row])


def two_term_trace(q, n_init, d1, d2, outer):
    """q(n) = q(n - outer*d1 - q(n-d1)) + q(n - outer*d2 - q(n-d2)), where
    q[j] holds the term at index start + j and q[0..n_init-1] are the
    initial values, up to the end of q; k is the offset j of the failing
    term."""
    total = len(q)
    ql = q.tolist()
    code = 0
    for j in range(n_init, total):
        v1, v2 = ql[j - d1], ql[j - d2]
        # the lookup offset j - outer*d - v is in [0, j-1] iff v is here
        if (v1 < 1 - outer * d1 or v1 > j - outer * d1
                or v2 < 1 - outer * d2 or v2 > j - outer * d2):
            code = j
            break
        val = ql[j - outer * d1 - v1] + ql[j - outer * d2 - v2]
        if val > INT64_MAX or val < INT64_MIN:
            code = -j
            break
        ql[j] = val
    done = abs(code) if code else total
    q[n_init:done] = ql[n_init:done]
    return code


def slow_walk(seen, m):
    """Mark every (n, f(n), q(n)) over all slow zero-start prefixes f(1..m).

    Depth-first over the difference bits: node n extends q by one term and
    sets seen[((n-1)*m + f(n))*(m+1) + q(n)] = 1, so 2^m - 1 nodes in O(m)
    memory.  k is the depth n; -k also reports a q(n) outside [1, n], which
    would leave the array (it also covers the int64 range).
    """
    marks = memoryview(seen)
    q, f, bit = [0] * (m + 1), [0] * (m + 1), [0] * (m + 1)
    q[1] = 1
    marks[1] = 1
    n = 2
    while n > 1 and m > 1:  # node n, reached by bit[n]
        prev = q[n - 1]
        if prev < 1 or prev > n - 1:
            return n
        fn = f[n] = f[n - 1] + bit[n]
        val = q[n - prev] + fn
        if val < 1 or val > n:
            return -n
        q[n] = val
        marks[((n - 1) * m + fn) * (m + 1) + val] = 1
        if n < m:
            n += 1
            bit[n] = 0
        else:  # back up past every 1 bit, then take the next 1 branch
            while n > 1 and bit[n]:
                n -= 1
            bit[n] = 1
    return 0


def step_sum(steps, first, out):
    """out[0] = first, out[i] = out[i-1] + steps[i-1] for i < len(out):
    numpy's accumulate, in place in out."""
    n = len(out)
    if n:
        out[0] = first
        out[1:] = steps[:n - 1]
        np.cumsum(out, out=out)


def root_floors(n, form, out):
    """out[i] = the floor `form` of n[i], into out, which may be n: with
    r(x) = floor(sqrt(x)), ROOT_ISQRT r(n), ROOT_GAMMA (r(5n^2) - n) >> 1,
    ROOT_GAMMA_SQ n - 1 - floor(gamma n) (0 at n = 0) and ROOT_STAIRCASE
    (1 + r(8n - 7)) >> 1, for each n in the form's domain, where every
    radicand fits int64.  r is the truncated float64 root, which is r(x)
    or r(x) + 1, settled by one step down in uint64, as the C loop
    does.  n goes ROOT_BLOCK values at a time, so that the
    temporaries stay small beside out, as the C loop makes none."""
    for lo in range(0, len(n), ROOT_BLOCK):
        v = n[lo:lo + ROOT_BLOCK]
        if form == ROOT_ISQRT:
            x = v
        elif form == ROOT_STAIRCASE:
            x = 8 * v - 7
        else:
            x = 5 * v * v
        r = np.sqrt(x).astype(np.uint64)
        r -= r * r > x.view(np.uint64)
        r = r.view(np.int64)
        # each right side is whole before out, which may be n, is written
        if form == ROOT_ISQRT:
            out[lo:lo + ROOT_BLOCK] = r
        elif form == ROOT_GAMMA:
            out[lo:lo + ROOT_BLOCK] = (r - v) >> 1
        elif form == ROOT_GAMMA_SQ:
            out[lo:lo + ROOT_BLOCK] = v - 1 - ((r - v) >> 1) + (v == 0)
        else:
            out[lo:lo + ROOT_BLOCK] = (r + 1) >> 1


def read_ints(ints, out):
    """out[i] = ints[i] up to the first item that is not an exact int (a
    bool, a numpy integer or an int subclass is not) or lies outside
    int64; returns the number of items read."""
    n = 0
    for v in ints:
        if type(v) is not int or not INT64_MIN <= v <= INT64_MAX:
            break
        n += 1
    out[:n] = ints[:n]
    return n


def percent_rows(template, cols, rows):
    """`template % row` for the first `rows` rows of cols, concatenated.

    The rows' values are interleaved into one flat list and filled into
    the template repeated once per row by a single `%`, so no Python code
    runs per row.  `%d` prints an integer as `str(int(v))`, `%.12g` a float
    as `format(v, ".12g")` and `%r` a float as `float.__repr__`.  The C
    format_rows prints `%d` and `%.12g` fields byte for byte as this
    does."""
    width = len(cols)
    flat = [None] * (rows * width)
    for j, col in enumerate(cols):
        flat[j::width] = col[:rows].tolist()
    return template * rows % tuple(flat)


def format_rows(cols, fields, rows, lit, ends, out):
    """Write `rows` rows of the columns cols into the uint8 array out and
    return the number of bytes written, printing them with `%`.  Row r is
    piece 0, cols[0][r], piece 1, ..., piece len(cols), where piece j is the
    bytes lit[ends[j-1]:ends[j]] (from 0 for j = 0); field j is printed as
    `%.12g` when fields[j] is FORMAT_G12, else as `%d` right-justified to
    fields[j] characters (0 for none)."""
    starts = [0, *ends[:-1]]
    # latin-1 maps bytes to characters one to one, so the pieces come back
    # byte for byte whatever their encoding
    pieces = [lit[a:b].decode("latin-1").replace("%", "%%")
              for a, b in zip(starts, ends)]
    specs = ["%.12g" if w == FORMAT_G12 else f"%{w}d" if w else "%d"
             for w in fields]
    template = pieces[0] + "".join(map(str.__add__, specs, pieces[1:]))
    text = percent_rows(template, cols, rows).encode("latin-1")
    out[:len(text)] = memoryview(text)
    return len(text)
