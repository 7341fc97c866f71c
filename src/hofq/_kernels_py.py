"""The C functions' pure-Python twins: same arguments, same return codes,
no checks.

Each function here takes the arguments of its namesake in `_kernels.c`,
with a numpy array wherever C takes a pointer, and returns what C returns:
0 when every term was computed, +k when the trace died at k and -k when
the term at k leaves the int64 range (format_rows: the bytes written).  On
return a trace array holds every term before k.  Like the C source, the
module checks nothing: hofq.kernels.Kernels checks every call on either
backend and decodes the codes.  It runs when the C kernels cannot be built
(or when HOFQ_PURE=1 forces it), and the tests compare the two.

Python ints do not wrap, so the int64 range is enforced explicitly to keep
overflow semantics identical to the compiled kernels.

percent_rows is the library's one Python row formatter: format_rows here
is one call to it, and hofq.table runs it for the rows with float fields.
"""

INT64_MAX = 2**63 - 1
INT64_MIN = -(2**63)


def one_term_trace(f, q, n_max):
    """q(1) = 1; q(n) = q(n - q(n-1)) + f(n) for n = 2..n_max; k is n."""
    if n_max == 0:
        return 0
    fl = f[:n_max].tolist()
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


def one_term_rows(f, q, status, rows, m):
    """one_term_trace on each of `rows` rows of length m, laid end to end
    in f and q; status[r] receives row r's return value."""
    for r in range(rows):
        row = slice(r * m, (r + 1) * m)
        status[r] = one_term_trace(f[row], q[row], m)


def two_term_trace(q, total, n_init, d1, d2, outer):
    """q(n) = q(n - outer*d1 - q(n-d1)) + q(n - outer*d2 - q(n-d2)), where
    q[j] holds the term at index start + j and q[0..n_init-1] are the
    initial values; k is the offset j of the failing term."""
    ql = q[:total].tolist()
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


def format_rows(cols, widths, ncols, rows, lit, ends, out):
    """Write `rows` rows of the ncols int64 columns cols into the uint8
    array out and return the number of bytes written.  Row r is piece 0,
    cols[0][r], piece 1, ..., piece ncols, where piece j is the bytes
    lit[ends[j-1]:ends[j]] (from 0 for j = 0); field j is printed as `%d`
    right-justified to widths[j] characters (0 for none)."""
    starts = [0, *ends[:ncols]]
    # latin-1 maps bytes to characters one to one, so the pieces come back
    # byte for byte whatever their encoding
    pieces = [lit[a:b].decode("latin-1").replace("%", "%%")
              for a, b in zip(starts, ends)]
    fields = [f"%{w}d" if w else "%d" for w in widths]
    template = pieces[0] + "".join(map(str.__add__, fields, pieces[1:]))
    text = percent_rows(template, cols, rows).encode("latin-1")
    out[:len(text)] = memoryview(text)
    return len(text)
