/* Trace kernels, a batch of one-term traces, the triangle's prefix-tree
 * walk and the table writer's integer rows, compiled on first import by
 * hofq/kernels.py and called through ctypes.  With _kernels_py.py, which
 * holds the same loops with the same contracts and is the reference the
 * tests compare against, these are the library's only loops over the
 * recurrences.
 *
 * The caller checks every size, dtype and bound before passing pointers.
 * Each trace returns one int64 (one_term_rows stores one per row): 0 when
 * every term was computed, +k when the trace died at k and -k when the
 * term at k leaves the int64 range; a trace array then holds every term
 * before k.  format_rows returns the number of bytes it wrote.  No state
 * is shared between calls, so they may run concurrently with the
 * interpreter lock released.
 */
#include <stdint.h>
#include <string.h>

/* q(1) = 1; q(n) = q(n - q(n-1)) + f(n) for n = 2..n_max; k is the index n. */
int64_t one_term_trace(const int64_t *f, int64_t *q, int64_t n_max)
{
    if (n_max == 0)
        return 0;
    q[0] = 1;
    for (int64_t n = 2; n <= n_max; n++) {
        int64_t prev = q[n - 2], val;
        /* lookup index n - prev is in [1, n-1] iff prev is in [1, n-1] */
        if (prev < 1 || prev > n - 1)
            return n;
        if (__builtin_add_overflow(q[n - prev - 1], f[n - 1], &val))
            return -n;
        q[n - 1] = val;
    }
    return 0;
}

/* one_term_trace on each of `rows` rows of length m, laid end to end in f
 * and q; status[r] receives row r's return value (the rows are the
 * exhaustive sweeps' batches of whole prefixes). */
void one_term_rows(const int64_t *f, int64_t *q, int64_t *status,
                   int64_t rows, int64_t m)
{
    for (int64_t r = 0; r < rows; r++)
        status[r] = one_term_trace(f + r * m, q + r * m, m);
}

/* q(n) = q(n - outer*d1 - q(n-d1)) + q(n - outer*d2 - q(n-d2)), where q[j]
 * holds the term at index start + j and q[0..n_init-1] are the initial
 * values.  Every index is an array offset, so start never enters the loop;
 * k is the offset j of the failing term, and j >= n_init >= 1. */
int64_t two_term_trace(int64_t *q, int64_t total, int64_t n_init,
                       int64_t d1, int64_t d2, int64_t outer)
{
    for (int64_t j = n_init; j < total; j++) {
        int64_t v1 = q[j - d1], v2 = q[j - d2], val;
        /* the lookup offset j - outer*d - v is in [0, j-1] iff v is in this
           band; testing v avoids int64 wrap when a stored value is extreme */
        if (v1 < 1 - outer * d1 || v1 > j - outer * d1 ||
            v2 < 1 - outer * d2 || v2 > j - outer * d2)
            return j;
        if (__builtin_add_overflow(q[j - outer * d1 - v1],
                                   q[j - outer * d2 - v2], &val))
            return -j;
        q[j] = val;
    }
    return 0;
}

/* Depth-first walk over every slow zero-start prefix f(1..m): f(1) = 0 and
 * f(n) = f(n-1) + bit[n], bit[n] in {0, 1}.  Each node n extends q by one
 * term and marks seen[((n-1)*m + f(n))*(m+1) + q(n)], so the caller passes
 * m*m*(m+1) bytes and keeps m in [1, WALK_MAX_DEPTH].  k is the depth n;
 * -k also reports a q(n) outside [1, n], which would leave the array. */
#define WALK_MAX_DEPTH 62

int64_t slow_walk(uint8_t *seen, int64_t m)
{
    int64_t q[WALK_MAX_DEPTH + 1], f[WALK_MAX_DEPTH + 1];  /* 1-based */
    unsigned char bit[WALK_MAX_DEPTH + 1];                /* the path */
    int64_t n = 2;
    q[1] = 1;
    f[1] = 0;
    seen[1] = 1;
    bit[2] = 0;
    while (n > 1 && m > 1) {  /* node n, reached by bit[n] */
        int64_t prev = q[n - 1], val;
        if (prev < 1 || prev > n - 1)
            return n;
        f[n] = f[n - 1] + bit[n];
        if (__builtin_add_overflow(q[n - prev], f[n], &val))
            return -n;
        if (val < 1 || val > n)
            return -n;
        q[n] = val;
        seen[((n - 1) * m + f[n]) * (m + 1) + val] = 1;
        if (n < m) {
            bit[++n] = 0;
        } else {  /* back up past every 1 bit, then take the next 1 branch */
            while (n > 1 && bit[n])
                n--;
            bit[n] = 1;
        }
    }
    return 0;
}

/* Rows of integer fields, as Python's `%` fills a row format whose every
 * field is %d or %<w>d: row r is piece 0, cols[0][r], piece 1, ...,
 * cols[ncols-1][r], piece ncols, where piece j is lit[ends[j-1]..ends[j])
 * (ends[-1] taken as 0) and field j is right-justified with spaces to
 * widths[j] characters (0 for none).  A field takes at most max(20,
 * widths[j]) bytes, so the caller passes rows * (ends[ncols] + the sum of
 * those) bytes of out. */
int64_t format_rows(const int64_t *const *cols, const int64_t *widths,
                    int64_t ncols, int64_t rows, const uint8_t *lit,
                    const int64_t *ends, uint8_t *out)
{
    uint8_t *p = out;
    for (int64_t r = 0; r < rows; r++) {
        memcpy(p, lit, ends[0]);
        p += ends[0];
        for (int64_t j = 0; j < ncols; j++) {
            int64_t v = cols[j][r], pad;
            /* negate through uint64_t, so that INT64_MIN is exact */
            uint64_t u = v < 0 ? 0 - (uint64_t)v : (uint64_t)v;
            uint8_t digits[20];
            int k = 20;
            do {
                digits[--k] = (uint8_t)('0' + u % 10);
                u /= 10;
            } while (u);
            if (v < 0)
                digits[--k] = '-';
            for (pad = widths[j] - (20 - k); pad > 0; pad--)
                *p++ = ' ';
            memcpy(p, digits + k, 20 - k);
            p += 20 - k;
            memcpy(p, lit + ends[j], ends[j + 1] - ends[j]);
            p += ends[j + 1] - ends[j];
        }
    }
    return p - out;
}
