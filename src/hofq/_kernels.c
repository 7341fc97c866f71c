/* Trace kernels, a batch of one-term traces, the triangle's prefix-tree
 * walk and the table writer's rows of %d and %.12g fields, compiled on
 * first import by hofq/kernels.py and called through ctypes.  With
 * _kernels_py.py, which holds the same loops with the same contracts and
 * is the reference the tests compare against, these are the library's
 * only loops over the recurrences.
 *
 * The caller checks every size, dtype and bound before passing pointers.
 * Each trace returns one int64 (one_term_rows stores one per row): 0 when
 * every term was computed, +k when the trace died at k and -k when the
 * term at k leaves the int64 range; a trace array then holds every term
 * before k.  format_rows returns the number of rows it wrote: it prints a
 * %.12g value only when it can certify the digits Python would print, and
 * stops before the first row it cannot, which the caller prints with
 * Python's `%`, the formatter of record.  No state is shared between
 * calls, so they may run concurrently with the interpreter lock released.
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

/* A field of format_rows is %<w>d on an int64 column, w >= 0 (0 for
 * plain %d), or FORMAT_G12, which is %.12g on a float64 column. */
#define FORMAT_G12 (-1)

/* v as `%<width>d` prints it, right-justified with spaces; returns the
 * end of what it wrote, at most max(20, width) bytes. */
static uint8_t *put_int(int64_t v, int64_t width, uint8_t *p)
{
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
    for (width -= 20 - k; width > 0; width--)
        *p++ = ' ';
    memcpy(p, digits + k, 20 - k);
    return p + (20 - k);
}

/* 10^k, exact as doubles for k = 0..15 */
static const double POW10[16] = {1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7,
                                 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14,
                                 1e15};
/* the least double of each decade [10^e, 10^(e+1)), e = -4..11: the
 * doubles nearest 10^-4..10^-1 lie just above them */
static const double DECADE[16] = {1e-4, 1e-3, 1e-2, 1e-1, 1e0, 1e1, 1e2,
                                  1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
                                  1e11};

/* x as `format(x, ".12g")` prints it when its 12 digits are certain and
 * %g would print it in fixed notation; returns the end of what it wrote,
 * at most 18 bytes, or NULL, having written nothing that counts, for 0,
 * -0.0, NaN, the infinities, a magnitude below 1e-4 or one that rounds to
 * 1e12 or above, and a near-tie.
 *
 * With a = |x| in the decade of 10^e, y = a * 10^(11-e) is one rounding of
 * the exact product (10^0..10^15 are exact doubles).  Whenever 1e11 <= y
 * <= 1e12 < 2^40, whatever e the comparisons chose, y is within ulp/2 <=
 * 2^-14 of the exact product, so unless y's fraction lies within 2^-14 of
 * 1/2, y's nearest integer D is the exact product's: the 12 digits of a,
 * correctly rounded, with decimal exponent e (e + 1 when D = 10^12, whose
 * digits are those of 10^11).  The digits then go out as %g places them,
 * trailing zeros and a bare point stripped. */
static uint8_t *put_g12(double x, uint8_t *p)
{
    double a = x < 0 ? -x : x, y, frac;
    int e = 11, last, k;
    int64_t d;
    uint8_t digits[12];
    if (!(a >= 1e-4 && a < 1e12))  /* NaN too */
        return NULL;
    while (a < DECADE[e + 4])
        e--;
    y = a * POW10[11 - e];
    if (!(y >= 1e11 && y <= 1e12))
        return NULL;
    d = (int64_t)y;
    frac = y - (double)d;  /* exact, as y < 2^40 */
    if (frac - 0.5 <= 0x1p-14 && 0.5 - frac <= 0x1p-14)
        return NULL;
    if (frac > 0.5)
        d++;
    if (d == 1000000000000) {  /* rounded up into the next decade */
        d = 100000000000;
        if (++e == 12)  /* %g's exponent form */
            return NULL;
    }
    for (k = 11; k >= 0; k--, d /= 10)
        digits[k] = (uint8_t)('0' + d % 10);
    for (last = 11; digits[last] == '0'; last--)
        ;
    if (x < 0)
        *p++ = '-';
    if (e >= 0) {  /* e + 1 integer digits, then the fraction if any */
        memcpy(p, digits, e + 1);
        p += e + 1;
        if (last > e) {
            *p++ = '.';
            memcpy(p, digits + e + 1, last - e);
            p += last - e;
        }
    } else {  /* 0. and -e-1 zeros before the digits */
        *p++ = '0';
        *p++ = '.';
        for (k = e; k < -1; k++)
            *p++ = '0';
        memcpy(p, digits, last + 1);
        p += last + 1;
    }
    return p;
}

/* Rows as Python's `%` fills a row format whose every field is %d,
 * %<w>d or %.12g: row r is piece 0, field 0 of row r, piece 1, ..., field
 * ncols-1, piece ncols, where piece j is lit[ends[j-1]..ends[j]) (ends[-1]
 * taken as 0) and field j prints cols[j][r] as fields[j] says.  A field
 * takes at most max(20, fields[j]) bytes, so the caller passes rows *
 * (ends[ncols] + the sum of those) bytes of out.  The kernel stops before
 * the first row with a %.12g value put_g12 cannot certify, which the
 * caller prints with `%`.  Returns the number of rows written and stores
 * their bytes in *size. */
int64_t format_rows(const void *const *cols, const int64_t *fields,
                    int64_t ncols, int64_t rows, const uint8_t *lit,
                    const int64_t *ends, uint8_t *out, int64_t *size)
{
    uint8_t *p = out;
    int64_t r;
    for (r = 0; r < rows; r++) {
        uint8_t *q = p + ends[0];
        memcpy(p, lit, ends[0]);
        for (int64_t j = 0; j < ncols && q; j++) {
            q = fields[j] == FORMAT_G12
                ? put_g12(((const double *)cols[j])[r], q)
                : put_int(((const int64_t *)cols[j])[r], fields[j], q);
            if (q) {
                memcpy(q, lit + ends[j], ends[j + 1] - ends[j]);
                q += ends[j + 1] - ends[j];
            }
        }
        if (!q)
            break;
        p = q;
    }
    *size = p - out;
    return r;
}
