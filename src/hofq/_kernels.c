/* Trace kernels, a batch of one-term traces, the triangle's prefix-tree
 * walk, the running sums of a step string (a bits: driver's f), the exact
 * square-root floors (the golden-ratio and staircase closed forms), the
 * read of a tuple of ints (a prefix: driver's f) and the table writer's
 * rows of %d and %.12g fields, compiled on first import by hofq/kernels.py
 * into the CPython extension module `_kernels`.  With
 * _kernels_py.py, which holds the same loops with the same contracts and
 * is the reference the tests compare against, these are the library's
 * only loops over the recurrences.
 *
 * Each loop is a static C function over raw pointers that checks nothing.
 * Each is called by one entry point of the module's method table, which
 * takes the numpy arrays themselves, with the arguments of its twin in
 * _kernels_py.py.  An entry point takes every array's buffer, checks its
 * type, dtype, dimensions and length and every scalar bound, and raises
 * ValueError, having written nothing, when one fails; hofq.kernels then
 * says which one.  Only then does it run the loop, with the interpreter
 * lock released: no state is shared between calls, and the buffers it
 * holds keep every array in place, so calls may run concurrently.
 *
 * Each trace returns one int64 (one_term_rows stores one per row): 0 when
 * every term was computed, +k when the trace died at k and -k when the
 * term at k leaves the int64 range; a trace array then holds every term
 * before k.  step_sum and root_floors return nothing: their entry points
 * have checked that no sum leaves the int64 range and that every n lies in
 * its form's domain.  format_rows writes every row and returns
 * the number of bytes it wrote, which the table writer hands to its
 * binary sink as they lie in out.  It takes a number's digits 8 per
 * 64-bit division by 10^8 (put_digits), but a counted column's, a row
 * number start + r, from a decimal counter that it adds 1 to after each
 * row (put_count), and it stores a literal piece or a counted field of up
 * to 8 bytes as one 8-byte word (put_word).  put_g12 prints a %.12g value
 * whose digits it can certify, and any other goes to
 * PyOS_double_to_string, the call that Python's `%` makes, under the
 * interpreter lock taken for that one call.
 *
 * read_ints is the one entry point that reads Python objects, the items
 * of a tuple, so its loop lives in the entry point and keeps the
 * interpreter lock throughout.  It copies them into an int64 array and
 * returns the number it read, stopping at the first that is not an exact
 * int (a bool, a numpy integer or an int subclass stops it) or that lies
 * outside int64.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* q(1) = 1; q(n) = q(n - q(n-1)) + f(n) for n = 2..n_max; k is the index n. */
static int64_t one_term_trace(const int64_t *f, int64_t *q, int64_t n_max)
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
static void one_term_rows(const int64_t *f, int64_t *q, int64_t *status,
                          int64_t rows, int64_t m)
{
    for (int64_t r = 0; r < rows; r++)
        status[r] = one_term_trace(f + r * m, q + r * m, m);
}

/* q(n) = q(n - outer*d1 - q(n-d1)) + q(n - outer*d2 - q(n-d2)), where q[j]
 * holds the term at index start + j and q[0..n_init-1] are the initial
 * values.  Every index is an array offset, so start never enters the loop;
 * k is the offset j of the failing term, and j >= n_init >= 1. */
static int64_t two_term_trace(int64_t *q, int64_t total, int64_t n_init,
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
 * term and marks seen[((n-1)*m + f(n))*(m+1) + q(n)], so its entry point
 * checks m in [1, WALK_MAX_DEPTH] and m*m*(m+1) bytes of seen.  k is the
 * depth n; -k also reports a q(n) outside [1, n], which would leave the
 * array. */
#define WALK_MAX_DEPTH 62

static int64_t slow_walk(uint8_t *seen, int64_t m)
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

/* out[0] = first, out[i] = out[i-1] + steps[i-1] for i < n: f of a bits:
 * driver from its difference bits, where numpy's accumulate takes several
 * times as long per term.  A step is at most STEP_MAX, so its entry point
 * checks that first + STEP_MAX * (n - 1) fits int64. */
#define STEP_MAX 255

static void step_sum(const uint8_t *steps, int64_t first, int64_t *out,
                     int64_t n)
{
    int64_t v = first;
    if (n == 0)
        return;
    out[0] = v;
    for (int64_t i = 1; i < n; i++)
        out[i] = v += steps[i - 1];
}

/* root_floors' forms.  With r(x) = floor(sqrt(x)) and gamma = (sqrt(5) -
 * 1)/2, each writes one floor of n:
 *   ROOT_ISQRT      r(n),                          0 <= n <= INT64_MAX
 *   ROOT_GAMMA      floor(gamma n) = (r(5n^2) - n) >> 1,  0 <= n <= GAMMA_MAX
 *   ROOT_GAMMA_SQ   floor(gamma^2 n) = n - 1 - floor(gamma n) (0 at n = 0),
 *                                                  0 <= n <= GAMMA_MAX
 *   ROOT_STAIRCASE  floor((1 + sqrt(8n - 7))/2) = (1 + r(8n - 7)) >> 1,
 *                                                  1 <= n <= STAIRCASE_MAX
 * 5n^2 is no square for n >= 1, so sqrt(5n^2) - n is irrational and its
 * floor halves as r(5n^2) - n does; gamma^2 = 1 - gamma.  GAMMA_MAX is the
 * greatest n with 5n^2 <= INT64_MAX, and STAIRCASE_MAX the greatest with
 * 8n - 7 <= INT64_MAX, so every radicand is an int64. */
#define ROOT_ISQRT 0
#define ROOT_GAMMA 1
#define ROOT_GAMMA_SQ 2
#define ROOT_STAIRCASE 3
#define GAMMA_MAX 1358187913LL
#define STAIRCASE_MAX (1LL << 60)

static const int64_t ROOT_LO[4] = {0, 0, 0, 1};
static const int64_t ROOT_HI[4] = {INT64_MAX, GAMMA_MAX, GAMMA_MAX,
                                   STAIRCASE_MAX};

/* r = r(x) for 0 <= x <= INT64_MAX, from s, the truncated root of the
 * double nearest x, correctly rounded.  Each rounding errs by at most
 * 2^-53 of its value, so the root lies within 2^-20 of sqrt(x) < 2^31.5, and s <=
 * r + 1.  Nor is s below r: with r in [2^e, 2^(e+1)), x >= r^2 puts that
 * double at or above the one nearest r^2, less than 2^(2e-52) below r^2
 * (or r^2 itself for r = 2^e), whose root lies less than 2^(e-53.5) below
 * r, under half the gap 2^(e-52) to the double below r.  So one step
 * down settles it, in uint64, where s^2 <= 3037000500^2 < 2^64. */
static inline int64_t isqrt64(int64_t x)
{
    uint64_t s = (uint64_t)sqrt((double)x);
    return (int64_t)(s - (s * s > (uint64_t)x));
}

/* Whether every n[i] lies in [lo, hi], for lo in {0, 1} and lo <= hi.
 * Inside, n - lo and hi - n lie in [0, hi - lo], below 2^63.  Outside,
 * one of them is negative, in [-2^63, -1], which sets the top bit of its
 * uint64, or n - lo is -2^63 - 1 (n = INT64_MIN, lo = 1), and then hi - n
 * is at least 2^63.  So the test is the top bit of the or of them all, in
 * operations that vectorize. */
static int in_domain(const int64_t *n, int64_t len, int64_t lo, int64_t hi)
{
    uint64_t bits = 0;
    for (int64_t i = 0; i < len; i++)
        bits |= ((uint64_t)n[i] - (uint64_t)lo)
                | ((uint64_t)hi - (uint64_t)n[i]);
    return !(bits >> 63);
}

/* out[i] = the floor `form` of n[i], each n[i] in the form's domain; out
 * may be n, as each n[i] is read before out[i] is written. */
static void root_floors(const int64_t *n, int64_t form, int64_t *out,
                        int64_t len)
{
    int64_t i, v;
    switch (form) {
    case ROOT_ISQRT:
        for (i = 0; i < len; i++)
            out[i] = isqrt64(n[i]);
        break;
    case ROOT_GAMMA:
        for (i = 0; i < len; i++) {
            v = n[i];
            out[i] = (isqrt64(5 * v * v) - v) >> 1;
        }
        break;
    case ROOT_GAMMA_SQ:  /* n - 1 - floor(gamma n) is -1 at n = 0 alone */
        for (i = 0; i < len; i++) {
            v = n[i];
            out[i] = v - 1 - ((isqrt64(5 * v * v) - v) >> 1) + (v == 0);
        }
        break;
    default:  /* ROOT_STAIRCASE */
        for (i = 0; i < len; i++)
            out[i] = (1 + isqrt64(8 * n[i] - 7)) >> 1;
    }
}

/* A field of format_rows is %<w>d on an int64 column, 0 <= w <=
 * FORMAT_MAX_WIDTH (0 for plain %d), or FORMAT_G12, which is %.12g on a
 * float64 column. */
#define FORMAT_G12 (-1)
#define FORMAT_MAX_WIDTH 64

/* the two digits of each n in 0..99 at PAIRS[2n], "00" to "99": the
 * formatters print a number's digits two at a time from it */
static const char PAIRS[201] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* 10^k, exact as uint64 for k = 0..19 */
static const uint64_t POW10_U64[20] = {
    1ULL, 10ULL, 100ULL, 1000ULL, 10000ULL, 100000ULL, 1000000ULL,
    10000000ULL, 100000000ULL, 1000000000ULL, 10000000000ULL,
    100000000000ULL, 1000000000000ULL, 10000000000000ULL,
    100000000000000ULL, 1000000000000000ULL, 10000000000000000ULL,
    100000000000000000ULL, 1000000000000000000ULL,
    10000000000000000000ULL};

/* The number of decimal digits of u <= 2^63, 1 for 0.  With w = u | 1,
 * which has as many digits as u, and b its bit length, t = floor(b *
 * 1233 / 4096) is the digit count of w or one less (1233 / 4096 lies just
 * below log10(2)), and t <= 19. */
static inline int digit_count(uint64_t u)
{
    uint64_t w = u | 1;
    int t = ((64 - __builtin_clzll(w)) * 1233) >> 12;
    return t + (w >= POW10_U64[t]);
}

/* the 4 digits of v < 10^4 at p..p+4, as two PAIRS entries: v / 100 is
 * (v * 5243) >> 19, exact for v < 43699 (5243 / 2^19 lies just above
 * 1/100), one multiply and a shift */
static inline void put_digits4(uint32_t v, uint8_t *p)
{
    uint32_t hi = (v * 5243) >> 19;
    memcpy(p, PAIRS + 2 * hi, 2);
    memcpy(p + 2, PAIRS + 2 * (v - 100 * hi), 2);
}

/* the len decimal digits of u < 10^len at p..p+len, from the last: 8 per
 * 64-bit division by 10^8, each block printed as two independent 4-digit
 * halves, then the 0..7 digits left in 32 bits, at most a 4-digit half, a
 * pair and a single digit; returns p + len.  Only the divisions by 10^8
 * form a chain, one per block: a 5-digit int takes one division, by
 * 10^4, and a 12-digit %.12g value one, by 10^8. */
static inline uint8_t *put_digits(uint64_t u, int len, uint8_t *p)
{
    uint8_t *end = p + len;
    uint32_t v;
    for (p = end; len >= 8; len -= 8, u /= 100000000) {
        v = (uint32_t)(u % 100000000);
        p -= 8;
        put_digits4(v / 10000, p);
        put_digits4(v % 10000, p + 4);
    }
    v = (uint32_t)u;  /* < 10^len, len < 8 */
    if (len >= 4) {
        p -= 4;
        put_digits4(v % 10000, p);
        v /= 10000;
        len -= 4;
    }
    if (len >= 2) {
        p -= 2;
        memcpy(p, PAIRS + 2 * (v % 100), 2);
        v /= 100;
        len -= 2;
    }
    if (len)
        *--p = (uint8_t)('0' + v);
    return end;
}

/* n bytes of src at p; returns p + n.  Each copy has a constant size, so
 * it compiles to a move or two: the pieces are mostly a few bytes, and a
 * memcpy of n bytes, or a byte loop, which the compiler turns into one,
 * would be a library call each. */
static inline uint8_t *put_bytes(const uint8_t *src, int64_t n, uint8_t *p)
{
    uint8_t *end = p + n;
    if (n >= 8) {  /* 8 at a time, the last 8 overlapping what went before */
        for (; n > 8; n -= 8, src += 8, p += 8)
            memcpy(p, src, 8);
        memcpy(end - 8, src + n - 8, 8);
    } else if (n >= 4) {  /* the first 4 and the last 4, overlapping */
        memcpy(p, src, 4);
        memcpy(end - 4, src + n - 4, 4);
    } else if (n >= 2) {
        memcpy(p, src, 2);
        memcpy(end - 2, src + n - 2, 2);
    } else if (n) {
        *p = *src;
    }
    return end;
}

/* v as `%<width>d` prints it, right-justified with spaces; returns the
 * end of what it wrote, at most max(20, width) bytes. */
static uint8_t *put_int(int64_t v, int64_t width, uint8_t *p)
{
    /* negate through uint64_t, so that INT64_MIN is exact */
    uint64_t u = v < 0 ? 0 - (uint64_t)v : (uint64_t)v;
    int len = digit_count(u);
    for (width -= len + (v < 0); width > 0; width--)
        *p++ = ' ';
    if (v < 0)
        *p++ = '-';
    return put_digits(u, len, p);
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
 * at most 18 bytes, or NULL, having written nothing, for 0, -0.0, NaN,
 * the infinities, a magnitude below 1e-4 or one that rounds to 1e12 or
 * above, and a tie, which format_rows prints with put_percent_g12.
 *
 * With a = |x| in the decade of 10^e, y = a * 10^(11-e) is the exact
 * product P correctly rounded (10^0..10^15 are exact doubles).  Whenever
 * 1e11 <= y <= 1e12 < 2^40, whatever e the comparisons chose, the
 * half-integers about y are doubles (its ulp is at most 2^-12), and a
 * rounding to nearest never crosses a double: y lands on the same side of
 * each as P, or on one.  So unless y is a half-integer D + 1/2 itself, D
 * = floor(y), y's nearest integer is P's: the 12 digits of a, correctly
 * rounded, with decimal exponent e (e + 1 when it is 10^12, whose digits
 * are those of 10^11).  A y on D + 1/2 is the tie, whose P may lie on
 * either side of the half or on it.  The digits then go out as %g places
 * them, trailing zeros and a bare point stripped.
 *
 * The decade comes from a binary search of DECADE, four comparisons, and
 * the 12 digits from put_digits, one division by 10^8. */
static uint8_t *put_g12(double x, uint8_t *p)
{
    double a = __builtin_fabs(x), y, frac;
    int e = 0, k, last;
    int64_t d;
    uint8_t digits[12];
    if (!(a >= 1e-4 && a < 1e12))  /* NaN too */
        return NULL;
    /* the greatest index e with DECADE[e] <= a, then the exponent */
    for (k = 8; k; k >>= 1)
        if (a >= DECADE[e + k])
            e += k;
    e -= 4;
    y = a * POW10[11 - e];
    if (!(y >= 1e11 && y <= 1e12))
        return NULL;
    d = (int64_t)y;
    frac = y - (double)d;  /* exact, as y < 2^40 */
    if (frac == 0.5)
        return NULL;
    d += frac > 0.5;
    if (d == 1000000000000) {  /* rounded up into the next decade */
        d = 100000000000;
        if (++e == 12)  /* %g's exponent form */
            return NULL;
    }
    put_digits((uint64_t)d, 12, digits);
    for (last = 11; digits[last] == '0'; last--)
        ;
    *p = '-';  /* kept for x < 0 only, with no branch on the sign */
    p += x < 0;
    if (e >= 0) {  /* e + 1 integer digits, then the fraction if any */
        p = put_bytes(digits, e + 1, p);
        if (last > e) {
            *p++ = '.';
            p = put_bytes(digits + e + 1, last - e, p);
        }
    } else {  /* 0. and -e-1 zeros before the digits, which overwrite
                 the zeros they do not need */
        memcpy(p, "0.000", 5);
        p = put_bytes(digits, last + 1, p + 1 - e);
    }
    return p;
}

/* x as `'%.12g' % x` prints it, for the values put_g12 refuses:
 * PyOS_double_to_string(x, 'g', 12, 0, NULL) is the call that `%` makes
 * (formatfloat in CPython), so its bytes are the formatter of record's.
 * The caller runs with the interpreter lock released; this takes it for
 * the one call.  Returns the end of what it wrote, at most 19 bytes
 * (-1.23456789012e-308), or NULL with MemoryError set. */
static uint8_t *put_percent_g12(double x, uint8_t *p)
{
    PyGILState_STATE lock = PyGILState_Ensure();
    char *s = PyOS_double_to_string(x, 'g', 12, 0, NULL);
    uint8_t *end = NULL;
    if (s) {
        end = put_bytes((const uint8_t *)s, strlen(s), p);
        PyMem_Free(s);
    }
    PyGILState_Release(lock);
    return end;
}

/* A word store writes all 8 bytes of a word to put len of them, 0 to 8,
 * so it may write up to 8 bytes past them.  What follows overwrites them;
 * after the last row of a call they are slack, and the entry point checks
 * for FORMAT_SLACK bytes of out past the rows' bound. */
#define FORMAT_SLACK 8

/* p + len, having stored all 8 bytes of word, whose first len <= 8 are
 * the ones meant: one move, where a copy of len bytes is a branch on len
 * or a library call */
static inline uint8_t *put_word(uint64_t word, int64_t len, uint8_t *p)
{
    memcpy(p, &word, 8);
    return p + len;
}

/* A literal piece: its len bytes at src, and when len <= 8 the same bytes
 * as one word, zero-padded */
struct piece {
    const uint8_t *src;
    int64_t len;
    uint64_t word;
};

static inline uint8_t *put_piece(const struct piece *s, uint8_t *p)
{
    return s->len <= 8 ? put_word(s->word, s->len, p)
                       : put_bytes(s->src, s->len, p);
}

/* A counted column prints start + r at row r from its decimal digits,
 * which end at text + COUNT_END with spaces before them, so its field,
 * %<width>d, is the last len = max(width, digit count) of those bytes.  A
 * number stays below 10^19 (start + rows - 1 <= INT64_MAX, plus the 1
 * added after the last row), so a space always lies before its leading
 * digit.  The 8 bytes past COUNT_END let a field of up to 8 bytes be read
 * as one word. */
#define COUNT_END FORMAT_MAX_WIDTH
struct count {
    int64_t len;
    uint8_t text[COUNT_END + 8];
};

/* c at start, printed to width */
static void count_from(struct count *c, uint64_t start, int64_t width)
{
    int len = digit_count(start);
    memset(c->text, ' ', COUNT_END);
    memset(c->text + COUNT_END, 0, 8);
    put_digits(start, len, c->text + COUNT_END - len);
    c->len = width > len ? width : len;
}

/* c's field at p, then c's number plus 1: its trailing 9s become 0s and
 * the byte before them goes up by 1, a space to a new leading 1.  No
 * division, and one byte to change in nine rows of ten.  Returns the end
 * of the field. */
static inline uint8_t *put_count(struct count *c, uint8_t *p)
{
    const uint8_t *field = c->text + COUNT_END - c->len;
    uint8_t *d = c->text + COUNT_END - 1;
    uint64_t word;
    if (c->len <= 8) {
        memcpy(&word, field, 8);
        p = put_word(word, c->len, p);
    } else {
        p = put_bytes(field, c->len, p);
    }
    while (*d == '9')
        *d-- = '0';
    if (*d == ' ') {
        *d = '1';
        if (c->len < c->text + COUNT_END - d)
            c->len = c->text + COUNT_END - d;
    } else {
        ++*d;
    }
    return p;
}

/* A column of format_rows: field is FORMAT_G12 or a width; values are its
 * float64 or int64 items, or NULL when it is counted. */
struct column {
    const void *values;
    int64_t field;
    struct count count;
};

/* Rows as Python's `%` fills a row format whose every field is %d,
 * %<w>d or %.12g: row r is piece 0, field 0 of row r, piece 1, ..., field
 * ncols-1, piece ncols, and field j prints column j's value at row r as
 * its field says.  A field takes at most max(20, w) bytes, so the entry
 * point checks for rows * (the pieces' bytes + the sum of those) bytes of
 * out, and FORMAT_SLACK more.  One loop writes every row; a piece or a
 * counted field of up to 8 bytes goes out as one word (put_word).
 * Returns the number of bytes written, or -1 with MemoryError set. */
static int64_t format_rows(struct column *cols, int64_t ncols, int64_t rows,
                           const struct piece *pieces, uint8_t *out)
{
    uint8_t *p = out;
    for (int64_t r = 0; r < rows; r++) {
        p = put_piece(&pieces[0], p);
        for (int64_t j = 0; j < ncols; j++) {
            struct column *c = &cols[j];
            if (c->field == FORMAT_G12) {
                double x = ((const double *)c->values)[r];
                uint8_t *q = put_g12(x, p);
                if (!q && !(q = put_percent_g12(x, p)))
                    return -1;
                p = q;
            } else if (c->values) {
                p = put_int(((const int64_t *)c->values)[r], c->field, p);
            } else {
                p = put_count(&c->count, p);
            }
            p = put_piece(&pieces[j + 1], p);
        }
    }
    return p - out;
}

/* ------------------------------------------------------------------ */
/* The module: one entry point per loop, in the method table below.  An
 * entry point takes what its twin in _kernels_py.py takes and returns
 * what that returns.  It refuses, by ValueError and before it writes
 * anything, every argument its loop could not take safely. */

/* numpy.ndarray: every array argument is an instance of it */
static PyTypeObject *ndarray;

enum kind { INT64, FLOAT64, UINT8 };

/* whether a buffer holds items of kind in native byte order */
static int has_kind(const Py_buffer *v, enum kind kind)
{
    const char *f = v->format;
    if (*f == '@' || *f == '=' || *f == (PY_LITTLE_ENDIAN ? '<' : '>'))
        f++;
    switch (kind) {
    case INT64:
        return v->itemsize == 8 && (!strcmp(f, "l") || !strcmp(f, "q"));
    case FLOAT64:
        return v->itemsize == 8 && !strcmp(f, "d");
    default:
        return v->itemsize == 1 && !strcmp(f, "B");
    }
}

/* a's length, its buffer held in v, when a is a 1-D C-contiguous numpy
 * array of kind, writeable if write is set; else -1, with nothing held
 * and no exception set */
static Py_ssize_t take(PyObject *a, Py_buffer *v, enum kind kind, int write)
{
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT;
    if (!PyObject_TypeCheck(a, ndarray))
        return -1;
    if (PyObject_GetBuffer(a, v, write ? flags | PyBUF_WRITABLE : flags)) {
        PyErr_Clear();
        return -1;
    }
    if (v->ndim == 1 && has_kind(v, kind))
        return v->shape[0];
    PyBuffer_Release(v);
    return -1;
}

/* Releases v if it holds a buffer.  Every view starts zeroed, and one
 * that was refused or never taken holds none: take releases on a kind
 * mismatch, and a failed PyObject_GetBuffer leaves obj NULL.  So each
 * entry point leaves through one label that releases all its views. */
static void release(Py_buffer *v)
{
    if (v->obj)
        PyBuffer_Release(v);
}

/* *v = o when o is an int in the int64 range: 0, else -1 with no
 * exception set */
static int scalar(PyObject *o, int64_t *v)
{
    long long x = PyLong_AsLongLong(o);
    if (x == -1 && PyErr_Occurred()) {
        PyErr_Clear();
        return -1;
    }
    *v = x;
    return 0;
}

static int arity(const char *name, Py_ssize_t nargs, Py_ssize_t n)
{
    if (nargs == n)
        return 1;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)",
                 name, n, nargs);
    return 0;
}

/* NULL, with ValueError set unless an exception (arity's TypeError, a
 * MemoryError) is */
static PyObject *refuse(const char *name)
{
    if (!PyErr_Occurred())
        PyErr_Format(PyExc_ValueError, "%s refused its arguments", name);
    return NULL;
}

PyDoc_STRVAR(one_term_trace_doc,
"one_term_trace($module, f, q, /)\n--\n\n"
"The one-term trace of the len(f) terms of f into q, both int64, q\n"
"writeable and no shorter: 0, n (died at n) or -n (overflow at n).");

static PyObject *py_one_term_trace(PyObject *mod, PyObject *const *args,
                                   Py_ssize_t nargs)
{
    Py_buffer f = {0}, q = {0};
    Py_ssize_t n;
    int64_t r;
    PyObject *ret = NULL;
    if (!arity("one_term_trace", nargs, 2)
            || (n = take(args[0], &f, INT64, 0)) < 0
            || take(args[1], &q, INT64, 1) < n)
        goto done;
    Py_BEGIN_ALLOW_THREADS
    r = one_term_trace(f.buf, q.buf, n);
    Py_END_ALLOW_THREADS
    ret = PyLong_FromLongLong(r);
done:
    release(&q);
    release(&f);
    return ret ? ret : refuse("one_term_trace");
}

PyDoc_STRVAR(one_term_rows_doc,
"one_term_rows($module, f, q, status, m, /)\n--\n\n"
"The one-term trace of each of the len(status) rows of length m >= 0 of\n"
"f into q, all three int64, q and status writeable, len(f) = len(q) =\n"
"len(status) * m; status[r] receives row r's code.");

static PyObject *py_one_term_rows(PyObject *mod, PyObject *const *args,
                                  Py_ssize_t nargs)
{
    Py_buffer f = {0}, q = {0}, s = {0};
    Py_ssize_t nf, nq, ns;
    int64_t m, len;
    PyObject *ret = NULL;
    if (!arity("one_term_rows", nargs, 4)
            || (nf = take(args[0], &f, INT64, 0)) < 0
            || (nq = take(args[1], &q, INT64, 1)) < 0
            || (ns = take(args[2], &s, INT64, 1)) < 0
            || scalar(args[3], &m) || m < 0
            || __builtin_mul_overflow((int64_t)ns, m, &len)
            || nf != len || nq != len)
        goto done;
    Py_BEGIN_ALLOW_THREADS
    one_term_rows(f.buf, q.buf, s.buf, ns, m);
    Py_END_ALLOW_THREADS
    Py_INCREF(Py_None);
    ret = Py_None;
done:
    release(&s);
    release(&q);
    release(&f);
    return ret ? ret : refuse("one_term_rows");
}

PyDoc_STRVAR(two_term_trace_doc,
"two_term_trace($module, q, n_init, d1, d2, outer, /)\n--\n\n"
"The two-term trace extending the writeable int64 array q past its\n"
"n_init initial values to its end, for d1, d2 >= 1, outer 0 or 1 and\n"
"max(d1, d2) <= n_init <= len(q): 0, j (died at offset j) or -j.");

static PyObject *py_two_term_trace(PyObject *mod, PyObject *const *args,
                                   Py_ssize_t nargs)
{
    Py_buffer q = {0};
    Py_ssize_t total;
    int64_t n_init, d1, d2, outer, r;
    PyObject *ret = NULL;
    if (!arity("two_term_trace", nargs, 5)
            || (total = take(args[0], &q, INT64, 1)) < 0
            || scalar(args[1], &n_init) || scalar(args[2], &d1)
            || scalar(args[3], &d2) || scalar(args[4], &outer)
            || d1 < 1 || d2 < 1 || (outer != 0 && outer != 1)
            || n_init < d1 || n_init < d2 || n_init > total)
        goto done;
    Py_BEGIN_ALLOW_THREADS
    r = two_term_trace(q.buf, total, n_init, d1, d2, outer);
    Py_END_ALLOW_THREADS
    ret = PyLong_FromLongLong(r);
done:
    release(&q);
    return ret ? ret : refuse("two_term_trace");
}

PyDoc_STRVAR(slow_walk_doc,
"slow_walk($module, seen, m, /)\n--\n\n"
"The walk over every slow zero-start prefix of length m, 1 <= m <=\n"
"WALK_MAX_DEPTH, marking the writeable uint8 array seen of at least\n"
"m*m*(m+1) bytes: 0, n (died at depth n) or -n.");

static PyObject *py_slow_walk(PyObject *mod, PyObject *const *args,
                              Py_ssize_t nargs)
{
    Py_buffer seen = {0};
    Py_ssize_t len;
    int64_t m, r;
    PyObject *ret = NULL;
    if (!arity("slow_walk", nargs, 2)
            || (len = take(args[0], &seen, UINT8, 1)) < 0
            || scalar(args[1], &m) || m < 1 || m > WALK_MAX_DEPTH
            || len < m * m * (m + 1))
        goto done;
    Py_BEGIN_ALLOW_THREADS
    r = slow_walk(seen.buf, m);
    Py_END_ALLOW_THREADS
    ret = PyLong_FromLongLong(r);
done:
    release(&seen);
    return ret ? ret : refuse("slow_walk");
}

PyDoc_STRVAR(step_sum_doc,
"step_sum($module, steps, first, out, /)\n--\n\n"
"The running sums out[0] = first, out[i] = out[i-1] + steps[i-1] into\n"
"the writeable int64 array out, from the uint8 array steps of at least\n"
"len(out) - 1 values, for first + STEP_MAX * (len(out) - 1) <= INT64_MAX.");

static PyObject *py_step_sum(PyObject *mod, PyObject *const *args,
                             Py_ssize_t nargs)
{
    Py_buffer steps = {0}, out = {0};
    Py_ssize_t ns, n;
    int64_t first, top;
    PyObject *ret = NULL;
    if (!arity("step_sum", nargs, 3)
            || (ns = take(args[0], &steps, UINT8, 0)) < 0
            || scalar(args[1], &first)
            || (n = take(args[2], &out, INT64, 1)) < 0
            || (n > 0 && (ns < n - 1
                          || __builtin_mul_overflow((int64_t)(n - 1),
                                                    (int64_t)STEP_MAX, &top)
                          || __builtin_add_overflow(first, top, &top))))
        goto done;
    Py_BEGIN_ALLOW_THREADS
    step_sum(steps.buf, first, out.buf, n);
    Py_END_ALLOW_THREADS
    Py_INCREF(Py_None);
    ret = Py_None;
done:
    release(&out);
    release(&steps);
    return ret ? ret : refuse("step_sum");
}

PyDoc_STRVAR(root_floors_doc,
"root_floors($module, n, form, out, /)\n--\n\n"
"out[i] = the floor `form` of n[i] for the int64 array n and the writeable\n"
"int64 array out of its length, which may be n itself: ROOT_ISQRT\n"
"floor(sqrt(n)), ROOT_GAMMA floor(gamma n), ROOT_GAMMA_SQ floor(gamma^2 n)\n"
"or ROOT_STAIRCASE floor((1 + sqrt(8n - 7))/2), each n in the form's\n"
"domain.");

static PyObject *py_root_floors(PyObject *mod, PyObject *const *args,
                                Py_ssize_t nargs)
{
    Py_buffer n = {0}, out = {0};
    Py_ssize_t len;
    int64_t form;
    int ok = 0;
    PyObject *ret = NULL;
    if (!arity("root_floors", nargs, 3)
            || (len = take(args[0], &n, INT64, 0)) < 0
            || scalar(args[1], &form) || form < 0 || form > ROOT_STAIRCASE
            || take(args[2], &out, INT64, 1) != len)
        goto done;
    Py_BEGIN_ALLOW_THREADS
    ok = in_domain(n.buf, len, ROOT_LO[form], ROOT_HI[form]);
    if (ok)
        root_floors(n.buf, form, out.buf, len);
    Py_END_ALLOW_THREADS
    if (ok) {
        Py_INCREF(Py_None);
        ret = Py_None;
    }
done:
    release(&out);
    release(&n);
    return ret ? ret : refuse("root_floors");
}

PyDoc_STRVAR(read_ints_doc,
"read_ints($module, ints, out, /)\n--\n\n"
"out[i] = ints[i] for the tuple ints and the writeable int64 array out of\n"
"the same length, up to the first item that is not an exact int or lies\n"
"outside int64; returns the number of items read.");

static PyObject *py_read_ints(PyObject *mod, PyObject *const *args,
                              Py_ssize_t nargs)
{
    Py_buffer out = {0};
    Py_ssize_t n, i;
    int64_t *o;
    PyObject *ret = NULL;
    if (!arity("read_ints", nargs, 2) || !PyTuple_Check(args[0])
            || (n = take(args[1], &out, INT64, 1))
               != PyTuple_GET_SIZE(args[0]))
        goto done;
    /* the items are Python objects: the lock stays held */
    o = out.buf;
    for (i = 0; i < n; i++) {
        PyObject *v = PyTuple_GET_ITEM(args[0], i);
        int overflow;
        long long x;
        if (!PyLong_CheckExact(v))
            break;
        x = PyLong_AsLongLongAndOverflow(v, &overflow);
        if (overflow)
            break;
        if (x == -1 && PyErr_Occurred())
            goto done;
        o[i] = x;
    }
    ret = PyLong_FromSsize_t(i);
done:
    release(&out);
    return ret ? ret : refuse("read_ints");
}

PyDoc_STRVAR(format_rows_doc,
"format_rows($module, cols, fields, rows, lit, ends, out, /)\n--\n\n"
"Rows 0..rows-1 of the columns cols, field j printing cols[j] as %<w>d\n"
"for a width w = fields[j] in [0, FORMAT_MAX_WIDTH] (an int64 column, or\n"
"an int start >= 0 for the column start, start + 1, ..., which stays in\n"
"int64) or as %.12g for FORMAT_G12 (a float64 column), between the\n"
"pieces of the bytes lit that end at ends, written into the writeable\n"
"uint8 array out of at least rows * (len(lit) + the sum of max(20, w))\n"
"bytes, FORMAT_SLACK more when rows > 0; returns the number of bytes\n"
"written.");

static PyObject *py_format_rows(PyObject *mod, PyObject *const *args,
                                Py_ssize_t nargs)
{
    PyObject *cols = NULL, *fields = NULL, *ends = NULL, *ret = NULL;
    Py_buffer lit = {0}, out = {0}, *views = NULL;
    Py_ssize_t ncols = 0, j;
    int64_t rows, per_row, need, size, end, at = 0, start;
    struct column *cs = NULL;
    struct piece *ps = NULL;
    if (!arity("format_rows", nargs, 6))
        goto done;
    if (!(cols = PySequence_Fast(args[0], ""))
            || !(fields = PySequence_Fast(args[1], ""))
            || !(ends = PySequence_Fast(args[4], ""))) {
        PyErr_Clear();
        goto done;
    }
    ncols = PySequence_Fast_GET_SIZE(cols);
    if (PySequence_Fast_GET_SIZE(fields) != ncols
            || PySequence_Fast_GET_SIZE(ends) != ncols + 1
            || scalar(args[2], &rows) || rows < 0)
        goto done;
    if (PyObject_GetBuffer(args[3], &lit, PyBUF_SIMPLE)) {
        PyErr_Clear();
        goto done;
    }
    cs = PyMem_Calloc(ncols + 1, sizeof *cs);
    ps = PyMem_Calloc(ncols + 1, sizeof *ps);
    views = PyMem_Calloc(ncols + 1, sizeof *views);
    if (!cs || !ps || !views) {
        PyErr_NoMemory();
        goto done;
    }
    /* piece j is lit[ends[j-1]..ends[j]), from 0 for j = 0 */
    for (j = 0; j <= ncols; j++) {
        if (scalar(PySequence_Fast_GET_ITEM(ends, j), &end) || end < at
                || end > lit.len)
            goto done;
        ps[j].src = (const uint8_t *)lit.buf + at;
        ps[j].len = end - at;
        if (ps[j].len <= 8)
            memcpy(&ps[j].word, ps[j].src, ps[j].len);
        at = end;
    }
    if (at != lit.len)
        goto done;
    per_row = lit.len;
    for (j = 0; j < ncols; j++) {
        PyObject *col = PySequence_Fast_GET_ITEM(cols, j);
        int64_t w;
        if (scalar(PySequence_Fast_GET_ITEM(fields, j), &w)
                || !(w == FORMAT_G12 || (w >= 0 && w <= FORMAT_MAX_WIDTH)))
            goto done;
        cs[j].field = w;
        per_row += w > 20 ? w : 20;
        if (w != FORMAT_G12 && !PyObject_TypeCheck(col, ndarray)) {
            /* counted: start..start + rows - 1 within [0, INT64_MAX] */
            if (scalar(col, &start) || start < 0
                    || start > INT64_MAX - (rows ? rows - 1 : 0))
                goto done;
            count_from(&cs[j].count, (uint64_t)start, w);
        } else if (take(col, &views[j], w == FORMAT_G12 ? FLOAT64 : INT64,
                        0) < rows) {
            goto done;
        } else {
            cs[j].values = views[j].buf;
        }
    }
    if (__builtin_mul_overflow(rows, per_row, &need)
            || __builtin_add_overflow(need, rows ? FORMAT_SLACK : 0, &need)
            || take(args[5], &out, UINT8, 1) < need)
        goto done;
    Py_BEGIN_ALLOW_THREADS
    size = format_rows(cs, ncols, rows, ps, out.buf);
    Py_END_ALLOW_THREADS
    if (size >= 0)
        ret = PyLong_FromLongLong(size);
done:
    release(&out);
    for (j = 0; views && j < ncols; j++)
        release(&views[j]);
    release(&lit);
    PyMem_Free(views);
    PyMem_Free(ps);
    PyMem_Free(cs);
    Py_XDECREF(ends);
    Py_XDECREF(fields);
    Py_XDECREF(cols);
    return ret ? ret : refuse("format_rows");
}

#define ENTRY(name) {#name, (PyCFunction)(void (*)(void))py_##name, \
                     METH_FASTCALL, name##_doc}

static PyMethodDef methods[] = {
    ENTRY(one_term_trace),
    ENTRY(one_term_rows),
    ENTRY(two_term_trace),
    ENTRY(slow_walk),
    ENTRY(step_sum),
    ENTRY(root_floors),
    ENTRY(read_ints),
    ENTRY(format_rows),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_kernels",
    "The C kernels of hofq; hofq.kernels builds, loads and checks them.",
    -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__kernels(void)
{
    PyObject *numpy = PyImport_ImportModule("numpy"), *m;
    if (numpy == NULL)
        return NULL;
    Py_XDECREF(ndarray);
    ndarray = (PyTypeObject *)PyObject_GetAttrString(numpy, "ndarray");
    Py_DECREF(numpy);
    if (ndarray == NULL)
        return NULL;
    if (!PyType_Check(ndarray)) {
        PyErr_SetString(PyExc_TypeError, "numpy.ndarray is not a type");
        return NULL;
    }
    m = PyModule_Create(&module);
    if (m == NULL
            || PyModule_AddIntConstant(m, "WALK_MAX_DEPTH", WALK_MAX_DEPTH)
            || PyModule_AddIntConstant(m, "STEP_MAX", STEP_MAX)
            || PyModule_AddIntConstant(m, "FORMAT_MAX_WIDTH",
                                       FORMAT_MAX_WIDTH)
            || PyModule_AddIntConstant(m, "FORMAT_G12", FORMAT_G12)
            || PyModule_AddIntConstant(m, "FORMAT_SLACK", FORMAT_SLACK)
            || PyModule_AddIntConstant(m, "ROOT_ISQRT", ROOT_ISQRT)
            || PyModule_AddIntConstant(m, "ROOT_GAMMA", ROOT_GAMMA)
            || PyModule_AddIntConstant(m, "ROOT_GAMMA_SQ", ROOT_GAMMA_SQ)
            || PyModule_AddIntConstant(m, "ROOT_STAIRCASE", ROOT_STAIRCASE)
            || PyModule_AddIntConstant(m, "GAMMA_MAX", GAMMA_MAX)
            || PyModule_AddIntConstant(m, "STAIRCASE_MAX", STAIRCASE_MAX)) {
        Py_XDECREF(m);
        return NULL;
    }
    return m;
}
