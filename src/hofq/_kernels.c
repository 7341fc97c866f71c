/* Trace kernels, compiled on first import by hofq/kernels.py and called
 * through ctypes.  _kernels_py.py holds the same loops with the same
 * contracts and is the reference the tests compare against.
 *
 * The caller checks every size, dtype and bound before passing pointers.
 * Each call returns one int64: 0 when every term was computed, +k when the
 * trace died at k and -k when the term at k leaves the int64 range; the
 * array then holds every term before k.  No state is shared between calls,
 * so they may run concurrently with the interpreter lock released.
 */
#include <stdint.h>

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
