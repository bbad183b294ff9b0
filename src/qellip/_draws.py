"""Poisson draws over arrays, equal to numpy's draw from a new Philox per record.

Record i draws its count as Generator(Philox(key=[seed, i])).poisson(mean).
A Philox4x64-10 block is a fixed function of (counter, key) (Random123;
Salmon et al., SC'11), so the first block of every record, which holds two
tries of numpy's PTRS sampler for means of 10 and above (Hoermann 1993;
numpy's `random_poisson_ptrs`), is computed here at once.  The sampler is
ported in C's order of operations, with no fused multiply-add.

A record the array path does not decide is drawn by numpy itself, from a
Philox reset to key (seed, i), counter 0 and an empty buffer: exactly a new
Philox(key=[seed, i]).  Those are the records whose two tries both failed,
those whose log test fell within 1e-12 (relative) of its bound, where np.log
and the C library's log may round apart, those of mean below 10, which numpy
draws by multiplication, and every record of a plan with fewer than
_VECTOR_FROM PTRS records.
"""

import math

import numpy as np

# Plans with fewer PTRS records than this are drawn by the loop alone.  On a
# 2-vCPU Xeon (medians of 40 alternating timeit runs) the array path took
# about 0.5 ms for 12 to 512 records, the loop 0.06 ms for 12 and 0.46 ms
# for 384; they crossed between 384 and 512.
_VECTOR_FROM = 400
_PTRS_FROM = 10.0  # numpy draws means from 10 up by PTRS
LAM_MAX = np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10  # numpy's largest Poisson mean

_M0, _M1 = np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157)  # round multipliers
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B  # Weyl key increments
_LOW32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)

DECIDED, FAILED, TIE = 0, 1, 2  # outcomes of the tries in a record's first block

_LOGGAM_A = (8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04, -5.952380952380952e-04,
             8.417508417508418e-04, -1.917526917526918e-03, 6.410256410256410e-03, -2.955065359477124e-02,
             1.796443723688307e-01, -1.39243221690590e+00)
_HALF_LOG_2PI = 0.5 * 1.8378770664093453e+00


def _mulhilo(m, x):
    """High and low words of the 128-bit products m * x, over uint64 arrays:
    the high word from 32-bit halves, the low one wrapping."""
    m_lo, m_hi = m & _LOW32, m >> _32
    x_lo, x_hi = x & _LOW32, x >> _32
    ll = m_lo * x_lo
    lh = m_lo * x_hi + (ll >> _32)
    hl = m_hi * x_lo + (lh & _LOW32)
    return m_hi * x_hi + (lh >> _32) + (hl >> _32), m * x


def first_block(seed: int, index):
    """The four words of Philox4x64-10 at counter (1, 0, 0, 0) and key
    (seed, i) for each i of index: the first block a new Philox(key=[seed, i])
    gives, since numpy bumps the counter before its first block."""
    index = np.asarray(index, dtype=np.uint64)
    # Round 1 of counter (1, 0, 0, 0) gives (key0, 0, key1, M0) whatever the key.
    x0, x1, x2, x3 = np.array([seed], dtype=np.uint64), np.uint64(0), index, _M0
    for r in range(1, 10):
        hi0, lo0 = _mulhilo(_M0, x0)
        hi1, lo1 = _mulhilo(_M1, x2)
        key0, key1 = np.uint64((seed + r * _W0) % 2**64), index + np.uint64(r * _W1 % 2**64)
        x0, x1, x2, x3 = hi1 ^ x1 ^ key0, lo1, hi0 ^ x3 ^ key1, lo0
    return x0, x1, x2, x3


def _next_double(word):
    """numpy's next_double: the top 53 bits of a word over 2**53."""
    return (word >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


def _loggam(x):
    """numpy's random_loggam(x) elementwise, for integral x >= 1."""
    x0 = np.maximum(x, 7.0)  # C shifts x below 7 up to 7
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = np.full_like(x, _LOGGAM_A[9])
    for coeff in _LOGGAM_A[8::-1]:
        gl0 *= x2
        gl0 += coeff
    gl = gl0 / x0 + _HALF_LOG_2PI + (x0 - 0.5) * np.log(x0) - x0
    for v in (6.0, 5.0, 4.0, 3.0):  # then takes log(6), log(5), ... log(x) off in turn
        gl = np.where(x <= v, gl - math.log(v), gl)
    return np.where(x <= 2.0, 0.0, gl)


def _ptrs_try(lam, loglam, a, b, invalpha, vr, u_word, v_word):
    """One try of numpy's PTRS loop per record: its k and outcome."""
    u = _next_double(u_word) - 0.5
    v = _next_double(v_word)
    us = 0.5 - np.abs(u)
    kf = np.floor((2.0 * a / us + b) * u + lam + 0.43)
    # C's cast gives a negative k outside the int64 range, and such a try fails
    k = np.where((kf >= -2.0**63) & (kf < 2.0**63), kf, -1.0).astype(np.int64)
    outcome = np.where((us >= 0.07) & (v <= vr), DECIDED, FAILED)
    j = np.flatnonzero((outcome == FAILED) & (k >= 0) & ~((us < 0.013) & (v > us)))
    log_v, log_inv, log_hat = np.log(v[j]), np.log(invalpha[j]), np.log(a[j] / (us[j] * us[j]) + b[j])
    kj = k[j].astype(np.float64)
    k_log_lam, lg = kj * loglam[j], _loggam((k[j] + 1).astype(np.float64))
    lhs = log_v + log_inv - log_hat
    rhs = -lam[j] + k_log_lam - lg
    size = np.abs(log_v) + np.abs(log_inv) + np.abs(log_hat) + lam[j] + np.abs(k_log_lam) + np.abs(lg)
    tie = np.isfinite(lhs) & (np.abs(lhs - rhs) <= 1e-12 * size)
    outcome[j] = np.where(tie, TIE, np.where(lhs <= rhs, DECIDED, FAILED))
    return k, outcome


def first_block_ptrs(seed: int, index, lam):
    """Counts and outcomes of the two PTRS tries in each record's first block,
    for records at index of means lam >= 10: DECIDED where a try returned the
    count, TIE where a log test came too close to call, FAILED where both
    tries failed."""
    words = first_block(seed, index)
    slam, loglam = np.sqrt(lam), np.log(lam)
    b = 0.931 + 2.53 * slam
    a = -0.059 + 0.02483 * b
    invalpha = 1.1239 + 1.1328 / (b - 3.4)
    vr = 0.9277 - 3.6224 / (b - 2)
    with np.errstate(divide="ignore"):  # us = 0 and log(V = 0), as in C
        k, outcome = _ptrs_try(lam, loglam, a, b, invalpha, vr, words[0], words[1])
        j = np.flatnonzero(outcome == FAILED)
        k[j], outcome[j] = _ptrs_try(lam[j], loglam[j], a[j], b[j], invalpha[j], vr[j], words[2][j], words[3][j])
    return k, outcome


def _loop(seed: int, index, means, counts):
    """counts[i] = numpy's Poisson draw of means[i] from a Philox reset to key
    (seed, i), counter 0 and an empty buffer, for i in index."""
    bit_generator = np.random.Philox(key=0)
    rng = np.random.Generator(bit_generator)
    key = [int(seed), 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,  # buffer used up
        "has_uint32": 0,
        "uinteger": 0,
    }
    for i, mean in zip(index.tolist(), means[index].tolist()):
        key[1] = i
        bit_generator.state = state
        counts[i] = rng.poisson(mean)


def poisson(seed: int, means) -> np.ndarray:
    """int64 counts, count i as Generator(Philox(key=[seed, i])).poisson(means[i])
    draws it, and 0 where the mean is 0; the means are finite, non-negative
    and within numpy's Poisson limit."""
    counts = np.zeros(len(means), dtype=np.int64)
    undrawn = means != 0
    ptrs = np.flatnonzero(means >= _PTRS_FROM)
    if len(ptrs) >= _VECTOR_FROM:
        k, outcome = first_block_ptrs(seed, ptrs, means[ptrs])
        decided = outcome == DECIDED
        counts[ptrs[decided]] = k[decided]
        undrawn[ptrs[decided]] = False
    _loop(seed, np.flatnonzero(undrawn), means, counts)
    return counts
