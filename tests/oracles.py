"""Independent reference computations shared by the test modules.

Everything here sticks to plain arbitrary-precision arithmetic (//, %,
*) and avoids the package's bit-twiddling code paths, so a bug cannot
cancel itself out when implementation and oracle are compared. The one
package import is normal_cdf, which the randomness references share with
the tests they check and which is checked against mpmath on its own.
"""

from math import erfc, floor, log, sqrt

import numpy as np

from bernstream.special import normal_cdf


def step_reference(x, mu):
    """One map step, restated in plain arithmetic.

    Written with unbounded-precision *, //, % only (no shifts or masks)
    so it and prng.step share no tricks and can cross-check each other.
    Rejects out-of-range inputs as step() does.
    """
    if not 0 <= x < 2**32:
        raise ValueError(f"state word out of range [0, 2**32): {x!r}")
    if not 0 <= mu <= 255:
        raise ValueError(f"feedback factor out of range [0, 255]: {mu!r}")
    t = (2 * x) % 2**32
    return (t * mu) // 2**8 + 2**23 * (256 - mu)


def split_word_arith(word):
    """Four byte sections via two halving stages, most significant first.

    It and xor_parity_byte also work elementwise on numpy integer arrays.
    """
    hi, lo = word // 2**16, word % 2**16
    return (hi // 2**8, hi % 2**8, lo // 2**8, lo % 2**8)


def xor_parity_byte(values):
    """Bitwise XOR of 8-bit values computed as per-bit parity sums."""
    out = 0
    for bit in range(8):
        parity = sum(v // 2**bit % 2 for v in values) % 2
        out += parity * 2**bit
    return out


def xor_reference(a, b):
    """Bytewise XOR of two byte sequences of equal length, one byte at a time."""
    return bytes(x ^ y for x, y in zip(a, b, strict=True))


def orbit_reference(seed, mu, n):
    """First n output words from a seed, by repeated step_reference."""
    x = seed
    out = []
    for _ in range(n):
        x = step_reference(x, mu)
        out.append(x)
    return out


def keystream_reference(seed1, mu1, seed2, mu2, n):
    """First n keystream bytes, built from the arithmetic oracles only."""
    xa, xb = seed1, seed2
    out = []
    for _ in range(n):
        xa = step_reference(xa, mu1)
        xb = step_reference(xb, mu2)
        sections = split_word_arith(xa) + split_word_arith(xb)
        out.append(xor_parity_byte(sections))
    return bytes(out)


def cycle_visited(seed, mu, cap):
    """Tail and period by exhaustive orbit recording; None if cap too small."""
    seen = {}
    x = seed
    for i in range(cap):
        if x in seen:
            return seen[x], i - seen[x]
        seen[x] = i
        x = step_reference(x, mu)
    return None


def advance(x, mu, n):
    """step_reference applied n times, inlined for long cycle replays."""
    gf = 2**23 * (256 - mu)
    for _ in range(n):
        x = ((2 * x) % 4294967296) * mu // 256 + gf
    return x


def prime_factors(n):
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def verify_cycle(seed, mu, tail, period):
    """Replay a reported (tail, period) and check both minimality claims.

    Returns a list of failure descriptions; empty means the report is
    consistent with the orbit.
    """
    problems = []
    entry = advance(seed, mu, tail)
    if advance(entry, mu, period) != entry:
        problems.append("period does not close the cycle")
    for p in prime_factors(period):
        if advance(entry, mu, period // p) == entry:
            problems.append(f"period not minimal (divisor {period // p} closes)")
    if tail > 0:
        before = advance(seed, mu, tail - 1)
        if advance(before, mu, period) == before:
            problems.append("tail not minimal (previous point already cycles)")
    return problems


def dft_direct(x):
    """Direct O(n^2) DFT via the explicit transform matrix.

    Independent of any FFT algorithm; fine for n <= 2048.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    j = np.arange(n)
    omega = np.exp(-2j * np.pi * np.outer(j, j) / n)
    return omega @ x


def cusum_reference(bits, mode):
    """Cumulative-sums test from one int64 cumsum of the whole walk.

    The reverse mode reverses a copy of the steps first. Returns
    (statistic, p_value, params) as cusum_test reports them.
    """
    arr = np.asarray(bits, dtype=np.uint8)
    n = arr.size
    steps = arr.astype(np.int64) * 2 - 1
    if mode == "reverse":
        steps = steps[::-1]
    z = int(np.abs(np.cumsum(steps)).max())
    sqrt_n = sqrt(n)
    hi = floor((n / z - 1) / 4)
    total1 = sum(normal_cdf((4 * k + 1) * z / sqrt_n)
                 - normal_cdf((4 * k - 1) * z / sqrt_n)
                 for k in range(floor((-n / z + 1) / 4), hi + 1))
    total2 = sum(normal_cdf((4 * k + 3) * z / sqrt_n)
                 - normal_cdf((4 * k + 1) * z / sqrt_n)
                 for k in range(floor((-n / z - 3) / 4), hi + 1))
    return z, 1.0 - total1 + total2, {"n": n, "mode": mode, "max_excursion": z}


def spectral_reference(bits):
    """Spectral test from one rfft over the whole +-1 sequence.

    An odd trailing bit is dropped. Returns (statistic, p_value, params)
    as fft_test reports them.
    """
    arr = np.asarray(bits, dtype=np.uint8)
    truncated = arr.size % 2
    n = arr.size - truncated
    x = arr[:n].astype(np.float64) * 2.0 - 1.0
    moduli = np.abs(np.fft.rfft(x)[: n // 2])
    threshold = sqrt(n * log(1.0 / 0.05))
    n_expected = 0.95 * n / 2.0
    n_below = int(np.count_nonzero(moduli < threshold))
    d = (n_below - n_expected) / sqrt(n * 0.95 * 0.05 / 4.0)
    params = {"n": n, "threshold": threshold, "below_threshold": n_below,
              "expected_below": n_expected}
    if truncated:
        params["truncated_bits"] = 1
    return d, erfc(abs(d) / sqrt(2.0)), params
