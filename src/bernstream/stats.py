"""Randomness test battery: six bit-sequence tests with P-values.

Frequency, block frequency, runs, cumulative sums (forward and reverse)
and the spectral (FFT) test. Each returns a TestReport; a sequence
passes a test when its P-value is at least the 0.01 significance level.
Bits derive from bytes most-significant-bit first.
"""

from __future__ import annotations

import operator
import warnings
from math import erfc, floor, isqrt, log, sqrt
from typing import NamedTuple

import numpy as np

from .special import igamc, normal_cdf

ALPHA = 0.01
RECOMMENDED_MIN_BITS = 100
DEFAULT_BLOCK_SIZE = 128
MIN_SUITE_BYTES = 13
# bits per block of the cumulative-sums walk, and bits of candidate blocks
# walked at once (int32, so 1 MiB of scratch)
_WALK_CHUNK = 1 << 8
_WALK_BATCH = 1 << 18
# bytes of float64 or complex128 data per block of either FFT stage
_FFT_BLOCK_BYTES = 1 << 21
# bits per slice in which the runs test compares neighbours
_RUNS_SLICE = 1 << 16


class TestReport(NamedTuple):
    """Outcome of one randomness test."""

    test: str
    statistic: float
    p_value: float
    passed: bool
    params: dict

    def to_json_dict(self) -> dict:
        return {"test": self.test, "statistic": self.statistic,
                "p_value": self.p_value, "pass": self.passed,
                "params": self.params}


def _report(test: str, statistic: float, p_value: float, params: dict) -> TestReport:
    p = min(max(float(p_value), 0.0), 1.0)
    return TestReport(test=test, statistic=float(statistic), p_value=p,
                      passed=p >= ALPHA, params=params)


def _refuse_int(data) -> None:
    """Raise TypeError for an integer, which bytes() and numpy would take
    as a length or a 0-d array rather than as data."""
    try:
        operator.index(data)
    except TypeError:
        return
    raise TypeError(f"expected a sequence, got {type(data).__name__} {data!r}")


def as_bits(bits) -> np.ndarray:
    """Coerce a 0/1 sequence (or a '0101...' string) to a uint8 array."""
    _refuse_int(bits)
    if isinstance(bits, str):
        bits = [int(c) for c in bits]
    arr = np.asarray(bits)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("bit sequence must be one-dimensional and non-empty")
    # checked before the cast, which would wrap 256 to 0 and truncate 0.5 to 0
    stray = arr.max() > 1 if arr.dtype == np.uint8 else not np.all((arr == 0) | (arr == 1))
    if stray:
        raise ValueError("bit sequence may contain only 0 and 1")
    return arr.astype(np.uint8, copy=False)


def bits_from_bytes(data) -> np.ndarray:
    """Expand bytes into bits, most significant bit of each byte first."""
    _refuse_int(data)
    buf = bytes(data)
    if not buf:
        raise ValueError("cannot derive bits from empty input")
    return np.unpackbits(np.frombuffer(buf, dtype=np.uint8))


def _block_ones(arr: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The full blocks of size bits as rows, and the ones in each row.

    Counts are exact in the smallest unsigned type that holds size.
    """
    rows = arr[:arr.size // size * size].reshape(-1, size)
    return rows, rows.sum(axis=1, dtype=np.min_scalar_type(size))


def _warn_short(n: int, test: str) -> None:
    if n < RECOMMENDED_MIN_BITS:
        warnings.warn(
            f"{test}: sequence of {n} bits is below the recommended "
            f"{RECOMMENDED_MIN_BITS}; result is indicative only",
            stacklevel=3)


def frequency_test(bits) -> TestReport:
    """Monobit balance: P = erfc(|sum(2e-1)| / sqrt(2n))."""
    arr = as_bits(bits)
    n = arr.size
    _warn_short(n, "frequency")
    s_n = 2 * int(np.count_nonzero(arr)) - n
    s_obs = abs(s_n) / sqrt(n)
    p = erfc(s_obs / sqrt(2.0))
    return _report("frequency", s_obs, p, {"n": n, "partial_sum": s_n})


def block_frequency_test(bits, block_size: int = DEFAULT_BLOCK_SIZE) -> TestReport:
    """Per-block balance: chi2 = 4M * sum((pi_i - 1/2)^2), P = igamc(N/2, chi2/2).

    Uses N = floor(n / block_size) full blocks; the trailing remainder is
    discarded.
    """
    arr = as_bits(bits)
    n = arr.size
    if block_size < 1:
        raise ValueError(f"block size must be >= 1: {block_size!r}")
    if block_size > n:
        raise ValueError(
            f"block size {block_size} exceeds sequence length {n}")
    n_blocks = n // block_size
    pis = _block_ones(arr, block_size)[1] / block_size
    chi2 = 4.0 * block_size * float(np.sum((pis - 0.5) ** 2))
    p = igamc(n_blocks / 2.0, chi2 / 2.0)
    return _report("block_frequency", chi2, p,
                   {"n": n, "block_size": block_size, "blocks": n_blocks})


def runs_test(bits) -> TestReport:
    """Oscillation rate: count of maximal runs against its expectation.

    Prerequisite |pi - 1/2| < 2/sqrt(n) must hold, otherwise the monobit
    failure dominates and P is reported as 0 with the reason recorded.
    """
    arr = as_bits(bits)
    n = arr.size
    _warn_short(n, "runs")
    pi = int(np.count_nonzero(arr)) / n
    if abs(pi - 0.5) >= 2.0 / sqrt(n):
        return _report("runs", 0.0, 0.0,
                       {"n": n, "proportion": pi,
                        "prerequisite": "failed: |pi - 1/2| >= 2/sqrt(n)"})
    # transitions between neighbours, counted slice by slice in one buffer
    v_obs = 1
    buf = np.empty(min(n - 1, _RUNS_SLICE), dtype=bool)
    for a in range(0, n - 1, _RUNS_SLICE):
        b = min(a + _RUNS_SLICE, n - 1)
        np.not_equal(arr[a + 1:b + 1], arr[a:b], out=buf[:b - a])
        v_obs += int(np.count_nonzero(buf[:b - a]))
    denom = 2.0 * sqrt(2.0 * n) * pi * (1.0 - pi)
    if denom == 0.0:
        # constant sequence short enough to slip past the prerequisite
        return _report("runs", float(v_obs), 0.0,
                       {"n": n, "proportion": pi,
                        "prerequisite": "failed: constant sequence"})
    p = erfc(abs(v_obs - 2.0 * n * pi * (1.0 - pi)) / denom)
    return _report("runs", v_obs, p, {"n": n, "proportion": pi, "runs": v_obs})


def _walk(arr: np.ndarray) -> tuple[int, int, int]:
    """S_n, max S_k and min S_k of the +-1 walk S_k over k = 0..n, S_0 = 0.

    The ones in each block of _WALK_CHUNK bits give S at every block
    start; the ragged last block is walked whole. A block that starts at
    S and holds c ones among L bits keeps the walk within
    [S - (L - c), S + c], so only a block whose bound passes the extremes
    of those known values can hold a new extreme. Those candidates alone
    are walked bit by bit, _WALK_BATCH bits at a time, each as a row from
    its own start S: a row's walk is int32 and starts at 0, and S is
    int64, so no sum can overflow however long arr is.
    """
    size = _WALK_CHUNK
    rows, ones = _block_ones(arr, size)
    starts = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(2 * ones.astype(np.int64) - size, out=starts[1:])
    tail = arr[rows.size:]
    tail_walk = 2 * np.cumsum(tail, dtype=np.int64) - np.arange(1, tail.size + 1)
    known = np.concatenate((starts, starts[-1] + tail_walk))
    total, top, bottom = int(known[-1]), int(known.max()), int(known.min())
    starts = starts[:-1]
    high = starts + ones
    candidates = np.flatnonzero((high > top) | (high - size < bottom))
    batch = max(1, _WALK_BATCH // size)
    buf = np.empty((min(batch, candidates.size), size), dtype=np.int32)
    for i in range(0, candidates.size, batch):
        blocks = candidates[i:i + batch]
        np.multiply(rows[blocks], 2, out=buf[:blocks.size], dtype=np.int32)
        walk = buf[:blocks.size]
        walk -= 1
        np.cumsum(walk, axis=1, out=walk)
        top = max(top, int((walk.max(axis=1) + starts[blocks]).max()))
        bottom = min(bottom, int((walk.min(axis=1) + starts[blocks]).min()))
    return total, top, bottom


class _Walk(NamedTuple):
    """The cumulative-sums walk of n bits: S_n, max S_k and min S_k."""

    n: int
    total: int
    top: int
    bottom: int


def cusum_test(bits, mode: str = "forward") -> TestReport:
    """Maximal excursion of the +-1 partial-sum walk.

    z = max_k |S_k|; in reverse mode the sequence is reversed first. The
    reversed walk's partial sums are S_n - S_j (j = 0..n-1, S_0 = 0), so
    both modes come from one walk (see _walk) that keeps S_n and the
    largest and smallest S_k, S_0 included: forward z = max(max S,
    -min S), reverse z = max(S_n - min S, max S - S_n). Its scratch is a
    few numbers per block of _WALK_CHUNK bits and one batch of blocks
    walked bit by bit. run_suite walks its bits once and passes the _Walk
    as `bits` for both modes.
    """
    if mode not in ("forward", "reverse"):
        raise ValueError(f"mode must be 'forward' or 'reverse': {mode!r}")
    if isinstance(bits, _Walk):
        walk = bits
    else:
        arr = as_bits(bits)
        _warn_short(arr.size, "cumulative sums")
        walk = _Walk(arr.size, *_walk(arr))
    n, total, top, bottom = walk
    if mode == "forward":
        z = max(top, -bottom)
    else:
        z = max(total - bottom, top - total)
    return _cusum_report(n, z, mode)


def _cusum_report(n: int, z: int, mode: str) -> TestReport:
    """The cumulative-sums report for maximal excursion z over n bits.

    The P-value is the two standard-normal-CDF sums over
    k in [floor((-n/z+1)/4), floor((n/z-1)/4)] and
    k in [floor((-n/z-3)/4), floor((n/z-1)/4)].
    """
    sqrt_n = sqrt(n)
    hi = floor((n / z - 1) / 4)
    total1 = sum(normal_cdf((4 * k + 1) * z / sqrt_n)
                 - normal_cdf((4 * k - 1) * z / sqrt_n)
                 for k in range(floor((-n / z + 1) / 4), hi + 1))
    total2 = sum(normal_cdf((4 * k + 3) * z / sqrt_n)
                 - normal_cdf((4 * k + 1) * z / sqrt_n)
                 for k in range(floor((-n / z - 3) / 4), hi + 1))
    p = 1.0 - total1 + total2
    return _report(f"cumulative_sums_{mode}", z, p,
                   {"n": n, "mode": mode, "max_excursion": z})


def _split(n: int) -> tuple[int, int]:
    """n = n1 * n2, n1 the largest divisor of n not above sqrt(2n); if 8
    divides n, the largest such multiple of 8, or 8, so rows are bytes.

    Stage 1 transforms columns of length n2 and stage 2 rows of length
    n1. Columns about half as long as rows fit twice as many into each
    stage-1 block, so its transposed stores write runs twice as long:
    2^25 splits as (8192, 4096), 64 columns and 1 KiB runs per 2 MiB.
    """
    step = 8 if n % 8 == 0 else 1
    n1 = max(step, isqrt(2 * n) // step * step)
    while n % n1:
        n1 -= step
    return n1, n // n1


def _row_span(k2: int, n1: int, n2: int) -> int:
    """How many leading entries k1 of spectrum row k2 the spectral test counts.

    Row k2 (0 <= k2 <= n2 // 2) holds X[k] for k = k2 + n2 * k1. Entry k
    counts when 2k < n, or when 2k > n and 0 < 2 * k2 < n2, where it stands
    for its mirror |X[n - k]|; the rows above n2 // 2 are never computed.
    So every k < n/2 counts once: all of an inner row, the k1 < n1/2 of
    row 0, and the k1 < (n1 - 1)/2 of row n2/2 when n2 is even.
    """
    if k2 == 0:
        return (n1 + 1) // 2
    if 2 * k2 == n2:
        return n1 // 2
    return n1


def _twiddle(exponents: np.ndarray, n: int) -> np.ndarray:
    """W_n ** e = exp(-2 pi i e / n); the spectral test's e stay below n/2."""
    return np.exp(-2j * np.pi / n * exponents)


def _twiddle_row(p: int, n1: int, n: int) -> np.ndarray:
    """W_n ** (p * j1) for j1 = 0..n1-1, from two tables of about sqrt(n1).

    With j1 = lo * u + v and 0 <= v < lo, the row is the outer product of
    W_n ** (p * lo * u) and W_n ** (p * v), read in order; its exponents
    stay below p * n1.
    """
    lo = isqrt(n1)
    high = _twiddle(p * lo * np.arange(-(-n1 // lo)), n)
    return np.multiply.outer(high, _twiddle(p * np.arange(lo), n)).reshape(-1)[:n1]


def _column_blocks(grid: np.ndarray, n1: int, width: int):
    """Yield (a, cols) for a = 0, width, 2 * width, ...: cols is the
    (n2, w) 0/1 block of the packed grid's columns a..a+w-1, unpacked."""
    for a in range(0, n1, width):
        w = min(width, n1 - a)
        yield a, np.unpackbits(grid[:, a // 8:(a + w + 7) // 8], axis=1, count=w)


def _even_rows(grid: np.ndarray, rows: np.ndarray, n2: int, width: int) -> None:
    """Fill rows with the column spectra's rows k2 = 2k, Y[2k] = rfft_L(u
    + v)[k] for u and v a column's halves, when n2 = 2L is even; with
    every row, from real FFTs of length n2, when n2 is odd."""
    n1 = rows.shape[1]
    size = n2 // (2 - n2 % 2)
    x = np.empty((min(width, n1), size))
    for a, cols in _column_blocks(grid, n1, width):
        w = cols.shape[1]
        # unpacked rows are contiguous, so the transpose reads from cache
        x[:w] = (cols[:size] + cols[size:] if size < n2 else cols).T
        rows[:, a:a + w] = np.fft.rfft(x[:w], axis=1).T


def _odd_rows(grid: np.ndarray, rows: np.ndarray, n2: int, width: int) -> None:
    """Fill rows with the column spectra's rows k2 = 2k + 1, n2 = 2L even.

    With d = u - v, u and v a column's halves, Y[2k + 1] =
    FFT_L(d * W_n2 ** j2)[k] = O[k], and d being real gives
    O[L - 1 - k] = conj(O[k]). So one complex FFT serves two columns c and
    c': with Z = FFT_L((d_c + i d_c') * W_n2 ** j2 / 2) and
    Z~[k] = conj(Z[L - 1 - k]), Z + Z~ = O_c and i (Z~ - Z) = O_c'; the
    halving and the factor i are exact. A block's first ceil(w/2) columns
    pair with its last w//2, and an odd last one with zero.
    """
    (count, n1), size = rows.shape, n2 // 2
    shift = _twiddle(np.arange(size), n2) / 2
    pairs = (min(width, n1) + 1) // 2
    # reused by every block: fresh temporaries of these sizes made the heap
    # shrink and grow back each block, faulting its pages in again
    z = np.empty((pairs, size), dtype=np.complex128)
    total, mirror = np.empty((2, pairs, count), dtype=np.complex128)
    for a, cols in _column_blocks(grid, n1, width):
        w = cols.shape[1]
        h = (w + 1) // 2
        # int8 differences of contiguous unpacked rows, read transposed
        d = (cols[:size].view(np.int8) - cols[size:].view(np.int8)).T
        z[:h].real = d[:h]
        z[:w - h].imag = d[h:]
        z[w - h:h].imag = 0
        z[:h] *= shift
        big = np.fft.fft(z[:h], axis=1)
        top = big[:, :count]
        np.conjugate(big[:, ::-1][:, :count], out=mirror[:h])
        np.add(top, mirror[:h], out=total[:h])
        np.subtract(mirror[:h], top, out=mirror[:h])
        mirror[:w - h] *= 1j
        rows[:, a:a + h] = total[:h].T
        rows[:, a + h:a + w] = mirror[:w - h].T


def _count_rows(rows: np.ndarray, n: int, n2: int, parity: int, limit: float) -> int:
    """Stage 2 of one pass: multiply row q, spectrum row k2 = step * q +
    parity, by W_n ** (j1 * k2), transform it along its length n1, and
    count the entries below limit that _row_span keeps.

    Rows run in blocks of about _FFT_BLOCK_BYTES, each twiddled by one
    table of W_n ** (step * r * j1) and one row from _twiddle_row.
    """
    count, n1 = rows.shape
    step = 2 - n2 % 2
    height = max(1, min(count, _FFT_BLOCK_BYTES // (16 * n1)))
    table = _twiddle(step * np.arange(height)[:, None] * np.arange(n1), n)
    below = 0
    for p in range(0, count, height):
        block = rows[p:p + height]
        block *= table[:len(block)]
        if k2 := step * p + parity:
            block *= _twiddle_row(k2, n1, n)
        small = np.abs(np.fft.fft(block, axis=1)) < limit
        below += int(np.count_nonzero(small))
        for k2 in {0, n2 // 2}:
            q, off = divmod(k2 - parity, step)
            if not off and p <= q < p + len(block):
                below -= int(np.count_nonzero(small[q - p, _row_span(k2, n1, n2):]))
    return below


def _count_below(data, n: int, threshold: float) -> int:
    """Count k < n/2 with |X[k]| < threshold, X the DFT of the +-1 sequence
    of the first n bits of data: packed bytes, or a 0/1 array.

    The 0/1 bits are transformed as they are, with no +-1 pass. A four-step
    FFT (Bailey 1990): with n = n1 * n2 and the bits viewed as an (n2, n1)
    grid, FFTs of length n2 down the columns give the half spectrum rows
    Y[k2], k2 = 0..n2//2. Only row k2 = 0, each column's sum, differs for
    the +-1 sequence other than by a factor 2: subtracting n2/2 from it
    leaves exactly half of every +-1 column spectrum. Each row is then
    multiplied by W_n ** (j1 * k2) and transformed along its length n1,
    which gives X[k2 + n2 * k1] / 2, counted against threshold / 2; halving
    both sides is exact.

    The rows are made and counted in passes through one buffer. When n2 is
    odd, one pass takes every row from real FFTs of the columns, 8 B per
    bit. When n2 = 2L is even, two passes of n2//4 + 1 rows, 4 B per bit,
    take the even rows, Y[2k] = rfft_L(u + v)[k] with u and v a column's
    first and second halves, and then the odd rows (see _odd_rows).

    Both stages run in blocks of about _FFT_BLOCK_BYTES. The grid is held
    packed, n2 rows of ceil(n1 / 8) bytes: a view of packed data (see
    _split), or a 0/1 array's rows packed afresh, 1/8 B per bit. Each pass
    unpacks each stage-1 block of columns, a multiple of 8 wide, once.
    """
    n1, n2 = _split(n)
    if isinstance(data, bytes):
        grid = np.frombuffer(data, dtype=np.uint8).reshape(n2, n1 // 8)
    else:
        grid = np.packbits(data[:n].reshape(n2, n1), axis=1)
    # pass `parity` holds the rows k2 = step * q + parity, q = 0, 1, ...
    step = 2 - n2 % 2
    buf = np.empty((n2 // 2 // step + 1, n1), dtype=np.complex128)
    width = max(8, _FFT_BLOCK_BYTES // (64 * n2) * 8)
    below = 0
    for parity in range(step):
        rows = buf[:(n2 // 2 - parity) // step + 1]
        if parity:
            _odd_rows(grid, rows, n2, width)
        else:
            _even_rows(grid, rows, n2, width)
            rows[0] -= n2 / 2
        below += _count_rows(rows, n, n2, parity, threshold / 2)
    return below


def fft_test(bits) -> TestReport:
    """Spectral peak count against the 95% threshold T = sqrt(n*ln(1/0.05)).

    Counts the moduli of the first n/2 Fourier coefficients of the +-1
    sequence that fall below T; an odd trailing bit is truncated and
    recorded; params["threshold"] is T. A bytes object is read as its bits,
    most significant first, as bits_from_bytes gives them, without
    expanding them to a byte per bit; any other input is a 0/1 sequence.
    The transform is a blocked four-step FFT of the packed bits (see
    _count_below) that never holds a float copy of the whole sequence: its
    peak beside the input is one pass's spectrum rows, 4 B per bit when
    the column length n2 is even and 8 B when it is odd, plus a few blocks
    of _FFT_BLOCK_BYTES and a packed copy of a 0/1 array's bits; where
    n1 = 8, as for 8 times a prime, stage 1's block is 16 B per bit.
    """
    if isinstance(bits, bytes):
        data, truncated, n = bits, 0, 8 * len(bits)
    else:
        data = as_bits(bits)
        truncated = data.size % 2
        n = data.size - truncated
    if n == 0:
        raise ValueError("need at least 2 bits for the spectral test")
    _warn_short(n, "fft")
    threshold = sqrt(n * log(1.0 / 0.05))
    n_expected = 0.95 * n / 2.0
    n_below = _count_below(data, n, threshold)
    d = (n_below - n_expected) / sqrt(n * 0.95 * 0.05 / 4.0)
    p = erfc(abs(d) / sqrt(2.0))
    params = {"n": n, "threshold": threshold, "below_threshold": n_below,
              "expected_below": n_expected}
    if truncated:
        params["truncated_bits"] = 1
    return _report("fft", d, p, params)


def run_suite(data, block_size: int = DEFAULT_BLOCK_SIZE) -> list[TestReport]:
    """Run all six tests on a byte sequence, in fixed order.

    Requires at least 13 bytes (>= 104 bits); an integer is refused with
    TypeError rather than read as that many zero bytes. If the requested
    block size exceeds the bit length it is clamped so short samples stay
    testable. The spectral test runs first, on the packed bytes, and the
    one uint8 per bit that the other five tests read is built after it,
    so peak memory beside the input is the spectral test's rows and a few
    of its blocks: about 33 B per input byte (4 B per bit) when its column
    length n2 is even, as for 4 MiB, and 65 B (8 B per bit) when it is odd.
    Every other test works in place, in fixed-size slices or on counts
    per block of bits, and both cumulative-sums reports share one walk.
    """
    _refuse_int(data)
    buf = bytes(data)
    if len(buf) < MIN_SUITE_BYTES:
        raise ValueError(
            f"need at least {MIN_SUITE_BYTES} bytes, got {len(buf)}")
    spectral = fft_test(buf)
    bits = bits_from_bytes(buf)
    m = min(block_size, bits.size)
    # both modes read one walk; each report still comes from its own
    # cusum_test call, which benchmarks/tracing.py times by mode
    walk = _Walk(bits.size, *_walk(bits))
    return [
        frequency_test(bits),
        block_frequency_test(bits, m),
        runs_test(bits),
        cusum_test(walk, "forward"),
        cusum_test(walk, "reverse"),
        spectral,
    ]
