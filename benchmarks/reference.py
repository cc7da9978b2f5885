"""Independent reference computations for the benchmark's output checks.

Nothing here imports bernstream. The map is restated in plain integer
arithmetic (`*`, `//`, `%` on Python ints), keystreams are built by
recording each orbit until a state repeats and then indexing it, and the
randomness battery's integer statistics are recomputed per byte from
lookup tables rather than per bit.
"""

from __future__ import annotations

import numpy as np

WORD = 2**32


def map_step(x: int, mu: int) -> int:
    """One step of the fixed-point map: (2x mod 2^32) * mu // 2^8 + 2^23 (256 - mu)."""
    return (2 * x % WORD) * mu // 256 + 2**23 * (256 - mu)


def orbit(seed: int, mu: int, limit: int) -> tuple[np.ndarray, int | None, int | None]:
    """States s_0 = seed, s_1, ... until one repeats or `limit` are held.

    Returns the recorded states and the orbit's tail and period, which
    are None when no state repeated within `limit` states.
    """
    index: dict[int, int] = {}
    states: list[int] = []
    x = seed
    offset = 2**23 * (256 - mu)
    while x not in index:
        if len(states) == limit:
            return np.array(states, dtype=np.uint32), None, None
        index[x] = len(states)
        states.append(x)
        x = (2 * x % WORD) * mu // 256 + offset
    tail = index[x]
    return np.array(states, dtype=np.uint32), tail, len(states) - tail


def output_words(seed: int, mu: int, n: int) -> np.ndarray:
    """Output words 1..n of one generator; the seed itself is never emitted."""
    states, tail, period = orbit(seed, mu, n + 1)
    i = np.arange(1, n + 1, dtype=np.int64)
    if period is not None:
        i = np.where(i < len(states), i, tail + (i - tail) % period)
    return states[i]


def key_fields(key_hex: str) -> tuple[int, int, int, int]:
    """(seed1, mu1, seed2, mu2) of a 20-hex-character key."""
    return (int(key_hex[0:8], 16), int(key_hex[8:10], 16),
            int(key_hex[10:18], 16), int(key_hex[18:20], 16))


def keystream(key_hex: str, n: int) -> bytes:
    """First n keystream bytes: XOR of all eight bytes of both generators' words."""
    if n == 0:
        return b""
    seed1, mu1, seed2, mu2 = key_fields(key_hex)
    words = output_words(seed1, mu1, n) ^ output_words(seed2, mu2, n)
    return np.bitwise_xor.reduce(words.view(np.uint8).reshape(n, 4), axis=1).tobytes()


def xor(data: bytes, ks: bytes) -> bytes:
    return (np.frombuffer(data, dtype=np.uint8)
            ^ np.frombuffer(ks, dtype=np.uint8)).tobytes()


# Per-byte tables of the +-1 walk over a byte's bits, most significant first.
# _PREFIX[b, j] is the walk's position after j of b's bits.
_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).astype(np.int64)
_PREFIX = np.concatenate([np.zeros((256, 1), np.int64),
                          np.cumsum(2 * _BITS - 1, axis=1)], axis=1)
_TOTAL = _PREFIX[:, 8]
_AFTER_MAX, _AFTER_MIN = _PREFIX[:, 1:].max(axis=1), _PREFIX[:, 1:].min(axis=1)
_BEFORE_MAX, _BEFORE_MIN = _PREFIX[:, :8].max(axis=1), _PREFIX[:, :8].min(axis=1)
_INNER_CHANGES = (_BITS[:, 1:] != _BITS[:, :-1]).sum(axis=1)


def integer_statistics(data: bytes, block_size: int) -> dict:
    """The battery's integer statistics for `data`, read MSB first.

    partial_sum is S_n of the +-1 walk; max_excursion_forward is
    max_k |S_k| for k = 1..n; max_excursion_reverse is the same for the
    reversed sequence, max_k |S_n - S_k| for k = 0..n-1.
    """
    b = np.frombuffer(data, dtype=np.uint8)
    n = 8 * b.size
    totals = _TOTAL[b]
    starts = np.cumsum(totals) - totals
    s_n = int(starts[-1] + totals[-1])
    forward = max(int(np.abs(starts + _AFTER_MAX[b]).max()),
                  int(np.abs(starts + _AFTER_MIN[b]).max()))
    reverse = max(s_n - int((starts + _BEFORE_MIN[b]).min()),
                  int((starts + _BEFORE_MAX[b]).max()) - s_n)
    runs = (1 + int(_INNER_CHANGES[b].sum())
            + int(np.count_nonzero((b[:-1] & 1) != (b[1:] >> 7))))
    ones = (s_n + n) // 2
    return {"n": n, "partial_sum": s_n, "blocks": n // block_size,
            "runs": runs, "runs_prerequisite": abs(ones / n - 0.5) < 2.0 / n ** 0.5,
            "max_excursion_forward": forward, "max_excursion_reverse": reverse}


def _prime_factors(n: int) -> set[int]:
    factors, p = set(), 2
    while p * p <= n:
        while n % p == 0:
            factors.add(p)
            n //= p
        p += 1
    if n > 1:
        factors.add(n)
    return factors


def is_minimal_cycle(seed: int, mu: int, tail: int, period: int) -> bool:
    """Replay the orbit: does it enter a cycle after exactly `tail` steps,
    with exactly `period` as the least period?"""
    if tail < 0 or period < 1:
        return False
    states = [seed]
    for _ in range(tail + period):
        states.append(map_step(states[-1], mu))
    if states[tail] != states[tail + period]:
        return False
    if tail > 0 and states[tail - 1] == states[tail - 1 + period]:
        return False
    # Every period of a cycle is a multiple of the least one.
    return all(states[tail] != states[tail + period // q]
               for q in _prime_factors(period))


def section_sample(x0: int, mu: int, section: int, index: int) -> int:
    """Byte `section` (1 = most significant) of output word `index` (1-based)."""
    x = x0
    for _ in range(index):
        x = map_step(x, mu)
    return x // 256 ** (4 - section) % 256
