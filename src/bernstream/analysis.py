"""Orbit diagnostics: bifurcation data, byte-section coverage, cycle lengths.

A bifurcation scan samples the asymptotic orbit per feedback factor into
one uint8 array, so the banded most-significant section and the
space-filling lower sections can be plotted, measured or written as CSV.
Cycle detection quantifies the finite-precision degradation: every orbit
on the 32-bit state space is eventually periodic, usually with a short
tail and period.
"""

from __future__ import annotations

from typing import NamedTuple

# CYCLE_BLOCK is also the block in which coverage() steps its outputs with
# BernoulliGenerator.iterate, so memory stays flat.
from .prng import CYCLE_BLOCK, BernoulliGenerator, _check_mu, _check_word, find_cycle

DEFAULT_TRANSIENT = 1000
DEFAULT_SAMPLES = 200
DEFAULT_MAX_STEPS = 10_000_000

CSV_HEADER = "mu,section,value"


class CycleResult(NamedTuple):
    """Eventually-periodic structure of one orbit.

    When the step budget runs out before the cycle is confirmed, `tail`
    and `period` are None and `steps_examined` reports the work done;
    that is an outcome, not an error.
    """

    tail: int | None
    period: int | None
    steps_examined: int

    @property
    def found(self) -> bool:
        return self.period is not None


def _section_shift(section: int) -> int:
    if section not in (1, 2, 3, 4):
        raise ValueError(f"section must be 1..4 (1 = most significant): {section!r}")
    return 8 * (4 - section)


def byte_section(x: int, section: int) -> int:
    """Byte `section` of a 32-bit word; section 1 is the most significant."""
    return (x >> _section_shift(section)) & 0xFF


def bifurcation_scan(mu_min: int, mu_max: int, x0: int,
                     transient: int = DEFAULT_TRANSIENT,
                     samples: int = DEFAULT_SAMPLES,
                     section: int = 1):
    """Asymptotic byte-section samples for every mu in [mu_min, mu_max].

    Returns a C-contiguous uint8 numpy array of shape (mu_max - mu_min
    + 1, samples): row k is the orbit for mu_min + k, run afresh from x0,
    with `transient` outputs discarded and then byte `section` of the
    next `samples` outputs. Every orbit is stepped at once, as one vector
    of uint64 lanes, so the scan loads numpy. Identical parameters give
    identical arrays.
    """
    _check_mu(mu_min)
    _check_mu(mu_max)
    if mu_min > mu_max:
        raise ValueError(f"empty mu range: [{mu_min}, {mu_max}]")
    if transient < 0:
        raise ValueError(f"transient must be >= 0: {transient!r}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1: {samples!r}")
    shift = _section_shift(section)
    _check_word(x0)
    import numpy as np  # here, not at module level: `cycle` runs without numpy

    mus = range(mu_min, mu_max + 1)
    mu = np.array(mus, dtype=np.uint64)
    gf = (256 - mu) << 23
    x = np.full_like(mu, x0)
    # Array operands and a positional `out` cost numpy less per call than
    # scalars and keywords, and a call costs more here than 256 lanes of
    # arithmetic. Each sample's byte goes straight into row i of a uint8
    # array (the unsafe cast keeps the low byte), so only bytes are kept,
    # and the rows are transposed once at the end.
    low31, seven, to_byte = (np.full_like(mu, c) for c in (0x7FFFFFFF, 7, shift))
    rows = np.empty((samples, len(mus)), dtype=np.uint8)
    for i in range(-transient, samples):
        # BernoulliGenerator.iterate's step; the product fits in 39 bits
        np.bitwise_and(x, low31, x)
        np.multiply(x, mu, x)
        np.right_shift(x, seven, x)
        np.add(x, gf, x)
        if i >= 0:
            np.right_shift(x, to_byte, rows[i], casting="unsafe")
    return np.ascontiguousarray(rows.T)


def coverage(seed: int, mu: int, section: int, n: int) -> float:
    """Fraction of the 256 byte values the section visits in n outputs."""
    if n < 1:
        raise ValueError(f"need at least one output: {n!r}")
    shift = _section_shift(section)
    gen = BernoulliGenerator(seed, mu)
    seen = set()
    for done in range(0, n, CYCLE_BLOCK):
        seen.update((w >> shift) & 0xFF for w in gen.iterate(min(CYCLE_BLOCK, n - done)))
    return len(seen) / 256.0


def cycle_length(seed: int, mu: int,
                 max_steps: int = DEFAULT_MAX_STEPS) -> CycleResult:
    """Tail and minimal period of the orbit from `seed`, in a single pass.

    prng.find_cycle runs prng.cycle_blocks, the closure that the keystream's
    orbits also run, to the end. It keeps every state it steps, 4 bytes
    each in an array('I'), and a mark at each prng.CYCLE_BLOCK-word block
    start, and places the tail from those words. Every map evaluation
    counts against `max_steps`: whole blocks, the last one cut to the
    budget. So steps_examined <= max_steps, and it exceeds tail + period
    by less than two blocks. An out-of-range seed or mu raises
    ValueError, from the generator's first step.
    """
    if max_steps < 1:
        raise ValueError(f"step budget must be >= 1: {max_steps!r}")
    return CycleResult(*find_cycle(seed, mu, max_steps))


def write_bifurcation_csv(values, mu_min: int, section: int, stream) -> None:
    """Write a bifurcation_scan() array as CSV rows `mu,section,value`,
    decimal fields; row k of `values` holds the samples for mu_min + k.
    """
    digits = [f"{v}\n" for v in range(256)]
    stream.write(CSV_HEADER + "\n")
    # One row at a time: a whole-array tolist() would hold a pointer per sample.
    for mu, row in enumerate(values, mu_min):
        prefix = f"{mu},{section},"
        lines = [prefix + d for d in digits]
        stream.write("".join(map(lines.__getitem__, row.tolist())))
