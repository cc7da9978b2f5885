"""Orbit diagnostics: bifurcation data, byte-section coverage, cycle lengths.

A bifurcation scan samples the asymptotic orbit per feedback factor into
one uint8 array, so the banded most-significant section and the
space-filling lower sections can be plotted, measured or written as CSV.
Cycle detection quantifies the finite-precision degradation: every orbit
on the 32-bit state space is eventually periodic, usually with a short
tail and period.
"""

from __future__ import annotations

from array import array
from operator import index
from typing import NamedTuple

# CYCLE_BLOCK is also the block in which coverage() steps its outputs with
# BernoulliGenerator.iterate, so memory stays flat.
from .prng import (CYCLE_BLOCK, BernoulliGenerator, _check_mu, _check_word, close_orbit,
                   step_lanes)

DEFAULT_TRANSIENT = 1000
DEFAULT_SAMPLES = 200
DEFAULT_MAX_STEPS = 10_000_000

CSV_HEADER = "mu,section,value"


class CycleResult(NamedTuple):
    """Eventually-periodic structure of one orbit.

    `steps_examined` counts the map steps taken, one by one and as lanes
    of a tabulated cycle. When the step budget runs out before the cycle
    is confirmed, `tail` and `period` are None and `steps_examined`
    reports the work done; that is an outcome, not an error.
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
    of uint64 lanes through prng.step_lanes, so the scan loads numpy.
    Identical parameters give identical arrays.
    """
    mu_min, mu_max = _check_mu(mu_min), _check_mu(mu_max)
    if mu_min > mu_max:
        raise ValueError(f"empty mu range: [{mu_min}, {mu_max}]")
    if transient < 0:
        raise ValueError(f"transient must be >= 0: {transient!r}")
    if samples < 1:
        raise ValueError(f"samples must be >= 1: {samples!r}")
    shift = _section_shift(section)
    x0 = _check_word(x0)
    import numpy as np  # here, not at module level: `cycle` runs without numpy

    mu = np.arange(mu_min, mu_max + 1, dtype=np.uint64)
    # Each sample's byte goes straight into row i of a uint8 array (the unsafe
    # cast keeps the low byte) by a call with an array operand and a positional
    # `out`, the cheapest form; the rows are transposed once at the end.
    to_byte = np.full_like(mu, shift)
    rows = np.empty((samples, len(mu)), dtype=np.uint8)
    for i, x in zip(range(-transient, samples), step_lanes(np.full_like(mu, x0), mu)):
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

    It runs prng.close_orbit, the closure that the keystream's orbits and
    key_period also run, to its last item. That steps the orbit in blocks
    of prng.CYCLE_BLOCK = 4,096 words and keeps every state, 4 bytes each
    in an array('I'), and there are two ways for it to close:
    - On the census table, bernstream._cycles, when the orbit reaches one
      of mu's tabulated cycles, as most orbits under mu 129..255 do. The
      period is the table's, and the tail is placed by bisection over the
      last block and M = 1,024 words, against that span of the cycle
      stepped as lanes from its marks. It takes less than tail + 3M +
      2 * CYCLE_BLOCK steps, whatever the period.
    - Off the table, by prng.cycle_blocks alone, which keeps one mark per
      64 steps and places the period and tail from the kept words. It
      takes at least tail + period steps and less than tail + period +
      CYCLE_BLOCK + 64.
    Every map evaluation, in the loop or in a lane, counts against
    `max_steps`, which is taken through operator.index before any step.
    So steps_examined <= max_steps, and a found orbit has tail + period
    <= max_steps either way. An out-of-range seed or mu raises ValueError,
    and a non-integer one TypeError, before any step.
    """
    max_steps = index(max_steps)
    if max_steps < 1:
        raise ValueError(f"step budget must be >= 1: {max_steps!r}")
    *_, (tail, period, steps, _) = close_orbit(seed, mu, max_steps, array("I"))
    return CycleResult(tail, period, steps)


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
