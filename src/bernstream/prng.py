"""Fixed-point Bernoulli-map generator core.

State words are 32-bit unsigned integers read as binary fractions
value/2**32 in [0, 1). One step doubles the word modulo 2**32 (the
chaotic shift-out of the top bit), scales the result by an 8-bit
feedback factor mu/256 keeping only the top 32 of the 40 product bits,
and adds a constant offset that re-centers the orbit inside the word
range. The arithmetic mirrors a hardware datapath: 33-bit overflow
discarded after the doubler, 8 low product bits dropped after the
multiplier.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from itertools import repeat
from math import isqrt
from operator import index

WORD_BITS = 32
WORD_MASK = (1 << WORD_BITS) - 1
MU_MAX = 255


# The checks return Python ints, so a numpy integer cannot overflow in a step.
def _check_word(x: int, name: str = "state word") -> int:
    x = index(x)
    if not 0 <= x <= WORD_MASK:
        raise ValueError(f"{name} out of range [0, 2**32): {x!r}")
    return x


def _check_mu(mu: int, name: str = "feedback factor") -> int:
    mu = index(mu)
    if not 0 <= mu <= MU_MAX:
        raise ValueError(f"{name} out of range [0, 255]: {mu!r}")
    return mu


def generalization_factor(mu: int) -> int:
    """Constant offset added every step: 2**23 * (256 - mu).

    This is the fixed-point form of 2**32 * (1 - mu/256) / 2, which pins
    the bottom of the reachable band; the orbit can never fall below it.
    """
    return (256 - _check_mu(mu)) << 23


def step(x: int, mu: int) -> int:
    """Advance one map step, bit-exact to the 32-bit datapath.

    t = (2*x) mod 2**32, p = t * mu (exact 40-bit product), result =
    floor(p / 256) + generalization_factor(mu), computed as iterate does,
    with (x mod 2**31) * mu >> 7 for p >> 8. Always fits in 32 bits.
    """
    x, mu = _check_word(x), _check_mu(mu)
    return ((x & 0x7FFFFFFF) * mu >> 7) + ((256 - mu) << 23)


def max_step_value(mu: int) -> int:
    """Largest value step(x, mu) can take over all x.

    The doubler output is even and at most 2**32 - 2, so the band is
    [generalization_factor(mu), generalization_factor(mu) + (2**32-2)*mu//256].
    """
    return generalization_factor(mu) + ((1 << WORD_BITS) - 2) * _check_mu(mu) // 256


class BernoulliGenerator:
    """One generator: a state register and its feedback factor.

    The seed itself is never emitted -- the register captures adder
    outputs only, so the output sequence begins at step(seed).

    Instances are sequential state machines: never step one instance
    from two threads. Distinct instances are fully independent.
    """

    __slots__ = ("_x", "_mu")

    def __init__(self, seed: int, mu: int):
        self.x, self.mu = seed, mu

    # Assignments are checked as the constructor's arguments are, so the
    # slots hold Python ints in range and iterate reads them unchecked.
    @property
    def x(self) -> int:
        """The state register: the seed, then the last word output."""
        return self._x

    @x.setter
    def x(self, seed: int) -> None:
        self._x = _check_word(seed)

    @property
    def mu(self) -> int:
        """The feedback factor."""
        return self._mu

    @mu.setter
    def mu(self, mu: int) -> None:
        self._mu = _check_mu(mu)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(x={self.x:#010x}, mu={self.mu})"

    def iterate(self, n: int) -> list[int]:
        """Return the next n output words: step() applied n times from x.

        n = 0 returns an empty list and leaves the generator untouched.
        """
        if n < 0:
            raise ValueError(f"word count must be >= 0: {n!r}")
        # (2x mod 2**32)*mu >> 8 == (x mod 2**31)*mu >> 7; one op fewer per
        # step. This is the step of every orbit path: keystream reads, cycle
        # searches, coverage. It is one list comprehension, so each word is
        # appended, not stored by index into a preallocated list. Binding x,
        # mu and gf with `for v in (e,)` inside it, not before it, makes them
        # its own fast locals: before 3.12 a comprehension is a nested
        # function, and the method's names would be closure cells there.
        # `for x in [e]` compiles to a plain store (3.9+), so each step reads
        # the x the step before stored. Against an indexed for-loop, a
        # 4096-word call took 0.83-0.90x the time on CPython 3.10-3.13; calls
        # of 64 words or fewer took 0.95-1.14x.
        out = [x for x in (self._x,) for mu in (self._mu,) for gf in ((256 - mu) << 23,)
               for _ in repeat(None, n) for x in [((x & 0x7FFFFFFF) * mu >> 7) + gf]]
        if out:
            self._x = out[-1]
        return out


def step_lanes(x, mu):
    """Step x, a numpy uint64 array of state words, in place, one orbit
    per lane, and yield x after each step; mu is a uint64 array of x's
    shape. Inputs are not checked.

    The step is iterate's; its product fits in 39 bits. In-place
    operators keep numpy out of prng's imports, and their operands are
    arrays built from x, which cost numpy less per call than scalars.
    """
    low31, seven = x & 0 | 0x7FFFFFFF, x & 0 | 7
    gf = (256 - mu) << 23
    while True:
        x &= low31
        x *= mu
        x >>= seven
        x += gf
        yield x


# Steps per unpacking of iterate_lanes: its scratch is this many steps of
# every lane.
_LANE_BATCH = 64


def iterate_lanes(starts, mu: int, n: int, out: array, at) -> None:
    """Step each word of starts n times under mu, and store the n words
    after starts[i] in out[at[i]:at[i] + n], lane by lane. out is an
    array('I') that already holds those indices. Inputs are not checked.

    The lanes are the 64-bit slots of one Python int, packed and unpacked
    in native byte order, and all are stepped at once by iterate's step,
    masked per slot: x = (((x & low31) * mu >> 7) & low39) + gf. A
    slot's product stays below 2**39, so it carries into no other slot;
    the mask drops the bits that >> 7 shifts in from the slot above, and
    the sum stays below 2**32. Words are unpacked _LANE_BATCH steps at a
    time, and each lane's are written to out by one slice assignment.
    """
    order, lanes = sys.byteorder, len(starts)
    ones = int.from_bytes(array("Q", [1]) * lanes, order)
    low31, low39, gf = 0x7FFFFFFF * ones, ((1 << 39) - 1) * ones, ((256 - mu) << 23) * ones
    x, size = int.from_bytes(array("Q", starts), order), 8 * lanes
    low = order == "big"  # the index of a slot's low half among its two words
    for done in range(0, n, _LANE_BATCH):
        k, words = min(_LANE_BATCH, n - done), array("I")
        for _ in range(k):
            x = (((x & low31) * mu >> 7) & low39) + gf
            words.frombytes(x.to_bytes(size, order))
        # lane i's word after step j of the batch is words[2 * (j * lanes + i) + low]
        for i, a in enumerate(at):
            out[a + done:a + done + k] = words[2 * i + low::2 * lanes]


# Words per block of cycle_blocks, for analysis.cycle_length and the
# keystream's recorded orbits, which take it from here alone. A closure
# steps less than CYCLE_BLOCK + 2 * isqrt(CYCLE_BLOCK) words past tail +
# period, and less than CYCLE_BLOCK + isqrt(CYCLE_BLOCK) when
# isqrt(CYCLE_BLOCK) divides CYCLE_BLOCK, as 64 divides 4096. The margin of
# keystream.key_period, and so every key generate_key returns, relies on
# that condition. A smaller block oversteps less; each block costs about
# 2 * isqrt(CYCLE_BLOCK) set operations beside its steps.
CYCLE_BLOCK = 4096


def cycle_blocks(x: int, mu: int, max_steps: int, words: array):
    """Tail and minimal period of the orbit from x, in a single pass, and
    the number of steps taken, block by block: a generator that yields
    None after every block that does not close the orbit and then, as its
    last item, (tail, period, steps).

    Let x_0 = x and x_i be the state i steps on. The orbit is stepped
    with BernoulliGenerator.iterate in blocks of CYCLE_BLOCK words. Let
    S = isqrt(CYCLE_BLOCK). x_0 and every x_i with S | i are marks, whose
    words are kept in one set. A block ending at step E tests its window,
    its last S words x_{E-S+1} .. x_E (all of it if the budget cut it
    shorter), against the marks before the window, and only then adds the
    window's own mark. The first window word x_p that is a mark's word
    closes the search. Let x_q be the first mark with that word, found
    among the kept words: x_q recurs at p > q, so it lies on the cycle and
    the period divides p - q. The minimal period is the least divisor t
    of p - q with x_{q+t} == x_q, found by trial division.

    A full window, ending at E, hits if period >= S and E >= tail +
    period + S - 1: it holds one p with p % S == period % S, whose mark
    p - period >= tail lies before the window. It hits if period < S and
    the last mark before the window, above E - 2S, is on the cycle: that
    mark recurs every period < S steps, so once in the window. Both hold
    once E >= tail + period + 2S - 1, so steps < tail + period +
    CYCLE_BLOCK + 2S. When S divides CYCLE_BLOCK (as 64 divides 4096), a
    short period hits by the first block end S past the first mark m >=
    tail, so at most at m + CYCLE_BLOCK, and in both cases steps < tail +
    period + CYCLE_BLOCK + S. x_t == x_{t+period} is false for t < tail
    and true from the tail on, and tail <= q, so the tail is found by
    bisection over t in [0, q], in O(log q) reads of the kept words.

    Each block of words x_1, x_2, ... is appended to `words`, an
    array('I') that starts empty, before the generator yields, and the
    period and tail are placed from those: memory grows by 4 bytes a
    step, plus one mark's word per S steps.

    Every map evaluation counts against `max_steps`, so steps <=
    max_steps. When the budget runs out first, tail and period are None.
    """
    gen = BernoulliGenerator(x, mu)
    x, marks, steps = gen.x, {gen.x}, 0
    S = isqrt(CYCLE_BLOCK)
    while steps < max_steps:
        first = -(steps + 1) % S  # chunk[first] is the block's first mark
        chunk = gen.iterate(min(CYCLE_BLOCK, max_steps - steps))
        steps += len(chunk)
        words.fromlist(chunk)
        cut = max(len(chunk) - S, 0)  # the window is chunk[cut:]
        marks.update(chunk[first:cut:S])
        window = chunk[cut:]
        if marks.isdisjoint(window):
            marks.update(window[(first - cut) % S::S])
            del chunk, window  # a paused search keeps no block
            yield None
            continue
        # the hit x_p = w, and x_q the first mark with word w; words[i] is x_{i+1}
        w = next(w for w in window if w in marks)
        q = 0 if w == x else S * (words[S - 1::S].index(w) + 1)
        d = steps - len(window) + 1 + window.index(w) - q  # p - q
        small = [t for t in range(1, isqrt(d) + 1) if d % t == 0]
        period = next(t for t in small + [d // t for t in reversed(small)]
                      if words[q + t - 1] == w)
        tail = bisect_left(range(q), True,
                           key=lambda t: (words[t - 1] if t else x) == words[t + period - 1])
        yield tail, period, steps
        return
    yield None, None, steps
