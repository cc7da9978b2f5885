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

from array import array
from itertools import repeat
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

    __slots__ = ("x", "mu")

    def __init__(self, seed: int, mu: int):
        self.x = _check_word(seed)
        self.mu = _check_mu(mu)

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
        out = [x for x in (self.x,) for mu in (self.mu,) for gf in ((256 - mu) << 23,)
               for _ in repeat(None, n) for x in [((x & 0x7FFFFFFF) * mu >> 7) + gf]]
        if out:
            self.x = out[-1]
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


# Words per block of cycle_blocks, for analysis.cycle_length and the
# keystream's recorded orbits, which take it from here alone. A closure
# steps less than two blocks past tail + period, so a smaller block
# oversteps less; it costs one mark and one set() per block.
CYCLE_BLOCK = 4096


def cycle_blocks(x: int, mu: int, max_steps: int, words: array):
    """Tail and minimal period of the orbit from x, in a single pass, and
    the number of steps taken, block by block: a generator that yields
    None after every block that does not close the orbit and then, as its
    last item, (tail, period, steps).

    Let x_0 = x and x_i be the state i steps on. The orbit is stepped
    with BernoulliGenerator.iterate in blocks of CYCLE_BLOCK words, and the
    state at each block start is kept as a mark. The first word x_e that
    equals a mark or an earlier word of its own block closes the search:
    its earlier occurrence x_o lies on the cycle and recurs for the first
    time at e, so the minimal period is e - o. The last mark s before o
    is off the cycle, or it would have recurred before e; so the tail is
    the first t in (s, o] with x_t == x_{t + period}.

    Each block of words x_1, x_2, ... is appended to `words`, an
    array('I'), before the generator yields, and the tail is placed from
    those: memory grows by 4 bytes a step.

    Every map evaluation counts against `max_steps`, so steps <=
    max_steps, and steps exceeds tail + period by less than two blocks.
    When the budget runs out first, tail and period are None.
    """
    gen = BernoulliGenerator(x, mu)
    marks, steps = {gen.x: 0}, 0
    while steps < max_steps:
        base = steps  # chunk holds x_{base+1} .. x_{steps}
        chunk = gen.iterate(min(CYCLE_BLOCK, max_steps - steps))
        steps += len(chunk)
        words.fromlist(chunk)
        if len(seen := set(chunk)) == len(chunk) and marks.keys().isdisjoint(seen):
            marks[chunk[-1]] = steps
            del chunk, seen  # a paused search keeps no block
            yield None
            continue
        first = {}
        for e, w in enumerate(chunk, base + 1):
            o = marks.get(w, first.get(w))
            if o is not None:
                break
            first[w] = e
        period, tail = e - o, 0
        if o:
            s = (o - 1) // CYCLE_BLOCK * CYCLE_BLOCK
            # words[i] is x_{i+1}
            pairs = zip(words[s:o], words[s + period:e])
            tail = s + 1 + next(i for i, (a, b) in enumerate(pairs) if a == b)
        yield tail, period, steps
        return
    yield None, None, steps
