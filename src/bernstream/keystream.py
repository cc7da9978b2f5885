"""The two-generator keystream and its XOR fold.

Each 32-bit generator word is split into four byte sections (section 1
is the most significant). The keystream byte is the bitwise XOR of all
eight sections coming from two generators advanced in lockstep -- the
software equivalent of a 56-gate XOR array, 7 gates per output bit.

As in that datapath, nothing grows with the message: words are stepped
one by one and folded at most prng.CYCLE_BLOCK (4,096) at a time, a
tabulated cycle's lanes are unpacked 64 steps at a time, and a read's
output is built in windows of 64 KiB. What grows is each generator's
orbit record, up to its tail + period words (see _Orbit).
"""

from __future__ import annotations

from array import array
from math import isqrt, lcm
from operator import index
from typing import NamedTuple

from .prng import CYCLE_BLOCK, BernoulliGenerator, close_orbit, iterate_lanes


# read() steps both generators with iterate() until a read reaches
# TABLE_THRESHOLD bytes in all, and serves each generator from its orbit
# from then on. Below the threshold, recording costs more than it saves.
TABLE_THRESHOLD = 64 * 1024
# Most words an orbit steps to close, for read() and key_period alike. Strong
# orbits close within about 3e5 words; weak-mu orbits are not bounded in
# principle, so a read past one that has not closed by the cap raises: its
# keystream's period is unknown.
TABLE_CAP = 1 << 20
# Bytes per window of read(). Each window's keystream is one int; the words
# behind it are stepped and folded CYCLE_BLOCK words at a time, so no other
# scratch grows with the window.
_BLOCK = 1 << 16


def _fold(*arrays: array) -> bytes:
    """XOR of the four bytes of each word, one byte per word position.

    Each argument is an array('I'), all of one length; given two, byte i
    is the XOR of the eight bytes at position i of both.

    The arrays are read as little-endian big ints and XORed into one, m.
    After m ^= m >> 16 and m ^= m >> 8, byte 4i of m is the XOR of word
    i's four bytes. Bits that the shifts carry across a word boundary
    land only in bytes 4i + 1 .. 4i + 3, which [::4] drops, so no mask is
    needed; and the XOR of a word's bytes does not depend on their order
    in memory.

    XOR commutes, so fold(wa ^ wb) == fold(wa) ^ fold(wb): a stepped
    window folds both generators' words at once, and a recorded orbit is
    folded on its own and its slices XORed with the other orbit's.
    """
    m = 0
    for words in arrays:
        m ^= int.from_bytes(words, "little")
    m ^= m >> 16
    m ^= m >> 8
    return m.to_bytes(4 * len(words), "little")[::4]


class _Orbit:
    """A generator's orbit from state x under mu, stepped only as far as
    reads need.

    words[i] is the state i + 1 steps after x: prng.close_orbit appends
    them in CYCLE_BLOCK-word blocks, 4 bytes a step, and keeps one mark
    per isqrt(CYCLE_BLOCK) = 64 steps until the orbit closes. Each block
    is folded into seq as soon as it is appended, so len(seq) ==
    len(words) until then. Once a word repeats, both are cut to the
    orbit's tail + period distinct words, and seq gains the cycle's folds
    again over _BLOCK bytes: every window of read(), at most _BLOCK bytes,
    that starts at or before tail + period is one slice of seq, even for
    periods shorter than a window. An orbit records at most TABLE_CAP words.

    An orbit that close_orbit closes on a tabulated cycle of
    bernstream._cycles has stepped less than tail + M + CYCLE_BLOCK words
    one by one; the rest of its cycle is then stepped by
    prng.iterate_lanes from the cycle's marks, M words apart, and written
    straight into words. Those lanes step at most period + M - 1 words,
    some of them cycle words the loop already stepped.
    """

    __slots__ = ("words", "seq", "tail", "period", "pos", "x", "mu", "_blocks")

    def __init__(self, x: int, mu: int):
        self.words, self.seq = array("I"), bytearray()
        self.tail = self.period = None
        # words[pos] is the next word to serve, and x the state before it
        self.pos, self.x, self.mu = 0, x, mu
        self._blocks = close_orbit(x, mu, TABLE_CAP, self.words)

    def record(self, n: int) -> bool:
        """Step on until the orbit is closed or holds the next n words;
        False if it ran out at TABLE_CAP words first."""
        words, seq = self.words, self.seq
        while self.period is None and len(words) < self.pos + n:
            # (tail, period, steps, cycle) once it ends; a spent closure ran out
            done = next(self._blocks, (None, None, 0, None))
            if done:
                self._blocks.close()  # drops the closure's marks, last block and lanes
                tail, period, _, cycle = done
                if cycle:
                    self._lay_cycle(period, *cycle)
            with memoryview(words) as view:
                for start in range(len(seq), len(words), CYCLE_BLOCK):
                    seq += _fold(view[start:start + CYCLE_BLOCK])
            if done:
                if period is None:
                    return False
                # words[0] is one step after x, so the record's tail is one
                # word shorter than the orbit's, unless x lies on the cycle.
                self._close(max(tail - 1, 0), period)
        return True

    def _lay_cycle(self, period: int, marks: array, u: int) -> None:
        """Lay the rest of a tabulated cycle into the record by lanes from
        its marks: the cycle with that period and marks, whose word u steps
        past its smallest is the record's last. The record may then hold
        up to 2M - 2 words past TABLE_CAP, until _close cuts it to tail +
        period <= TABLE_CAP."""
        from ._cycles import M
        words = self.words
        # the record's last word lies d words past the mark whose lane the
        # record resumes with, at index base
        d = u % M
        base, size = len(words) - d, len(words) - d + len(marks) * M
        zeros = bytes(4 * CYCLE_BLOCK)
        while len(words) < size:
            words.frombytes(zeros[:4 * (size - len(words))])
        # words[base + k] is the cycle's word u - d + 1 + k for k < period.
        # Lanes overwrite the last d words with themselves: close_orbit's
        # hit, at or past the tail, lies at least d words before the end.
        iterate_lanes(marks, self.mu, M, words,
                      [base + (i * M - u + d) % period for i in range(len(marks))])

    def serve(self, n: int) -> int:
        """The folds of the next n <= _BLOCK words, as one little-endian int."""
        pos, end = self.pos, self.pos + n
        with memoryview(self.seq) as view:
            out = int.from_bytes(view[pos:end], "little")
        last = end - 1
        if self.period and last >= self.tail:
            last = self.tail + (last - self.tail) % self.period
        # pos may reach tail + period, where seq still holds a whole block.
        self.pos, self.x = last + 1, self.words[last]
        return out

    def _close(self, tail: int, period: int) -> None:
        """Cut the record to its tail + period words once a word repeats."""
        size = tail + period
        del self.words[size:], self.seq[size:]
        self.seq += (self.seq[tail:tail + _BLOCK] * -(-_BLOCK // period))[:_BLOCK]
        self.tail, self.period = tail, period
        if self.pos > tail:  # words served past the first wrap before it was found
            self.pos = tail + (self.pos - tail) % period


class KeystreamGenerator:
    """Two generators advanced in lockstep, one keystream byte per dual step."""

    __slots__ = ("gen_a", "gen_b", "_served", "_orbits")

    def __init__(self, gen_a: BernoulliGenerator, gen_b: BernoulliGenerator):
        self.gen_a, self.gen_b = gen_a, gen_b
        self._served = 0  # bytes returned by read()
        self._orbits = [None, None]  # each generator's _Orbit, from TABLE_THRESHOLD on

    @classmethod
    def from_key(cls, key, allow_weak_mu: bool = False) -> "KeystreamGenerator":
        """Build fresh generators from a key carrying seed1/mu1/seed2/mu2.

        The key is validated first (its validate() method is called), so
        a degenerate key never produces any output. Works with
        bernstream.cipher.CipherKey or anything shaped like it.
        """
        key.validate(allow_weak_mu=allow_weak_mu)
        return cls(BernoulliGenerator(key.seed1, key.mu1),
                   BernoulliGenerator(key.seed2, key.mu2))

    def read(self, n: int, data=None) -> bytes:
        """Produce the next n keystream bytes; or, given `data`, data XOR
        those bytes. data may be any C-contiguous bytes-like object of n
        bytes, and is read by its bytes, whatever its item size.

        The read runs in windows of _BLOCK (64 KiB) bytes, so its memory
        does not grow with n beyond the output. Each window's keystream is
        one int, XORed with data's bytes in the window and written out by
        one to_bytes. While the bytes read() has served stay below
        TABLE_THRESHOLD, it is one fold of both generators' words, stepped
        into an array('I') each by iterate() calls of at most CYCLE_BLOCK
        words; otherwise the XOR of both orbits' serve() ints, each
        recorded from the first word of the read that reaches the threshold,
        or afresh from its generator's state if that moved (by iterate())
        or its mu was assigned another value.
        Of k words served, an orbit steps at most min(k, tail + period +
        isqrt(CYCLE_BLOCK)) + CYCLE_BLOCK words one by one, as its closure
        steps less than tail + period + isqrt(CYCLE_BLOCK) + CYCLE_BLOCK;
        one on a tabulated cycle of _cycles steps less than tail + M +
        CYCLE_BLOCK one by one, then at most CYCLE_BLOCK + 2M as lanes to
        place its tail and less than period + M to lay its cycle. Then both
        generators hold the state that n steps reach. A read that needs a
        word past an orbit's first TABLE_CAP, with no repeat among them,
        raises ValueError, with or without allow_weak_mu, before it serves a
        byte or moves a generator: both orbits record the read's words first.
        """
        n = index(n)
        if n < 0:
            raise ValueError(f"byte count must be >= 0: {n!r}")
        view = None if data is None else memoryview(data).cast("B")
        if view is not None and view.nbytes != n:
            raise ValueError(f"data must hold {n} bytes, not {view.nbytes}")
        orbits = self._orbits
        if self._served + n >= TABLE_THRESHOLD:
            gens = (self.gen_a, self.gen_b)
            orbits[:] = [o if o and (o.x, o.mu) == (g.x, g.mu) else _Orbit(g.x, g.mu)
                         for o, g in zip(orbits, gens)]
            unclosed = [g.mu for o, g in zip(orbits, gens) if not o.record(n)]
            if unclosed:
                raise ValueError(f"the orbit of mu {unclosed[0]} has not closed within "
                                 f"TABLE_CAP = {TABLE_CAP} words: its period is unknown")
        self._served += n  # the read can no longer be refused
        out = []
        for start in range(0, n, _BLOCK):
            size = min(_BLOCK, n - start)
            if orbits[0]:
                m = orbits[0].serve(size) ^ orbits[1].serve(size)
            else:
                wa, wb = array("I"), array("I")
                for done in range(0, size, CYCLE_BLOCK):
                    k = min(CYCLE_BLOCK, size - done)
                    wa.fromlist(self.gen_a.iterate(k))
                    wb.fromlist(self.gen_b.iterate(k))
                m = int.from_bytes(_fold(wa, wb), "little")
            if view is not None:
                m ^= int.from_bytes(view[start:start + size], "little")
            out.append(m.to_bytes(size, "little"))
        if orbits[0]:
            self.gen_a.x, self.gen_b.x = orbits[0].x, orbits[1].x
        return b"".join(out)


def keystream_bytes(key, n: int, allow_weak_mu: bool = False) -> bytes:
    """First n keystream bytes for a key, from fresh generators."""
    return KeystreamGenerator.from_key(key, allow_weak_mu=allow_weak_mu).read(n)


class KeyPeriod(NamedTuple):
    """A key's two orbits from its seeds, in steps. From byte repeat_at on,
    and not before, each keystream byte equals the one period bytes back,
    where period is lcm(period_a, period_b)."""

    tail_a: int
    period_a: int
    tail_b: int
    period_b: int
    period: int
    repeat_at: int


def key_period(key) -> KeyPeriod | None:
    """A key's KeyPeriod, from prng.close_orbit under TABLE_CAP, which
    steps only about an orbit's tail when its cycle is tabulated; None
    unless each orbit has tail + period + CYCLE_BLOCK + isqrt(CYCLE_BLOCK)
    <= TABLE_CAP. Such an orbit closes within TABLE_CAP words from any
    later state too, on the table or off it, so read() never refuses the
    key."""
    orbits = []
    for seed, mu in ((key.seed1, key.mu1), (key.seed2, key.mu2)):
        *_, (tail, period, _, _) = close_orbit(seed, mu, TABLE_CAP, array("I"))
        if period is None or tail + period + CYCLE_BLOCK + isqrt(CYCLE_BLOCK) > TABLE_CAP:
            return None
        orbits += tail, period
    tail_a, period_a, tail_b, period_b = orbits
    period = lcm(period_a, period_b)
    # byte i comes from step i + 1
    return KeyPeriod(*orbits, period, max(tail_a - 1, tail_b - 1, 0) + period)
