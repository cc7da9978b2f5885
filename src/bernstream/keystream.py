"""The two-generator keystream and its XOR fold.

Each 32-bit generator word is split into four byte sections (section 1
is the most significant). The keystream byte is the bitwise XOR of all
eight sections coming from two generators advanced in lockstep -- the
software equivalent of a 56-gate XOR array, 7 gates per output bit.

As in that datapath, nothing grows with the message: words are stepped
and folded at most prng.CYCLE_BLOCK (4,096) at a time, and a read's
output is built in windows of 64 KiB.
"""

from __future__ import annotations

from array import array

from .prng import CYCLE_BLOCK, BernoulliGenerator, cycle_blocks


# read() steps both generators with iterate() until a read reaches
# TABLE_THRESHOLD bytes in all, and serves each generator from its orbit
# from then on. Below the threshold, recording costs more than it saves.
TABLE_THRESHOLD = 64 * 1024
# Longest orbit, tail plus period in words, that is recorded. Strong orbits
# close within about 3e5 words; weak-mu orbits are not bounded in principle,
# so once one has not closed by the cap, its generator steps on alone.
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
    """A generator's orbit from state x, stepped only as far as reads need.

    words[i] is the state i + 1 steps after x: prng.cycle_blocks appends
    them in CYCLE_BLOCK-word blocks, 4 bytes a step, and keeps one mark
    per isqrt(CYCLE_BLOCK) = 64 steps until the orbit closes. Each block
    is folded into seq as soon as it is appended, so len(seq) ==
    len(words) until then. Once a word repeats, both are cut to the
    orbit's tail + period distinct words, and seq gains the cycle's folds
    again over _BLOCK bytes: every window of read(), at most _BLOCK bytes,
    that starts at or before tail + period is one slice of seq, even for
    periods shorter than a window. An orbit that overruns TABLE_CAP keeps
    no record: it steps on alone, a CYCLE_BLOCK at a time, and drops the
    words it serves.
    """

    __slots__ = ("words", "seq", "tail", "period", "pos", "x", "mu", "_blocks")

    def __init__(self, x: int, mu: int):
        self.words, self.seq = array("I"), bytearray()
        self.tail = self.period = None
        # words[pos] is the next word to serve, and x the state before it
        self.pos, self.x, self.mu = 0, x, mu
        self._blocks = cycle_blocks(x, mu, TABLE_CAP, self.words)  # None once it ends

    def serve(self, n: int) -> int:
        """The folds of the next n <= _BLOCK words, as one little-endian int."""
        words, seq = self.words, self.seq
        while self.period is None and len(words) < self.pos + n:
            done = None
            if self._blocks:
                done = next(self._blocks)  # (tail, period, steps) once it ends
            else:  # past TABLE_CAP: step on from the last word
                stepper = BernoulliGenerator(words[-1] if words else self.x, self.mu)
                words.fromlist(stepper.iterate(CYCLE_BLOCK))
            with memoryview(words) as view:
                seq += _fold(view[len(seq):])
            if done:
                self._blocks = None
                if done[1]:  # a word repeated, rather than TABLE_CAP ran out
                    self._close(*done[:2])
        pos, end = self.pos, self.pos + n  # _close may have wrapped pos
        with memoryview(seq) as view:
            out = int.from_bytes(view[pos:end], "little")
        last = end - 1
        if self.period and last >= self.tail:
            last = self.tail + (last - self.tail) % self.period
        # pos may reach tail + period, where seq still holds a whole block.
        self.pos, self.x = last + 1, words[last]
        if not (self._blocks or self.period):  # past TABLE_CAP: keep no record
            del words[:end], seq[:end]
            self.pos = 0
        return out

    def _close(self, tail: int, period: int) -> None:
        """Cut the record to tail + period words once a word repeats."""
        # words[0] is one step after x, so the record's tail is one word
        # shorter than the orbit's, unless x lies on the cycle.
        tail = max(tail - 1, 0)
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
        or afresh from its generator's state if that moved (by iterate()).
        Of k words served, an orbit steps at most min(k, tail + period +
        isqrt(CYCLE_BLOCK)) + CYCLE_BLOCK, as its closure steps less than
        tail + period + isqrt(CYCLE_BLOCK) + CYCLE_BLOCK words. Then both
        generators hold the state that n steps reach.
        """
        if n < 0:
            raise ValueError(f"byte count must be >= 0: {n!r}")
        view = None if data is None else memoryview(data).cast("B")
        if view is not None and view.nbytes != n:
            raise ValueError(f"data must hold {n} bytes, not {view.nbytes}")
        self._served += n
        orbits = self._orbits
        if self._served >= TABLE_THRESHOLD:
            orbits[:] = [o if o and o.x == g.x else _Orbit(g.x, g.mu)
                         for o, g in zip(orbits, (self.gen_a, self.gen_b))]
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
