"""The two-generator keystream and its XOR fold.

Each 32-bit generator word is split into four byte sections (section 1
is the most significant). The keystream byte is the bitwise XOR of all
eight sections coming from two generators advanced in lockstep -- the
software equivalent of a 56-gate XOR array, 7 gates per output bit.
"""

from __future__ import annotations

from array import array

from .prng import BernoulliGenerator, find_cycle


# read() steps both generators with iterate() until a read reaches
# TABLE_THRESHOLD bytes in all; from that read on, it serves both
# generators from their recorded orbits. Below the threshold, recording
# costs more than it saves.
TABLE_THRESHOLD = 64 * 1024
# Longest orbit, tail plus period in words, that is recorded. Strong orbits
# close within about 3e5 words; weak-mu orbits are not bounded in principle,
# so once one has not closed by the cap, the stream stays on iterate().
TABLE_CAP = 1 << 20
# Bytes per window of read(), and words per piece in which an orbit is
# folded. It keeps each big int small enough to stay in cache: 2^16 words
# fold at 11-18 ns a word, like 2^14, and 2^20 words at 19-21 ns.
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
    """A generator's orbit recorded from state x, and its folded bytes.

    words[i] is the state i + 1 steps after x. From index `tail` on the
    orbit repeats every `period` words, so the array holds tail + period
    distinct words. seq holds their folds, made in _BLOCK-word pieces of
    a view on words: the tail's, then the cycle's, repeated until they
    cover period + _BLOCK bytes. Every window of read(), at most _BLOCK
    bytes, that starts at or before tail + period is then one slice of
    seq, even for periods shorter than a window.
    """

    __slots__ = ("words", "seq", "tail", "period", "pos", "x")

    def __init__(self, words: array, tail: int, period: int, x: int):
        self.words = words
        self.tail = tail
        self.period = period
        self.pos = 0  # index of the next word to serve
        self.x = x    # the generator state that precedes words[pos]
        view = memoryview(words)
        folded = b"".join([_fold(view[i:i + _BLOCK]) for i in range(0, tail + period, _BLOCK)])
        cycle = folded[tail:]
        self.seq = folded[:tail] + (cycle * -(-(period + _BLOCK) // period))[:period + _BLOCK]

    @classmethod
    def record(cls, x: int, mu: int) -> "_Orbit | None":
        """Step from x until a word repeats; None if TABLE_CAP words do not close.

        prng.find_cycle keeps every word it steps, in its own closure
        blocks, and places tail and period from x. words[0] is one step
        after x, so the table's tail is one word shorter, unless x lies on
        the cycle.
        """
        words = array("I")
        tail, period, _ = find_cycle(x, mu, TABLE_CAP, words)
        if period is None:
            return None
        tail = max(tail - 1, 0)
        del words[tail + period:]
        return cls(words, tail, period, x)

    def serve(self, n: int) -> bytes:
        """The folds of the next n <= _BLOCK words."""
        end = self.pos + n
        out = self.seq[self.pos:end]
        last = end - 1
        if last >= self.tail:
            last = self.tail + (last - self.tail) % self.period
        # pos may reach tail + period, where seq still holds a whole block.
        self.pos = last + 1
        self.x = self.words[last]
        return out


class KeystreamGenerator:
    """Two generators advanced in lockstep, one keystream byte per dual step."""

    __slots__ = ("gen_a", "gen_b", "_served", "_orbits")

    def __init__(self, gen_a: BernoulliGenerator, gen_b: BernoulliGenerator):
        self.gen_a = gen_a
        self.gen_b = gen_b
        self._served = 0  # bytes returned by read()
        # None until recorded, False once an orbit overran TABLE_CAP, else
        # the pair of recorded orbits (a, b).
        self._orbits = None

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
        one to_bytes. Where that int comes from is decided once per read,
        for both generators together. While the bytes that read() has
        served stay below TABLE_THRESHOLD, or once an orbit has overrun
        TABLE_CAP, it is one fold of both generators' words, from one
        iterate() call each. Otherwise it is the XOR of one slice of each
        generator's recorded orbit: every orbit of the 32-bit map is
        eventually periodic, so it is stepped once, from the first word of
        the read that reaches the threshold, until it closes, and its words
        are folded once. Either way, afterwards both generators hold the
        state that n steps reach.
        """
        if n < 0:
            raise ValueError(f"byte count must be >= 0: {n!r}")
        view = None if data is None else memoryview(data).cast("B")
        if view is not None and view.nbytes != n:
            raise ValueError(f"data must hold {n} bytes, not {view.nbytes}")
        self._served += n
        orbits = self._served >= TABLE_THRESHOLD and self._recorded()
        out = []
        for start in range(0, n, _BLOCK):
            size = min(_BLOCK, n - start)
            if orbits:
                m = (int.from_bytes(orbits[0].serve(size), "little")
                     ^ int.from_bytes(orbits[1].serve(size), "little"))
            else:
                m = int.from_bytes(_fold(array("I", self.gen_a.iterate(size)),
                                         array("I", self.gen_b.iterate(size))), "little")
            if view is not None:
                m ^= int.from_bytes(view[start:start + size], "little")
            out.append(m.to_bytes(size, "little"))
        if orbits:
            self.gen_a.x, self.gen_b.x = orbits[0].x, orbits[1].x
        return b"".join(out)

    def _recorded(self) -> "tuple[_Orbit, _Orbit] | bool":
        """Both generators' recorded orbits (a, b), or False if one overran
        TABLE_CAP.

        Both are recorded again whenever either generator's state is not
        the one the tables left it in, e.g. after iterate(); b is recorded
        only if a closed. Once an orbit has overrun the cap, the stream
        steps both generators for good.
        """
        a, b = self.gen_a, self.gen_b
        orbits = self._orbits
        if orbits is None or orbits and (orbits[0].x != a.x or orbits[1].x != b.x):
            orbit_a = _Orbit.record(a.x, a.mu)
            orbit_b = orbit_a and _Orbit.record(b.x, b.mu)
            orbits = self._orbits = (orbit_a, orbit_b) if orbit_b else False
        return orbits


def keystream_bytes(key, n: int, allow_weak_mu: bool = False) -> bytes:
    """First n keystream bytes for a key, from fresh generators."""
    return KeystreamGenerator.from_key(key, allow_weak_mu=allow_weak_mu).read(n)
