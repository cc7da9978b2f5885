"""Word splitting and the two-generator XOR combiner.

Each 32-bit generator word is split into four byte sections (section 1
is the most significant). The keystream byte is the bitwise XOR of all
eight sections coming from two generators advanced in lockstep -- the
software equivalent of a 56-gate XOR array, 7 gates per output bit.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .prng import BernoulliGenerator


class ByteQuad(NamedTuple):
    """The four byte sections of a 32-bit word, most significant first."""

    b3: int
    b2: int
    b1: int
    b0: int


def split_half(x: int, width: int) -> tuple[int, int]:
    """Split a width-bit value into (high, low) halves.

    high = floor(x / 2**(width/2)), low = x mod 2**(width/2).
    """
    if width <= 0 or width % 2:
        raise ValueError(f"width must be a positive even bit count: {width!r}")
    if not 0 <= x < 1 << width:
        raise ValueError(f"value out of range for {width} bits: {x!r}")
    half = width // 2
    return x >> half, x & ((1 << half) - 1)


def split_word(x: int) -> ByteQuad:
    """Split a 32-bit word into four bytes via two halving stages (32 -> 16 -> 8)."""
    hi, lo = split_half(x, 32)
    b3, b2 = split_half(hi, 16)
    b1, b0 = split_half(lo, 16)
    return ByteQuad(b3, b2, b1, b0)


def reassemble(quad: ByteQuad) -> int:
    """Inverse of split_word."""
    return (quad.b3 << 24) | (quad.b2 << 16) | (quad.b1 << 8) | quad.b0


def combine(a: ByteQuad, b: ByteQuad) -> int:
    """XOR all eight byte sections into one keystream byte.

    Each output bit is the parity of the corresponding bit of the eight
    inputs. Identical quads cancel to 0x00 -- the degenerate-key hazard.
    """
    return a.b3 ^ a.b2 ^ a.b1 ^ a.b0 ^ b.b3 ^ b.b2 ^ b.b1 ^ b.b0


# read() serves the first TABLE_THRESHOLD bytes of a stream from the
# scalar orbit loop and the rest from each generator's recorded orbit:
# below the threshold, recording costs more than it saves.
TABLE_THRESHOLD = 64 * 1024
# Longest orbit, tail plus period in words, that is recorded. Strong orbits
# close within about 3e5 words; weak-mu orbits are not bounded in principle,
# so one that has not closed by the cap stays on the scalar loop.
TABLE_CAP = 1 << 20
# Words recorded, and words served, per numpy block; bounds transient memory.
_BLOCK = 1 << 14


def _fold(w: np.ndarray) -> np.ndarray:
    """XOR of the four bytes of each uint32 word, as uint8; w is overwritten.

    XOR commutes, so fold(wa ^ wb) == fold(wa) ^ fold(wb): the scalar loop
    folds the mixed words of both generators once, and a recorded orbit is
    folded once on its own and XORed with the other generator's folds.
    """
    w ^= w >> np.uint32(16)
    w ^= w >> np.uint32(8)
    return w.astype(np.uint8)


class _Orbit:
    """A generator's orbit recorded from state x, and its folded bytes.

    words[i] is the state i + 1 steps after x. From index `tail` on the
    orbit repeats every `period` words, so the table holds tail + period
    distinct words. seq holds their folds as uint8: the tail's, then the
    cycle's, repeated until it covers period + _BLOCK bytes. Every window
    of at most _BLOCK bytes that starts at or before tail + period is then
    one contiguous slice of seq, even for periods shorter than a block.
    """

    __slots__ = ("words", "seq", "tail", "period", "pos", "x")

    def __init__(self, words: np.ndarray, tail: int, period: int, x: int):
        self.words = words
        self.tail = tail
        self.period = period
        self.pos = 0  # index of the next word to serve
        self.x = x    # the generator state that precedes words[pos]
        self.seq = np.empty(tail + period + _BLOCK, dtype=np.uint8)
        # Fold block by block so the uint32 temporaries stay at _BLOCK words.
        for start in range(0, tail + period, _BLOCK):
            w = words[start:start + _BLOCK].copy()
            self.seq[start:start + len(w)] = _fold(w)
        # Repeat the cycle's folds in place, doubling the copied span each pass.
        cycle, filled = self.seq[tail:], period
        while filled < len(cycle):
            k = min(filled, len(cycle) - filled)
            cycle[filled:filled + k] = cycle[:k]
            filled += k

    @classmethod
    def record(cls, x: int, mu: int) -> "_Orbit | None":
        """Step from x until a word repeats; None if TABLE_CAP words do not close.

        The first word of every block is a mark. A later word that equals a
        mark has occurred before, so it lies on the cycle: its last
        earlier occurrence is one period back, and the tail is the first
        index whose word recurs one period on. A block's first word is
        checked against the earlier marks only, so that periods that are
        multiples of _BLOCK close too.
        """
        gen = BernoulliGenerator(x, mu)
        blocks, marks = [], []
        for start in range(0, TABLE_CAP, _BLOCK):
            block = np.array(gen.iterate(min(_BLOCK, TABLE_CAP - start)), dtype=np.uint32)
            blocks.append(block)
            marks.append(block[0])
            repeats = np.isin(block, marks)
            repeats[0] = block[0] in marks[:-1]
            hits = np.flatnonzero(repeats)
            if hits.size:
                words = np.concatenate(blocks)
                end = start + int(hits[0])
                period = end - int(np.flatnonzero(words[:end] == words[end])[-1])
                tail = int(np.argmax(words[:end + 1 - period] == words[period:end + 1]))
                return cls(words[:tail + period], tail, period, x)
        return None

    def serve(self, n: int) -> np.ndarray:
        """The folds of the next n <= _BLOCK words, as a view of seq."""
        end = self.pos + n
        out = self.seq[self.pos:end]
        last = end - 1
        if last >= self.tail:
            last = self.tail + (last - self.tail) % self.period
        # pos may reach tail + period, where seq still holds a whole block.
        self.pos = last + 1
        self.x = int(self.words[last])
        return out


class KeystreamGenerator:
    """Two generators advanced in lockstep, one keystream byte per dual step."""

    __slots__ = ("gen_a", "gen_b", "_served", "_orbits")

    def __init__(self, gen_a: BernoulliGenerator, gen_b: BernoulliGenerator):
        self.gen_a = gen_a
        self.gen_b = gen_b
        self._served = 0  # bytes returned by read()
        # Per generator: None until recorded, False if it overran TABLE_CAP.
        self._orbits = [None, None]

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

    def next_byte(self) -> int:
        """Advance both generators one step and combine their words."""
        word_a = self.gen_a.next_word()
        word_b = self.gen_b.next_word()
        return combine(split_word(word_a), split_word(word_b))

    def read(self, n: int) -> bytes:
        """Produce n keystream bytes, identical to n next_byte() calls.

        The first TABLE_THRESHOLD bytes that read() serves come from one
        inline loop over both orbits, folded vectorized. Longer outputs come
        from each generator's recorded orbit: every orbit of the 32-bit map
        is eventually periodic, so it is stepped once until it closes and
        its words are folded once. Each block of up to _BLOCK bytes is then
        the XOR of one slice of each generator's folded bytes. Either way,
        afterwards both generators hold the state that n steps reach.
        """
        if n < 0:
            raise ValueError(f"byte count must be >= 0: {n!r}")
        if n == 0:
            return b""
        head = min(n, max(TABLE_THRESHOLD - self._served, 0))
        self._served += n
        if head == n:
            return self._read_scalar(n).tobytes()
        out = np.empty(n, dtype=np.uint8)
        if head:
            out[:head] = self._read_scalar(head)
        for start in range(head, n, _BLOCK):
            m = min(_BLOCK, n - start)
            np.bitwise_xor(self._folded(0, m), self._folded(1, m), out=out[start:start + m])
        return out.tobytes()

    def _read_scalar(self, n: int) -> np.ndarray:
        gen_a, gen_b = self.gen_a, self.gen_b
        xa, ma = gen_a.x, gen_a.mu
        xb, mb = gen_b.x, gen_b.mu
        ka = (256 - ma) << 23
        kb = (256 - mb) << 23
        mixed = [0] * n
        for i in range(n):
            xa = ((xa & 0x7FFFFFFF) * ma >> 7) + ka
            xb = ((xb & 0x7FFFFFFF) * mb >> 7) + kb
            mixed[i] = xa ^ xb
        gen_a.x, gen_b.x = xa, xb
        gen_a.started = gen_b.started = True
        return _fold(np.array(mixed, dtype=np.uint32))

    def _folded(self, k: int, n: int) -> np.ndarray:
        """Folds of generator k's next n words (k = 0 for gen_a), as uint8.

        They come from the generator's recorded orbit, which is recorded
        again whenever the generator's state is not the one the table left
        it in, e.g. after next_byte() or iterate(). An orbit that overran
        TABLE_CAP is stepped with iterate() and folded here.
        """
        gen = (self.gen_a, self.gen_b)[k]
        orbit = self._orbits[k]
        if orbit is None or (orbit and orbit.x != gen.x):
            orbit = self._orbits[k] = _Orbit.record(gen.x, gen.mu) or False
        if not orbit:
            return _fold(np.array(gen.iterate(n), dtype=np.uint32))
        folded = orbit.serve(n)
        gen.x = orbit.x
        gen.started = True
        return folded


def keystream_bytes(key, n: int, allow_weak_mu: bool = False) -> bytes:
    """First n keystream bytes for a key, from fresh generators."""
    return KeystreamGenerator.from_key(key, allow_weak_mu=allow_weak_mu).read(n)
