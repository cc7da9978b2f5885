"""Stream encryption and key handling.

The cipher XORs plaintext bytes with the keystream; decryption is the
same operation. A key is 80 bits: two 32-bit seeds and two 8-bit
feedback factors, written as 20 hex characters
seed1(8) || mu1(2) || seed2(8) || mu2(2), big-endian fields.

Fewer bits reach the keystream. A step discards each seed's top bit,
and swapping the two generators leaves their XOR as it is, so about
2^77.97 accepted keys give at most 2^74.97 distinct keystreams (see
README "Key format").

There is no nonce, authentication, or key schedule: reusing a key across
messages leaks the XOR of the plaintexts. The slid key (step(seed1),
mu1, step(seed2), mu2) gives the same keystream one byte later, so a
key and its slid key leak it too. Treat every key as single-use.
"""

from __future__ import annotations

from typing import NamedTuple

from .keystream import KeystreamGenerator
from .prng import _check_mu, _check_word, step

# mu/256 > 1/2 keeps the map expansive; below that orbits contract onto
# short cycles and the keystream degrades.
MU_MIN_STRONG = 129

KEY_HEX_LEN = 20
# int(s, 16) alone would also take "_", "+", "-", whitespace and non-ASCII digits.
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
DEFAULT_CHUNK_SIZE = 64 * 1024
# generate_key redraws a key whose keystream repeats within this many bytes
PERIOD_FLOOR = 1 << 24


class KeyFormatError(ValueError):
    """Key text is not exactly 20 hex characters."""


class DegenerateKeyError(ValueError):
    """Key would produce a cryptographically useless keystream."""


class WeakMuError(DegenerateKeyError):
    """A feedback factor is below the expansive-regime minimum, or the two
    factors are equal."""


class CipherIOError(OSError):
    """Read or write failed mid-stream; message carries the byte offset."""


class _KeyFields(NamedTuple):
    seed1: int
    mu1: int
    seed2: int
    mu2: int


class CipherKey(_KeyFields):
    """The full 80-bit secret: (seed1, mu1, seed2, mu2).

    An immutable record; as a named tuple it also unpacks, and equals the
    plain tuple of its fields.
    """

    __slots__ = ()

    def __new__(cls, seed1: int, mu1: int, seed2: int, mu2: int):
        return super().__new__(cls, _check_word(seed1, "seed1"), _check_mu(mu1, "mu1"),
                               _check_word(seed2, "seed2"), _check_mu(mu2, "mu2"))

    @classmethod
    def _make(cls, iterable):
        # the named tuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)

    def validate(self, allow_weak_mu: bool = False) -> None:
        """Reject keys that cannot produce a usable keystream.

        Generators that merge XOR-cancel to an all-zero keystream; that
        check can never be lifted. It refuses equal mu below 129, where the
        map contracts and the orbits merge (see README "Key format"), and
        otherwise seeds that one step takes to the same state: seeds that
        differ only in the top bit, which a step discards. The weak-key
        guard may be lifted for research use: it requires mu >= 129, a
        conservative strength floor, and mu1 != mu2, because two orbits of
        one map tend to fall onto the same few cycles, which gives a
        keystream of short period.

        No check looks at the period itself, so keys of different mu that
        pass by default may still repeat early: 7311D8A385A6CECC1B8F
        repeats every 10,416 bytes from byte 73,272 (see README "Key
        format" and ROADMAP item 1). generate_key draws such keys again.
        """
        if self.mu1 == self.mu2 and (self.mu1 < MU_MIN_STRONG or
                                     step(self.seed1, self.mu1) == step(self.seed2, self.mu2)):
            raise DegenerateKeyError(
                f"degenerate key: the generators merge (equal mu below {MU_MIN_STRONG}, "
                "or seeds that one step maps together) and cancel to an all-zero keystream")
        if allow_weak_mu:
            return
        if min(self.mu1, self.mu2) < MU_MIN_STRONG:
            raise WeakMuError(
                f"weak key: feedback factors must be >= {MU_MIN_STRONG} "
                f"(mu/256 > 1/2); got mu1={self.mu1}, mu2={self.mu2}")
        if self.mu1 == self.mu2:
            raise WeakMuError(
                f"weak key: equal feedback factors (mu1 = mu2 = {self.mu1}) let both "
                "orbits fall onto the same few cycles, so the keystream repeats early")

    def to_hex(self) -> str:
        return f"{self.seed1:08X}{self.mu1:02X}{self.seed2:08X}{self.mu2:02X}"


def parse_key(text: str, allow_weak_mu: bool = False) -> CipherKey:
    """Parse and validate a 20-hex-character key string.

    Raises KeyFormatError for malformed text and DegenerateKeyError (or
    its WeakMuError subclass) for well-formed but unusable keys, so
    callers can explain which problem occurred.
    """
    s = text.strip()
    if len(s) != KEY_HEX_LEN:
        raise KeyFormatError(
            f"key must be exactly {KEY_HEX_LEN} hex characters, got {len(s)}")
    if not _HEX_DIGITS.issuperset(s):
        raise KeyFormatError("key must contain only hex characters")
    key = CipherKey(seed1=int(s[0:8], 16), mu1=int(s[8:10], 16),
                    seed2=int(s[10:18], 16), mu2=int(s[18:20], 16))
    key.validate(allow_weak_mu=allow_weak_mu)
    return key


def generate_key() -> CipherKey:
    """Draw a key from OS randomness, re-drawing until validation passes
    and the keystream's period is at least PERIOD_FLOOR (2^24) bytes.

    Both generators' orbits are closed exactly with analysis.cycle_length,
    tens of milliseconds a key; past the longer tail, the keystream repeats
    every lcm(period1, period2) bytes. A key whose orbits do not both close
    within cycle_length's default step budget is drawn again too.
    """
    # here, not at module level: only keygen needs them
    import secrets
    from math import lcm

    from .analysis import cycle_length

    while True:
        try:
            key = parse_key(secrets.token_hex(KEY_HEX_LEN // 2))
        except DegenerateKeyError:
            continue
        a, b = cycle_length(key.seed1, key.mu1), cycle_length(key.seed2, key.mu2)
        if a.found and b.found and lcm(a.period, b.period) >= PERIOD_FLOOR:
            return key


def _write_all(dst, data: bytes, offset: int) -> None:
    """Write all of data, which starts at stream position `offset`.

    write() returns the count it took; a sink that returns None instead,
    as many file-likes do, is taken to have written everything.
    """
    pending = data
    while pending:
        try:
            n = dst.write(pending)
        except OSError as exc:
            raise CipherIOError(f"write failed at byte {offset}: {exc}") from exc
        if n is None:
            return
        if n == 0:
            raise CipherIOError(f"write failed at byte {offset}: the sink took no bytes")
        offset += n
        pending = memoryview(pending)[n:]


def encrypt_bytes(key: CipherKey, data: bytes, allow_weak_mu: bool = False) -> bytes:
    """XOR data, any C-contiguous bytes-like read by its bytes, with the
    key's keystream. Output length equals the input's length in bytes."""
    gen = KeystreamGenerator.from_key(key, allow_weak_mu=allow_weak_mu)
    return gen.read(memoryview(data).nbytes, data)


def encrypt_stream(key: CipherKey, src, dst, allow_weak_mu: bool = False) -> int:
    """XOR src into dst in chunks; returns the byte count processed.

    Each chunk is one src.read(DEFAULT_CHUNK_SIZE), which may return
    fewer bytes, as a pipe does; the stream ends at the first empty read.
    Memory use is constant in the input size. The key is validated before
    anything is read or written. A sink that takes only part of a chunk
    per write(), as a raw unbuffered file may, gets the rest in further
    calls. I/O failures are re-raised as CipherIOError carrying the
    stream position.
    """
    gen = KeystreamGenerator.from_key(key, allow_weak_mu=allow_weak_mu)
    done = 0
    while True:
        try:
            chunk = src.read(DEFAULT_CHUNK_SIZE)
        except OSError as exc:
            raise CipherIOError(f"read failed at byte {done}: {exc}") from exc
        if not chunk:
            return done
        _write_all(dst, gen.read(len(chunk), chunk), done)
        done += len(chunk)


# XOR is an involution: decryption is the identical operation.
decrypt_bytes = encrypt_bytes
decrypt_stream = encrypt_stream
