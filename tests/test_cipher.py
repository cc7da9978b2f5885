import io
import math
import random
import secrets
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bernstream.analysis import cycle_length
from bernstream.cipher import (PERIOD_FLOOR, CipherIOError, CipherKey, DegenerateKeyError,
                               KeyFormatError, WeakMuError, decrypt_bytes,
                               decrypt_stream, encrypt_bytes, encrypt_stream,
                               generate_key, parse_key)
from bernstream.keystream import TABLE_THRESHOLD, KeystreamGenerator, keystream_bytes
from bernstream.prng import BernoulliGenerator, step

from oracles import advance, keystream_reference, xor_reference

GOOD_KEY = parse_key("AAAAAAAAAABBBBBBBBBB")


class Pipe(io.BytesIO):
    """A source whose read(n) returns at most `most` bytes, as a pipe does."""

    def __init__(self, data: bytes, most: int):
        super().__init__(data)
        self.most = most

    def read(self, n: int) -> bytes:
        return super().read(min(n, self.most))


class TestParseKey:

    def test_simulation_key_fields(self):
        key = parse_key("AAAAAAAAAABBBBBBBBBB")
        assert key == CipherKey(seed1=0xAAAAAAAA, mu1=0xAA,
                                seed2=0xBBBBBBBB, mu2=0xBB)

    def test_case_insensitive_and_trailing_newline(self):
        assert parse_key("aaaaaaaaaabbbbbbbbbb\n") == GOOD_KEY

    def test_degenerate_key_rejected(self):
        with pytest.raises(DegenerateKeyError):
            parse_key("AAAAAAAAAAAAAAAAAAAA")

    def test_wrong_length_is_a_format_error(self):
        with pytest.raises(KeyFormatError):
            parse_key("0000000000")
        with pytest.raises(KeyFormatError):
            parse_key("AAAAAAAAAABBBBBBBBBB00")

    def test_non_hex_characters_rejected(self):
        with pytest.raises(KeyFormatError):
            parse_key("GGGGGGGGGGGGGGGGGGGG")
        # int() would accept these; the parser must not
        with pytest.raises(KeyFormatError):
            parse_key("AAAA_AAAAABBBBBBBBBB")
        with pytest.raises(KeyFormatError):
            parse_key("+AAAAAAAAABBBBBBBBBB")
        for bad in ("-AAAAAAAAABBBBBBBBBB", "AAAA AAAAABBBBBBBBBB",
                    "\uff10AAAAAAAAABBBBBBBBBB"):  # a fullwidth zero
            with pytest.raises(KeyFormatError):
                parse_key(bad)

    def test_weak_mu_rejected_by_default(self):
        with pytest.raises(WeakMuError):
            parse_key("AAAAAAAA00BBBBBBBBBB")

    def test_weak_mu_allowed_when_requested(self):
        key = parse_key("AAAAAAAA00BBBBBBBBBB", allow_weak_mu=True)
        assert key.mu1 == 0

    def test_weak_mu_flag_never_lifts_degeneracy(self):
        with pytest.raises(DegenerateKeyError):
            parse_key("AAAAAAAA00AAAAAAAA00", allow_weak_mu=True)

    def test_seeds_equal_but_for_the_top_bit_are_degenerate(self):
        # a step drops the top bit, so these generators coincide after one
        # step: the keystream would be all zero
        alias = CipherKey(seed1=0x12345678, mu1=0xC8, seed2=0x92345678, mu2=0xC8)
        unchecked = KeystreamGenerator(BernoulliGenerator(alias.seed1, alias.mu1),
                                       BernoulliGenerator(alias.seed2, alias.mu2))
        assert unchecked.read(4096) == bytes(4096)
        for allow in (False, True):
            with pytest.raises(DegenerateKeyError, match="degenerate"):
                parse_key("12345678C892345678C8", allow_weak_mu=allow)
            with pytest.raises(DegenerateKeyError):
                encrypt_bytes(alias, b"plaintext", allow_weak_mu=allow)
        with pytest.raises(DegenerateKeyError):
            parse_key("92345678C812345678C8")
        # the top bit matters once the factors differ
        parse_key("12345678C892345678C9")

    @pytest.mark.parametrize("text", ["00000000000000000100", "12345678000000000100"])
    def test_mu_zero_twice_is_degenerate(self, text):
        # a mu-0 step maps every state to 2**31, so two mu-0 generators
        # coincide after one step whatever their seeds
        key = CipherKey(seed1=int(text[:8], 16), mu1=0, seed2=int(text[10:18], 16), mu2=0)
        unchecked = KeystreamGenerator(BernoulliGenerator(key.seed1, key.mu1),
                                       BernoulliGenerator(key.seed2, key.mu2))
        assert unchecked.read(4096) == bytes(4096)
        for allow in (False, True):
            with pytest.raises(DegenerateKeyError, match="degenerate"):
                parse_key(text, allow_weak_mu=allow)
            with pytest.raises(DegenerateKeyError, match="degenerate"):
                encrypt_bytes(key, b"plaintext", allow_weak_mu=allow)
        # one mu-0 generator is only weak
        parse_key(text[:18] + "81", allow_weak_mu=True)

    def test_close_seeds_under_a_small_equal_mu_are_degenerate(self):
        # below mu 128 a step maps neighbouring states together: under mu 1
        # both 0 and 1 step to 2**23 * 255
        with pytest.raises(DegenerateKeyError, match="degenerate"):
            parse_key("00000000010000000101", allow_weak_mu=True)

    @pytest.mark.parametrize("text, merged", [
        ("00000000010000010001", True),  # mu 1: 0x02, then zeros
        ("7FFFFF80010000000001", True),  # mu 1: 0x80, then zeros
        ("12345678400000000040", False),  # mu 64
        ("DEADBEEF80CAFEBABE80", False),  # mu 128, the largest below the strong floor
    ])
    def test_equal_mu_below_the_strong_floor_is_degenerate(self, text, merged):
        # two orbits of one contracting map (mu < 129) tend to merge, after
        # which the keystream is all zero; the flag does not lift this
        key = CipherKey(int(text[:8], 16), int(text[8:10], 16),
                        int(text[10:18], 16), int(text[18:], 16))
        assert step(key.seed1, key.mu1) != step(key.seed2, key.mu2)
        if merged:
            unchecked = KeystreamGenerator(BernoulliGenerator(key.seed1, key.mu1),
                                           BernoulliGenerator(key.seed2, key.mu2))
            assert not any(unchecked.read(4096)[1:])
        for allow in (False, True):
            with pytest.raises(DegenerateKeyError, match="degenerate"):
                parse_key(text, allow_weak_mu=allow)
        # equal mu at the floor is only weak
        parse_key(text[:8] + "81" + text[10:18] + "81", allow_weak_mu=True)

    def test_round_trip_through_hex(self):
        assert parse_key(GOOD_KEY.to_hex()) == GOOD_KEY

    def test_boundary_mu(self):
        # 0x81 = 129 is the lowest accepted factor
        parse_key("00000000810000000182")
        with pytest.raises(WeakMuError):
            parse_key("00000000800000000181")

    def test_equal_mu_is_weak(self):
        # both orbits of mu 200 from these seeds close with period 134,498
        # (tails 39,303 and 26,914), so the keystream repeats that early
        with pytest.raises(WeakMuError, match="equal feedback factors"):
            parse_key("12345678C8DEADBEEFC8")
        key = parse_key("12345678C8DEADBEEFC8", allow_weak_mu=True)
        period, tail = 134_498, 39_303
        start = tail - 1  # byte i comes from the states i + 1 steps on
        ks = keystream_bytes(key, start + 2 * period, allow_weak_mu=True)
        assert ks[start:start + period] == ks[start + period:]


def test_cipher_key_field_ranges():
    with pytest.raises(ValueError):
        CipherKey(seed1=2**32, mu1=170, seed2=0, mu2=170)
    with pytest.raises(ValueError):
        CipherKey(seed1=0, mu1=256, seed2=1, mu2=170)
    with pytest.raises(TypeError):
        CipherKey(seed1=1.0, mu1=170, seed2=0, mu2=171)


def test_numpy_integer_fields_are_read_as_python_ints():
    key = parse_key("F4271242D67D883F82A5")
    typed = CipherKey(np.uint32(0xF4271242), np.uint8(0xD6),
                      np.uint32(0x7D883F82), np.uint8(0xA5))
    assert typed == key and [type(f) for f in typed] == [int] * 4
    assert typed.to_hex() == key.to_hex()
    # past TABLE_THRESHOLD, so both the stepped and the recorded reads run
    n = TABLE_THRESHOLD + 4096
    assert keystream_bytes(typed, n) == keystream_bytes(key, n)


# Two 64 KiB chunks and a short one, so encrypt_stream runs the fused read
# of KeystreamGenerator on whole and partial chunks. GOOD_KEY's generator a
# enters its cycle at byte 78,974; b, recorded from the seed, first wraps
# at byte 137,322.
STREAM_BYTES = 2 * 65536 + 12_345
STREAM_EDGES = (0, 4095, 65535, 65537, 78_974, 131_072, 137_322, STREAM_BYTES)


def assert_matches_the_oracle(keystream_windows, plain, out):
    """out is plain XOR GOOD_KEY's keystream, in the oracle's windows and whole."""
    for start, ks in keystream_windows:
        assert out[start:start + len(ks)] == xor_reference(plain[start:start + len(ks)], ks)
    assert out == xor_reference(plain, keystream_bytes(GOOD_KEY, STREAM_BYTES))


@pytest.fixture(scope="module")
def keystream_windows():
    """(start, bytes) windows of GOOD_KEY's keystream around STREAM_EDGES,
    from the arithmetic oracle."""
    key, width = GOOD_KEY, 512
    xa, xb, pos, out = key.seed1, key.seed2, 0, []
    for start in STREAM_EDGES:
        start = min(max(start - width // 2, pos), STREAM_BYTES - width)
        xa, xb = advance(xa, key.mu1, start - pos), advance(xb, key.mu2, start - pos)
        pos = start
        out.append((start, keystream_reference(xa, key.mu1, xb, key.mu2, width)))
    return out


class TestEncrypt:

    def test_empty_round_trip(self):
        assert encrypt_bytes(GOOD_KEY, b"") == b""
        assert decrypt_bytes(GOOD_KEY, b"") == b""

    def test_zero_plaintext_reveals_keystream(self):
        n = 4096
        assert encrypt_bytes(GOOD_KEY, bytes(n)) == keystream_bytes(GOOD_KEY, n)

    def test_involution_on_random_data(self):
        rng = random.Random(0xE4C)
        msg = rng.randbytes(64 * 1024)
        assert decrypt_bytes(GOOD_KEY, encrypt_bytes(GOOD_KEY, msg)) == msg

    def test_length_preserved(self):
        for n in (1, 13, 255, 1000):
            assert len(encrypt_bytes(GOOD_KEY, bytes(n))) == n

    def test_keystream_independent_of_plaintext(self):
        rng = random.Random(0xF00)
        m1 = rng.randbytes(2048)
        m2 = rng.randbytes(2048)
        c1 = encrypt_bytes(GOOD_KEY, m1)
        c2 = encrypt_bytes(GOOD_KEY, m2)
        xor = bytes(a ^ b for a, b in zip(c1, c2))
        assert xor == bytes(a ^ b for a, b in zip(m1, m2))

    def test_wrong_key_does_not_decrypt(self):
        rng = random.Random(0xBAD)
        msg = rng.randbytes(64)
        other = parse_key("AAAAAAAAAABBBBBBBBBC")
        assert decrypt_bytes(other, encrypt_bytes(GOOD_KEY, msg)) != msg

    def test_stream_matches_bytes_across_chunk_boundaries(self):
        rng = random.Random(0xC4C)
        for n in (0, 1, 1023, 1024, 1025, 5000):
            msg = rng.randbytes(n)
            src, dst = Pipe(msg, 1024), io.BytesIO()
            processed = encrypt_stream(GOOD_KEY, src, dst)
            assert processed == n
            assert dst.getvalue() == encrypt_bytes(GOOD_KEY, msg)

    def test_stream_round_trip(self):
        rng = random.Random(0x5EED)
        msg = rng.randbytes(10_000)
        ct = io.BytesIO()
        encrypt_stream(GOOD_KEY, io.BytesIO(msg), ct)
        pt = io.BytesIO()
        decrypt_stream(GOOD_KEY, io.BytesIO(ct.getvalue()), pt)
        assert pt.getvalue() == msg

    @pytest.mark.parametrize("most", [1, 4095, 65536])
    def test_stream_chunks_match_the_oracle(self, keystream_windows, most):
        plain = random.Random(most).randbytes(STREAM_BYTES)
        dst = io.BytesIO()
        assert encrypt_stream(GOOD_KEY, Pipe(plain, most), dst) == STREAM_BYTES
        assert_matches_the_oracle(keystream_windows, plain, dst.getvalue())

    def test_bytes_match_the_oracle(self, keystream_windows):
        # one read spans every window of the stream
        plain = random.Random(65537).randbytes(STREAM_BYTES)
        assert_matches_the_oracle(keystream_windows, plain, encrypt_bytes(GOOD_KEY, plain))

    def test_one_long_call_holds_about_two_copies(self):
        # one call of 4 MiB + 12,345 bytes is read in 64 KiB windows: its peak
        # is the output and the windows joined into it, under 3n. The key's
        # orbits close within 1,561 and 1,078 words, so their recording adds
        # little memory and tracing stays fast.
        key = parse_key("A6A3A450816CAD4A2682")
        n = 4 * 2**20 + 12_345
        plain = random.Random(n).randbytes(n)
        tracemalloc.start()
        try:
            out = encrypt_bytes(key, plain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * n
        dst = io.BytesIO()
        encrypt_stream(key, io.BytesIO(plain), dst)
        assert out == dst.getvalue()

    @pytest.mark.parametrize("n, bound", [(16_384, 500_000), (65_535, 2_000_000)])
    def test_short_reads_step_one_block_at_a_time(self, n, bound):
        # below the table threshold each generator is stepped in
        # CYCLE_BLOCK-word lists, not one list of n words
        key = parse_key("0123456789ABCDEF12C3")
        plain = random.Random(n).randbytes(n)
        tracemalloc.start()
        try:
            out = encrypt_bytes(key, plain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound
        assert out == xor_reference(plain, keystream_bytes(key, n))

    def test_degenerate_key_rejected_before_any_output(self):
        bad = CipherKey(seed1=1, mu1=170, seed2=1, mu2=170)
        writes = []

        class Recorder:
            def write(self, data):
                writes.append(data)

        with pytest.raises(DegenerateKeyError):
            encrypt_stream(bad, io.BytesIO(b"secret"), Recorder())
        assert writes == []

    def test_weak_key_usable_with_override(self):
        weak = CipherKey(seed1=1, mu1=5, seed2=2, mu2=200)
        msg = b"research mode"
        ct = encrypt_bytes(weak, msg, allow_weak_mu=True)
        assert decrypt_bytes(weak, ct, allow_weak_mu=True) == msg
        with pytest.raises(WeakMuError):
            encrypt_bytes(weak, msg)

    def test_read_failure_carries_position(self):
        class FailsAfter:
            """A source of at most 1024 bytes a read that fails after some reads."""

            def __init__(self, good_chunks):
                self.remaining = good_chunks

            def read(self, n):
                if self.remaining == 0:
                    raise OSError("disk gone")
                self.remaining -= 1
                return b"x" * min(n, 1024)

        with pytest.raises(CipherIOError, match="at byte 2048"):
            encrypt_stream(GOOD_KEY, FailsAfter(2), io.BytesIO())

    def test_short_writes_are_completed(self):
        class Trickle:
            """A raw sink that takes at most 1000 bytes per write()."""

            def __init__(self):
                self.data = bytearray()
                self.calls = 0

            def write(self, data):
                self.calls += 1
                taken = bytes(data[:1000])
                self.data += taken
                return len(taken)

        msg = random.Random(0x5407).randbytes(10_000)
        sink = Trickle()
        assert encrypt_stream(GOOD_KEY, Pipe(msg, 4096), sink) == len(msg)
        assert bytes(sink.data) == encrypt_bytes(GOOD_KEY, msg)
        assert sink.calls == 12  # 5 + 5 + 2 writes for chunks of 4096, 4096, 1808

    def test_write_failure_after_a_short_write_carries_position(self):
        class TakesHalfThenFails:
            def __init__(self):
                self.calls = 0

            def write(self, data):
                self.calls += 1
                if self.calls > 1:
                    raise OSError("pipe closed")
                return len(data) // 2

        with pytest.raises(CipherIOError, match="at byte 1500"):
            encrypt_stream(GOOD_KEY, io.BytesIO(bytes(3000)), TakesHalfThenFails())

    def test_sink_without_a_count_takes_each_chunk_once(self):
        class Collector:
            def __init__(self):
                self.chunks = []

            def write(self, data):
                self.chunks.append(bytes(data))

        msg = random.Random(0xC011).randbytes(2500)
        sink = Collector()
        encrypt_stream(GOOD_KEY, Pipe(msg, 1000), sink)
        assert [len(c) for c in sink.chunks] == [1000, 1000, 500]
        assert b"".join(sink.chunks) == encrypt_bytes(GOOD_KEY, msg)

    def test_sink_that_takes_nothing_is_an_error(self):
        class Stuck:
            def write(self, data):
                return 0

        with pytest.raises(CipherIOError, match="at byte 0"):
            encrypt_stream(GOOD_KEY, io.BytesIO(b"payload"), Stuck())

    def test_write_failure_carries_position(self):
        class BrokenSink:
            def write(self, data):
                raise OSError("pipe closed")

        with pytest.raises(CipherIOError, match="at byte 0"):
            encrypt_stream(GOOD_KEY, io.BytesIO(b"payload"), BrokenSink())


@pytest.mark.parametrize("a, b", [
    (b"", b""),
    (b"\x5a", b"\xa5"),
    (b"\x5a", b"\x5a"),
    # equal inputs XOR to all zeros, which to_bytes must keep at full length
    (b"\x00\x00\x17\x00", b"\x00\x00\x17\x00"),
    (b"\x00\x00\x12", b"\x00\x00\x34"),
    (b"\x12\x00\x00", b"\x34\x00\x00"),
    (b"\x00\x80", b"\x00\x7f"),
    (bytes(range(256)), bytes(range(255, -1, -1))),
], ids=["empty", "one byte", "one byte to zero", "all zero result", "leading zeros",
        "trailing zeros", "high bit", "every byte value"])
def test_xor_bytes(a, b):
    # read(n, data) XORs a and then b with the keystream, for every pairing of
    # bytes-like kinds; on short reads, and on reads past TABLE_THRESHOLD,
    # which the recorded orbits serve. This key's orbits close within 1,561
    # and 1,078 words, so recording them is quick.
    key = parse_key("A6A3A450816CAD4A2682")
    kinds = (bytes, bytearray, memoryview)
    for skip in (0, TABLE_THRESHOLD):
        ks = keystream_bytes(key, skip + 10 * (len(a) + len(b)))
        gen = KeystreamGenerator.from_key(key)
        pos = len(gen.read(skip))
        for kind_a in kinds:
            for kind_b in kinds:
                for data, kind in ((a, kind_a), (b, kind_b)):
                    got = gen.read(len(data), kind(data))
                    assert type(got) is bytes
                    assert got == xor_reference(data, ks[pos:pos + len(data)])
                    pos += len(data)
        # data equal to the keystream XORs to zeros, which keep their full length
        for data in (a, b):
            assert gen.read(len(data), ks[pos:pos + len(data)]) == bytes(len(data))
            pos += len(data)
        assert pos == len(ks)


@pytest.mark.parametrize("words", [
    [5, 0], [0x01020304, 0], random.Random(30_000).choices(range(2**32), k=30_000),
], ids=["high bytes zero", "low byte set", "past the table threshold"])
def test_encrypt_bytes_reads_wide_items_by_their_bytes(words):
    data = array("I", words)
    assert encrypt_bytes(GOOD_KEY, data) == encrypt_bytes(GOOD_KEY, bytes(data))


def test_generate_key_draws_again_after_a_weak_key(monkeypatch):
    draws = iter(["00000000010000000102", "AAAAAAAAAABBBBBBBBBB"])

    def token_hex(nbytes):
        assert nbytes == 10
        return next(draws)
    monkeypatch.setattr(secrets, "token_hex", token_hex)
    assert generate_key() == GOOD_KEY


def keystream_period(key):
    """lcm of the key's two orbit periods, or None if either does not close."""
    a, b = (cycle_length(seed, mu) for seed, mu in ((key.seed1, key.mu1), (key.seed2, key.mu2)))
    return math.lcm(a.period, b.period) if a.found and b.found else None


def test_generate_key_draws_again_after_a_short_period_key(monkeypatch):
    # both keys pass validation, but their keystreams repeat every 10,416
    # and 9,120 bytes
    draws = iter(["7311D8A385A6CECC1B8F", "D7185DDA8165BD9ACBC8", "AAAAAAAAAABBBBBBBBBB"])
    monkeypatch.setattr(secrets, "token_hex", lambda nbytes: next(draws))
    assert generate_key() == GOOD_KEY
    assert next(draws, None) is None


def test_generate_key_never_returns_a_key_below_the_period_floor(monkeypatch):
    rng, draws = random.Random(23), []

    def token_hex(nbytes):
        draws.append(rng.randbytes(nbytes).hex().upper())
        return draws[-1]
    monkeypatch.setattr(secrets, "token_hex", token_hex)
    keys = [generate_key() for _ in range(20)]
    assert all(keystream_period(key) >= PERIOD_FLOOR for key in keys)
    # the seeded draws hold valid keys below the floor, and those were drawn again
    returned = {key.to_hex() for key in keys}
    skipped = []
    for text in draws:
        try:
            key = parse_key(text)
        except DegenerateKeyError:
            continue
        if text not in returned:
            skipped.append(keystream_period(key))
    assert skipped and all(p is None or p < PERIOD_FLOOR for p in skipped)


def test_generate_key_never_emits_invalid_keys():
    for _ in range(1000):
        key = generate_key()
        key.validate()  # raises on degenerate or weak draws
        assert key.mu1 != key.mu2
        assert parse_key(key.to_hex()) == key


seeds = st.integers(0, 2**32 - 1)
# mu 0 maps every state to 2**31, so it is drawn on its own as well
factors = st.just(0) | st.integers(0, 255)


@st.composite
def keys_near_the_degenerate_class(draw):
    seed1, mu1 = draw(seeds), draw(factors)
    seed2 = draw(st.sampled_from([seed1, seed1 ^ 2**31]) | seeds)
    mu2 = draw(st.just(mu1) | factors)
    return CipherKey(seed1=seed1, mu1=mu1, seed2=seed2, mu2=mu2)


@settings(max_examples=300, deadline=None)
@given(keys_near_the_degenerate_class(), st.booleans())
# mu 1 twice: accepted under the flag before equal mu below 129 was refused
@example(CipherKey(seed1=2147483520, mu1=1, seed2=0, mu2=1), True)
def test_every_accepted_key_gives_a_nonzero_keystream(key, allow_weak_mu):
    try:
        accepted = parse_key(key.to_hex(), allow_weak_mu=allow_weak_mu)
    except DegenerateKeyError:
        return
    ks = keystream_bytes(accepted, 4096, allow_weak_mu=allow_weak_mu)
    assert ks != bytes(4096)
