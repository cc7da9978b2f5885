import io
import math
import random
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernstream import analysis, keystream, prng
from bernstream.cipher import (CipherKey, DegenerateKeyError, encrypt_bytes, encrypt_stream,
                               parse_key)
from bernstream.keystream import TABLE_THRESHOLD, KeystreamGenerator, keystream_bytes
from bernstream.prng import BernoulliGenerator

from oracles import (advance, cycle_visited, keystream_reference, orbit_reference,
                     prime_factors, split_word_arith, verify_cycle, xor_parity_byte,
                     xor_reference)

SIM_KEY = CipherKey(seed1=0xAAAAAAAA, mu1=0xAA, seed2=0xBBBBBBBB, mu2=0xBB)
# (tail, period) of SIM_KEY's two orbits, from the seed, in steps.
SIM_ORBIT_A = (78_975, 168_564)
SIM_ORBIT_B = (13_446, 123_877)
# Past both orbits' tail + period, so every read() path is exercised.
SIM_LONG = 300_000


# Orbits from the seed, as (seed, mu, tail, period), for the chunked-read
# cases: a period 1 (weak mu), a period 2, and a period below _BLOCK whose
# tail ends past TABLE_THRESHOLD.
PERIOD_1 = (3280387012, 0, 1, 1)
PERIOD_2 = (2829035385, 187, 31301, 2)
SHORT_PERIOD = (3725226338, 151, 231640, 5736)


# Stream position where the chunked reads below record each orbit: they cut
# one byte before TABLE_THRESHOLD, and the orbit is recorded from the first
# word of the read that reaches it.
ORIGIN = TABLE_THRESHOLD - 1


def table_edges(tail, period):
    """Stream positions where a recorded orbit enters its cycle and first wraps.

    Byte p comes from the state p + 1 steps after the seed, and the orbit
    is recorded from stream position ORIGIN.
    """
    entry = max(tail - 1, ORIGIN)
    return entry, entry + period


def scalar_keystream(monkeypatch, n, key=SIM_KEY):
    """First n bytes of a key's keystream from one read on the scalar loop."""
    with monkeypatch.context() as m:
        # a read is served from the recorded orbits once it reaches the threshold
        m.setattr(keystream, "TABLE_THRESHOLD", n + 1)
        gen = KeystreamGenerator.from_key(key, allow_weak_mu=True)
        out = gen.read(n)
        assert gen._orbits == [None, None]
    return out


def table_cuts(orbits, n):
    """Stream positions up to n that cut a read at every table boundary.

    The cuts fall at each generator's tail and tail + period from the seed,
    at its cycle entry and first wrap in its recorded orbit, at multiples
    of _BLOCK from TABLE_THRESHOLD, and one byte either side of each.
    """
    block = keystream._BLOCK
    edges = [TABLE_THRESHOLD + k * block for k in range(4)]
    for tail, period in orbits:
        edges += [tail, tail + period, *table_edges(tail, period)]
    return sorted({e + d for e in edges for d in (-1, 0, 1) if 0 < e + d < n} | {n})


def assert_chunked_reads_exact(monkeypatch, key, orbits, n):
    """Read a key's first n bytes in chunks cut at every table boundary.

    The bytes must equal one scalar-path read; after each chunk both
    generators' states, and the chunk's last byte, must equal the
    arithmetic oracle's.
    """
    cuts = table_cuts(orbits, n)
    want = scalar_keystream(monkeypatch, n, key)
    gen = KeystreamGenerator.from_key(key, allow_weak_mu=True)
    xa, xb, got = key.seed1, key.seed2, b""
    for a, b in zip([0] + cuts, cuts):
        got += gen.read(b - a)
        xa, xb = advance(xa, key.mu1, b - a), advance(xb, key.mu2, b - a)
        assert (gen.gen_a.x, gen.gen_b.x) == (xa, xb)
        assert got[-1] == xor_parity_byte(split_word_arith(xa) + split_word_arith(xb))
    for orbit, (tail, period) in zip(gen._orbits, orbits):
        assert (orbit.tail, orbit.period) == (max(tail - 1 - ORIGIN, 0), period)
    assert got == want
    assert keystream_bytes(key, n, allow_weak_mu=True) == want


def test_split_word_known_values():
    assert split_word_arith(0x12345678) == (0x12, 0x34, 0x56, 0x78)
    assert split_word_arith(0) == (0, 0, 0, 0)
    # first word of the 0xAAAAAAAA / mu=170 orbit, 0x63AAAAA9
    assert split_word_arith(1672129193) == (0x63, 0xAA, 0xAA, 0xA9)
    assert keystream._fold(array("I", [1672129193])) == bytes([0x63 ^ 0xAA ^ 0xAA ^ 0xA9])


def test_split_word_round_trip_random():
    rng = random.Random(0x5111)
    for _ in range(10_000):
        w = rng.randrange(2**32)
        b3, b2, b1, b0 = split_word_arith(w)
        assert (b3 << 24) | (b2 << 16) | (b1 << 8) | b0 == w
        assert (b3, b2, b1, b0) == tuple(w.to_bytes(4, "big"))


def fold_pairs(wa, wb):
    """_fold of two generators' words, given as lists."""
    return keystream._fold(array("I", wa), array("I", wb))


def test_combine_known_values():
    assert fold_pairs([0xDEADBEEF], [0xDEADBEEF]) == b"\x00"
    assert fold_pairs([0x01020408], [0x10204080]) == b"\xff"
    assert fold_pairs([0xAAAAAAAA], [0xAAAAAAAA]) == b"\x00"


def test_combine_matches_parity_oracle():
    rng = random.Random(0xC0B1)
    wa = [rng.randrange(2**32) for _ in range(5_000)]
    wb = [rng.randrange(2**32) for _ in range(5_000)]
    assert list(fold_pairs(wa, wb)) == [
        xor_parity_byte(split_word_arith(a) + split_word_arith(b)) for a, b in zip(wa, wb)]


def test_combine_xor_linearity():
    rng = random.Random(0x11EA)
    wa, wb, wc = ([rng.randrange(2**32) for _ in range(2_000)] for _ in range(3))
    a_xor_c = [a ^ c for a, c in zip(wa, wc)]
    want = bytes(x ^ y for x, y in zip(fold_pairs(wa, wb), fold_pairs(wc, [0] * 2_000)))
    assert fold_pairs(a_xor_c, wb) == want


def folds_reference(words):
    """Each word's four byte sections XORed, from the arithmetic oracles,
    applied elementwise to the words as one numpy array."""
    folded = xor_parity_byte(split_word_arith(np.array(words, dtype=np.int64)))
    return np.asarray(folded, dtype=np.uint8).tobytes()


# Words whose set bits sit at the edges of a word, where the big-int fold
# shifts bits across word boundaries.
EDGE_WORDS = [0, 0xFFFFFFFF, 0x80000000, 0xFF000000, 0x000000FF, 0x00000001]


@pytest.mark.parametrize("words", [
    [0], [0xFFFFFFFF], [0x80000000], [0xFF000000, 0x000000FF], [0x000000FF, 0xFF000000],
    [0xFFFFFFFF, 0, 0xFFFFFFFF], [0, 0xFFFFFFFF, 0], EDGE_WORDS,
])
def test_fold_edge_words(words):
    assert keystream._fold(array("I", words)) == folds_reference(words)


# either side of a 2**14-word fold and of a _BLOCK (2**16-word) one
@pytest.mark.parametrize("n", [1, 2, 3, 2**14 - 1, 2**14, 2**14 + 1, keystream._BLOCK - 1,
                               keystream._BLOCK, keystream._BLOCK + 1])
def test_fold_lengths(n):
    rng = random.Random(n)
    words = [rng.choice(EDGE_WORDS + [rng.randrange(2**32)]) for _ in range(n)]
    assert keystream._fold(array("I", words)) == folds_reference(words)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(EDGE_WORDS), st.integers(0, 2**32 - 1)),
                max_size=40))
def test_fold_matches_parity_oracle(words):
    assert keystream._fold(array("I", words)) == folds_reference(words)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(*[st.one_of(st.sampled_from(EDGE_WORDS), st.integers(0, 2**32 - 1))] * 2),
                max_size=40))
def test_fold_of_two_arrays_xors_their_folds(pairs):
    wa, wb = [p[0] for p in pairs], [p[1] for p in pairs]
    want = bytes(x ^ y for x, y in zip(folds_reference(wa), folds_reference(wb)))
    assert keystream._fold(array("I", wa), array("I", wb)) == want


class TestKeystreamGenerator:

    def test_identical_generators_cancel(self):
        gen = KeystreamGenerator(BernoulliGenerator(123, 170),
                                 BernoulliGenerator(123, 170))
        assert gen.read(100) == bytes(100)

    def test_first_byte_matches_simulation_parameters(self):
        gen = KeystreamGenerator.from_key(SIM_KEY)
        expected = keystream_reference(0xAAAAAAAA, 0xAA, 0xBBBBBBBB, 0xBB, 1)
        first = gen.read(1)[0]
        assert first == expected[0]
        assert first == 0x70  # frozen from the arithmetic oracle

    def test_each_byte_advances_both_generators_once(self):
        gen = KeystreamGenerator.from_key(SIM_KEY)
        gen.read(1)
        gen.read(1)
        twin_a = BernoulliGenerator(SIM_KEY.seed1, SIM_KEY.mu1)
        twin_a.iterate(2)
        assert gen.gen_a.x == twin_a.x

    def test_lockstep_after_bulk_read(self):
        gen = KeystreamGenerator.from_key(SIM_KEY)
        gen.read(777)
        twin_a = BernoulliGenerator(SIM_KEY.seed1, SIM_KEY.mu1)
        twin_b = BernoulliGenerator(SIM_KEY.seed2, SIM_KEY.mu2)
        twin_a.iterate(777)
        twin_b.iterate(777)
        assert gen.gen_a.x == twin_a.x
        assert gen.gen_b.x == twin_b.x

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 64, 65, 1000])
    def test_read_equals_repeated_next_byte(self, n):
        # one read, n one-byte reads and the byte-at-a-time oracle agree
        bulk = KeystreamGenerator.from_key(SIM_KEY)
        single = KeystreamGenerator.from_key(SIM_KEY)
        want = keystream_reference(SIM_KEY.seed1, SIM_KEY.mu1, SIM_KEY.seed2, SIM_KEY.mu2, n)
        assert bulk.read(n) == b"".join(single.read(1) for _ in range(n)) == want
        assert bulk.gen_a.x == single.gen_a.x == advance(SIM_KEY.seed1, SIM_KEY.mu1, n)
        assert bulk.gen_b.x == single.gen_b.x == advance(SIM_KEY.seed2, SIM_KEY.mu2, n)

    def test_state_after_read_past_both_cycles(self):
        gen = KeystreamGenerator.from_key(SIM_KEY)
        gen.read(SIM_LONG)
        assert sum(SIM_ORBIT_A) < SIM_LONG and sum(SIM_ORBIT_B) < SIM_LONG
        assert gen.gen_a.x == advance(SIM_KEY.seed1, SIM_KEY.mu1, SIM_LONG)
        assert gen.gen_b.x == advance(SIM_KEY.seed2, SIM_KEY.mu2, SIM_LONG)

    def test_mixing_read_next_byte_and_iterate_stays_in_lockstep(self):
        gen = KeystreamGenerator.from_key(SIM_KEY)
        head = gen.read(TABLE_THRESHOLD + 1000)
        recorded = list(gen._orbits)
        # iterate() moves both generators off their orbits: both recorded again
        gen.gen_a.iterate(3)
        gen.gen_b.iterate(3)
        mixed = gen.read(500)
        assert all(new is not old for new, old in zip(gen._orbits, recorded))
        recorded = list(gen._orbits)
        # and again between two reads from the new tables
        gen.gen_a.iterate(7)
        gen.gen_b.iterate(7)
        tail = gen.read(2000)
        assert all(new is not old for new, old in zip(gen._orbits, recorded))
        recorded = list(gen._orbits)
        tail += gen.read(3000)
        assert all(new is old for new, old in zip(gen._orbits, recorded))
        want = keystream_bytes(SIM_KEY, len(head) + 503 + 7 + 5000)
        assert head == want[:len(head)]
        assert mixed == want[len(head) + 3:len(head) + 503]
        assert tail == want[len(head) + 510:]
        n = len(want)
        assert gen.gen_a.x == advance(SIM_KEY.seed1, SIM_KEY.mu1, n)
        assert gen.gen_b.x == advance(SIM_KEY.seed2, SIM_KEY.mu2, n)

    def test_short_reads_build_no_table(self, monkeypatch):
        # short reads that stay one byte below the threshold, the last one partial
        sizes = [4096] * (TABLE_THRESHOLD // 4096 - 1) + [4095]
        with monkeypatch.context() as m:
            def refuse(*args):
                raise AssertionError("orbit recorded below the threshold")
            m.setattr(keystream, "_Orbit", refuse)
            gen = KeystreamGenerator.from_key(SIM_KEY)
            out = b"".join(gen.read(k) for k in sizes)
        assert out == keystream_bytes(SIM_KEY, TABLE_THRESHOLD - 1)
        assert gen._orbits == [None, None]
        # the read that reaches the threshold records both orbits from its
        # first word, and steps each one closure block
        want = keystream_bytes(SIM_KEY, SIM_LONG)
        assert gen.read(1) == want[TABLE_THRESHOLD - 1:TABLE_THRESHOLD]
        assert all(isinstance(o, keystream._Orbit) for o in gen._orbits)
        for orbit, seed, mu in zip(gen._orbits, (SIM_KEY.seed1, SIM_KEY.seed2),
                                   (SIM_KEY.mu1, SIM_KEY.mu2)):
            assert orbit.words[0] == advance(seed, mu, TABLE_THRESHOLD)
            assert len(orbit.words) == prng.CYCLE_BLOCK
        # read on past both closures: the orbits keep their anchor
        assert gen.read(SIM_LONG - TABLE_THRESHOLD) == want[TABLE_THRESHOLD:]
        for orbit, (tail, period) in zip(gen._orbits, [SIM_ORBIT_A, SIM_ORBIT_B]):
            assert (orbit.tail, orbit.period) == (max(tail - 1 - ORIGIN, 0), period)

    def test_first_long_read_records_from_the_seed(self, monkeypatch):
        # a first read of TABLE_THRESHOLD bytes, as encrypt_stream's first
        # chunk is, records each orbit from the seed, stepping each word once
        want = keystream_bytes(SIM_KEY, SIM_LONG)
        stepped = {SIM_KEY.mu1: 0, SIM_KEY.mu2: 0}
        iterate = BernoulliGenerator.iterate

        def counted(gen, n):
            stepped[gen.mu] += n
            return iterate(gen, n)
        monkeypatch.setattr(BernoulliGenerator, "iterate", counted)
        gen = KeystreamGenerator.from_key(SIM_KEY)
        assert gen.read(TABLE_THRESHOLD) == want[:TABLE_THRESHOLD]
        # neither orbit closes within the read, so each is stepped only as
        # far as the read needs, not whole
        assert max(stepped.values()) <= TABLE_THRESHOLD + prng.CYCLE_BLOCK
        assert gen.gen_a.x == advance(SIM_KEY.seed1, SIM_KEY.mu1, TABLE_THRESHOLD)
        assert gen.gen_b.x == advance(SIM_KEY.seed2, SIM_KEY.mu2, TABLE_THRESHOLD)
        # the next reads step each orbit on until it closes
        assert gen.read(SIM_LONG - TABLE_THRESHOLD) == want[TABLE_THRESHOLD:]
        for orbit, (tail, period) in zip(gen._orbits, [SIM_ORBIT_A, SIM_ORBIT_B]):
            assert (orbit.tail, orbit.period) == (tail - 1, period)
        # each closure steps less than two closure blocks past its tail + period
        assert sum(stepped.values()) < sum(SIM_ORBIT_A) + sum(SIM_ORBIT_B) + 4 * prng.CYCLE_BLOCK
        assert gen.gen_a.x == advance(SIM_KEY.seed1, SIM_KEY.mu1, SIM_LONG)
        assert gen.gen_b.x == advance(SIM_KEY.seed2, SIM_KEY.mu2, SIM_LONG)

    def test_read_negative_rejected(self):
        with pytest.raises(ValueError):
            KeystreamGenerator.from_key(SIM_KEY).read(-1)

    def test_from_key_rejects_degenerate(self):
        bad = CipherKey(seed1=5, mu1=170, seed2=5, mu2=170)
        with pytest.raises(DegenerateKeyError):
            KeystreamGenerator.from_key(bad)


def test_keystream_bytes_empty():
    assert keystream_bytes(SIM_KEY, 0) == b""


def test_keystream_bytes_prefix_consistency():
    short = keystream_bytes(SIM_KEY, 100)
    long = keystream_bytes(SIM_KEY, 1000)
    assert long[:100] == short


def test_keystream_bytes_matches_reference():
    got = keystream_bytes(SIM_KEY, 256)
    want = keystream_reference(0xAAAAAAAA, 0xAA, 0xBBBBBBBB, 0xBB, 256)
    assert got == want


def test_table_path_matches_scalar_across_boundaries(monkeypatch):
    # both periods above _BLOCK; a's tail ends past the threshold
    assert_chunked_reads_exact(monkeypatch, SIM_KEY, [SIM_ORBIT_A, SIM_ORBIT_B], SIM_LONG)


@pytest.mark.parametrize("orbit_a, orbit_b, block", [
    (PERIOD_1, PERIOD_2, None),
    (SHORT_PERIOD, PERIOD_2, None),
    # _BLOCK set to a period
    (SHORT_PERIOD, PERIOD_1, SHORT_PERIOD[3]),
    (PERIOD_2, PERIOD_1, 2),
    (PERIOD_1, PERIOD_2, 1),
], ids=["periods 1 and 2", "period below block", "period equal to block",
        "period 2 equal to block", "period 1 equal to block"])
def test_short_periods_match_scalar_across_boundaries(monkeypatch, orbit_a, orbit_b, block):
    if block:
        monkeypatch.setattr(keystream, "_BLOCK", block)
    key = CipherKey(seed1=orbit_a[0], mu1=orbit_a[1], seed2=orbit_b[0], mu2=orbit_b[1])
    orbits = [orbit_a[2:], orbit_b[2:]]
    n = max(table_edges(*o)[1] for o in orbits) + 4 * keystream._BLOCK + 5
    assert_chunked_reads_exact(monkeypatch, key, orbits, n)


def served_until_closed(x, mu):
    """An _Orbit from state x, served in _BLOCK-word windows until it closes."""
    orbit = keystream._Orbit(x, mu)
    while orbit.period is None and orbit._blocks:
        orbit.serve(keystream._BLOCK)
    assert orbit.period is not None
    return orbit


@pytest.mark.parametrize("seed, mu", [
    (0x12345678, 100), (0xDEADBEEF, 60), (7, 1), (5, 0),
    (0x9E3779B9, 140), (0xAAAAAAAA, 170), PERIOD_1[:2], PERIOD_2[:2],
])
def test_recorded_orbit_matches_oracle(seed, mu):
    orbit = served_until_closed(seed, mu)
    tail, period = cycle_visited(seed, mu, 1 << 20)
    # the table starts at the first output word, one step after the seed
    assert (orbit.tail, orbit.period) == (max(tail - 1, 0), period)
    words = orbit_reference(seed, mu, orbit.tail + orbit.period)
    assert orbit.words.tolist() == words
    # folded bytes: the tail's, then the cycle's repeated over period + _BLOCK
    folded = [a ^ b ^ c ^ d for a, b, c, d in map(split_word_arith, words)]
    cycle = folded[orbit.tail:]
    assert list(orbit.seq) == folded[:orbit.tail] + [
        cycle[i % period] for i in range(period + keystream._BLOCK)]


@pytest.mark.parametrize("blocks_per_period", [1, 2, 3])
def test_periods_that_are_multiples_of_the_block_close(monkeypatch, blocks_per_period):
    seed, mu, tail, period = SHORT_PERIOD
    monkeypatch.setattr(prng, "CYCLE_BLOCK", period // blocks_per_period)
    # from 10 steps before the cycle, the table's tail is 9 words
    orbit = served_until_closed(advance(seed, mu, tail - 10), mu)
    assert (orbit.tail, orbit.period) == (9, period)


# The four keys of the bulk-encrypt benchmark workload.
BULK_KEYS = ("F4271242D67D883F82A5", "C13EE345BB155AB65983",
             "99583E5DE330F6FF6298", "1282A60FCCAB21059D81")


def test_bulk_encrypt_orbits_close_within_two_closure_blocks():
    # encrypt's reads step each of these eight orbits from its seed, through
    # prng.cycle_blocks with this budget, until it closes; cycle_length runs
    # the same closure to its end
    steps = visited = 0
    for key in map(parse_key, BULK_KEYS):
        for seed, mu in ((key.seed1, key.mu1), (key.seed2, key.mu2)):
            tail, period, n = analysis.cycle_length(seed, mu, keystream.TABLE_CAP)
            assert tail + period <= n < tail + period + 2 * prng.CYCLE_BLOCK
            steps, visited = steps + n, visited + tail + period
    assert visited == 535_094
    assert steps == 565_248


def test_orbits_fold_one_closure_block_at_a_time(monkeypatch):
    # A 1 MiB encrypt_stream under a bulk-encrypt key: every fold of one
    # orbit's words covers at most one CYCLE_BLOCK, and each block is folded
    # as it is stepped, so seq keeps pace with words until the orbit closes.
    folded, fold, serve = [], keystream._fold, keystream._Orbit.serve

    def recorded(*arrays):
        if len(arrays) == 1:
            folded.append(len(arrays[0]))
        return fold(*arrays)

    orbits = set()

    def checked(orbit, n):
        out = serve(orbit, n)
        orbits.add(orbit)
        assert orbit.period is not None or len(orbit.seq) == len(orbit.words)
        return out
    monkeypatch.setattr(keystream, "_fold", recorded)
    monkeypatch.setattr(keystream._Orbit, "serve", checked)
    plain = random.Random(1).randbytes(1 << 20)
    dst = io.BytesIO()
    assert encrypt_stream(parse_key(BULK_KEYS[0]), io.BytesIO(plain), dst) == len(plain)
    assert len(orbits) == 2 and all(o.period for o in orbits)
    assert folded and max(folded) <= prng.CYCLE_BLOCK
    monkeypatch.undo()
    assert dst.getvalue() == encrypt_bytes(parse_key(BULK_KEYS[0]), plain)


def assert_capped_a_closed_b(orbits):
    """SIM_KEY's orbits under a TABLE_CAP of 2**17, recorded from a stream
    position past b's tail: a overran the cap, so it keeps no record and
    steps on alone; b closed."""
    a, b = orbits
    assert (a.tail, a.period) == (None, None)
    assert len(a.words) < prng.CYCLE_BLOCK
    assert (b.tail, b.period) == (0, SIM_ORBIT_B[1])


def assert_fused_reads_exact(key, orbits, n):
    """read(k, data) is data XOR read(k), for chunks cut at every table boundary."""
    plain = random.Random(n).randbytes(n)
    fused = KeystreamGenerator.from_key(key, allow_weak_mu=True)
    unfused = KeystreamGenerator.from_key(key, allow_weak_mu=True)
    cuts = table_cuts(orbits, n)
    for a, b in zip([0] + cuts, cuts):
        chunk = plain[a:b]
        assert fused.read(b - a, chunk) == xor_reference(chunk, unfused.read(b - a))
    assert (fused.gen_a.x, fused.gen_b.x) == (unfused.gen_a.x, unfused.gen_b.x)
    return fused


def test_fused_read_matches_xor_on_a_capped_orbit(monkeypatch):
    # as in test_orbit_over_the_cap_stays_on_the_scalar_loop: a is capped,
    # so it steps on alone, while b is served from its closed orbit
    monkeypatch.setattr(keystream, "TABLE_CAP", 1 << 17)
    gen = assert_fused_reads_exact(SIM_KEY, [SIM_ORBIT_A, SIM_ORBIT_B], SIM_LONG)
    assert_capped_a_closed_b(gen._orbits)


def test_fused_read_matches_xor_on_periods_1_and_2():
    key = CipherKey(seed1=PERIOD_1[0], mu1=PERIOD_1[1], seed2=PERIOD_2[0], mu2=PERIOD_2[1])
    orbits = [PERIOD_1[2:], PERIOD_2[2:]]
    n = max(table_edges(*o)[1] for o in orbits) + 4 * keystream._BLOCK + 5
    gen = assert_fused_reads_exact(key, orbits, n)
    assert [o.period for o in gen._orbits] == [1, 2]


@pytest.mark.parametrize("n", [0, 1, 1000, TABLE_THRESHOLD + 1000])
def test_fused_read_takes_any_bytes_like(n):
    plain = random.Random(n).randbytes(n)
    want = xor_reference(plain, keystream_bytes(SIM_KEY, n))
    for kind in (bytes, bytearray, memoryview):
        got = KeystreamGenerator.from_key(SIM_KEY).read(n, kind(plain))
        assert type(got) is bytes
        assert got == want
    assert KeystreamGenerator.from_key(SIM_KEY).read(0, b"") == b""


@pytest.mark.parametrize("n, size", [(10, 9), (10, 11), (0, 1),
                                     (TABLE_THRESHOLD, TABLE_THRESHOLD - 1)])
def test_fused_read_rejects_data_of_another_length(n, size):
    gen = KeystreamGenerator.from_key(SIM_KEY)
    with pytest.raises(ValueError, match="data must hold"):
        gen.read(n, bytes(size))
    # nothing was stepped
    assert (gen.gen_a.x, gen.gen_b.x) == (SIM_KEY.seed1, SIM_KEY.seed2)
    assert gen.read(10) == keystream_bytes(SIM_KEY, 10)


def test_fused_read_counts_data_in_bytes():
    # two 4-byte items are 8 bytes, not 2
    gen = KeystreamGenerator.from_key(SIM_KEY)
    with pytest.raises(ValueError, match="data must hold 2 bytes, not 8"):
        gen.read(2, array("I", [5, 0]))
    assert (gen.gen_a.x, gen.gen_b.x) == (SIM_KEY.seed1, SIM_KEY.seed2)


def test_table_path_from_the_first_byte(monkeypatch):
    want = keystream_bytes(SIM_KEY, 5000)
    monkeypatch.setattr(keystream, "TABLE_THRESHOLD", 0)
    gen = KeystreamGenerator.from_key(SIM_KEY)
    assert gen.read(1) == want[:1]
    assert all(isinstance(o, keystream._Orbit) for o in gen._orbits)
    assert gen.read(4999) == want[1:]
    assert gen.gen_a.x == advance(SIM_KEY.seed1, SIM_KEY.mu1, 5000)
    assert gen.gen_b.x == advance(SIM_KEY.seed2, SIM_KEY.mu2, 5000)


def test_orbit_over_the_cap_stays_on_the_scalar_loop(monkeypatch):
    want = keystream_bytes(SIM_KEY, SIM_LONG)
    # generator b closes within 2**17 words of the threshold; a does not, so
    # a steps on alone
    monkeypatch.setattr(keystream, "TABLE_CAP", 1 << 17)
    gen = KeystreamGenerator.from_key(SIM_KEY)
    got = b"".join(gen.read(50_000) for _ in range(SIM_LONG // 50_000))
    assert_capped_a_closed_b(gen._orbits)
    assert got == want
    assert gen.gen_a.x == advance(SIM_KEY.seed1, SIM_KEY.mu1, SIM_LONG)
    assert gen.gen_b.x == advance(SIM_KEY.seed2, SIM_KEY.mu2, SIM_LONG)


def test_capped_orbit_and_b_are_recorded_once(monkeypatch):
    want = keystream_bytes(SIM_KEY, SIM_LONG)
    monkeypatch.setattr(keystream, "TABLE_CAP", 1 << 17)
    recorded = []
    cycle_blocks = keystream.cycle_blocks

    def counted(x, mu, max_steps, words):
        recorded.append((x, mu))
        return cycle_blocks(x, mu, max_steps, words)
    monkeypatch.setattr(keystream, "cycle_blocks", counted)
    gen = KeystreamGenerator.from_key(SIM_KEY)
    assert b"".join(gen.read(50_000) for _ in range(SIM_LONG // 50_000)) == want
    # both orbits are recorded once, from the read that reached the
    # threshold; a overran the cap and b closed, and no later read
    # recorded either again
    assert recorded == [(advance(SIM_KEY.seed1, SIM_KEY.mu1, 50_000), SIM_KEY.mu1),
                        (advance(SIM_KEY.seed2, SIM_KEY.mu2, 50_000), SIM_KEY.mu2)]
    assert_capped_a_closed_b(gen._orbits)


def test_keystream_bytes_propagates_key_validation():
    bad = CipherKey(seed1=7, mu1=200, seed2=7, mu2=200)
    with pytest.raises(DegenerateKeyError):
        keystream_bytes(bad, 10)


def test_suite_scale_bulk_length():
    # the four-million-bit sample size used for suite testing
    key = CipherKey(seed1=1288500000, mu1=192, seed2=858990000, mu2=205)
    assert len(keystream_bytes(key, 500_000)) == 500_000


def test_byte_section_dispersion_at_mu_170():
    # sections 2-4 disperse over nearly all byte values; section 1 is banded
    gen_a = BernoulliGenerator(0xAAAAAAAA, 170)
    words = gen_a.iterate(10_000)
    for shift in (16, 8, 0):
        assert len({(w >> shift) & 0xFF for w in words}) >= 243
    msb = {(w >> 24) & 0xFF for w in words}
    assert min(msb) >= 43 and max(msb) <= 212


# Orbits as (seed, mu, tail, period) for the per-orbit step count: both of
# SIM_KEY's, and a short period behind a long tail beside a period 2.
SIM_ORBITS = [(SIM_KEY.seed1, SIM_KEY.mu1, *SIM_ORBIT_A),
              (SIM_KEY.seed2, SIM_KEY.mu2, *SIM_ORBIT_B)]


@pytest.mark.parametrize("orbits, cap", [
    (SIM_ORBITS, None), (SIM_ORBITS, 1 << 17), ([SHORT_PERIOD, PERIOD_2], None),
], ids=["closing orbits", "a over the cap", "period 5736 and period 2"])
def test_each_orbit_word_is_stepped_at_most_once(monkeypatch, orbits, cap):
    # Over random read splits, with iterate() on one generator or both
    # between reads, each recorded orbit steps at most min(words served,
    # tail + period + CYCLE_BLOCK) + CYCLE_BLOCK words from its anchor, and
    # iterate() re-records only the orbit of the generator it moved. An
    # orbit longer than TABLE_CAP steps at most words served + CYCLE_BLOCK.
    if cap:
        monkeypatch.setattr(keystream, "TABLE_CAP", cap)
    block = prng.CYCLE_BLOCK
    (seed1, mu1, *_), (seed2, mu2, *_) = orbits
    key = CipherKey(seed1, mu1, seed2, mu2)
    iterate = BernoulliGenerator.iterate  # steps uncounted
    stepped = {key.mu1: 0, key.mu2: 0}

    def counted(gen, n):
        stepped[gen.mu] += n
        return iterate(gen, n)
    monkeypatch.setattr(BernoulliGenerator, "iterate", counted)
    for split in range(3):
        rng = random.Random(split)
        gen = KeystreamGenerator.from_key(key)
        gens = (gen.gen_a, gen.gen_b)
        twins = [BernoulliGenerator(key.seed1, key.mu1), BernoulliGenerator(key.seed2, key.mu2)]
        pos = [0, 0]  # steps from the seed
        anchors = [None, None]  # [orbit, its tail + period, words served, words stepped]
        while pos[0] < SIM_LONG:
            moved = [rng.random() < 0.15 for _ in gens]
            for i in range(2):
                if moved[i]:
                    k = rng.randrange(1, 3000)
                    iterate(gens[i], k)
                    iterate(twins[i], k)
                    pos[i] += k
            k = rng.choice([rng.randrange(1, 2000), rng.randrange(1, 3 * keystream._BLOCK)])
            before, old = dict(stepped), list(gen._orbits)
            got = gen.read(k)
            assert got == keystream._fold(*(array("I", iterate(t, k)) for t in twins))
            assert [g.x for g in gens] == [t.x for t in twins]
            for i, (g, orbit, (_, _, tail, period)) in enumerate(zip(gens, gen._orbits, orbits)):
                delta = stepped[g.mu] - before[g.mu]
                if orbit is None:
                    assert delta == k
                else:
                    assert (orbit is old[i]) == (old[i] is not None and not moved[i])
                    if orbit is not old[i]:
                        anchors[i] = [orbit, max(tail - pos[i], 0) + period, 0, 0]
                    anchor = anchors[i]
                    anchor[2] += k
                    anchor[3] += delta
                    served, length = anchor[2], anchor[1]
                    if length > keystream.TABLE_CAP:
                        length = served
                    assert anchor[3] <= min(served, length + block) + block
                pos[i] += k


@pytest.mark.parametrize("hex_key, orbit_a, orbit_b, lcm", [
    ("7311D8A385A6CECC1B8F", (5_742, 1_488), (73_273, 2_604), 10_416),
    ("D7185DDA8165BD9ACBC8", (651, 32), (48_658, 4_560), 9_120),
])
def test_short_period_keys_repeat_with_the_orbits_lcm(hex_key, orbit_a, orbit_b, lcm):
    # Keys that default validation accepts although their keystream repeats
    # within a few KiB; allow_weak_mu keeps them readable once it does not.
    key = parse_key(hex_key, allow_weak_mu=True)
    for (seed, mu), (tail, period) in (((key.seed1, key.mu1), orbit_a),
                                       ((key.seed2, key.mu2), orbit_b)):
        result = analysis.cycle_length(seed, mu)
        assert (result.tail, result.period) == (tail, period)
        assert verify_cycle(seed, mu, tail, period) == []
    assert math.lcm(orbit_a[1], orbit_b[1]) == lcm
    # byte i comes from step i + 1, so the bytes repeat from the later tail - 1
    start = max(orbit_a[0], orbit_b[0]) - 1
    ks = keystream_bytes(key, start + 2 * lcm, allow_weak_mu=True)
    assert ks[start:-lcm] == ks[start + lcm:]
    assert ks[start - 1] != ks[start - 1 + lcm]
    # every proper divisor of lcm divides some lcm // p, p prime
    for p in prime_factors(lcm):
        d = lcm // p
        assert ks[start:-d] != ks[start + d:]


def test_equivalent_and_slid_keys_give_one_keystream():
    # A step discards each seed's top bit, and XOR does not order the two
    # generators, so flipping both top bits or swapping the generators gives
    # the same keystream. Stepping both seeds once slides it by one byte.
    n = 70_001
    assert n > TABLE_THRESHOLD
    key = parse_key("F4271242D67D883F82A5")
    ks = keystream_bytes(key, n)
    assert keystream_bytes(parse_key("74271242D6FD883F82A5"), n) == ks
    assert keystream_bytes(parse_key("7D883F82A5F4271242D6"), n) == ks
    slid = parse_key("D7315286D6CF51A1DDA5")
    assert slid == (prng.step(key.seed1, key.mu1), key.mu1,
                    prng.step(key.seed2, key.mu2), key.mu2)
    assert keystream_bytes(slid, n - 1) == ks[1:]
