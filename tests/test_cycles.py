"""The census table of cycles, bernstream._cycles, and the recorded orbits
that close through it."""

import random
import sys
from array import array
from binascii import a2b_base64

import pytest

from bernstream import _cycles, keystream, prng
from bernstream.cipher import parse_key
from bernstream.keystream import TABLE_THRESHOLD, KeystreamGenerator, _Orbit
from bernstream.prng import CYCLE_BLOCK, iterate_lanes

from oracles import advance, orbit_reference, verify_cycle

M = _cycles.M
# The four keys of the bulk-encrypt benchmark workload.
BULK_KEYS = ("F4271242D67D883F82A5", "C13EE345BB155AB65983",
             "99583E5DE330F6FF6298", "1282A60FCCAB21059D81")


def entries():
    """{mu: [(period, basin, marks)]} of the table, decoded here."""
    out = {}
    for line in _cycles.TABLE.splitlines():
        mu, *fields = line.split(" ")
        out[int(mu)] = []
        if not fields:
            continue
        cycles, blob = fields
        words = array("I", a2b_base64(blob))
        if sys.byteorder == "big":
            words.byteswap()
        start = 0
        for cycle in cycles.split(","):
            period, basin = map(int, cycle.split(":"))
            count = -(-period // M)
            out[int(mu)].append((period, basin, words[start:start + count]))
            start += count
        assert start == len(words)
    return out


def tabulated(mu):
    return entries()[mu]


@pytest.fixture
def no_table(monkeypatch):
    """Empty the cycle table, so every orbit closes on prng.cycle_blocks."""
    return lambda: monkeypatch.setattr(_cycles, "TABLE", "")


def test_every_tabulated_cycle_checks_out_through_the_lanes():
    # From mark j, M lane steps reach mark j + 1, and period steps from the
    # smallest word return to it and to no word at or below it before.
    table = entries()
    assert list(table) == list(range(129, 256))
    assert 512 <= M <= 1024
    for mu, cycles in table.items():
        lows = [marks[0] for *_, marks in cycles]
        assert lows == sorted(set(lows))
        assert sum(basin for _, basin, _ in cycles) <= _cycles.SEEDS
        for period, basin, marks in cycles:
            assert period >= CYCLE_BLOCK and basin >= 1
            count = len(marks)
            words = array("I", bytes(4 * count * M))
            iterate_lanes(marks, mu, M, words, range(0, count * M, M))
            # words[q - 1] is the cycle's word q steps past its smallest
            assert words[M - 1:(count - 1) * M:M] == marks[1:]
            assert words[period - 1] == marks[0]
            assert min(words[:period - 1]) > marks[0]


@pytest.mark.parametrize("mu", [130, 200, 255])
def test_table_entries_replay_on_the_oracle(mu):
    period, _, marks = min(tabulated(mu))
    words = orbit_reference(marks[0], mu, period)
    assert words[-1] == marks[0] == min(words)
    assert words[M - 1::M] == marks[1:].tolist() + ([marks[0]] if period % M == 0 else [])
    assert verify_cycle(marks[0], mu, 0, period) == []


def test_only_strong_mu_is_tabulated():
    assert keystream._tabulated(128) == {} == keystream._tabulated(0)
    period, _, marks = tabulated(170)[0]
    table = keystream._tabulated(170)
    assert table[marks[3]] == (marks, period, 3)


def keys_under_test():
    rng = random.Random(30)
    keys = [parse_key(k) for k in BULK_KEYS]
    while len(keys) < len(BULK_KEYS) + 50:
        try:
            keys.append(parse_key(rng.randbytes(10).hex()))
        except ValueError:
            pass
    return keys


def split_sizes(n, rng):
    sizes = []
    while n:
        sizes.append(min(n, rng.choice([rng.randrange(1, 2000),
                                        rng.randrange(1, 3 * keystream._BLOCK)])))
        n -= sizes[-1]
    return sizes


def test_table_path_reads_equal_the_closure_path(no_table, lane_calls):
    # The bulk-encrypt keys and 50 random ones: one read past every orbit's
    # closure, and the same bytes in random splits, each against the same
    # reads with the table emptied; every recorded orbit's (tail, period)
    # is the closure's.
    n = TABLE_THRESHOLD + 400_000
    keys, rng = keys_under_test(), random.Random(3)
    splits = [[n], *(split_sizes(n, rng) for _ in keys)]

    def reads(key, sizes):
        gen = KeystreamGenerator.from_key(key)
        return b"".join(gen.read(k) for k in sizes), [(o.tail, o.period) for o in gen._orbits]
    got = [[reads(key, sizes) for sizes in (splits[0], split)]
           for key, split in zip(keys, splits[1:])]
    # both reads of most keys closed both orbits through the table
    assert len(lane_calls) > 2 * len(keys)
    no_table()
    for key, split, (whole, parts) in zip(keys, splits[1:], got):
        assert whole == reads(key, splits[0])
        assert parts == reads(key, split)
        assert whole[0] == parts[0]
        assert all(period for _, period in whole[1] + parts[1])


def orbit_state(orbit):
    return orbit.words, orbit.seq, orbit.tail, orbit.period


@pytest.mark.parametrize("phase", [0, 1, 5, M - 1, M, 3 * M + 7, -1])
def test_an_orbit_from_its_cycle_closes_in_the_first_block(monkeypatch, no_table, phase):
    # From any word of a tabulated cycle the tail is 0 and the first block
    # holds a mark; the period, 168,564, is no multiple of M.
    period, _, marks = tabulated(170)[0]
    assert period % M
    x = advance(marks[0], 170, phase % period)
    stepped = []
    iterate = prng.BernoulliGenerator.iterate

    def counted(gen, n):
        stepped.append(n)
        return iterate(gen, n)
    monkeypatch.setattr(prng.BernoulliGenerator, "iterate", counted)
    orbit = _Orbit(x, 170)
    assert orbit.record(1)
    assert (orbit.tail, orbit.period) == (0, period)
    assert stepped == [CYCLE_BLOCK]
    assert orbit.words[:5].tolist() == orbit_reference(x, 170, 5)
    assert orbit.words[-1] == x
    monkeypatch.undo()
    no_table()
    scalar = _Orbit(x, 170)
    assert scalar.record(period + 2 * CYCLE_BLOCK)
    assert orbit_state(orbit) == orbit_state(scalar)


@pytest.fixture
def lane_calls(monkeypatch):
    """The lane count of each prng.iterate_lanes call the keystream makes."""
    calls = []

    def counted(starts, mu, n, out, at):
        calls.append(len(starts))
        iterate_lanes(starts, mu, n, out, at)
    monkeypatch.setattr(keystream, "iterate_lanes", counted)
    return calls


@pytest.mark.parametrize("before", [1, 2, 100, CYCLE_BLOCK + 5])
def test_tails_are_placed_by_bisection(no_table, lane_calls, before):
    # Orbits that reach a tabulated cycle `before` steps after they start:
    # the record's tail is one word shorter than the orbit's, as on the
    # closure path. mu 150 has one tabulated cycle, which every census seed
    # reached.
    period, _, _ = tabulated(150)[0]
    rng = random.Random(before)
    while True:
        seed = rng.getrandbits(32)
        *_, (tail, p, _) = prng.cycle_blocks(seed, 150, keystream.TABLE_CAP, array("I"))
        if p == period and tail >= before:
            break
    x = advance(seed, 150, tail - before)
    orbit = _Orbit(x, 150)
    assert orbit.record(period + 3 * CYCLE_BLOCK)
    assert lane_calls == [-(-period // M)]
    no_table()
    scalar = _Orbit(x, 150)
    assert scalar.record(period + 3 * CYCLE_BLOCK)
    assert (orbit.tail, orbit.period) == (before - 1, period)
    assert orbit_state(orbit) == orbit_state(scalar)
