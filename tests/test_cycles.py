"""The census table of cycles, bernstream._cycles, and what closes orbits
through it: prng.close_orbit, so cycle_length and key_period, and the
keystream's recorded orbits."""

import random
import sys
from array import array
from binascii import a2b_base64

import pytest

from bernstream import _cycles, keystream, prng
from bernstream.analysis import cycle_length
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
    assert prng._tabulated(128) == {} == prng._tabulated(0)
    # the census found no cycle of CYCLE_BLOCK words or more under these
    assert prng._tabulated(129) == {} == prng._tabulated(131)
    period, _, marks = tabulated(170)[0]
    table = prng._tabulated(170)
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


@pytest.fixture
def prng_lanes(monkeypatch):
    """(lanes, steps) of each prng.iterate_lanes call that close_orbit makes."""
    calls = []

    def counted(starts, mu, n, out, at):
        calls.append((len(starts), n))
        iterate_lanes(starts, mu, n, out, at)
    monkeypatch.setattr(prng, "iterate_lanes", counted)
    return calls


def test_tabled_closures_agree_with_the_closure_off_the_table(prng_lanes):
    # Seeded draws of seed and strong mu. An orbit closed on the table steps
    # less than tail + M + CYCLE_BLOCK words one by one, and its lanes at
    # most CYCLE_BLOCK + 2M; one off the table steps as cycle_blocks does.
    rng = random.Random(31)
    for _ in range(24):
        seed, mu = rng.getrandbits(32), rng.randrange(129, 256)
        calls = len(prng_lanes)
        result = cycle_length(seed, mu)
        *_, (tail, period, steps) = prng.cycle_blocks(seed, mu, 10**7, array("I"))
        assert (result.tail, result.period) == (tail, period)
        assert verify_cycle(seed, mu, tail, period) == []
        if len(prng_lanes) > calls:
            (lanes, n), = prng_lanes[calls:]
            assert n == M and lanes <= CYCLE_BLOCK // M + 2
            assert result.steps_examined - lanes * M < tail + M + CYCLE_BLOCK
        else:
            assert result.steps_examined == steps
    assert len(prng_lanes) >= 18


@pytest.mark.parametrize("phase, lanes", [
    (0, 4), (-3073, 4), (-628 - 3073, 4), (-2976, 5),
], ids=["the hit is the block's last word", "the hit is mark 0, behind the short last lane",
        "the hit is the last mark", "the lanes span the short last lane"])
def test_an_orbit_from_a_tabulated_cycle_closes_after_one_block(prng_lanes, phase, lanes):
    # x_i lies phase + i steps past the cycle's smallest word, and the first
    # block's last M words, x_3073 .. x_4096, hold the hit. The lanes step
    # the words before it back to x_0, and mu 170's cycle of 168,564 words,
    # no multiple of M, ends in a lane of 628 words.
    period, _, marks = tabulated(170)[0]
    assert period - (len(marks) - 1) * M == 628
    x = advance(marks[0], 170, phase % period)
    assert cycle_length(x, 170) == (0, period, CYCLE_BLOCK + lanes * M)
    assert prng_lanes == [(lanes, M)]


def preimages(y, mu):
    """The words that one step under mu takes to y."""
    v = y - ((256 - mu) << 23)
    z = -(-(v << 7) // mu)
    return [z, z | 1 << 31] if v >= 0 and z >> 31 == 0 and z * mu >> 7 == v else []


def test_a_tail_at_the_low_end_of_the_bisection_span(monkeypatch, prng_lanes):
    # A mark's word with its top bit flipped steps where the mark does, to
    # the word one past the mark, and a preimage of it lies two steps off
    # the cycle. In blocks of M words, the first block's last M words then
    # hold M - 1 cycle words but no mark, so the tail lies above 1, the
    # span's low end, and it is 2.
    period, _, marks = tabulated(170)[0]
    seed = next(z for mark in marks[:-1] for z in preimages(mark ^ 1 << 31, 170))
    monkeypatch.setattr(prng, "CYCLE_BLOCK", M)
    *_, (tail, _, _) = prng.cycle_blocks(seed, 170, 10**7, array("I"))
    assert tail == 2
    # the hit is x_1025, mark 1 past the entry, and one lane covers x_1 .. x_1025
    assert cycle_length(seed, 170) == (2, period, 2 * M + M)
    assert prng_lanes == [(1, M)]


def test_a_tail_at_a_block_end(prng_lanes):
    # The example orbit entered 8,192 steps from its seed: the second
    # block's last word is the first on the cycle. It is no mark, so the
    # third block holds the hit, and five lanes span back past the second
    # block's last M words.
    x = advance(0x80000000, 170, 39_396 - 2 * CYCLE_BLOCK)
    assert cycle_length(x, 170) == (2 * CYCLE_BLOCK, 168_564, 3 * CYCLE_BLOCK + 5 * M)
    assert prng_lanes == [(5, M)]


@pytest.mark.parametrize("mu", [129, 131])
def test_mu_without_a_tabulated_cycle_closes_off_the_table(prng_lanes, mu):
    rng = random.Random(mu)
    for _ in range(4):
        seed = rng.getrandbits(32)
        *_, want = prng.cycle_blocks(seed, mu, 10**7, array("I"))
        assert cycle_length(seed, mu) == want
    assert prng_lanes == []


@pytest.mark.parametrize("seed, mu", [(0x80000000, 170), (0x65BD9ACB, 200)])
def test_every_budget_gives_the_table_close_or_the_closure_off_it(seed, mu):
    # Budgets around the hit, the lanes' end, tail + period and the closure
    # off the table. A budget the lanes would pass, or below the hit's p +
    # period, sets the table aside, and the closure runs on alone: its
    # result at that budget, exact or not found, is cycle_length's. mu
    # 200's cycle of 4,560 words closes off the table sooner than the
    # lanes end.
    *_, (tail, period, closed) = prng.cycle_blocks(seed, mu, 10**7, array("I"))
    tabled = cycle_length(seed, mu)
    assert tabled[:2] == (tail, period)
    hit = tabled.steps_examined - tabled.steps_examined % CYCLE_BLOCK
    budgets = {hit - 1, hit, hit + 1, hit - 123, tail + period - 1, tail + period,
               closed + CYCLE_BLOCK}
    budgets |= {b + d for b in (tabled.steps_examined, closed)
                for d in range(-CYCLE_BLOCK, 2, 256)}
    results = set()
    for budget in sorted(budgets):
        result = cycle_length(seed, mu, budget)
        *_, off = prng.cycle_blocks(seed, mu, budget, array("I"))
        assert result in (off, tabled)
        assert result.steps_examined <= budget
        if result.found:
            assert tail + period <= budget
        if off[1] is not None:
            assert result.found
        results.add(result.found and result == tabled)
    assert results == {True, False}


@pytest.mark.parametrize("hex_key", [*BULK_KEYS, "7311D8A385A6CECC1B8F",
                                     "D7185DDA8165BD9ACBC8"])
def test_key_period_is_the_same_off_the_table(no_table, hex_key):
    key = parse_key(hex_key, allow_weak_mu=True)
    record = keystream.key_period(key)
    assert record is not None
    no_table()
    assert keystream.key_period(key) == record
