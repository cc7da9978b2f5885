import io
import random
import tracemalloc
from array import array
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernstream import analysis, prng
from bernstream.analysis import (CYCLE_BLOCK, bifurcation_scan, byte_section,
                                 coverage, cycle_length, write_bifurcation_csv)
from bernstream.prng import (WORD_MASK, BernoulliGenerator, generalization_factor,
                             max_step_value)

from oracles import advance, cycle_visited, orbit_reference, verify_cycle


def test_byte_section_extraction():
    word = 0x12345678
    assert byte_section(word, 1) == 0x12
    assert byte_section(word, 2) == 0x34
    assert byte_section(word, 3) == 0x56
    assert byte_section(word, 4) == 0x78
    with pytest.raises(ValueError):
        byte_section(word, 0)
    with pytest.raises(ValueError):
        byte_section(word, 5)


class TestBifurcationScan:

    def test_msb_band_at_mu_170(self):
        values = bifurcation_scan(170, 170, 0xAAAAAAAA,
                                  transient=1000, samples=200, section=1)
        assert values.shape == (1, 200)
        assert all(43 <= v <= 212 for v in values[0].tolist())

    def test_mu_zero_orbit_is_constant(self):
        for section, expected in ((1, 128), (2, 0), (3, 0), (4, 0)):
            values = bifurcation_scan(0, 0, 123456789, transient=1,
                                      samples=50, section=section)
            assert set(values[0].tolist()) == {expected}

    def test_section1_confined_to_derived_band(self):
        # the band implied by the step range invariant, per mu
        values = bifurcation_scan(140, 150, 0xDEADBEEF,
                                  transient=200, samples=100, section=1)
        assert values.shape == (11, 100)
        for mu, row in enumerate(values.tolist(), 140):
            lo = generalization_factor(mu) >> 24
            hi = max_step_value(mu) >> 24
            assert all(lo <= v <= hi for v in row)

    def test_lower_sections_disperse_for_expansive_mu(self):
        # oracle-calibrated: >= 95% of byte values per mu from 131 up;
        # mu in {128, 129, 130} provably fails any such threshold
        for mu in (131, 170, 204, 255):
            values = bifurcation_scan(mu, mu, 0xAAAAAAAA, transient=1000,
                                      samples=1000, section=3)
            assert len(set(values[0].tolist())) >= 243

    def test_scan_is_deterministic(self):
        a = bifurcation_scan(100, 110, 42, transient=50, samples=20, section=2)
        b = bifurcation_scan(100, 110, 42, transient=50, samples=20, section=2)
        assert a.tolist() == b.tolist()
        assert a.shape == (11, 20)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            bifurcation_scan(200, 100, 0)
        with pytest.raises(ValueError):
            bifurcation_scan(0, 255, 0, samples=0)
        with pytest.raises(ValueError):
            bifurcation_scan(0, 255, 0, transient=-1)


def reference_scan(mu_min, mu_max, x0, transient, samples, section):
    """A scan's rows, one list of values per mu, from the arithmetic oracle orbit."""
    return [[word // 256 ** (4 - section) % 256
             for word in orbit_reference(x0, mu, transient + samples)[transient:]]
            for mu in range(mu_min, mu_max + 1)]


@pytest.mark.parametrize("width", [1, 17, 18, 19, 256])
@pytest.mark.parametrize("x0", [0, 2**31, 2**32 - 1])
def test_scan_and_csv_match_oracle(width, x0):
    # vectors of one lane up to every mu, every section, with and without
    # a transient; the scan reaches mu 0 from x0 = 0 and mu 255 otherwise
    mu_min = 0 if x0 == 0 else 256 - width
    mu_max = mu_min + width - 1
    for section in (1, 2, 3, 4):
        for transient, samples in ((0, 1), (0, 3), (11, 2)):
            expected = reference_scan(mu_min, mu_max, x0, transient, samples, section)
            values = bifurcation_scan(mu_min, mu_max, x0, transient=transient,
                                      samples=samples, section=section)
            assert values.shape == (width, samples)
            assert values.dtype == np.uint8 and values.flags.c_contiguous
            assert values.tolist() == expected
            buf = io.StringIO()
            write_bifurcation_csv(values, mu_min, section, buf)
            assert buf.getvalue() == "mu,section,value\n" + "".join(
                f"{mu},{section},{v}\n"
                for mu, row in enumerate(expected, mu_min) for v in row)


def test_long_runs_are_stepped_in_blocks(monkeypatch):
    # coverage's outputs span several blocks, the last one partial, and no
    # iterate() call exceeds a block; the scan steps numpy lanes, makes no
    # iterate() call, and matches the oracle over a transient as long
    sizes = []

    class Counted(BernoulliGenerator):
        __slots__ = ()

        def iterate(self, n):
            sizes.append(n)
            return super().iterate(n)

    monkeypatch.setattr(analysis, "BernoulliGenerator", Counted)
    transient, samples, x0 = 3 * CYCLE_BLOCK + 5, 9, 0x9E3779B9
    values = bifurcation_scan(169, 170, x0, transient=transient,
                              samples=samples, section=3)
    assert values.tolist() == reference_scan(169, 170, x0, transient, samples, 3)
    n = 2 * CYCLE_BLOCK + 1
    for section in (1, 4):
        visited = {byte_section(w, section) for w in orbit_reference(x0, 170, n)}
        assert coverage(x0, 170, section, n) == len(visited) / 256
    assert max(sizes) == CYCLE_BLOCK
    assert sum(sizes) == 2 * n


def test_scan_rejects_out_of_range_x0():
    for x0 in (-1, 2**32):
        with pytest.raises(ValueError):
            bifurcation_scan(0, 255, x0)
        with pytest.raises(ValueError):
            bifurcation_scan(0, 0, x0)


def test_scan_and_csv_keep_a_few_bytes_per_sample():
    # the scan keeps one byte per sample, twice (its rows, then their
    # transpose), and the CSV converts one row at a time; recording uint64
    # words or converting the whole array with tolist() exceeds the bound
    class Sink:
        size = 0

        def write(self, text):
            self.size += len(text)

    lanes, samples = 256, 1000
    sink = Sink()
    tracemalloc.start()
    try:
        values = bifurcation_scan(0, lanes - 1, 0xAAAAAAAA, transient=10,
                                  samples=samples, section=3)
        write_bifurcation_csv(values, 0, 3, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * lanes * samples + (64 << 10)
    assert sink.size > lanes * samples * len("0,3,0\n")


def test_csv_output_format():
    values = np.array([[43], [212]], dtype=np.uint8)
    buf = io.StringIO()
    write_bifurcation_csv(values, 170, 1, buf)
    assert buf.getvalue() == "mu,section,value\n170,1,43\n171,1,212\n"


class TestCycleLength:

    def test_mu_zero_is_an_immediate_fixed_point(self):
        for seed in (0, 1, 12345, 2**31, 2**32 - 1):
            result = cycle_length(seed, 0, max_steps=1000)
            assert result.found
            assert result.period == 1
            assert result.tail <= 1

    def test_demo_orbit_frozen_values(self):
        # visited-set oracle gave tail 39396, period 168564 for this orbit
        result = cycle_length(2**31, 170)
        assert (result.tail, result.period) == (39396, 168564)

    def test_agrees_with_visited_set_oracle(self):
        rng = random.Random(0xC1C)
        checked = 0
        while checked < 5:
            seed = rng.randrange(2**32)
            mu = rng.randrange(256)
            expected = cycle_visited(seed, mu, 400_000)
            if expected is None:
                continue
            result = cycle_length(seed, mu)
            assert (result.tail, result.period) == expected
            checked += 1

    def test_reported_cycles_replay_and_are_minimal(self):
        rng = random.Random(0x90F)
        for _ in range(3):
            seed = rng.randrange(2**32)
            mu = rng.choice((131, 170, 205))
            result = cycle_length(seed, mu)
            assert result.found
            assert verify_cycle(seed, mu, result.tail, result.period) == []

    def test_budget_exhaustion_is_an_outcome(self):
        result = cycle_length(0xAAAAAAAA, 170, max_steps=100)
        assert not result.found
        assert result.tail is None and result.period is None
        assert result.steps_examined <= 100

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            cycle_length(1, 170, max_steps=0)

    @pytest.mark.parametrize("seed, mu", [(-1, 170), (2**32, 170), (1, 256)])
    def test_seed_and_mu_validation(self, seed, mu):
        with pytest.raises(ValueError):
            cycle_length(seed, mu)

    def test_numpy_integer_seed_is_stepped_as_a_python_int(self):
        want = (39396, 168564, 208_896)
        assert cycle_length(0x80000000, 170) == want
        assert cycle_length(np.uint32(0x80000000), 170) == want
        assert cycle_length(np.uint32(0x80000000), np.uint8(170)) == want

    def test_memory_is_four_bytes_a_step(self):
        # the closure keeps each state in an array('I'); a list of ints
        # would take about ten times this. Beside the words, one block's
        # list of ints and the set of mark words stay under 512 KiB; a dict
        # from each mark to its index would take about 600 KiB.
        tracemalloc.start()
        try:
            result = cycle_length(0x80000000, 170)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.steps_examined == 208_896
        assert peak < 4 * result.steps_examined + (1 << 19)


# Orbits from the visited-set oracle, as (seed, mu, tail, period). Starting
# `d` steps along an orbit shortens its tail by d, which places the tail
# anywhere relative to the block marks.
SHORT_PERIOD = (43199109, 133, 12886, 1488)  # period < CYCLE_BLOCK
LONG_PERIOD = (3066604971, 161, 6043, 9932)  # period > 2 * CYCLE_BLOCK
SMALL = (448735339, 129, 666, 1184)
FIXED_POINT = (12345, 0, 1, 1)  # mu 0: every orbit lands on 2**31
PERIOD_2 = (2829035385, 187, 31301, 2)


def with_tail(orbit, tail):
    """A seed on `orbit` whose tail is `tail`."""
    seed, mu, full_tail, _ = orbit
    return advance(seed, mu, full_tail - tail), mu


def closing_step(orbit, block, budget):
    """Where the single pass closes the orbit x_0, x_1, ... = orbit, by its
    rule restated without its dict: each block, ending at E = min(k *
    block, budget), closes it if one of its last isqrt(block) words equals
    a mark before them, a word x_i with isqrt(block) dividing i. None if no
    block up to the budget does. orbit must reach the budget or the close."""
    S = isqrt(block)
    base = 0
    while base < budget:
        end = min(base + block, budget)
        lo = max(base, end - S)  # the window is x_{lo+1} .. x_end
        assert end < len(orbit)
        if not set(orbit[:lo + 1:S]).isdisjoint(orbit[lo + 1:end + 1]):
            return end
        base = end
    return None


def whole_orbit(seed, mu, n):
    """x_0 .. x_n from seed."""
    return [seed] + orbit_reference(seed, mu, n)


CYCLE_CASES = [
    # (name, block size, orbit, tail)
    ("tail 0", CYCLE_BLOCK, SHORT_PERIOD, 0),
    ("tail in the first block", CYCLE_BLOCK, SHORT_PERIOD, 100),
    ("tail at the second mark", CYCLE_BLOCK, SHORT_PERIOD, 2 * CYCLE_BLOCK),
    ("tail one past a mark", CYCLE_BLOCK, SHORT_PERIOD, CYCLE_BLOCK + 1),
    ("long period, replayed tail", CYCLE_BLOCK, LONG_PERIOD, 6043),  # two blocks before the close
    ("long period, tail at a mark", CYCLE_BLOCK, LONG_PERIOD, CYCLE_BLOCK),
    ("period = block", 1184, SMALL, 666),
    ("period = 4 blocks", 296, SMALL, 666),
    ("period = 4 blocks, tail at a mark", 296, SMALL, 592),
    ("period = 32 blocks, tail 0", 37, SMALL, 0),
    ("every state a mark", 1, SMALL, 666),
    ("block of 2", 2, SMALL, 665),
    ("period 1, mu 0", CYCLE_BLOCK, FIXED_POINT, 1),
    ("period 1 from the seed", CYCLE_BLOCK, FIXED_POINT, 0),
    ("period 2", CYCLE_BLOCK, PERIOD_2, 100),
    ("period 2, tail in a block's last isqrt(block) words", CYCLE_BLOCK, PERIOD_2,
     2 * CYCLE_BLOCK - 3),
    ("long period, tail in a block's last isqrt(block) words", CYCLE_BLOCK, LONG_PERIOD,
     CYCLE_BLOCK - 10),
    # isqrt(37) = 6: the block ending at 185 tests its window, 180 .. 185,
    # against marks up to 174, so it does not close the orbit, though its
    # tail, 176, lies more than 6 + 2 words before that block's end
    ("period 2, tail more than isqrt(block) + period before a block end", 37, PERIOD_2, 176),
]


@pytest.mark.parametrize("name, block, orbit, tail", CYCLE_CASES,
                         ids=[c[0] for c in CYCLE_CASES])
def test_single_pass_agrees_with_visited_set(monkeypatch, name, block, orbit, tail):
    monkeypatch.setattr(prng, "CYCLE_BLOCK", block)
    seed, mu = with_tail(orbit, tail)
    period = orbit[3]
    assert cycle_visited(seed, mu, 40_000) == (tail, period)
    result = cycle_length(seed, mu)
    assert (result.tail, result.period) == (tail, period)
    e = closing_step(whole_orbit(seed, mu, 2 * (tail + period + block)), block, 10**7)
    assert result.steps_examined == e
    assert tail + period <= e < tail + period + block + 2 * isqrt(block)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, WORD_MASK), mu=st.integers(0, 255),
       block=st.sampled_from([1, 2, 37, 296, CYCLE_BLOCK]))
def test_any_orbit_closes_as_the_visited_set_within_the_bound(seed, mu, block):
    # Within the budget, the pass closes every orbit with the visited set's
    # tail and period, or the orbit is too long for the bound to promise it.
    budget, S = 20_000, isqrt(block)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(prng, "CYCLE_BLOCK", block)
        tail, period, steps = cycle_length(seed, mu, budget)
    if tail is None:
        assert steps == budget
        assert cycle_visited(seed, mu, budget - block - 2 * S + 1) is None
    else:
        assert (tail, period) == cycle_visited(seed, mu, steps + 1)
        assert tail + period <= steps < tail + period + block + 2 * S


@pytest.mark.parametrize("block, orbit, tail", [
    (CYCLE_BLOCK, LONG_PERIOD, 6043),
    (CYCLE_BLOCK, LONG_PERIOD, CYCLE_BLOCK),
    (CYCLE_BLOCK, SHORT_PERIOD, 2 * CYCLE_BLOCK),
    (CYCLE_BLOCK, SHORT_PERIOD, 0),
    (296, SMALL, 666),
])
def test_budget_at_the_recurrence(monkeypatch, block, orbit, tail):
    # Blocks are stepped whole unless the budget cuts them, and a cut block
    # is tested by its own last isqrt(block) words. The block ending at end
    # closes the orbit, and e is the smallest budget inside it that does;
    # the tail and period are placed from the words kept.
    monkeypatch.setattr(prng, "CYCLE_BLOCK", block)
    seed, mu = with_tail(orbit, tail)
    xs = whole_orbit(seed, mu, 2 * (tail + orbit[3] + block))
    end = closing_step(xs, block, 10**7)
    e = next(b for b in range(end - block + 1, end + 1) if closing_step(xs, block, b))
    for budget in sorted({e - 1, e, end - 1, end, end + 1}):
        result = cycle_length(seed, mu, max_steps=budget)
        if closing_step(xs, block, budget):
            assert (result.tail, result.period) == (tail, orbit[3])
        else:
            assert not result.found
        assert result.steps_examined == min(budget, end)


# (seed, mu, budget, open blocks, last item): every block that does not
# close the orbit yields None, the last one cut to the budget
@pytest.mark.parametrize("seed, mu, budget, k, last", [
    (*SHORT_PERIOD[:2], 10**6, 3, (12886, 1488, 4 * CYCLE_BLOCK)),
    (*LONG_PERIOD[:2], 10**6, 3, (6043, 9932, 4 * CYCLE_BLOCK)),
    (*SHORT_PERIOD[:2], 10_000, 3, (None, None, 10_000)),
    (2**31, 0, 10**6, 0, (0, 1, CYCLE_BLOCK)),  # the seed is its own cycle
], ids=["short period", "long period", "budget runs out", "seed on its cycle"])
def test_cycle_blocks_yields_none_per_open_block_then_the_result(seed, mu, budget, k, last):
    words = array("I")
    assert list(prng.cycle_blocks(seed, mu, budget, words)) == [None] * k + [last]
    assert words.tolist() == orbit_reference(seed, mu, last[2])


class TestCoverage:

    def test_constant_orbit_touches_one_value(self):
        assert coverage(99, 0, 1, 1000) == pytest.approx(1 / 256)

    def test_msb_coverage_bounded_by_band_width(self):
        # the band [43, 212] holds 170 of 256 values
        assert coverage(0xAAAAAAAA, 170, 1, 10_000) <= 170 / 256

    def test_low_section_coverage_near_total(self):
        assert coverage(0xAAAAAAAA, 170, 4, 10_000) >= 0.95

    def test_requires_at_least_one_output(self):
        with pytest.raises(ValueError):
            coverage(1, 170, 1, 0)
