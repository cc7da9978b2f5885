import random

import pytest

from bernstream.prng import (CYCLE_BLOCK, MU_MAX, WORD_MASK, BernoulliGenerator,
                             generalization_factor, max_step_value, step)

from oracles import advance, orbit_reference, step_reference

DEMO_SEED = 2863311530  # 0xAAAAAAAA
DEMO_MU = 170           # 0xAA, i.e. mu = 0.6640625


def test_step_known_values():
    assert step(DEMO_SEED, DEMO_MU) == 1672129193
    assert step(0, 170) == 721420288
    # doubling 2**31 overflows to zero, leaving only the offset
    for mu in (1, 77, 170, 255):
        assert step(2**31, mu) == generalization_factor(mu)
    # mu = 0 collapses every input to the mid-range constant
    for x in (0, 1, 12345, 2**31, WORD_MASK):
        assert step(x, 0) == 2147483648


def test_step_reference_known_values():
    assert step_reference(DEMO_SEED, DEMO_MU) == 1672129193
    assert step_reference(0, 170) == 721420288
    assert step_reference(2**31, 170) == 721420288


def test_generalization_factor_values():
    assert generalization_factor(170) == 721420288
    assert generalization_factor(0) == 2147483648
    assert generalization_factor(255) == 8388608
    for mu in range(256):
        assert 2**23 <= generalization_factor(mu) <= 2**31


def test_step_equals_reference_on_random_inputs():
    rng = random.Random(0xBE27)
    for _ in range(10_000):
        x = rng.randrange(2**32)
        mu = rng.randrange(256)
        assert step(x, mu) == step_reference(x, mu)


def test_step_range_invariant():
    rng = random.Random(0x51EB)
    for _ in range(10_000):
        x = rng.randrange(2**32)
        mu = rng.randrange(256)
        y = step(x, mu)
        assert generalization_factor(mu) <= y <= max_step_value(mu)
        assert y <= WORD_MASK


def test_step_is_pure():
    rng = random.Random(7)
    for _ in range(100):
        x = rng.randrange(2**32)
        mu = rng.randrange(256)
        assert step(x, mu) == step(x, mu)


@pytest.mark.parametrize("x, mu", [(-1, 170), (2**32, 170), (0, -1), (0, 256)])
def test_step_rejects_out_of_range(x, mu):
    with pytest.raises(ValueError):
        step(x, mu)
    with pytest.raises(ValueError):
        step_reference(x, mu)


def test_oracle_advance_is_iterated_step_reference():
    rng = random.Random(0xADA)
    for _ in range(50):
        x = rng.randrange(2**32)
        mu = rng.randrange(256)
        assert advance(x, mu, 1) == step_reference(x, mu)
        assert advance(x, mu, 3) == step_reference(
            step_reference(step_reference(x, mu), mu), mu)


def test_msb_stays_in_band_for_mu_170():
    rng = random.Random(0xAA170)
    for _ in range(100_000):
        x = rng.randrange(2**32)
        assert 43 <= step(x, 170) >> 24 <= 212


class TestBernoulliGenerator:

    def test_initial_state(self):
        gen = BernoulliGenerator(DEMO_SEED, DEMO_MU)
        assert gen.x == DEMO_SEED
        assert gen.mu == DEMO_MU

    def test_degenerate_parameters_are_legal_here(self):
        # key-level validation lives in the cipher module, not this one
        assert BernoulliGenerator(0, 0).x == 0
        gen = BernoulliGenerator(2**32 - 1, 255)
        assert gen.x == 2**32 - 1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            BernoulliGenerator(2**32, 170)
        with pytest.raises(ValueError):
            BernoulliGenerator(0, 300)

    def test_first_output_is_step_of_seed_not_seed(self):
        gen = BernoulliGenerator(DEMO_SEED, DEMO_MU)
        [first] = gen.iterate(1)
        assert first == 1672129193
        assert first != DEMO_SEED
        assert gen.x == first

    def test_two_calls_compose(self):
        gen = BernoulliGenerator(2**31, 170)
        assert gen.iterate(1) == [721420288]
        assert gen.iterate(1) == [step(721420288, 170)]

    def test_determinism_across_instances(self):
        a = BernoulliGenerator(987654321, 201)
        b = BernoulliGenerator(987654321, 201)
        assert a.iterate(500) == b.iterate(500)

    def test_iterate_zero_is_a_noop(self):
        gen = BernoulliGenerator(42, 170)
        assert gen.iterate(0) == []
        assert gen.x == 42
        gen.iterate(5)
        assert gen.iterate(0) == []
        assert gen.x == advance(42, 170, 5)

    def test_iterate_single(self):
        gen = BernoulliGenerator(DEMO_SEED, DEMO_MU)
        assert gen.iterate(1) == [1672129193]

    def test_iterate_negative_rejected(self):
        with pytest.raises(ValueError):
            BernoulliGenerator(1, 170).iterate(-1)

    def test_iterate_streams_consistently(self):
        split = BernoulliGenerator(99, 170)
        whole = BernoulliGenerator(99, 170)
        assert split.iterate(3) + split.iterate(2) == whole.iterate(5)
        assert split.x == whole.x

    def test_iterate_matches_next_word(self):
        # the next word, one oracle step at a time, on random seeds and mu
        rng = random.Random(31)
        for _ in range(20):
            seed = rng.randrange(2**32)
            mu = rng.randrange(256)
            bulk = BernoulliGenerator(seed, mu)
            assert bulk.iterate(97) == orbit_reference(seed, mu, 97)
            assert bulk.x == advance(seed, mu, 97)

    def test_iterate_matches_reference_orbit(self):
        gen = BernoulliGenerator(DEMO_SEED, DEMO_MU)
        assert gen.iterate(64) == orbit_reference(DEMO_SEED, DEMO_MU, 64)


@pytest.mark.parametrize("mu", [0, 1, 127, 128, 129, 255])
@pytest.mark.parametrize("seed", [0, 2**31 - 1, 2**31, 2**32 - 1])
def test_iterate_equals_the_oracle_at_the_edges(seed, mu):
    # the extreme words and the mu at each end and either side of 128, for
    # counts around the block in which cycle searches and orbits step
    orbit = orbit_reference(seed, mu, CYCLE_BLOCK + 1)
    for n in (1, CYCLE_BLOCK - 1, CYCLE_BLOCK, CYCLE_BLOCK + 1):
        gen = BernoulliGenerator(seed, mu)
        words = gen.iterate(n)
        assert type(words) is list
        assert words == orbit[:n]
        assert gen.x == orbit[n - 1]
