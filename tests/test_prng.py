import random
from array import array

import numpy as np
import pytest

from bernstream.prng import (CYCLE_BLOCK, MU_MAX, WORD_MASK, BernoulliGenerator,
                             generalization_factor, iterate_lanes, max_step_value, step,
                             step_lanes)

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


def test_numpy_integers_step_as_python_ints():
    # a fixed-width uint32 would overflow in the product, with only a
    # RuntimeWarning, so the checks hand the arithmetic Python ints
    assert step(np.uint32(0xFFFFFFFF), np.uint8(255)) == 4_286_578_686
    assert step(np.uint32(0xFFFFFFFF), 255) == step_reference(0xFFFFFFFF, 255)
    for seed, mu in ((0xFFFFFFFF, 255), (DEMO_SEED, DEMO_MU), (2**31 - 1, 129)):
        gen = BernoulliGenerator(np.uint32(seed), np.uint8(mu))
        assert type(gen.x) is int and type(gen.mu) is int
        assert gen.iterate(100) == orbit_reference(seed, mu, 100)
    assert generalization_factor(np.uint8(255)) == generalization_factor(255)
    assert max_step_value(np.uint8(255)) == max_step_value(255)


def test_assigned_state_and_mu_are_checked_like_the_constructors():
    # numpy integers are stored as Python ints, so the step cannot overflow
    gen = BernoulliGenerator(0, 255)
    gen.x = np.uint32(0xFFFFFFFF)
    assert type(gen.x) is int
    assert gen.iterate(1) == [4_286_578_686]
    gen.mu = np.uint8(DEMO_MU)
    gen.x = np.int64(DEMO_SEED)
    assert type(gen.mu) is int
    assert gen.iterate(100) == orbit_reference(DEMO_SEED, DEMO_MU, 100)
    # a refused value raises as the constructor does and leaves the state
    for field, value, error in (("x", 2**40, ValueError), ("x", -1, ValueError),
                                ("x", 1.0, TypeError), ("mu", 300, ValueError),
                                ("mu", -1, ValueError), ("mu", 170.0, TypeError)):
        before = gen.x, gen.mu
        with pytest.raises(error):
            setattr(gen, field, value)
        assert (gen.x, gen.mu) == before, field
    assert all(0 <= w <= WORD_MASK for w in gen.iterate(100))


@pytest.mark.parametrize("seed, mu", [(1.0, 170), (1, 170.0), ("1", 170)])
def test_non_integers_are_refused_when_the_generator_is_built(seed, mu):
    with pytest.raises(TypeError):
        BernoulliGenerator(seed, mu)
    with pytest.raises(TypeError):
        step(seed, mu)


LANE_MUS = (0, 1, 127, 128, 129, 255)
LANE_SEEDS = (0, 2**31 - 1, 2**31, 2**32 - 1)


@pytest.mark.parametrize("k", [1, 3, 5000])
def test_step_lanes_equals_iterate_and_the_oracle_lane_by_lane(k):
    lanes = [(s, m) for m in LANE_MUS for s in LANE_SEEDS]
    x = np.array([s for s, _ in lanes], dtype=np.uint64)
    mu = np.array([m for _, m in lanes], dtype=np.uint64)
    steps = []
    for _, y in zip(range(k), step_lanes(x, mu)):
        assert y is x and y.dtype == np.uint64
        steps.append(y.copy())
    by_lane = np.array(steps).T.tolist()
    for (seed, m), words in zip(lanes, by_lane):
        assert words == BernoulliGenerator(seed, m).iterate(k)
        assert words == orbit_reference(seed, m, k)
    assert x.tolist() == [w[-1] for w in by_lane]


@pytest.mark.parametrize("mu", LANE_MUS)
@pytest.mark.parametrize("n", [1, 63, 64, 65, 300])
def test_iterate_lanes_equals_iterate_on_every_slot(mu, n):
    # the extreme words, whose products fill a slot's 39 bits, beside
    # random ones; lanes are written out of order, with a gap between them
    rng = random.Random(n * 256 + mu)
    starts = [*LANE_SEEDS, *(rng.getrandbits(32) for _ in range(20))]
    at = [(n + 3) * i for i in reversed(range(len(starts)))]
    out = array("I", [0xDEADBEEF]) * ((n + 3) * len(starts))
    iterate_lanes(starts, mu, n, out, at)
    for seed, a in zip(starts, at):
        assert out[a:a + n].tolist() == BernoulliGenerator(seed, mu).iterate(n)
        assert out[a + n:a + n + 3].tolist() == [0xDEADBEEF] * 3
    assert out[at[0]:at[0] + n].tolist() == orbit_reference(starts[0], mu, n)
