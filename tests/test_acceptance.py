"""Acceptance suite: one test per release criterion, with pinned
tolerances and runtime budgets. Each test prints its own PASS line so a
plain `pytest -v tests/test_acceptance.py` reads as a checklist.
"""

import random
import time
from array import array

import numpy as np
import pytest

from bernstream.analysis import cycle_length
from bernstream.cipher import (CipherKey, DegenerateKeyError, decrypt_stream,
                               encrypt_stream)
from bernstream.keystream import _fold, keystream_bytes
from bernstream.prng import BernoulliGenerator, step
from bernstream.stats import run_suite

from oracles import (orbit_reference, split_word_arith, step_reference, verify_cycle,
                     xor_parity_byte)

DEMO_SEED = 2863311530
DEMO_MU = 170
DEMO_FIRST16 = [
    1672129193, 2942216872, 1776925351, 3081399269,
    1961776972, 3326905328, 2287839706, 907830677,
    1927132905, 3280893677, 2226730482, 826669989,
    1819341367, 3137733041, 2036595263, 3426273371,
]

SUITE_KEY = CipherKey(seed1=1288500000, mu1=192, seed2=858990000, mu2=205)

BOUNDARY_WORDS = (0, 1, 2**31 - 1, 2**31, 2**32 - 1)
BOUNDARY_MUS = (0, 1, 128, 170, 255)


def _done(label, elapsed=None):
    if elapsed is None:
        print(f"ACCEPTANCE PASS: {label}")
    else:
        print(f"ACCEPTANCE PASS: {label} ({elapsed:.2f}s)")


def test_c1_datapath_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(0xACCE)
    for _ in range(100_000):
        x = rng.randrange(2**32)
        mu = rng.randrange(256)
        assert step(x, mu) == step_reference(x, mu)
    for x in BOUNDARY_WORDS:
        for mu in BOUNDARY_MUS:
            assert step(x, mu) == step_reference(x, mu)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"oracle equivalence took {elapsed:.2f}s"
    _done("1. step == step_reference on 1e5 random pairs + boundary grid",
          elapsed)


def test_c2_simulation_fixture_first_16_outputs():
    gen = BernoulliGenerator(DEMO_SEED, DEMO_MU)
    got = gen.iterate(16)
    assert got == orbit_reference(DEMO_SEED, DEMO_MU, 16)
    assert got == DEMO_FIRST16
    assert got[0] == 1672129193
    _done("2. seed 2863311530 / mu 170 reproduces the oracle orbit, "
          "first output 1672129193")


def test_c3_randomness_suite_on_one_million_bits():
    start = time.perf_counter()
    sample = keystream_bytes(SUITE_KEY, 125_000)  # 1e6 bits
    reports = run_suite(sample)
    elapsed = time.perf_counter() - start
    assert len(reports) == 6
    for report in reports:
        assert report.p_value >= 0.01, \
            f"{report.test} failed: P={report.p_value:.6g}"
    assert elapsed < 10.0, f"suite took {elapsed:.2f}s"
    _done("3. all six tests P >= 0.01 on 1e6 keystream bits "
          f"(min P={min(r.p_value for r in reports):.4f})", elapsed)


def test_c4_statistical_test_fixtures():
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        from bernstream.stats import (block_frequency_test, frequency_test,
                                      runs_test)
        p_freq = frequency_test("1011010101").p_value
        p_block = block_frequency_test("0110011010", 3).p_value
        p_runs = runs_test("1001101011").p_value
    assert p_freq == pytest.approx(0.527089, abs=1e-5)
    assert p_block == pytest.approx(0.801252, abs=1e-5)
    assert p_runs == pytest.approx(0.147232, abs=1e-5)
    _done("4. worked-example P-values reproduced to 1e-5")


def test_c5_cipher_round_trip_one_mebibyte(tmp_path):
    message = random.Random(0x1B11).randbytes(1 << 20)
    plain = tmp_path / "plain.bin"
    cipher = tmp_path / "cipher.bin"
    back = tmp_path / "back.bin"
    plain.write_bytes(message)
    key = CipherKey(seed1=0xAAAAAAAA, mu1=0xAA, seed2=0xBBBBBBBB, mu2=0xBB)

    start = time.perf_counter()
    with plain.open("rb") as src, cipher.open("wb") as dst:
        encrypt_stream(key, src, dst)
    with cipher.open("rb") as src, back.open("wb") as dst:
        decrypt_stream(key, src, dst)
    elapsed = time.perf_counter() - start

    assert back.read_bytes() == message
    assert elapsed < 1.0, f"round trip took {elapsed:.2f}s"

    degenerate = CipherKey(seed1=42, mu1=170, seed2=42, mu2=170)
    written = []

    class Recorder:
        def write(self, data):
            written.append(data)

    with plain.open("rb") as src:
        with pytest.raises(DegenerateKeyError):
            encrypt_stream(degenerate, src, Recorder())
    assert written == []
    _done("5. 1 MiB encrypt/decrypt is byte-identity; degenerate key "
          "rejected before output", elapsed)


def test_c6_section_band_and_coverage():
    start = time.perf_counter()
    words = BernoulliGenerator(0xAAAAAAAA, 170).iterate(100_000)
    msb = [(w >> 24) & 0xFF for w in words]
    assert min(msb) >= 43 and max(msb) <= 212
    coverages = []
    for shift in (16, 8, 0):
        seen = {(w >> shift) & 0xFF for w in words}
        coverages.append(len(seen) / 256)
        assert len(seen) / 256 >= 0.95
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"scan took {elapsed:.2f}s"
    _done("6. MSB within [43, 212]; sections 2-4 coverage "
          f"{['%.3f' % c for c in coverages]} all >= 0.95", elapsed)


def test_c7_cycle_detection_soundness():
    start = time.perf_counter()
    rng = random.Random(0xC7C7)
    found = 0
    for _ in range(100):
        seed = rng.randrange(2**32)
        mu = rng.randrange(256)
        result = cycle_length(seed, mu, max_steps=10_000_000)
        if result.found:
            found += 1
            problems = verify_cycle(seed, mu, result.tail, result.period)
            assert problems == [], f"(seed={seed}, mu={mu}): {problems}"
    for seed in (0, 123456789, 2**31, 2**32 - 1):
        result = cycle_length(seed, 0, max_steps=10_000_000)
        assert result.found and result.period == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"cycle soundness took {elapsed:.2f}s"
    _done(f"7. {found}/100 cycles found, every report replays minimally; "
          "mu=0 always period 1", elapsed)


def test_c8_split_and_combine_algebra():
    # The oracles' plain arithmetic runs elementwise on int64 arrays, so
    # each word's sections and parity byte are computed for all at once.
    start = time.perf_counter()
    rng = np.random.default_rng(0x8888)

    def fold(*words):
        return np.frombuffer(_fold(*(array("I", w.astype(np.uint32).tobytes()) for w in words)),
                             dtype=np.uint8)

    words = rng.integers(0, 2**32, size=1_000_000, dtype=np.int64)
    assert np.array_equal(fold(words), xor_parity_byte(split_word_arith(words)))
    wa, wb = rng.integers(0, 2**32, size=(2, 100_000), dtype=np.int64)
    assert np.array_equal(fold(wa, wb),
                          xor_parity_byte(split_word_arith(wa) + split_word_arith(wb)))
    _done("8. the fold of 1e6 random words and of 1e5 word pairs "
          "matches bitwise parity", time.perf_counter() - start)
