import json
import random
import tracemalloc
import warnings
from math import isqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bernstream import stats
from bernstream.stats import (ALPHA, as_bits, bits_from_bytes,
                              block_frequency_test, cusum_test, fft_test,
                              frequency_test, run_suite, runs_test)

from oracles import cusum_reference, dft_direct, spectral_reference


def _quiet(func, *args, **kwargs):
    # the worked examples are 10 bits long; silence the short-input warning
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return func(*args, **kwargs)


def test_bits_from_bytes_msb_first():
    assert bits_from_bytes(b"\x80").tolist() == [1, 0, 0, 0, 0, 0, 0, 0]
    assert bits_from_bytes(b"\xff").tolist() == [1] * 8
    assert bits_from_bytes(b"\xaa").tolist() == [1, 0, 1, 0, 1, 0, 1, 0]


def test_bits_from_bytes_rejects_empty():
    with pytest.raises(ValueError):
        bits_from_bytes(b"")


@pytest.mark.parametrize("count", [3, np.int64(3), np.array(3), True])
def test_an_integer_is_not_read_as_that_many_zero_bytes(count):
    # bytes(3) is three zero bytes; 2,000 of them failed all six tests
    with pytest.raises(TypeError):
        bits_from_bytes(count)
    with pytest.raises(TypeError):
        run_suite(count * 2000)
    with pytest.raises(TypeError):
        fft_test(count)


def test_bytes_like_inputs_keep_their_meaning():
    data = random.Random(0xB7).randbytes(64)
    bits = bits_from_bytes(data)
    for same in (bytearray(data), memoryview(data), np.frombuffer(data, dtype=np.uint8),
                 list(data)):
        assert bits_from_bytes(same).tolist() == bits.tolist()
        assert run_suite(same) == run_suite(data)
    # only bytes are packed bits to the spectral test; a bytearray or a
    # list is a 0/1 sequence, one bit per item
    zero_one = bytes(bits)
    assert fft_test(bytearray(zero_one)) == fft_test(list(zero_one)) == fft_test(bits)
    assert fft_test(data) == fft_test(bits)


def test_as_bits_validation():
    with pytest.raises(ValueError):
        as_bits([0, 1, 2])
    with pytest.raises(ValueError):
        as_bits([])


@pytest.mark.parametrize("bits", [np.array([256, 257] * 60), np.array([-255, 1] * 60),
                                  [0.5] * 120, [0.9] * 200, [0, 1, float("nan")] * 40,
                                  np.array([0, 1, 2] * 40, dtype=np.uint8)],
                         ids=["256 and 257", "-255", "0.5", "0.9", "nan", "uint8 2"])
def test_values_other_than_0_and_1_are_refused(bits):
    # a cast to uint8 first would read 256 as 0, -255 as 1 and 0.5 or 0.9 as 0
    for test in (as_bits, frequency_test, fft_test):
        with pytest.raises(ValueError):
            test(bits)


def test_bool_and_float_bits_read_as_0_and_1():
    bits = [0, 1, 1, 0] * 30
    for same in (np.array(bits, dtype=bool), [float(b) for b in bits], np.array(bits)):
        assert as_bits(same).dtype == np.uint8
        assert as_bits(same).tolist() == bits
        assert frequency_test(same) == frequency_test(bits)


def test_short_sequences_warn_but_compute():
    with pytest.warns(UserWarning):
        frequency_test("1011010101")


class TestFrequency:

    def test_worked_example(self):
        report = _quiet(frequency_test, "1011010101")
        assert report.p_value == pytest.approx(0.527089, abs=1e-5)
        assert report.p_value == pytest.approx(0.527089256866, abs=1e-9)
        assert report.passed

    def test_alternating_is_perfectly_balanced(self):
        report = frequency_test("01" * 100)
        assert report.statistic == 0.0
        assert report.p_value == 1.0

    def test_all_ones_fails_hard(self):
        report = frequency_test([1] * 100)
        assert report.p_value < 1e-20
        assert not report.passed

    def test_invariant_under_permutation(self):
        rng = random.Random(0xF4E)
        bits = [rng.randrange(2) for _ in range(500)]
        shuffled = bits[:]
        rng.shuffle(shuffled)
        assert frequency_test(bits).p_value == frequency_test(shuffled).p_value


class TestBlockFrequency:

    def test_worked_example(self):
        report = _quiet(block_frequency_test, "0110011010", 3)
        assert report.statistic == pytest.approx(1.0)
        assert report.p_value == pytest.approx(0.801252, abs=1e-5)
        assert report.params["blocks"] == 3  # trailing bit discarded

    def test_perfectly_balanced_blocks(self):
        report = block_frequency_test("0101" * 64, 4)
        assert report.statistic == 0.0
        assert report.p_value == 1.0

    def test_all_ones_fails(self):
        report = block_frequency_test([1] * 64, 8)
        assert report.statistic == pytest.approx(64.0)
        assert report.p_value < 1e-9
        assert not report.passed

    def test_block_size_larger_than_sequence_rejected(self):
        with pytest.raises(ValueError):
            block_frequency_test("0101", 8)


class TestRuns:

    def test_worked_example(self):
        report = _quiet(runs_test, "1001101011")
        assert report.statistic == 7
        assert report.p_value == pytest.approx(0.147232, abs=1e-5)

    def test_monobit_prerequisite_failure(self):
        report = runs_test([1] * 100)
        assert report.p_value == 0.0
        assert "prerequisite" in report.params
        assert not report.passed

    def test_alternating_oscillates_too_fast(self):
        report = runs_test("10" * 50)
        assert report.statistic == 100
        assert report.p_value < 1e-10
        assert not report.passed

    def test_sensitive_to_permutation(self):
        # same bit counts, different run structure
        grouped = runs_test(_pad_balanced("000111"))
        mixed = runs_test(_pad_balanced("010101"))
        assert grouped.p_value != mixed.p_value

    @pytest.mark.parametrize("slice_bits", [1, 2, 3, 7, None])
    def test_transitions_counted_across_slices(self, slice_bits):
        # None keeps _RUNS_SLICE. Alternating bits change at every slice
        # boundary; the second pattern alternates but repeats its bit across
        # each boundary, so it changes everywhere except there.
        size = stats._RUNS_SLICE if slice_bits is None else slice_bits
        lengths = {1, 2, size - 1, size, size + 1, 2 * size, 3 * size + 2}
        with mock.patch.object(stats, "_RUNS_SLICE", size):
            for n in sorted(lengths - {0}):
                i = np.arange(n)
                for bits in ((i % 2).astype(np.uint8), ((i + i // size) % 2).astype(np.uint8),
                             _bits(n, seed=size)):
                    report = _quiet(runs_test, bits)
                    if report.statistic:  # 0 when the monobit prerequisite failed
                        assert report.statistic == _runs_count(bits), n


def _runs_count(bits):
    return 1 + int(np.count_nonzero(bits[1:] != bits[:-1]))


def _pad_balanced(core):
    # embed a witness pattern in a balanced carrier so the prerequisite holds
    return core + "01" * 47


class TestCusum:

    def test_all_zeros_has_maximal_drift(self):
        report = cusum_test([0] * 100, "forward")
        assert report.statistic == 100
        assert report.p_value < 1e-20
        assert not report.passed

    def test_alternating_stays_flat(self):
        report = cusum_test("01" * 50, "forward")
        assert report.statistic == 1
        # frozen from the high-precision oracle: exactly 1.0 at double precision
        assert report.p_value == pytest.approx(1.0, abs=1e-12)
        assert report.passed

    def test_palindrome_is_direction_blind(self):
        half = "01101001"
        bits = half + half[::-1]
        assert bits == bits[::-1]
        fwd = _quiet(cusum_test, bits, "forward")
        rev = _quiet(cusum_test, bits, "reverse")
        assert fwd.p_value == rev.p_value

    def test_reverse_mode_reverses(self):
        bits = "1110000000" + "01" * 50
        fwd = cusum_test(bits, "forward")
        rev = cusum_test(bits, "reverse")
        assert fwd.statistic != rev.statistic

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            cusum_test("0101", "sideways")


class TestFft:

    def test_all_ones_frozen_value(self):
        # single spectral line at zero frequency; P frozen from the
        # direct-summation oracle
        report = fft_test([1] * 128)
        assert report.params["below_threshold"] == 63
        assert report.p_value == pytest.approx(0.0743529053686, abs=1e-9)

    def test_matches_direct_dft_pipeline(self):
        rng = random.Random(0xD37)
        bits = [rng.randrange(2) for _ in range(256)]
        report = fft_test(bits)
        # same statistic computed from the O(n^2) transform
        x = np.asarray(bits, dtype=np.float64) * 2 - 1
        moduli = np.abs(dft_direct(x)[:128])
        threshold = np.sqrt(256 * np.log(1 / 0.05))
        n_below = int(np.count_nonzero(moduli < threshold))
        assert n_below == report.params["below_threshold"]
        d = (n_below - 0.95 * 128) / np.sqrt(256 * 0.95 * 0.05 / 4)
        from math import erfc, sqrt
        assert report.p_value == pytest.approx(erfc(abs(d) / sqrt(2)), abs=1e-9)

    @pytest.mark.parametrize("n", [8, 64, 256, 1024, 2048])
    def test_fast_and_direct_transform_moduli_agree(self, n):
        rng = random.Random(n)
        x = np.array([rng.choice((-1.0, 1.0)) for _ in range(n)])
        fast = np.abs(np.fft.rfft(x)[: n // 2])
        direct = np.abs(dft_direct(x)[: n // 2])
        assert np.allclose(fast, direct, rtol=1e-6, atol=1e-6)

    def test_odd_length_truncation_recorded(self):
        report = fft_test([0, 1] * 64 + [1])
        assert report.params["n"] == 128
        assert report.params["truncated_bits"] == 1


def _bits(n, p=0.5, seed=0):
    rng = np.random.default_rng([n, int(p * 100), seed])
    return (rng.random(n) < p).astype(np.uint8)


def _traced_peak(func, *args):
    """func(*args) and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        return func(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _walk_reference(bits):
    walk = np.cumsum(bits.astype(np.int64) * 2 - 1)
    return int(walk[-1]), max(0, int(walk.max())), min(0, int(walk.min()))


def _direct_count(bits):
    """Moduli below T among the first n/2 of the O(n^2) DFT of the +-1 bits."""
    n = bits.size
    moduli = np.abs(dft_direct(bits * 2.0 - 1.0)[: n // 2])
    return int(np.count_nonzero(moduli < np.sqrt(n * np.log(1 / 0.05))))


def _spectral_oracle(bits):
    return stats._report("fft", *spectral_reference(bits))


def _cusum_oracle(bits, mode):
    return stats._report(f"cumulative_sums_{mode}", *cusum_reference(bits, mode))


def oracle_suite(data, block_size=stats.DEFAULT_BLOCK_SIZE):
    """run_suite with the whole-sequence cumsum and rfft pipelines."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    return [frequency_test(bits), block_frequency_test(bits, min(block_size, bits.size)),
            runs_test(bits), _cusum_oracle(bits, "forward"), _cusum_oracle(bits, "reverse"),
            _spectral_oracle(bits)]


class TestBlockedSpectrum:

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 104, 130, 2 * 10007]
                             + [2 ** k for k in range(1, 21)] + [10 ** 6])
    def test_matches_the_rfft_pipeline(self, n):
        bits = _bits(n)
        assert _quiet(fft_test, bits) == _spectral_oracle(bits)

    @pytest.mark.parametrize("n", [3, 105, 1001, 2 ** 16 + 1])
    def test_odd_lengths_truncate_like_the_rfft_pipeline(self, n):
        bits = _bits(n)
        report = _quiet(fft_test, bits)
        assert report.params["truncated_bits"] == 1
        assert report == _spectral_oracle(bits)

    @pytest.mark.parametrize("p", [0.1, 0.9])
    @pytest.mark.parametrize("n", [130, 2 * 10007, 2 ** 16, 10 ** 6])
    def test_biased_bits_match_the_rfft_pipeline(self, n, p):
        bits = _bits(n, p)
        assert fft_test(bits) == _spectral_oracle(bits)

    @pytest.mark.parametrize("block_bytes", [16, 1000, 40000])
    @pytest.mark.parametrize("n", [104, 130, 4096, 2 * 10007, 30030])
    def test_small_blocks_match_the_rfft_pipeline(self, n, block_bytes):
        # one column and one row per block at 16 bytes; ragged last blocks above
        bits = _bits(n, seed=block_bytes)
        with mock.patch.object(stats, "_FFT_BLOCK_BYTES", block_bytes):
            assert fft_test(bits) == _spectral_oracle(bits)

    @pytest.mark.parametrize("n", [2, 6, 8, 104, 130, 210, 1000, 2048])
    def test_count_matches_the_direct_dft(self, n):
        bits = _bits(n, seed=1)
        moduli = np.abs(dft_direct(bits * 2.0 - 1.0)[: n // 2])
        threshold = np.sqrt(n * np.log(1 / 0.05))
        report = _quiet(fft_test, bits)
        assert report.params["below_threshold"] == int(np.count_nonzero(moduli < threshold))

    @pytest.mark.parametrize("block_bytes", [16, 1000, 40000, None])
    @pytest.mark.parametrize("p", [0.0, 1.0, 0.01, 0.99])
    def test_zero_one_transform_edge_cases(self, p, block_bytes):
        # all zeros and all ones put all the +-1 power at k = 0, where the 0/1
        # transform differs; None keeps _FFT_BLOCK_BYTES
        size = stats._FFT_BLOCK_BYTES if block_bytes is None else block_bytes
        with mock.patch.object(stats, "_FFT_BLOCK_BYTES", size):
            for n in (104, 130, 1000, 30030):
                bits = _bits(n, p, seed=size)
                report = _quiet(fft_test, bits)
                assert report == _spectral_oracle(bits), n
                if n <= 1000:
                    assert report.params["below_threshold"] == _direct_count(bits), n

    @pytest.mark.parametrize("block_bytes", [16, 1000, 40000, None])
    @pytest.mark.parametrize("n, split", [(130, (1, 130)), (4096, (1, 4096)), (130, (5, 26)),
                                          (130, (13, 10)), (1000, (1000, 1)), (30030, (3, 10010)),
                                          (30030, (1155, 26)), (30030, (15015, 2))])
    def test_any_split_counts_like_the_oracles(self, n, split, block_bytes):
        # n1 = 1; n1 odd; and at 1000 bytes n1 = 1155 against a stage-1 width
        # of 4 columns, so the last stage-1 block is ragged
        size = stats._FFT_BLOCK_BYTES if block_bytes is None else block_bytes
        with mock.patch.object(stats, "_FFT_BLOCK_BYTES", size), \
                mock.patch.object(stats, "_split", lambda m: split):
            for p in (0.0, 0.5, 0.99):
                bits = _bits(n, p, seed=n)
                report = _quiet(fft_test, bits)
                assert report == _spectral_oracle(bits), p
                if n <= 1000:
                    assert report.params["below_threshold"] == _direct_count(bits), p

    def test_scratch_is_a_few_blocks_beside_the_half_spectrum(self):
        # an even n2 takes the half spectrum in two passes of a quarter of
        # it, 4 B per bit. Beside that, the peak is about 2.5 blocks and the
        # packed grid; a block held into the next one, a stage-1 buffer kept
        # into stage 2, both passes' rows at once, or a float copy of the
        # sequence would exceed the bound
        n = 1 << 22
        assert stats._split(n) == (2048, 2048)
        report, peak = _traced_peak(fft_test, _bits(n))
        assert abs(report.statistic) < 5
        assert peak < 4 * n + 3 * stats._FFT_BLOCK_BYTES

    def test_an_odd_column_length_keeps_one_pass_of_the_half_spectrum(self):
        # an odd n2 has no halves to fold: one pass holds all n2//2 + 1
        # rows, 8 B per bit
        n = 4194096
        assert stats._split(n) == (2096, 2001)
        report, peak = _traced_peak(fft_test, _bits(n))
        assert report == _spectral_oracle(_bits(n))
        assert peak < 8 * n + 3 * stats._FFT_BLOCK_BYTES

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 2000), st.floats(0, 1), st.sampled_from([16, 1000, None]),
           st.integers(0, 2 ** 32 - 1))
    @example(65, 0.5, 16, 0)      # split (13, 10): L = 5, last stage-1 block 5 wide
    @example(78, 0.5, None, 1)    # split (13, 12): L = 6, one block 13 wide
    @example(24, 0.1, 16, 2)      # split (8, 6): L = 3
    @example(32, 0.9, 1000, 3)    # split (8, 8): L = 4
    @example(3, 1.0, 16, 4)       # split (3, 2): L = 1, one block 3 wide
    def test_random_even_lengths_count_like_the_oracle(self, half_n, p, block_bytes, seed):
        # even n2 runs both passes; n1 odd leaves a stage-1 block of odd
        # width, whose last column pairs with zero in the odd pass
        bits = (np.random.default_rng(seed).random(2 * half_n) < p).astype(np.uint8)
        size = stats._FFT_BLOCK_BYTES if block_bytes is None else block_bytes
        with mock.patch.object(stats, "_FFT_BLOCK_BYTES", size):
            assert _quiet(fft_test, bits) == _spectral_oracle(bits)

    @pytest.mark.parametrize("n1, n2", [(13, 10), (13, 12), (8, 6), (21, 8), (16, 14),
                                        (20, 4), (9, 4), (3, 2)])
    def test_both_passes_hand_stage_2_the_column_spectra(self, n1, n2):
        # _even_rows and _odd_rows fill the rows k2 = 2q and 2q + 1 of the
        # columns' own FFTs, with no factor left for stage 2 to take back.
        # At 16 bytes stage-1 blocks are 8 columns wide, so n1 = 13, 20 and
        # 21 end in a ragged block, of odd width at 13 and 21
        bits = _bits(n1 * n2, seed=n1)
        spectra = np.fft.fft(bits.reshape(n2, n1), axis=0)
        spectra[0] -= n2 / 2  # _count_below's correction to the +-1 sequence
        passes = []
        with mock.patch.object(stats, "_FFT_BLOCK_BYTES", 16), \
                mock.patch.object(stats, "_split", lambda m: (n1, n2)), \
                mock.patch.object(stats, "_count_rows",
                                  lambda rows, *args: passes.append(rows.copy()) or 0):
            stats._count_below(bits, n1 * n2, 1.0)
        assert len(passes) == 2
        for parity, rows in enumerate(passes):
            np.testing.assert_allclose(rows, spectra[parity:n2 // 2 + 1:2], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("n, split", [(2, (2, 1)), (8, (8, 1)), (104, (8, 13)),
                                          (2 * 10007, (2, 10007)), (10 ** 6, (1000, 1000)),
                                          (2 ** 25, (8192, 4096))])
    def test_split_takes_the_divisor_nearest_below_the_root(self, n, split):
        # the root of 2n: the largest divisor of n not above sqrt(2n), and a
        # multiple of 8 when 8 divides n, so 8 bits split as (8, 1)
        assert stats._split(n) == split

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10 ** 6))
    @example(13)
    def test_split_of_whole_bytes_has_rows_of_whole_bytes(self, m):
        n = 8 * m
        n1, n2 = stats._split(n)
        assert n1 % 8 == 0 and n1 * n2 == n
        assert all(n % c for c in range(n1 + 8, isqrt(2 * n) + 1, 8))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8 * 10 ** 6).filter(lambda n: n % 8))
    def test_split_of_other_lengths_takes_any_divisor(self, n):
        n1 = max(d for d in range(1, isqrt(2 * n) + 1) if n % d == 0)
        assert stats._split(n) == (n1, n // n1)

    @pytest.mark.parametrize("n1, n2", [(2, 3), (4, 5), (6, 9), (8, 13), (2, 10007),
                                        (1, 2), (3, 4), (5, 6), (4, 8), (7, 10)])
    def test_mirror_rule_counts_every_coefficient_once(self, n1, n2):
        # n2 odd in the first five pairs, even in the rest
        n = n1 * n2
        stands_for = []
        for k2 in range(n2 // 2 + 1):
            span = stats._row_span(k2, n1, n2)
            for k1 in range(n1):
                k = k2 + n2 * k1
                rule = 2 * k < n or (2 * k > n and 0 < 2 * k2 < n2)
                assert (k1 < span) == rule, (k2, k1)
                if rule:
                    stands_for.append(k if 2 * k < n else n - k)
        assert sorted(stands_for) == list(range(n // 2))


class TestPackedSpectrum:

    @pytest.mark.parametrize("block_bytes", [None, 16, 1000, 40000])
    @pytest.mark.parametrize("size, split", [(4096, (256, 128)), (512 * 1024, (2048, 2048)),
                                             (13, (8, 13)), (999, (72, 111)),
                                             (1000, (80, 100))])
    def test_bytes_count_like_their_bits_and_the_oracle(self, size, split, block_bytes):
        # rows of n1 bits are whole bytes, so the grid is a view of the input;
        # at 40,000 block bytes a stage-1 block of 999 bytes is 40 columns,
        # so n1 = 72 leaves a ragged last one
        assert stats._split(8 * size) == split
        data = random.Random(size).randbytes(size)
        bits = bits_from_bytes(data)
        block = stats._FFT_BLOCK_BYTES if block_bytes is None else block_bytes
        with mock.patch.object(stats, "_FFT_BLOCK_BYTES", block):
            report = fft_test(data)
            assert report == fft_test(bits)
        assert report == _spectral_oracle(bits)

    @pytest.mark.parametrize("size", [13, 999, 1000, 1048575])
    def test_bytes_are_read_in_place(self, size):
        data = random.Random(size).randbytes(size)
        with mock.patch.object(np, "packbits", side_effect=AssertionError("packbits")):
            assert fft_test(data).params["n"] == 8 * size


WALKS = {
    "min at S_1": "0" + "1" * 99,
    "max at S_1": "1" + "0" * 99,
    "max at S_n": "01" * 20 + "1" * 60,
    "min at S_n": "10" * 20 + "0" * 60,
    "all zeros": "0" * 100,
    "all ones": "1" * 100,
    "alternating": "01" * 50,
    "alternating from one": "10" * 50,
    "peak inside": "1" * 30 + "0" * 70,
    "trough inside": "0" * 70 + "1" * 30,
}


class TestChunkedWalk:

    @pytest.mark.parametrize("mode", ["forward", "reverse"])
    @pytest.mark.parametrize("name", sorted(WALKS))
    def test_matches_the_int64_cumsum(self, name, mode):
        bits = as_bits(WALKS[name])
        assert cusum_test(bits, mode) == _cusum_oracle(bits, mode)

    @pytest.mark.parametrize("mode", ["forward", "reverse"])
    @pytest.mark.parametrize("chunk", [1, 2, 7, 8, 9])
    def test_walks_across_chunk_boundaries(self, chunk, mode):
        # extremes on the last and the first bit of a chunk, and in between
        walks = list(WALKS.values()) + ["1" * 8 + "0" * 20, "1" * 9 + "0" * 20,
                                        "0" * 16 + "1" * 40, "0" * 17 + "1" * 40]
        walks += ["".join(map(str, _bits(n, seed=chunk))) for n in (1, 2, 3, 50, 257)]
        with mock.patch.object(stats, "_WALK_CHUNK", chunk):
            for walk in walks:
                bits = as_bits(walk)
                assert _quiet(cusum_test, bits, mode) == _cusum_oracle(bits, mode), walk

    def test_extremes_of_a_long_walk(self):
        bits = _bits(3 * stats._WALK_CHUNK + 5, seed=2)
        bits[: stats._WALK_CHUNK] = 1  # the maximum sits at a chunk boundary
        for mode in ("forward", "reverse"):
            assert cusum_test(bits, mode) == _cusum_oracle(bits, mode)

    @pytest.mark.parametrize("batch", [1, 3, None])
    @pytest.mark.parametrize("chunk", [1, 2, 7, 64, stats._WALK_CHUNK])
    def test_pruned_walk_edge_cases(self, chunk, batch):
        # batch None keeps _WALK_BATCH; 1 and 3 walk one or three blocks at a time
        batch_bits = stats._WALK_BATCH if batch is None else batch * chunk
        peak = "1" * (chunk + chunk // 2 + 1) + "0" * (3 * chunk)
        trough = "0" * (chunk + chunk // 2 + 1) + "1" * (3 * chunk)
        walks = {
            "alternating": np.tile(np.uint8([0, 1]), 5 * chunk + 3),
            "alternating from one": np.tile(np.uint8([1, 0]), 5 * chunk + 3),
            "peak inside a block": as_bits(peak),
            "trough inside a block": as_bits(trough),
            "peak inside a later block": as_bits("01" * chunk + peak),
            "trough inside a later block": as_bits("10" * chunk + trough),
            "p = 0.1": _bits(3 * chunk + 5, 0.1, seed=chunk),
            "p = 0.9": _bits(3 * chunk + 5, 0.9, seed=chunk),
        }
        for n in (1, chunk - 1, chunk + 1, 3 * chunk + 5):
            if n:
                walks[f"{n} bits"] = _bits(n, seed=chunk)
        with mock.patch.object(stats, "_WALK_CHUNK", chunk), \
                mock.patch.object(stats, "_WALK_BATCH", batch_bits):
            for name, bits in walks.items():
                assert stats._walk(bits) == _walk_reference(bits), name
                for mode in ("forward", "reverse"):
                    assert _quiet(cusum_test, bits, mode) == _cusum_oracle(bits, mode), name

    @pytest.mark.parametrize("batch_bits", [1 << 12, stats._WALK_BATCH])
    def test_every_block_a_candidate_in_bounded_scratch(self, batch_bits):
        # alternating bits make every block a candidate; walking them all at
        # once would take 5 B per bit, against a batch plus a few numbers per block
        n = 1 << 22
        bits = np.tile(np.uint8([0, 1]), n // 2)
        with mock.patch.object(stats, "_WALK_BATCH", batch_bits):
            tracemalloc.start()
            try:
                assert stats._walk(bits) == (0, 0, -1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 5 * batch_bits + 64 * (n // stats._WALK_CHUNK)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=400), st.integers(1, 64))
    def test_random_walks_match_the_int64_cumsum(self, walk, chunk):
        bits = np.array(walk, dtype=np.uint8)
        with mock.patch.object(stats, "_WALK_CHUNK", chunk):
            for mode in ("forward", "reverse"):
                assert _quiet(cusum_test, bits, mode) == _cusum_oracle(bits, mode)


class TestRunSuite:

    @pytest.mark.parametrize("size", [13, 14, 100, 1000, 20000, 1 << 20])
    def test_matches_the_oracle_suite(self, size):
        data = random.Random(size).randbytes(size)
        assert _quiet(run_suite, data) == _quiet(oracle_suite, data)

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            run_suite(b"\xaa" * 12)

    def test_both_cumulative_sums_reports_come_from_one_walk(self):
        data = random.Random(0x3A1).randbytes(20000)
        bits = bits_from_bytes(data)
        with mock.patch.object(stats, "_walk", wraps=stats._walk) as walk:
            reports = run_suite(data)
        assert walk.call_count == 1
        assert reports[3:5] == [cusum_test(bits, "forward"), cusum_test(bits, "reverse")]

    def test_peak_is_the_half_spectrum_without_a_byte_per_bit(self):
        # the spectral test reads the packed input and runs before the bits
        # are expanded, so the one uint8 per bit (1 B per bit) never sits
        # beside its half spectrum (8 B per bit)
        data = random.Random(0x512).randbytes(512 * 1024)
        tracemalloc.start()
        try:
            reports = run_suite(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(reports) == 6
        assert peak < 8 * 8 * len(data) + 3 * stats._FFT_BLOCK_BYTES

    def test_peak_is_a_quarter_spectrum_when_the_column_length_is_even(self):
        # 512 KiB split as (2048, 2048): the spectral test holds one pass's
        # rows, 4 B per bit, and the battery's byte per bit comes after it
        data = random.Random(0x513).randbytes(512 * 1024)
        assert stats._split(8 * len(data)) == (2048, 2048)
        reports, peak = _traced_peak(run_suite, data)
        assert reports[-1] == _spectral_oracle(bits_from_bytes(data))
        assert peak < 4 * 8 * len(data) + 3 * stats._FFT_BLOCK_BYTES

    def test_order_and_verdicts_on_alternating_bytes(self):
        reports = _quiet(run_suite, b"\xaa" * 13)
        assert [r.test for r in reports] == [
            "frequency", "block_frequency", "runs",
            "cumulative_sums_forward", "cumulative_sums_reverse", "fft"]
        verdicts = {r.test: r.passed for r in reports}
        assert verdicts["frequency"]          # perfectly balanced
        assert not verdicts["runs"]           # oscillates every bit

    def test_block_size_clamped_for_short_samples(self):
        reports = _quiet(run_suite, b"\xaa" * 13, block_size=128)
        block = next(r for r in reports if r.test == "block_frequency")
        assert block.params["block_size"] == 104

    def test_output_is_stable_across_runs(self):
        data = bytes(range(256)) * 4
        assert run_suite(data) == run_suite(data)

    def test_p_values_always_in_unit_interval(self):
        rng = random.Random(0x90D)
        for _ in range(5):
            data = rng.randbytes(200)
            for report in run_suite(data):
                assert 0.0 <= report.p_value <= 1.0
                assert report.passed == (report.p_value >= ALPHA)

    @pytest.mark.parametrize("case", ["13 bytes", "odd bit count",
                                      "runs prerequisite failed", "4 KiB random"])
    def test_reports_are_plain_json(self, case):
        if case == "odd bit count":
            bits = _bits(1001)
            reports = [frequency_test(bits), block_frequency_test(bits),
                       runs_test(bits), cusum_test(bits, "forward"),
                       cusum_test(bits, "reverse"), fft_test(bits)]
            assert reports[-1].params["truncated_bits"] == 1
        else:
            data = {"13 bytes": bytes(range(13)),
                    "runs prerequisite failed": b"\xff" * 100,
                    "4 KiB random": random.Random(0x4B).randbytes(4096)}[case]
            reports = _quiet(run_suite, data)
        if case == "runs prerequisite failed":
            assert "prerequisite" in reports[2].params
        for report in reports:
            json.dumps(report.to_json_dict())
            for value in report.params.values():
                assert type(value) in (int, float, str), (report.test, value)

    def test_json_dict_shape(self):
        report = frequency_test([0, 1] * 100)
        d = report.to_json_dict()
        assert set(d) == {"test", "statistic", "p_value", "pass", "params"}
