import json
import os
import random
import re
import subprocess
import sys

import pytest

from bernstream import analysis, stats
from bernstream.cipher import DEFAULT_CHUNK_SIZE, parse_key
from bernstream.keystream import keystream_bytes
from bernstream.stats import DEFAULT_BLOCK_SIZE
from bernstream.cli import EXIT_BAD_KEY, EXIT_IO, EXIT_OK, EXIT_USAGE, main

from oracles import keystream_reference, orbit_reference

SIM_KEY_HEX = "AAAAAAAAAABBBBBBBBBB"

# Runs argv[1:] and prints its exit code and ru_maxrss (KiB on Linux). The
# command starts from this fresh, small interpreter because a child started
# by vfork carries its parent's high-water RSS into its own ru_maxrss, and
# the test process can be far larger than the command measured.
PEAK_RSS_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""
# frozen from the arithmetic oracle (keystream_reference, checked below)
KS16 = bytes([112, 65, 161, 173, 227, 113, 95, 194,
              204, 103, 248, 176, 174, 30, 11, 74])


def test_frozen_bytes_match_oracle():
    assert KS16 == keystream_reference(0xAAAAAAAA, 0xAA, 0xBBBBBBBB, 0xBB, 16)


def test_keygen_prints_a_valid_key(capsys):
    assert main(["keygen"]) == EXIT_OK
    out = capsys.readouterr().out.strip()
    assert len(out) == 20
    parse_key(out)


def test_keystream_to_stdout(capsysbinary):
    rc = main(["keystream", "--key", SIM_KEY_HEX, "--bytes", "16"])
    assert rc == EXIT_OK
    assert capsysbinary.readouterr().out == KS16


def test_keystream_to_file(tmp_path):
    out = tmp_path / "ks.bin"
    rc = main(["keystream", "--key", SIM_KEY_HEX, "--bytes", "1000",
               "--out", str(out)])
    assert rc == EXIT_OK
    data = out.read_bytes()
    assert len(data) == 1000
    assert data[:16] == KS16


def test_keystream_across_chunks(tmp_path):
    # read in DEFAULT_CHUNK_SIZE pieces, it equals one read of the same length
    key = parse_key(SIM_KEY_HEX)
    for n in (0, 2 * DEFAULT_CHUNK_SIZE + 5):
        out = tmp_path / f"ks{n}.bin"
        rc = main(["keystream", "--key", SIM_KEY_HEX, "--bytes", str(n),
                   "--out", str(out)])
        assert rc == EXIT_OK
        assert out.read_bytes() == keystream_bytes(key, n)


def test_key_file_with_trailing_newline(tmp_path, capsysbinary):
    key_file = tmp_path / "key.hex"
    key_file.write_text(SIM_KEY_HEX.lower() + "\n")
    rc = main(["keystream", "--key-file", str(key_file), "--bytes", "4"])
    assert rc == EXIT_OK
    assert capsysbinary.readouterr().out == KS16[:4]


def test_degenerate_key_exits_2_with_no_output(capsysbinary, tmp_path):
    src = tmp_path / "msg.bin"
    src.write_bytes(b"top secret")
    rc = main(["encrypt", "--key", "AAAAAAAAAAAAAAAAAAAA",
               "--in", str(src), "--out", "-"])
    captured = capsysbinary.readouterr()
    assert rc == EXIT_BAD_KEY
    assert captured.out == b""
    assert b"degenerate" in captured.err


def test_weak_key_gate_and_override(tmp_path, capsysbinary):
    weak = "AAAAAAAA10BBBBBBBBBB"
    src = tmp_path / "m.bin"
    src.write_bytes(b"x" * 32)
    assert main(["encrypt", "--key", weak, "--in", str(src)]) == EXIT_BAD_KEY
    capsysbinary.readouterr()
    rc = main(["encrypt", "--key", weak, "--allow-weak-mu", "--in", str(src)])
    assert rc == EXIT_OK
    assert len(capsysbinary.readouterr().out) == 32


@pytest.mark.parametrize("argv", [
    ["frobnicate"],
    [],
    ["keystream", "--key", SIM_KEY_HEX],              # missing --bytes
    ["keystream", "--key", SIM_KEY_HEX, "--bytes", "ten"],
    ["keystream", "--bytes", "4"],                    # no key at all
    ["encrypt", "--key", SIM_KEY_HEX, "--key-file", "x", "--in", "-"],
    ["keystream", "--key", SIM_KEY_HEX, "--bytes", "4", "--frob"],
])
def test_usage_errors_exit_1(argv, capsys):
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err


def test_malformed_key_is_a_usage_error(capsys, tmp_path):
    src = tmp_path / "m.bin"
    src.write_bytes(b"hi")
    rc = main(["encrypt", "--key", "1234", "--in", str(src), "--out", "-"])
    assert rc == EXIT_USAGE
    assert "20 hex characters" in capsys.readouterr().err


def test_missing_input_file_exits_3(capsys):
    rc = main(["encrypt", "--key", SIM_KEY_HEX,
               "--in", "/no/such/file", "--out", "-"])
    assert rc == EXIT_IO
    assert capsys.readouterr().err


def test_encrypt_decrypt_file_round_trip(tmp_path):
    msg = random.Random(0xF11E).randbytes(100_000)
    plain = tmp_path / "plain.bin"
    cipher = tmp_path / "cipher.bin"
    back = tmp_path / "back.bin"
    plain.write_bytes(msg)
    assert main(["encrypt", "--key", SIM_KEY_HEX, "--in", str(plain),
                 "--out", str(cipher)]) == EXIT_OK
    assert cipher.read_bytes() != msg
    assert main(["decrypt", "--key", SIM_KEY_HEX, "--in", str(cipher),
                 "--out", str(back)]) == EXIT_OK
    assert back.read_bytes() == msg


@pytest.mark.parametrize("command", ["encrypt", "decrypt"])
@pytest.mark.parametrize("link", ["same path", "symlink", "hard link"])
def test_in_place_output_is_refused(tmp_path, capsys, command, link):
    msg = random.Random(0x5A3E).randbytes(100_000)
    src = tmp_path / "f.bin"
    src.write_bytes(msg)
    out = tmp_path / "g.bin"
    if link == "same path":
        out = src
    elif link == "symlink":
        out.symlink_to(src)
    else:
        os.link(src, out)
    rc = main([command, "--key", SIM_KEY_HEX, "--in", str(src), "--out", str(out)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--in" in err and "--out" in err
    assert src.read_bytes() == msg


@pytest.mark.parametrize("command", ["encrypt", "decrypt", "keystream"])
@pytest.mark.parametrize("link", ["same path", "symlink", "hard link"])
def test_key_file_as_output_is_refused(tmp_path, capsys, command, link):
    msg = random.Random(0x4BF).randbytes(1000)
    src = tmp_path / "f.bin"
    src.write_bytes(msg)
    key = tmp_path / "k.hex"
    key.write_text(SIM_KEY_HEX + "\n")
    out = tmp_path / "g.bin"
    if link == "same path":
        out = key
    elif link == "symlink":
        out.symlink_to(key)
    else:
        os.link(key, out)
    data = ["--bytes", "64"] if command == "keystream" else ["--in", str(src)]
    rc = main([command, "--key-file", str(key), *data, "--out", str(out)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--key-file" in err and "--out" in err
    assert key.read_bytes() == (SIM_KEY_HEX + "\n").encode()
    assert src.read_bytes() == msg


def test_pipe_composability_through_real_processes(tmp_path):
    msg = random.Random(0x91E).randbytes(50_000)
    enc = subprocess.run(
        [sys.executable, "-m", "bernstream", "encrypt", "--key", SIM_KEY_HEX],
        input=msg, stdout=subprocess.PIPE, check=True)
    dec = subprocess.run(
        [sys.executable, "-m", "bernstream", "decrypt", "--key", SIM_KEY_HEX],
        input=enc.stdout, stdout=subprocess.PIPE, check=True)
    assert dec.stdout == msg


def test_binary_stdout_stays_clean_in_real_process():
    proc = subprocess.run(
        [sys.executable, "-m", "bernstream", "keystream",
         "--key", SIM_KEY_HEX, "--bytes", "4096"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=True)
    assert len(proc.stdout) == 4096
    assert proc.stdout[:16] == KS16


class TestTestCommand:

    @pytest.fixture()
    def passing_sample(self, tmp_path):
        path = tmp_path / "sample.bin"
        rc = main(["keystream", "--key", SIM_KEY_HEX, "--bytes", "20000",
                   "--out", str(path)])
        assert rc == EXIT_OK
        return path

    def test_passing_sample_text_report(self, passing_sample, capsys):
        rc = main(["test", "--in", str(passing_sample)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "overall: 6/6 passed" in out

    def test_passing_sample_json_report(self, passing_sample, capsys):
        rc = main(["test", "--in", str(passing_sample), "--report", "json"])
        assert rc == EXIT_OK
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 6
        for entry in reports:
            assert set(entry) == {"test", "statistic", "p_value", "pass",
                                  "params"}
            assert entry["pass"] is True

    def test_failing_sample_exits_nonzero_with_report(self, tmp_path, capsys):
        bad = tmp_path / "zeros.bin"
        bad.write_bytes(bytes(2000))
        rc = main(["test", "--in", str(bad)])
        out = capsys.readouterr().out
        assert rc == EXIT_USAGE
        assert "FAIL" in out

    def test_block_size_flag(self, passing_sample, capsys):
        rc = main(["test", "--in", str(passing_sample), "--report", "json",
                   "--block-size", "64"])
        assert rc == EXIT_OK
        reports = json.loads(capsys.readouterr().out)
        block = next(r for r in reports if r["test"] == "block_frequency")
        assert block["params"]["block_size"] == 64
        main(["test", "--in", str(passing_sample), "--report", "json"])
        reports = json.loads(capsys.readouterr().out)
        block = next(r for r in reports if r["test"] == "block_frequency")
        assert block["params"]["block_size"] == DEFAULT_BLOCK_SIZE

    def test_block_size_below_1_exits_1_before_any_test(self, passing_sample, monkeypatch,
                                                        capsys):
        def refused(*args, **kwargs):
            raise AssertionError("a test ran before the block size was checked")

        monkeypatch.setattr(stats, "fft_test", refused)
        rc = main(["test", "--in", str(passing_sample), "--block-size", "-5"])
        assert rc == EXIT_USAGE
        out = capsys.readouterr()
        assert out.err == "bernstream: error: block size must be >= 1: -5\n"
        assert out.out == ""

    def test_reads_stdin_in_real_process(self, passing_sample):
        proc = subprocess.run(
            [sys.executable, "-m", "bernstream", "test", "--report", "json"],
            input=passing_sample.read_bytes(), stdout=subprocess.PIPE)
        assert proc.returncode == 0
        assert len(json.loads(proc.stdout)) == 6

    @pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
    def test_peak_memory_on_a_1_mib_keystream(self, tmp_path):
        path = tmp_path / "ks.bin"
        path.write_bytes(keystream_bytes(parse_key(SIM_KEY_HEX), 1 << 20))
        done = subprocess.run([sys.executable, "-c", PEAK_RSS_LAUNCHER, sys.executable,
                               "-m", "bernstream", "test", "--in", str(path)],
                              capture_output=True, text=True, check=True)
        code, maxrss_kib = map(int, done.stdout.split())
        assert code == EXIT_OK
        # 8.4e6 bits: the 4 B-per-bit rows of one spectral pass are 32 MiB
        # of the peak, 68 MiB; the 8 B-per-bit half spectrum took 100 MiB
        assert maxrss_kib / 1024 < 90

    def test_tiny_input_is_a_usage_error(self, tmp_path, capsys):
        small = tmp_path / "small.bin"
        small.write_bytes(b"123")
        assert main(["test", "--in", str(small)]) == EXIT_USAGE


@pytest.mark.parametrize("argv, option, constant", [
    (["bifurcate", "--mu-min", "250", "--mu-max", "251"], "--transient",
     analysis.DEFAULT_TRANSIENT),
    (["bifurcate", "--mu-min", "250", "--mu-max", "251"], "--samples",
     analysis.DEFAULT_SAMPLES),
    (["cycle", "--seed", "0x80000000", "--mu", "170"], "--max-steps",
     analysis.DEFAULT_MAX_STEPS),
    (["test", "--in", "{sample}"], "--block-size", DEFAULT_BLOCK_SIZE),
], ids=["transient", "samples", "max-steps", "block-size"])
def test_help_states_the_library_default(argv, option, constant, tmp_path, capsys):
    # the parser states these defaults as literals, so that a command does
    # not import the module that defines them until it runs
    with pytest.raises(SystemExit):
        main([argv[0], "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    stated = re.search(rf"{option} [A-Z]+ [^()]*\(default: (\d+)\)", help_text)
    assert stated and int(stated[1]) == constant, help_text
    sample = tmp_path / "sample.bin"
    sample.write_bytes(keystream_bytes(parse_key(SIM_KEY_HEX), 20000))
    argv = [arg.format(sample=sample) for arg in argv]
    runs = []
    for args in (argv, argv + [option, str(constant)]):
        runs.append((main(args), capsys.readouterr()))
    assert runs[0] == runs[1]
    assert runs[0][0] == EXIT_OK and runs[0][1].out


def test_bifurcate_csv_output(capsys):
    rc = main(["bifurcate", "--mu-min", "170", "--mu-max", "172",
               "--samples", "5", "--transient", "10", "--section", "2"])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "mu,section,value"
    assert len(lines) == 1 + 3 * 5
    mus = {int(line.split(",")[0]) for line in lines[1:]}
    assert mus == {170, 171, 172}


def test_bifurcate_to_file(tmp_path):
    out = tmp_path / "bif.csv"
    rc = main(["bifurcate", "--mu-min", "0", "--mu-max", "0",
               "--samples", "3", "--transient", "1", "--out", str(out)])
    assert rc == EXIT_OK
    assert out.read_text() == "mu,section,value\n0,1,128\n0,1,128\n0,1,128\n"


def test_bifurcate_wide_scan_matches_oracle(tmp_path):
    out = tmp_path / "bif.csv"
    rc = main(["bifurcate", "--mu-min", "200", "--mu-max", "255",
               "--seed", "0xDEADBEEF", "--samples", "4", "--transient", "7",
               "--section", "4", "--out", str(out)])
    assert rc == EXIT_OK
    rows = [f"{mu},4,{word % 256}\n" for mu in range(200, 256)
            for word in orbit_reference(0xDEADBEEF, mu, 11)[7:]]
    assert out.read_text() == "mu,section,value\n" + "".join(rows)


def test_bifurcate_bad_range_writes_no_file(tmp_path, capsys):
    out = tmp_path / "bif.csv"
    rc = main(["bifurcate", "--mu-min", "200", "--mu-max", "100",
               "--out", str(out)])
    assert rc == EXIT_USAGE
    assert "empty mu range" in capsys.readouterr().err
    assert not out.exists()


def test_cycle_text_output(capsys):
    rc = main(["cycle", "--seed", "0x80000000", "--mu", "170"])
    assert rc == EXIT_OK
    assert "tail=39396 period=168564" in capsys.readouterr().out


def test_cycle_json_output(capsys):
    rc = main(["cycle", "--seed", "12345", "--mu", "0", "--report", "json"])
    assert rc == EXIT_OK
    result = json.loads(capsys.readouterr().out)
    assert result["found"] is True
    assert result["period"] == 1


def test_cycle_budget_exhaustion_reports_cleanly(capsys):
    rc = main(["cycle", "--seed", "0xAAAAAAAA", "--mu", "170",
               "--max-steps", "50"])
    assert rc == EXIT_OK
    assert "not found" in capsys.readouterr().out
