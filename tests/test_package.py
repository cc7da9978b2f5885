import importlib
import random
import subprocess
import sys

import pytest

import bernstream
from bernstream.analysis import CycleResult
from bernstream.cipher import CipherKey, parse_key
from bernstream.keystream import TABLE_THRESHOLD

from oracles import advance, keystream_reference

SUBMODULES = ("analysis", "cipher", "keystream", "prng", "stats")
PUBLIC = """
    ALPHA BernoulliGenerator CipherIOError CipherKey CycleResult
    DegenerateKeyError KeyFormatError KeystreamGenerator MU_MAX TestReport
    WORD_BITS WORD_MASK WeakMuError bifurcation_scan bits_from_bytes
    block_frequency_test byte_section coverage cusum_test cycle_length
    decrypt_bytes decrypt_stream encrypt_bytes encrypt_stream fft_test
    frequency_test generalization_factor generate_key keystream_bytes
    max_step_value parse_key run_suite runs_test step write_bifurcation_csv
""".split()


def test_import_and_cycle_command_leave_numpy_unloaded():
    code = "\n".join([
        "import sys",
        "import bernstream",
        "assert 'numpy' not in sys.modules, 'import bernstream loaded numpy'",
        "from bernstream.cli import main",
        "assert main(['cycle', '--seed', '0x80000000', '--mu', '170']) == 0",
        "assert main(['cycle', '--seed', '5', '--mu', '0', '--report', 'json']) == 0",
        "assert 'numpy' not in sys.modules, 'cycle loaded numpy'",
        "bernstream.cycle_length(1, 200, max_steps=10)",
        "from bernstream.cipher import DegenerateKeyError, parse_key",
        "assert 'numpy' not in sys.modules, 'key handling loaded numpy'",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "tail=39396 period=168564" in proc.stdout


def test_cipher_commands_run_with_numpy_blocked(tmp_path):
    # 200 KiB runs past TABLE_THRESHOLD, so the recorded orbits serve most
    # of it, and past both orbits' first wrap: generator a's table enters
    # its cycle at byte 5,891 and wraps at 30,227, b's at 53,093 and 144,219.
    key_hex, n = "0123456789ABCDEF12C3", 200 * 1024
    plain = random.Random(0x0B1E).randbytes(n)
    paths = {name: str(tmp_path / f"{name}.bin")
             for name in ("plain", "ks", "cipher", "round", "bytes")}
    (tmp_path / "plain.bin").write_bytes(plain)
    code = "\n".join([
        "import sys",
        "sys.modules['numpy'] = None  # any import of numpy now fails",
        "from bernstream.cli import main",
        f"paths, key = {paths!r}, {key_hex!r}",
        "assert main(['keygen']) == 0",
        f"assert main(['keystream', '--key', key, '--bytes', '{n}', '--out', paths['ks']]) == 0",
        "assert main(['encrypt', '--key', key, '--in', paths['plain'],"
        " '--out', paths['cipher']]) == 0",
        "assert main(['decrypt', '--key', key, '--in', paths['cipher'],"
        " '--out', paths['round']]) == 0",
        "from bernstream import encrypt_bytes, parse_key",
        "with open(paths['plain'], 'rb') as src, open(paths['bytes'], 'wb') as dst:",
        "    dst.write(encrypt_bytes(parse_key(key), src.read()))",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    parse_key(proc.stdout.strip())
    out = {name: (tmp_path / f"{name}.bin").read_bytes() for name in paths}
    ks = out["ks"]
    assert len(ks) == n
    key = parse_key(key_hex)
    xa, xb, pos, width = key.seed1, key.seed2, 0, 1024
    # windows around the table's start, the threshold, both cycle entries
    # and both first wraps, and the last bytes
    for start in sorted([0, TABLE_THRESHOLD, 5891, 30227, 53093, 144219, n]):
        start = min(max(start - width // 2, pos), n - width)
        xa, xb = advance(xa, key.mu1, start - pos), advance(xb, key.mu2, start - pos)
        pos = start
        assert ks[start:start + width] == keystream_reference(xa, key.mu1, xb, key.mu2, width)
    assert out["cipher"] == bytes(a ^ b for a, b in zip(plain, ks))
    assert out["round"] == plain
    assert out["bytes"] == out["cipher"]


def test_cycle_and_encrypt_leave_heavy_modules_unloaded(tmp_path):
    # dataclasses pulls in inspect, dis and ast; json is needed only by
    # --report json; all of them cost every CLI start
    plain = tmp_path / "plain.bin"
    plain.write_bytes(random.Random(0xD47A).randbytes(TABLE_THRESHOLD + 1000))
    code = "\n".join([
        "import sys",
        "from bernstream.cli import main",
        "assert main(['cycle', '--seed', '0x80000000', '--mu', '170']) == 0",
        f"assert main(['encrypt', '--key', '0123456789ABCDEF12C3', '--in', {str(plain)!r},"
        f" '--out', {str(tmp_path / 'cipher.bin')!r}]) == 0",
        "print(sorted(m for m in ('dataclasses', 'inspect', 'json') if m in sys.modules))",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "cipher.bin").stat().st_size == TABLE_THRESHOLD + 1000


ORBIT_MODULES = ["analysis", "prng"]
CIPHER_MODULES = ["cipher", "keystream", "prng"]
# reads past TABLE_THRESHOLD record orbits, which load the cycle table
RECORD_MODULES = ["_cycles", *CIPHER_MODULES]
COMMAND_MODULES = [
    (["cycle", "--seed", "0x80000000", "--mu", "170", "--report", "json"], ORBIT_MODULES),
    (["bifurcate", "--mu-min", "250", "--mu-max", "255", "--out", "{out}"], ORBIT_MODULES),
    (["keygen"], CIPHER_MODULES),
    (["keystream", "--key", "{key}", "--bytes", "70000", "--out", "{out}"], RECORD_MODULES),
    (["encrypt", "--key", "{key}", "--in", "{plain}", "--out", "{out}"], RECORD_MODULES),
    (["decrypt", "--key", "{key}", "--in", "{plain}", "--out", "{out}"], RECORD_MODULES),
    (["test", "--in", "{plain}", "--report", "json"], ["special", "stats"]),
]


@pytest.mark.parametrize("argv, modules", COMMAND_MODULES,
                         ids=[argv[0] for argv, _ in COMMAND_MODULES])
def test_each_command_loads_only_the_modules_it_runs(argv, modules, tmp_path):
    # every command is a fresh process that compiles what it imports, so a
    # module it does not run is start-up time wasted
    plain = tmp_path / "plain.bin"
    plain.write_bytes(random.Random(0x10AD).randbytes(TABLE_THRESHOLD + 1000))
    argv = [arg.format(key="0123456789ABCDEF12C3", plain=plain, out=tmp_path / "out")
            for arg in argv]
    code = "\n".join([
        "import sys",
        "from bernstream.cli import main",
        f"assert main({argv!r}) == 0",
        "print(sorted(m for m in sys.modules if m.startswith('bernstream.')))",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = sorted(f"bernstream.{m}" for m in ["cli", *modules])
    assert proc.stdout.splitlines()[-1] == str(loaded)


def test_key_setup_and_short_reads_leave_the_cycle_table_unloaded():
    # the benchmark's setup path and small messages read below
    # TABLE_THRESHOLD, where no orbit is recorded
    code = "\n".join([
        "import sys",
        "import bernstream",
        "loaded = [('import', 'bernstream._cycles' in sys.modules)]",
        "from bernstream.cipher import parse_key",
        "from bernstream.keystream import TABLE_THRESHOLD, KeystreamGenerator",
        "gen = KeystreamGenerator.from_key(parse_key('0123456789ABCDEF12C3'))",
        "loaded.append(('setup', 'bernstream._cycles' in sys.modules))",
        "assert len(gen.read(TABLE_THRESHOLD - 1)) == TABLE_THRESHOLD - 1",
        "loaded.append(('short read', 'bernstream._cycles' in sys.modules))",
        "gen.read(1)",
        "loaded.append(('threshold', 'bernstream._cycles' in sys.modules))",
        "print(loaded)",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str(
        [("import", False), ("setup", False), ("short read", False), ("threshold", True)])


HELP_ARGVS = [["--help"], *([argv[0], "--help"] for argv, _ in COMMAND_MODULES)]


@pytest.mark.parametrize("argv", HELP_ARGVS, ids=[" ".join(argv) for argv in HELP_ARGVS])
def test_help_loads_only_the_cli(argv):
    # the parser states each library default as a literal, so building it
    # imports no library module
    code = "\n".join([
        "import sys",
        "from bernstream.cli import main",
        "try:",
        f"    main({argv!r})",
        "except SystemExit as exc:",
        "    assert exc.code == 0, exc.code",
        "else:",
        "    raise AssertionError('--help did not exit')",
        "print(sorted(m for m in sys.modules if m.startswith('bernstream.')))",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "['bernstream.cli']"


@pytest.mark.parametrize("record, fields, other", [
    (CipherKey, {"seed1": 0xAAAAAAAA, "mu1": 0xAA, "seed2": 0xBBBBBBBB, "mu2": 0xBB},
     (0xAAAAAAAA, 0xAA, 0xBBBBBBBB, 0xBC)),
    (CycleResult, {"tail": 39396, "period": 168564, "steps_examined": 208896},
     (None, None, 208896)),
])
def test_records_are_immutable_values(record, fields, other):
    a = record(**fields)
    assert a == record(*fields.values()) and hash(a) == hash(record(*fields.values()))
    assert a != record(*other)
    assert {n: getattr(a, n) for n in fields} == fields
    assert repr(a) == f"{record.__name__}(" + ", ".join(
        f"{n}={v!r}" for n, v in fields.items()) + ")"
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
    with pytest.raises(AttributeError):
        a.extra = 1


@pytest.mark.parametrize("field, value", [("seed1", 2**32), ("mu1", 256),
                                          ("seed2", -1), ("mu2", -1)])
def test_cipher_key_checks_each_field(field, value):
    fields = {"seed1": 0, "mu1": 170, "seed2": 1, "mu2": 171, field: value}
    with pytest.raises(ValueError, match=f"{field} out of range"):
        CipherKey(**fields)
    with pytest.raises(ValueError, match=f"{field} out of range"):
        CipherKey(seed1=0, mu1=170, seed2=1, mu2=171)._replace(**{field: value})


def test_public_names_are_their_submodules_objects():
    assert bernstream.__all__ == sorted(PUBLIC)
    modules = [importlib.import_module(f"bernstream.{m}") for m in SUBMODULES]
    for name in bernstream.__all__:
        value = getattr(bernstream, name)
        assert getattr(bernstream, name) is value  # once more, from the cache
        owners = [m for m in modules if name in vars(m)]
        assert owners, name
        assert all(vars(m)[name] is value for m in owners), name
    assert set(bernstream.__all__) <= set(dir(bernstream))
    namespace = {}
    exec("from bernstream import *", namespace)
    assert set(bernstream.__all__) <= set(namespace)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bernstream.no_such_name
