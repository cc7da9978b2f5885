import importlib
import subprocess
import sys

import pytest

import bernstream

SUBMODULES = ("analysis", "cipher", "keystream", "prng", "stats")
PUBLIC = """
    ALPHA BernoulliGenerator BifurcationRecord ByteQuad CipherIOError CipherKey
    CycleResult DegenerateKeyError KeyFormatError KeystreamGenerator MU_MAX
    TestReport WORD_BITS WORD_MASK WeakMuError bifurcation_scan bits_from_bytes
    block_frequency_test byte_section combine coverage cusum_test cycle_length
    decrypt_bytes decrypt_stream encrypt_bytes encrypt_stream fft_test
    frequency_test generalization_factor generate_key keystream_bytes
    max_step_value parse_key reassemble run_suite runs_test split_half
    split_word step step_reference write_bifurcation_csv
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
