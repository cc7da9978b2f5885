"""bernstream: a chaotic stream cipher on a 32-bit fixed-point Bernoulli map.

Two fixed-point map generators run in lockstep; each 32-bit output word
is split into four byte sections and the eight sections are XOR-folded
into one keystream byte. The package also ships the six-test randomness
battery used to judge keystream quality and orbit-analysis tools
(bifurcation arrays and their CSV, byte coverage, cycle lengths) that
expose the finite-precision dynamics.

Research cipher: no nonce, no authentication, no key schedule. Do not
protect real data with it.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public names by submodule. They are imported on first use (PEP 562), so
# `import bernstream` and the numpy-free commands do not load numpy.
_EXPORTS = {
    "analysis": ("CycleResult", "bifurcation_scan", "byte_section",
                 "coverage", "cycle_length", "write_bifurcation_csv"),
    "cipher": ("CipherIOError", "CipherKey", "DegenerateKeyError",
               "KeyFormatError", "WeakMuError", "decrypt_bytes",
               "decrypt_stream", "encrypt_bytes", "encrypt_stream",
               "generate_key", "parse_key"),
    "keystream": ("KeystreamGenerator", "keystream_bytes"),
    "prng": ("MU_MAX", "WORD_BITS", "WORD_MASK", "BernoulliGenerator",
             "generalization_factor", "max_step_value", "step"),
    "stats": ("ALPHA", "TestReport", "bits_from_bytes", "block_frequency_test",
              "cusum_test", "fft_test", "frequency_test", "run_suite",
              "runs_test"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
