"""Command-line interface.

Subcommands: keygen, keystream, encrypt, decrypt, test, bifurcate, cycle.
Exit codes: 0 success, 1 usage error or failed randomness tests,
2 degenerate/weak key, 3 I/O error. Binary data goes to stdout only when
explicitly requested with `-`; diagnostics always go to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager

# The rule for imports: this module imports no bernstream module at module
# level, and each cmd_* function imports what it runs. Every command is a
# fresh process that compiles and runs what it imports, so `cycle` and
# `bifurcate` load analysis and prng only; keygen, keystream, encrypt and
# decrypt load cipher, keystream and prng only; and `test` loads stats only.
# So the parser states library defaults as literals; tests tie each to its
# constant. numpy stays off the cipher commands and `cycle`; `test` and
# `bifurcate` load it when they run.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAD_KEY = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _int_arg(text: str) -> int:
    try:
        return int(text, 0)  # accepts decimal or 0x-prefixed hex
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")


@contextmanager
def _open(path: str, mode: str):
    """open(path, mode), where `-` is stdin for reading and stdout for
    writing, binary when mode has "b"; stdout is flushed, not closed."""
    if path != "-":
        with open(path, mode) as f:
            yield f
    elif "r" in mode:
        yield sys.stdin.buffer if "b" in mode else sys.stdin
    else:
        out = sys.stdout.buffer if "b" in mode else sys.stdout
        yield out
        out.flush()


def _add_key_args(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--key", metavar="HEX",
                       help="20-hex-character key")
    group.add_argument("--key-file", metavar="PATH",
                       help="file holding the key as a single hex line")
    sub.add_argument("--allow-weak-mu", action="store_true",
                     help="lift the weak-key guard: mu >= 129 and mu1 != mu2 (research use)")


def _load_key(args):
    from .cipher import parse_key

    if args.key is not None:
        text = args.key
    else:
        with open(args.key_file) as f:
            text = f.read()
    return parse_key(text, allow_weak_mu=args.allow_weak_mu)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bernstream",
                     description="Chaotic stream cipher and analysis tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="print a fresh random key")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("keystream", help="write raw keystream bytes")
    _add_key_args(p)
    p.add_argument("--bytes", type=_int_arg, required=True, metavar="N",
                   help="number of keystream bytes to emit")
    p.add_argument("--out", default="-", metavar="PATH|-",
                   help="output file (default: stdout)")
    p.set_defaults(func=cmd_keystream)

    for name, help_text in (("encrypt", "encrypt a byte stream"),
                            ("decrypt", "decrypt a byte stream")):
        p = sub.add_parser(name, help=help_text)
        _add_key_args(p)
        p.add_argument("--in", dest="infile", default="-", metavar="PATH|-",
                       help="input file (default: stdin)")
        p.add_argument("--out", default="-", metavar="PATH|-",
                       help="output file (default: stdout)")
        p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("test", help="run the six randomness tests")
    p.add_argument("--in", dest="infile", default="-", metavar="PATH|-",
                   help="input file (default: stdin)")
    p.add_argument("--report", choices=("text", "json"), default="text",
                   help="report format (default: text)")
    p.add_argument("--block-size", type=_int_arg, default=128, metavar="M",
                   help="block frequency block size (default: %(default)s)")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("bifurcate", help="emit bifurcation-diagram CSV data")
    p.add_argument("--mu-min", type=_int_arg, default=0, metavar="MU")
    p.add_argument("--mu-max", type=_int_arg, default=255, metavar="MU")
    p.add_argument("--seed", type=_int_arg, default=0xAAAAAAAA, metavar="X0",
                   help="orbit start value (default: %(default)s)")
    p.add_argument("--section", type=_int_arg, default=1, choices=(1, 2, 3, 4),
                   help="byte section to record, 1 = most significant")
    p.add_argument("--transient", type=_int_arg, default=1000, metavar="N",
                   help="outputs discarded per mu (default: %(default)s)")
    p.add_argument("--samples", type=_int_arg, default=200, metavar="N",
                   help="outputs recorded per mu (default: %(default)s)")
    p.add_argument("--out", default="-", metavar="PATH|-",
                   help="CSV output (default: stdout)")
    p.set_defaults(func=cmd_bifurcate)

    p = sub.add_parser("cycle", help="measure orbit tail and period")
    p.add_argument("--seed", type=_int_arg, required=True, metavar="X0")
    p.add_argument("--mu", type=_int_arg, required=True, metavar="MU")
    p.add_argument("--max-steps", type=_int_arg, default=10_000_000, metavar="N",
                   help="step budget (default: %(default)s)")
    p.add_argument("--report", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_cycle)

    return parser


def cmd_keygen(args) -> int:
    from .cipher import generate_key

    print(generate_key().to_hex())
    return EXIT_OK


def _refuse_as_out(out: str, *inputs: tuple[str, str | None]) -> None:
    """Refuse an --out that names the same file as one of the (flag, path)
    inputs. Opening --out truncates it before the input is read, and would
    replace a key with keystream or ciphertext; samefile also sees through
    symlinks and hard links.
    """
    if out != "-" and os.path.exists(out):
        for flag, path in inputs:
            if path not in (None, "-") and os.path.samefile(path, out):
                raise ValueError(f"{flag} and --out name the same file: {path}")


def cmd_keystream(args) -> int:
    from .cipher import DEFAULT_CHUNK_SIZE
    from .keystream import KeystreamGenerator

    if args.bytes < 0:
        raise ValueError("--bytes must be >= 0")
    _refuse_as_out(args.out, ("--key-file", args.key_file))
    key = _load_key(args)
    gen = KeystreamGenerator.from_key(key, allow_weak_mu=args.allow_weak_mu)
    with _open(args.out, "wb") as dst:
        for start in range(0, args.bytes, DEFAULT_CHUNK_SIZE):
            dst.write(gen.read(min(DEFAULT_CHUNK_SIZE, args.bytes - start)))
    return EXIT_OK


def cmd_encrypt(args) -> int:
    from .cipher import encrypt_stream

    _refuse_as_out(args.out, ("--in", args.infile), ("--key-file", args.key_file))
    key = _load_key(args)
    with _open(args.infile, "rb") as src, _open(args.out, "wb") as dst:
        encrypt_stream(key, src, dst, allow_weak_mu=args.allow_weak_mu)
    return EXIT_OK


def cmd_test(args) -> int:
    from .stats import run_suite

    with _open(args.infile, "rb") as src:
        data = src.read()
    reports = run_suite(data, block_size=args.block_size)
    if args.report == "json":
        import json  # here, not at module level: only JSON reports need it

        print(json.dumps([r.to_json_dict() for r in reports], indent=2))
    else:
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            print(f"{r.test:<26} P={r.p_value:<12.6g} {status}")
        n_pass = sum(r.passed for r in reports)
        print(f"overall: {n_pass}/{len(reports)} passed")
    return EXIT_OK if all(r.passed for r in reports) else EXIT_USAGE


def cmd_bifurcate(args) -> int:
    from .analysis import bifurcation_scan, write_bifurcation_csv

    values = bifurcation_scan(args.mu_min, args.mu_max, args.seed,
                              transient=args.transient, samples=args.samples,
                              section=args.section)
    with _open(args.out, "w") as dst:
        write_bifurcation_csv(values, args.mu_min, args.section, dst)
    return EXIT_OK


def cmd_cycle(args) -> int:
    from .analysis import cycle_length

    result = cycle_length(args.seed, args.mu, max_steps=args.max_steps)
    if args.report == "json":
        import json

        print(json.dumps({"found": result.found, **result._asdict()}))
    elif result.found:
        print(f"tail={result.tail} period={result.period} "
              f"steps_examined={result.steps_examined}")
    else:
        print(f"cycle not found within budget; "
              f"steps_examined={result.steps_examined}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValueError as exc:  # usage errors and KeyFormatError among them
        # a DegenerateKeyError exists only once cipher is loaded, so look
        # for its class there rather than load cipher for every command
        cipher = sys.modules.get(f"{__package__}.cipher")
        bad_key = cipher is not None and isinstance(exc, cipher.DegenerateKeyError)
        print(f"bernstream: error: {exc}", file=sys.stderr)
        return EXIT_BAD_KEY if bad_key else EXIT_USAGE
    except BrokenPipeError:
        # keep the interpreter's shutdown flush off the dead pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_IO
    except OSError as exc:
        print(f"bernstream: error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
