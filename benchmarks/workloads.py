"""The benchmark's four workloads, their seeded inputs and output checks.

Each workload builds its inputs and references from the seed, then offers
two ways to run one pass over them:

* `measure(seconds)`: what a user runs, as `bernstream` CLI subprocesses
  (or, for small-messages, a library client process), repeated in passes
  until `seconds` have elapsed. Returns the passes, each a list of one
  `Op` per operation with its wall time, that time scaled to the
  reference host speed (hostspeed.py), the child's own peak RSS and
  whether its output passed the checks. The first pass is whole; a later
  one stops at the first operation that ends past the deadline.
* `library_pass()`: the same pass in this process, through
  `bernstream.cli.main(argv)` or the library, for the traced run.
  Returns a function to call once the clock has stopped, which checks
  the pass's outputs and gives one outcome per operation.

Load is a closed loop with one client: each operation starts when the
previous one has ended, one process at a time.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import statistics
import subprocess
import sys
import zlib
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import hostspeed
import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLI = [sys.executable, "-m", "bernstream"]
SPAWN = Path(__file__).resolve().parent / "spawn.py"
CHILD_TIMEOUT_S = 150
ALPHA = 0.01
SUITE = ("frequency", "block_frequency", "runs", "cumulative_sums_forward",
         "cumulative_sums_reverse", "fft")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    stdout: bytes
    scaled_s: float


def run_child(argv: list[str], work: Path, loop: str = "python") -> Child:
    """Run one child to completion, through spawn.py; its exit code, wall
    time, own peak RSS (from os.wait4 on that child alone) and its wall
    time scaled by the hostspeed.py calibration `loop` run beside it."""
    out_path = work / "child.out"
    done = subprocess.run(
        [sys.executable, "-I", "-S", str(SPAWN), str(out_path), str(CHILD_TIMEOUT_S), loop,
         *argv],
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S + 30, check=True)
    report = json.loads(done.stdout)
    return Child(report["code"], report["wall_s"], report["maxrss_kib"] * 1024 / 1e6,
                 out_path.read_bytes(),
                 report["wall_s"] * hostspeed.REFERENCE_S[loop] / report["calibration_s"])


def cli_main(argv: list[str]) -> tuple[int, str]:
    """bernstream.cli.main(argv) in this process, with its text output captured."""
    cli = importlib.import_module("bernstream.cli")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def draw_keys(rng: np.random.Generator, count: int) -> list[str]:
    """Keys that stay valid as key validation tightens.

    The draw excludes mu < 129, mu1 == mu2 and seed1 == seed2 modulo
    2^31 (seeds that differ only in the top bit have the same image), so
    no key here falls in a class that validation rejects now or is meant
    to reject later. A key that parse_key still refuses is an error.
    """
    parse_key = importlib.import_module("bernstream.cipher").parse_key
    keys = []
    while len(keys) < count:
        seed1, seed2 = (int(v) for v in rng.integers(0, 2**32, size=2))
        mu1, mu2 = (int(v) for v in rng.integers(129, 256, size=2))
        if mu1 == mu2 or seed1 & 0x7FFFFFFF == seed2 & 0x7FFFFFFF:
            continue
        key = f"{seed1:08X}{mu1:02X}{seed2:08X}{mu2:02X}"
        try:
            parse_key(key)
        except ValueError as exc:
            raise RuntimeError(f"bernstream rejected drawn key {key}: {exc}") from exc
        keys.append(key)
    return keys


def digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=8).hexdigest()


@dataclass
class Op:
    wall_s: float
    ok: bool
    rss_mb: float
    scaled_s: float

    @classmethod
    def of(cls, child: Child, ok: bool) -> "Op":
        return cls(child.wall_s, ok, child.rss_mb, child.scaled_s)


def median_ms(values) -> float:
    return statistics.median(values) * 1e3


def percentile_ms(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)] * 1e3


class Workload:
    name = ""

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.rng = np.random.default_rng([seed % 2**63, zlib.crc32(self.name.encode())])
        self.first_key: str | None = None

    def measure(self, seconds: float) -> list[list[Op]]:
        passes, start = [], perf_counter()
        while not passes or perf_counter() - start < seconds:
            passes.append([])
            for op in self.cli_ops():
                passes[-1].append(op())
                if len(passes) > 1 and perf_counter() - start >= seconds:
                    break
        return passes

    def cli_ops(self) -> list[Callable[[], Op]]:
        """One pass: the operations in order, each run as a CLI child."""
        raise NotImplementedError

    def library_pass(self) -> Callable[[], list[bool]]:
        raise NotImplementedError

    def named_metrics(self, ops: list[Op]) -> list[tuple[str, float, str]]:
        """The workload's own metrics, from each operation's median pass."""
        raise NotImplementedError


class BulkEncrypt(Workload):
    name = "bulk-encrypt"
    FILES = 4
    FILE_BYTES = 4 << 20
    # The keys are the same for every seed; only the plaintexts follow it.
    # The cost of a keystream byte depends on the key: the four-file time
    # varies by about 30% between seeds' keys today, and more once a
    # keystream's cost follows its orbit's tail and period.
    KEY_SEED = 20150106

    def __init__(self, seed, work):
        super().__init__(seed, work)
        keys = draw_keys(np.random.default_rng([self.KEY_SEED, zlib.crc32(self.name.encode())]),
                         self.FILES)
        self.first_key = keys[0]
        self.jobs = []
        for i, key in enumerate(keys):
            plain = self.rng.bytes(self.FILE_BYTES)
            key_path, plain_path = work / f"key{i}.hex", work / f"plain{i}.bin"
            key_path.write_text(key + "\n")
            plain_path.write_bytes(plain)
            expected = reference.xor(plain, reference.keystream(key, self.FILE_BYTES))
            self.jobs.append((["--key-file", str(key_path), "--in", str(plain_path),
                               "--out", str(work / f"cipher{i}.bin")],
                              work / f"cipher{i}.bin", expected))

    def _check(self, code, out_path, expected) -> bool:
        ok = code == 0 and out_path.read_bytes() == expected
        out_path.unlink(missing_ok=True)
        return ok

    def _encrypt(self, args, out_path, expected) -> Op:
        child = run_child(CLI + ["encrypt"] + args, self.work)
        return Op.of(child, self._check(child.code, out_path, expected))

    def cli_ops(self):
        return [partial(self._encrypt, *job) for job in self.jobs]

    def library_pass(self):
        codes = [cli_main(["encrypt"] + args)[0] for args, _, _ in self.jobs]
        return lambda: [self._check(code, out_path, expected)
                        for code, (_, out_path, expected) in zip(codes, self.jobs)]

    def named_metrics(self, ops):
        mb = len(ops) * self.FILE_BYTES / 1e6
        return [("encrypt_mb_s", mb / sum(o.scaled_s for o in ops), "MB/s"),
                ("encrypt_peak_rss_mb", max(o.rss_mb for o in ops), "MB")]


class SmallMessages(Workload):
    name = "small-messages"
    COUNT = 2000
    CHECKED = 100

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.keys = draw_keys(self.rng, self.COUNT)
        self.first_key = self.keys[0]
        # Log-uniform sizes in [64 B, 16 KiB), one from each of COUNT equal
        # strata of the log range, in seeded order. Plain draws move the
        # median size by about 6% from seed to seed, and the median latency
        # with it; stratified, the seeds differ in keys, contents and order.
        strata = (np.arange(self.COUNT) + self.rng.random(self.COUNT)) / self.COUNT
        self.sizes = [int(s) for s in 64 * 256 ** self.rng.permutation(strata)]
        self.messages = [self.rng.bytes(s) for s in self.sizes]
        self.prefix = work / "messages"
        self.prefix.with_suffix(".json").write_text(
            json.dumps({"keys": self.keys, "sizes": self.sizes}))
        self.prefix.with_suffix(".bin").write_bytes(b"".join(self.messages))
        checked = self.rng.choice(self.COUNT, self.CHECKED, replace=False)
        self.expected = {int(i): digest(reference.xor(
            self.messages[i], reference.keystream(self.keys[i], self.sizes[i])))
            for i in checked}
        self.first_digests: list[str] | None = None

    def _ok(self, i, got) -> bool:
        """Sampled messages against the reference; every message against its first output."""
        if self.first_digests is None:
            return self.expected.get(i, got) == got
        return got == self.first_digests[i] and self.expected.get(i, got) == got

    def measure(self, seconds):
        client = Path(__file__).resolve().parent / "message_client.py"
        child = run_child([sys.executable, str(client), str(self.prefix), str(seconds)], self.work)
        try:
            result = json.loads(child.stdout) if child.code == 0 else None
        except ValueError:
            result = None
        if result is None:
            return [[Op(child.wall_s / self.COUNT, False, child.rss_mb,
                        child.scaled_s / self.COUNT)] * self.COUNT]
        passes = []
        self.first_digests = None
        for latencies, cals, digests in zip(result["latencies"], result["calibrations"],
                                            result["digests"]):
            oks = [self._ok(i, d) for i, d in enumerate(digests)]
            if self.first_digests is None:
                self.first_digests = digests
            passes.append([Op(t, ok, child.rss_mb, t * hostspeed.REFERENCE_S["python"] / c)
                           for t, c, ok in zip(latencies, cals, oks)])
        return passes

    def library_pass(self):
        cipher = importlib.import_module("bernstream.cipher")
        outputs = [cipher.encrypt_bytes(cipher.parse_key(k), m)
                   for k, m in zip(self.keys, self.messages)]

        def check():
            digests = [digest(o) for o in outputs]
            oks = [self._ok(i, d) for i, d in enumerate(digests)]
            if self.first_digests is None:
                self.first_digests = digests
            return oks
        return check

    def named_metrics(self, ops):
        times = [o.scaled_s for o in ops]
        return [("messages_per_s", len(ops) / sum(times), "1/s"),
                ("message_latency_p50_ms", median_ms(times), "ms"),
                ("message_latency_p99_ms", percentile_ms(times, 99), "ms"),
                ("message_samples", len(ops), "count")]


class RandomnessAudit(Workload):
    name = "randomness-audit"
    BYTES = 4 << 20
    BLOCK_SIZE = 128

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.first_key = draw_keys(self.rng, 1)[0]
        data = reference.keystream(self.first_key, self.BYTES)
        self.path = work / "keystream.bin"
        self.path.write_bytes(data)
        self.stats = reference.integer_statistics(data, self.BLOCK_SIZE)
        self.argv = ["test", "--in", str(self.path), "--report", "json"]

    def _check(self, code: int, text: str) -> bool:
        try:
            reports = json.loads(text)
            by_test = {r["test"]: r for r in reports}
            if [r["test"] for r in reports] != list(SUITE):
                return False
            if any(r["pass"] != (r["p_value"] >= ALPHA) for r in reports):
                return False
            if code != (0 if all(r["pass"] for r in reports) else 1):
                return False
            s = self.stats
            runs = by_test["runs"]["params"]
            return (by_test["frequency"]["params"]["n"] == s["n"]
                    and by_test["frequency"]["params"]["partial_sum"] == s["partial_sum"]
                    and by_test["block_frequency"]["params"]["blocks"] == s["blocks"]
                    and (runs.get("runs") == s["runs"] if s["runs_prerequisite"]
                         else "prerequisite" in runs)
                    and by_test["cumulative_sums_forward"]["params"]["max_excursion"]
                    == s["max_excursion_forward"]
                    and by_test["cumulative_sums_reverse"]["params"]["max_excursion"]
                    == s["max_excursion_reverse"])
        except (ValueError, KeyError, TypeError):
            return False

    def _audit(self) -> Op:
        # Most of the audit is NumPy passes over fresh arrays of up to
        # 270 MB, which the host slows unlike interpreted code.
        child = run_child(CLI + self.argv, self.work, loop="memory")
        return Op.of(child, self._check(child.code, child.stdout.decode()))

    def cli_ops(self):
        return [self._audit]

    def library_pass(self):
        code, text = cli_main(self.argv)
        return lambda: [self._check(code, text)]

    def named_metrics(self, ops):
        return [("audit_wall_s", ops[0].scaled_s, "s"),
                ("audit_peak_rss_mb", ops[0].rss_mb, "MB")]


class OrbitAnalysis(Workload):
    name = "orbit-analysis"
    PAIRS = 16
    MU_MIN, MU_MAX, TRANSIENT, SAMPLES, SECTION = 0, 255, 10000, 1000, 3
    CHECKED_ROWS = 16

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.x0 = int(self.rng.integers(0, 2**32))
        # One mu from each of 16 equal strata of 129..255. A cycle search
        # takes from 1 ms to about 85 ms, depending on mu as well as on the
        # seed, so an even spread of mu keeps the median command
        # comparable from seed to seed.
        edges = [129 + 127 * k // self.PAIRS for k in range(self.PAIRS + 1)]
        self.pairs = [(int(self.rng.integers(0, 2**32)), int(self.rng.integers(lo, hi)))
                      for lo, hi in zip(edges, edges[1:])]
        self.rows = (self.MU_MAX - self.MU_MIN + 1) * self.SAMPLES
        self.expected_rows = {}
        checked = self.rng.choice(self.rows, self.CHECKED_ROWS, replace=False)
        for r in sorted(int(r) for r in checked):
            mu = self.MU_MIN + r // self.SAMPLES
            value = reference.section_sample(self.x0, mu, self.SECTION,
                                             self.TRANSIENT + r % self.SAMPLES + 1)
            self.expected_rows[r] = f"{mu},{self.SECTION},{value}"
        self.csv = work / "bifurcation.csv"
        self.bifurcate_argv = [
            "bifurcate", "--mu-min", str(self.MU_MIN), "--mu-max", str(self.MU_MAX),
            "--seed", str(self.x0), "--transient", str(self.TRANSIENT),
            "--samples", str(self.SAMPLES), "--section", str(self.SECTION),
            "--out", str(self.csv)]
        self.cycle_argvs = [["cycle", "--seed", str(s), "--mu", str(m), "--report", "json"]
                            for s, m in self.pairs]
        self._minimal: dict[tuple, bool] = {}

    def _check_csv(self, code: int) -> bool:
        lines = self.csv.read_text().split("\n") if code == 0 and self.csv.exists() else []
        self.csv.unlink(missing_ok=True)
        return (len(lines) == self.rows + 2 and lines[0] == "mu,section,value"
                and lines[-1] == ""
                and all(lines[1 + r] == row for r, row in self.expected_rows.items()))

    def _check_cycle(self, pair, code: int, text: str) -> bool:
        try:
            result = json.loads(text)
            claim = (*pair, result["tail"], result["period"])
            if code != 0 or result["found"] is not True:
                return False
        except (ValueError, KeyError, TypeError):
            return False
        if claim not in self._minimal:
            self._minimal[claim] = reference.is_minimal_cycle(*claim)
        return self._minimal[claim]

    def _bifurcate(self) -> Op:
        child = run_child(CLI + self.bifurcate_argv, self.work)
        return Op.of(child, self._check_csv(child.code))

    def _cycle(self, pair, argv) -> Op:
        child = run_child(CLI + argv, self.work)
        return Op.of(child, self._check_cycle(pair, child.code, child.stdout.decode()))

    def cli_ops(self):
        return [self._bifurcate] + [partial(self._cycle, pair, argv)
                                    for pair, argv in zip(self.pairs, self.cycle_argvs)]

    def library_pass(self):
        code = cli_main(self.bifurcate_argv)[0]
        cycles = [cli_main(argv) for argv in self.cycle_argvs]
        return lambda: [self._check_csv(code)] + [
            self._check_cycle(pair, *out) for pair, out in zip(self.pairs, cycles)]

    def named_metrics(self, ops):
        return [("bifurcate_wall_s", ops[0].scaled_s, "s"),
                ("cycle_wall_s", sum(o.scaled_s for o in ops[1:]), "s"),
                ("orbit_peak_rss_mb", max(o.rss_mb for o in ops), "MB")]


def median_of(passes: list[list[Op]]) -> list[Op]:
    """Each operation's median run over the passes, with the peak RSS of all its runs.

    The times are medians of each run's own wall time and of its scaled
    time; an operation is ok when every run of it is.
    """
    ops = []
    for i in range(len(passes[0])):
        runs = [p[i] for p in passes if i < len(p)]
        ops.append(Op(statistics.median(o.wall_s for o in runs), all(o.ok for o in runs),
                      max(o.rss_mb for o in runs),
                      statistics.median(o.scaled_s for o in runs)))
    return ops


WORKLOADS = {w.name: w for w in (BulkEncrypt, SmallMessages, RandomnessAudit, OrbitAnalysis)}
