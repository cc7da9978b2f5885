"""bernstream benchmark: one workload per run, end to end or traced.

Usage, from the repository root:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in workloads.py. The program under test is the
source tree in src/, run through `python -m bernstream` children whose
PYTHONPATH points there; nothing is installed.

--trace 0 measures what a user sees, with no tracing: CLI or library
client subprocesses, repeated in whole passes for S seconds, each with
its own wall time and peak RSS. Each time is scaled to a reference host
speed by a calibration loop run beside it (see hostspeed.py), and each
operation counts with its median pass (see workloads.median_of). It
prints the end-to-end metrics, and the raw wall-time ones above them.

--trace 1 runs the same passes in this process, alternating an untraced
pass with a traced one for S seconds. Every traced round also runs a
fixed probe: the ROADMAP baseline calls (1 MiB read, 1e6-word iterate,
1e6-bit run_suite, cycle_length(0x80000000, 170)) plus a small encrypt
stream and bifurcate, so that every layer is measured on every workload.
It prints the per-layer metrics (the best round for times and rates;
counts, which must repeat exactly) and the tracing overhead.

Every output is checked against references built without bernstream,
outside the timed region. The last line of stdout is the result JSON;
the lines above it give the workload's own named metrics and the
machine. Spans and results are also written under .bench_work/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import numpy

import reference
from tracing import Tracer, merge_rounds, unit_of
from workloads import (CLI, ROOT, SRC, WORKLOADS, cli_main, draw_keys, median_ms, median_of,
                       percentile_ms, run_child)

WORK = ROOT / ".bench_work"
BASELINE_SPANS = ("baseline.read_1mib", "baseline.iterate_1e6_words",
                  "baseline.run_suite_1e6_bits", "baseline.cycle_length_80000000_170")
SETUP_SAMPLES = 11
STARTUP_SAMPLES = 5


def environment() -> dict:
    sources = hashlib.sha256()
    for path in sorted((SRC / "bernstream").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                                  capture_output=True, text=True)
            git_sha = done.stdout.strip() if done.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": git_sha, "src_sha256": sources.hexdigest()}


def measure_setup(first_key: str | None, work, samples: int) -> list[float]:
    """Times from a fresh interpreter to a ready program, scaled to the
    reference host speed: import bernstream, and parse the workload's
    first key and build its generators where it has one."""
    code = "import bernstream"
    if first_key is not None:
        code += ("\nfrom bernstream.cipher import parse_key"
                 "\nfrom bernstream.keystream import KeystreamGenerator"
                 f"\nKeystreamGenerator.from_key(parse_key({first_key!r}))")
    times = []
    for _ in range(samples):
        child = run_child([sys.executable, "-c", code], work)
        if child.code != 0:
            raise RuntimeError(f"set-up child exited with {child.code}")
        times.append(child.scaled_s)
    return times


def end_to_end(workload, seconds: float):
    # One warm-up, then set-up samples on both sides of the measured passes,
    # so that the median spans the run rather than its first seconds.
    measure_setup(workload.first_key, workload.work, 1)
    setup = measure_setup(workload.first_key, workload.work, SETUP_SAMPLES // 2)
    passes = workload.measure(seconds)
    setup += measure_setup(workload.first_key, workload.work, SETUP_SAMPLES - len(setup))
    setup_s = statistics.median(setup)
    ops = median_of(passes)
    times = [op.scaled_s for op in ops]
    walls = [op.wall_s for op in ops]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(ops) / sum(times), "1/s"),
        "op_p50_ms": (median_ms(times), "ms"),
        "op_p99_ms": (percentile_ms(times, 99), "ms"),
        "peak_rss_mb": (max(op.rss_mb for op in ops), "MB"),
    }
    attempted = sum(len(p) for p in passes)
    failed = sum(not op.ok for p in passes for op in p)
    named = [("setup_s", setup_s, "s"), *workload.named_metrics(ops),
             ("failed_share", failed / attempted, "share"), ("passes", len(passes), "count"),
             ("raw_ops_per_s", len(ops) / sum(walls), "1/s"),
             ("raw_op_p50_ms", median_ms(walls), "ms"),
             ("raw_op_p99_ms", percentile_ms(walls, 99), "ms"),
             ("host_speed", sum(times) / sum(walls), "x")]
    return metrics, attempted, failed, True, named


class Probe:
    """Fixed calls into every layer, traced in every round of a traced run."""

    def __init__(self, workload):
        rng = workload.rng
        self.key = draw_keys(rng, 1)[0]
        self.read_expected = reference.keystream(self.key, 1 << 20)
        self.message = rng.bytes(4096)
        self.stream = rng.bytes(64 * 1024)
        self.x0, self.mu = int(rng.integers(0, 2**32)), int(rng.integers(129, 256))
        self.suite_input = reference.keystream(draw_keys(rng, 1)[0], 125_000)
        self.csv = workload.work / "probe.csv"
        self.cycle_ok: bool | None = None

    def run(self, tracer) -> list[bool]:
        cipher, keystream, prng, stats, analysis = (importlib.import_module(
            f"bernstream.{m}") for m in ("cipher", "keystream", "prng", "stats", "analysis"))
        key = cipher.parse_key(self.key)
        gen = keystream.KeystreamGenerator.from_key(key)
        with tracer.span("baseline.read_1mib"):
            block = gen.read(1 << 20)
        cipher.encrypt_bytes(key, self.message)
        cipher.encrypt_stream(key, io.BytesIO(self.stream), io.BytesIO())
        with tracer.span("baseline.iterate_1e6_words"):
            prng.BernoulliGenerator(self.x0, self.mu).iterate(1_000_000)
        with tracer.span("baseline.run_suite_1e6_bits"):
            stats.run_suite(self.suite_input)
        with tracer.span("baseline.cycle_length_80000000_170"):
            cycle = analysis.cycle_length(0x80000000, 170)
        code, _ = cli_main(["bifurcate", "--mu-min", "250", "--mu-max", "255",
                            "--transient", "100", "--samples", "100", "--out", str(self.csv)])
        if self.cycle_ok is None:
            self.cycle_ok = cycle.found and reference.is_minimal_cycle(
                0x80000000, 170, cycle.tail, cycle.period)
        return [block == self.read_expected, self.cycle_ok, code == 0]


def traced(workload, seconds: float, spans_path):
    probe = Probe(workload)
    untraced_s, traced_s, rounds, tracers, oks = [], [], [], [], []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        t = perf_counter()
        check = workload.library_pass()
        untraced_s.append(perf_counter() - t)
        oks += check()
        tracer = Tracer()
        with tracer.installed():
            with tracer.span("pass"):
                check = workload.library_pass()
            oks += probe.run(tracer)
        oks += check()
        traced_s.append(tracer.duration("pass"))
        rounds.append({**tracer.layer_metrics(),
                       **{f"{name}_ms": tracer.duration(name) * 1e3 for name in BASELINE_SPANS}})
        tracers.append(tracer)
    with open(spans_path, "w") as f:
        json.dump([t.to_json() for t in tracers], f)
    merged, unsteady = merge_rounds(rounds)
    startup = []
    for _ in range(STARTUP_SAMPLES):
        child = run_child(CLI + ["keygen"], workload.work)
        oks.append(child.code == 0 and len(child.stdout.strip()) == 20)
        startup.append(child.wall_s)
    merged["cli.startup_s"] = min(startup)
    merged["trace.untraced_pass_s"] = min(untraced_s)
    merged["trace.traced_pass_s"] = min(traced_s)
    merged["trace.overhead_s"] = merged["trace.traced_pass_s"] - merged["trace.untraced_pass_s"]
    metrics = {name: (value, unit_of(name, value)) for name, value in merged.items()}
    failed = sum(not ok for ok in oks)
    named = [("trace.rounds", len(rounds), "count"),
             ("trace.overhead_s", merged["trace.overhead_s"], "s"),
             ("unsteady_counts", len(unsteady), "count")]
    return metrics, len(oks), failed, not unsteady, named


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bernstream" / "__init__.py").is_file():
        print(f"benchmark: no bernstream source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        if args.trace:
            spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
            metrics, attempted, failed, steady, named = traced(workload, args.seconds, spans_path)
        else:
            metrics, attempted, failed, steady, named = end_to_end(workload, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    result = {"correct": failed == 0 and steady, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(WORK / "results.jsonl", "a") as f:
        f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                            "seconds": args.seconds, "trace": args.trace,
                            "env": env, "named": named, "result": result}) + "\n")
    for name, value, unit in named:
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
