"""Span tracing of bernstream's public functions, from outside the package.

`Tracer.installed()` replaces each traced function, method and
classmethod with a wrapper that records a span (name, start, end,
parent, attributes). Module-level functions are replaced under every
name that binds them in any bernstream module, so calls made through
`from .x import y` imports are traced too. Spans stay in memory; the caller
writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter

MODULES = ("cli", "cipher", "keystream", "prng", "stats", "special", "analysis")


def _cusum_name(args, kwargs):
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "forward")
    return f"stats.cusum_{mode}"


# (module, attribute path, span name, attributes from (args, result))
TRACED = (
    ("cli", "main", "cli.main", None),
    ("cipher", "parse_key", "cipher.parse_key", None),
    ("cipher", "encrypt_bytes", "cipher.encrypt_bytes", None),
    ("cipher", "encrypt_stream", "cipher.encrypt_stream", None),
    ("keystream", "KeystreamGenerator.from_key", "keystream.from_key", None),
    ("keystream", "KeystreamGenerator.read", "keystream.read",
     lambda args, result: {"bytes": len(result)}),
    ("prng", "BernoulliGenerator.iterate", "prng.iterate",
     lambda args, result: {"words": len(result)}),
    ("stats", "run_suite", "stats.run_suite", None),
    ("stats", "frequency_test", "stats.frequency", None),
    ("stats", "block_frequency_test", "stats.block_frequency", None),
    ("stats", "runs_test", "stats.runs", None),
    ("stats", "cusum_test", _cusum_name, None),
    ("stats", "fft_test", "stats.fft", None),
    ("special", "igamc", "special.igamc", None),
    ("analysis", "cycle_length", "analysis.cycle_length",
     lambda args, result: {"steps": result.steps_examined}),
    ("analysis", "bifurcation_scan", "analysis.bifurcation_scan",
     lambda args, result: {"records": len(result)}),
    ("analysis", "write_bifurcation_csv", "analysis.write_bifurcation_csv", None),
)
# Called thousands of times per cumulative-sums test: counted, not spanned.
COUNTED = (("special", "normal_cdf", "special.normal_cdf"),)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, attrs]
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code, parent of the layer spans inside."""
        rec = self._start(name)
        try:
            yield
        finally:
            self._end(rec)

    def _start(self, name):
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else None, None]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _end(self, rec):
        rec[2] = perf_counter()
        self._open.pop()

    def _spanned(self, fn, name, describe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._start(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(rec)
            if describe is not None:
                rec[4] = describe(args, result)
            return result
        return traced

    def _counted(self, fn, name):
        self.counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    @contextmanager
    def installed(self):
        """Trace every function in TRACED and COUNTED until the block exits."""
        modules = [importlib.import_module("bernstream")]
        modules += [importlib.import_module(f"bernstream.{m}") for m in MODULES]
        patches = []  # (owner, attribute, original)

        def patch(owner, attr, new):
            patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        plan = [(m, p, self._spanned, (n, d)) for m, p, n, d in TRACED]
        plan += [(m, p, self._counted, (n,)) for m, p, n in COUNTED]
        try:
            for module_name, path, make, extra in plan:
                module = importlib.import_module(f"bernstream.{module_name}")
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        patch(cls, attr, classmethod(make(raw.__func__, *extra)))
                    else:
                        patch(cls, attr, make(raw, *extra))
                    continue
                original = getattr(module, path)
                wrapper = make(original, *extra)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            patch(mod, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def to_json(self) -> dict:
        return {"counts": self.counts,
                "spans": [{"name": n, "start": s, "end": e, "parent": p, "attrs": a}
                          for n, s, e, p, a in self.spans]}

    def duration(self, name: str) -> float:
        """Total duration of the spans called `name`."""
        return sum(e - s for n, s, e, _, _ in self.spans if n == name)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals: inclusive and self time, calls and work counts."""
        child_time = [0.0] * len(self.spans)
        for n, s, e, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += e - s
        total, self_time, calls, attrs = {}, {}, {}, {}
        chunks = 0
        for i, (n, s, e, parent, a) in enumerate(self.spans):
            total[n] = total.get(n, 0.0) + (e - s)
            self_time[n] = self_time.get(n, 0.0) + (e - s - child_time[i])
            calls[n] = calls.get(n, 0) + 1
            for k, v in (a or {}).items():
                attrs[(n, k)] = attrs.get((n, k), 0) + v
            if n == "keystream.read" and parent is not None \
                    and self.spans[parent][0] == "cipher.encrypt_stream":
                chunks += 1

        def rate(work, seconds):
            return work / seconds if seconds > 0 else 0.0

        read_s, iterate_s = total.get("keystream.read", 0.0), total.get("prng.iterate", 0.0)
        cycle_s = total.get("analysis.cycle_length", 0.0)
        read_bytes = attrs.get(("keystream.read", "bytes"), 0)
        words = attrs.get(("prng.iterate", "words"), 0)
        steps = attrs.get(("analysis.cycle_length", "steps"), 0)
        return {
            "cli.main_self_s": self_time.get("cli.main", 0.0),
            "cipher.parse_key_s": total.get("cipher.parse_key", 0.0),
            "cipher.encrypt_bytes_self_s": self_time.get("cipher.encrypt_bytes", 0.0),
            "cipher.encrypt_stream_self_s": self_time.get("cipher.encrypt_stream", 0.0),
            "cipher.encrypt_stream_chunks": chunks,
            "keystream.from_key_s": total.get("keystream.from_key", 0.0),
            "keystream.read_s": read_s,
            "keystream.read_calls": calls.get("keystream.read", 0),
            "keystream.read_bytes": read_bytes,
            "keystream.read_mb_s": rate(read_bytes / 1e6, read_s),
            "prng.iterate_s": iterate_s,
            "prng.iterate_words": words,
            "prng.iterate_words_per_s": rate(words, iterate_s),
            "stats.run_suite_self_s": self_time.get("stats.run_suite", 0.0),
            "stats.frequency_s": total.get("stats.frequency", 0.0),
            "stats.block_frequency_s": total.get("stats.block_frequency", 0.0),
            "stats.runs_s": total.get("stats.runs", 0.0),
            "stats.cusum_forward_s": total.get("stats.cusum_forward", 0.0),
            "stats.cusum_reverse_s": total.get("stats.cusum_reverse", 0.0),
            "stats.fft_s": total.get("stats.fft", 0.0),
            "special.igamc_s": total.get("special.igamc", 0.0),
            "special.igamc_calls": calls.get("special.igamc", 0),
            "special.normal_cdf_calls": self.counts.get("special.normal_cdf", 0),
            "analysis.cycle_length_s": cycle_s,
            "analysis.cycle_steps": steps,
            "analysis.cycle_steps_per_s": rate(steps, cycle_s),
            "analysis.bifurcation_scan_self_s": self_time.get("analysis.bifurcation_scan", 0.0),
            "analysis.bifurcation_records": attrs.get(("analysis.bifurcation_scan", "records"), 0),
            "analysis.write_bifurcation_csv_s": total.get("analysis.write_bifurcation_csv", 0.0),
        }


def unit_of(name: str, value) -> str:
    """The unit of a per-layer metric, from its name and type."""
    if isinstance(value, int):
        return "count"
    for suffix, unit in (("_mb_s", "MB/s"), ("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit for metric {name!r}")


def merge_rounds(rounds: list[dict]) -> tuple[dict, list[str]]:
    """The best value of each metric over rounds (least time, highest
    rate), and the names of counts that differ between rounds: integer
    metrics must repeat exactly."""
    merged, unsteady = {}, []
    for name in rounds[0]:
        values = [r[name] for r in rounds]
        if isinstance(values[0], int):
            if len(set(values)) > 1:
                unsteady.append(name)
            merged[name] = values[0]
        else:
            merged[name] = max(values) if name.endswith("_per_s") or name.endswith("_mb_s") \
                else min(values)
    return merged, unsteady
