"""Host-speed normalisation of the benchmark's gated times.

On a shared VM a vCPU's speed changes from one moment to the next with
what other tenants run on the same host: the Python calibration loop
below takes either about 0.53 ms or about 0.85 ms, switching within a
second, and over minutes the share of slow moments drifts from a few
percent to nearly all of them. Medians, means and minima of raw times
over a 25-second run all inherit that drift: on 8 seeds of
small-messages their quartile spread over median reached 31%, against a
25% bound. The same times, each scaled by a calibration loop run on the
same pinned vCPU beside it, spread under 3% over 10 seeds.

A measured time t, with calibration time c taken beside it, is reported
as t * REFERENCE_S[loop] / c: the time the operation would take while
the loop runs at its reference time, measured on an uncontended vCPU of
the 2-vCPU VM the bounds were set on. Neither loop calls bernstream, so
a change to the program moves a scaled time exactly as it moves the raw
one. Raw times are printed beside the scaled ones.

There are two loops, because the host slows interpreted code and
memory-bound code by different amounts at different times:

* "python" has the shape of bernstream's orbit loops: a masked
  multiply, shift and add per step, stored into a list.
* "memory" maps 16 MiB of fresh pages, fills them and scans them, as the
  randomness battery does with its large NumPy arrays. Scaled by the
  Python loop, the audit spread 12% over 10 seeds, against 5% raw. In a
  trial, a memory-bound loop run beside the audit tracked its time far
  better (correlation 0.80, against 0.50 for the Python loop); scaled by
  this loop, the audit spread 6% over 10 seeds.
"""

import mmap
from time import perf_counter

STEPS = 4096
MAPPED = 16 << 20
FILL = b"\x5a" * (64 << 10)
REFERENCE_S = {"python": 0.53e-3, "memory": 12e-3}
SAMPLES = {"python": 8, "memory": 4}


def python_loop_s() -> float:
    start = perf_counter()
    x, gf, out = 0x9E3779B9, 55 << 23, [0] * STEPS
    for i in range(STEPS):
        x = ((x & 0x7FFFFFFF) * 201 >> 7) + gf
        out[i] = x
    return perf_counter() - start


def memory_loop_s() -> float:
    start = perf_counter()
    with mmap.mmap(-1, MAPPED) as pages:
        for offset in range(0, MAPPED, len(FILL)):
            pages[offset:offset + len(FILL)] = FILL
        pages.find(b"\x00")
    return perf_counter() - start


LOOPS = {"python": python_loop_s, "memory": memory_loop_s}


def calibrate(loop: str) -> list[float]:
    return [LOOPS[loop]() for _ in range(SAMPLES[loop])]
