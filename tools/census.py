"""Census of the Bernoulli map's cycles for every strong mu (129..255).

For each mu, close SEEDS orbits from seeds drawn by
random.Random(CENSUS_SEED) with prng.cycle_blocks, name each cycle by its
smallest word, and write src/bernstream/_cycles.py: for each mu, every
cycle of at least prng.CYCLE_BLOCK words, with its period, the number of
seeds that fell onto it, and its words at positions 0, M, 2M, ... from its
smallest word. The keystream's recorded orbits read the table to close an
orbit on a tabulated cycle early and to step the rest of its cycle as
lanes (see keystream._Orbit).

    PYTHONPATH=src python tools/census.py            # write the table
    PYTHONPATH=src python tools/census.py --check --mu 129 --mu 200

--check regenerates only the given mus' entries (all of them without
--mu) and exits 1 unless each equals the committed one byte for byte.
Seeds are drawn for every mu in order, so one mu's entry does not depend
on which others are closed.
"""

from __future__ import annotations

import argparse
import base64
import sys
import time
from array import array
from pathlib import Path
from random import Random

from bernstream.prng import CYCLE_BLOCK, cycle_blocks

MUS = range(129, 256)
SEEDS = 64
CENSUS_SEED = 1989
M = 1024
# Steps an orbit may take to close; the longest strong orbits take ~3.4e5.
MAX_STEPS = 10_000_000
OUT = Path(__file__).resolve().parent.parent / "src" / "bernstream" / "_cycles.py"

HEADER = f'''"""Every strong mu's cycles of at least prng.CYCLE_BLOCK words.

Written by tools/census.py; do not edit. For each mu from 129 to 255 the
census closed SEEDS orbits, from seeds drawn in turn by
random.Random(CENSUS_SEED), with prng.cycle_blocks. It names each cycle by
its smallest word.

TABLE has one line for each mu: the mu; then, if any of its cycles has at
least CYCLE_BLOCK words, those cycles by smallest word, each as
period:basin and separated by commas, where basin is the number of the
SEEDS seeds whose orbit fell onto the cycle; then the cycles' marks in the
same order, as base64 of little-endian 32-bit words: each cycle's words at
positions 0, M, 2M, ... from its smallest word, ceil(period / M) of them.
TABLE is one string, written as one literal per line: it compiles in a
fifth of the time of as many tuples and strings, and with less scratch
than one triple-quoted literal.
"""

M = {M}
SEEDS = {SEEDS}
CENSUS_SEED = {CENSUS_SEED}
'''


def seeds_by_mu() -> dict[int, list[int]]:
    rng = Random(CENSUS_SEED)
    return {mu: [rng.getrandbits(32) for _ in range(SEEDS)] for mu in MUS}


def census(mu: int, seeds: list[int]) -> list[tuple[int, int, array]]:
    """(period, basin, marks) for each of mu's cycles of at least
    CYCLE_BLOCK words that the seeds reach, by smallest word."""
    found = {}  # smallest word: [period, basin, marks]
    for seed in seeds:
        words = array("I")
        *_, (tail, period, _) = cycle_blocks(seed, mu, MAX_STEPS, words)
        if period is None:
            raise RuntimeError(f"the orbit of {seed:#010x} under mu {mu} has not "
                               f"closed within {MAX_STEPS} steps")
        if period < CYCLE_BLOCK:
            continue
        # words[i] is the state i + 1 steps from the seed
        start = max(tail - 1, 0)
        cycle = words[start:start + period]
        low = min(cycle)
        if low not in found:
            first = cycle.index(low)
            found[low] = [period, 0, (cycle[first:] + cycle[:first])[::M]]
        found[low][1] += 1
    return [tuple(found[low]) for low in sorted(found)]


def entry(mu: int, cycles) -> str:
    """mu's line of TABLE, as the literal that writes it."""
    if not cycles:
        return f'    "{mu}\\n"\n'
    marks = array("I")
    for *_, cycle_marks in cycles:
        marks += cycle_marks
    if sys.byteorder == "big":
        marks.byteswap()
    pairs = ",".join(f"{period}:{basin}" for period, basin, _ in cycles)
    return f'    "{mu} {pairs} {base64.b64encode(marks.tobytes()).decode()}\\n"\n'


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare the regenerated entries with the committed table")
    parser.add_argument("--mu", type=int, action="append", choices=MUS, metavar="MU",
                        help="a mu to census (repeatable; default: 129..255)")
    args = parser.parse_args(argv)
    if args.mu and not args.check:
        parser.error("writing the table takes every mu; use --mu with --check only")
    seeds, mus = seeds_by_mu(), args.mu or list(MUS)
    start = time.perf_counter()
    entries = {mu: entry(mu, census(mu, seeds[mu])) for mu in mus}
    print(f"closed {SEEDS * len(mus)} orbits in {time.perf_counter() - start:.1f} s",
          file=sys.stderr)
    if args.check:
        lines = OUT.read_text().splitlines(keepends=True)
        bad = [mu for mu, line in entries.items() if line not in lines]
        print(f"{len(entries) - len(bad)} of {len(entries)} entries match", file=sys.stderr)
        for mu in bad:
            print(f"mu {mu}: the regenerated entry differs from {OUT.name}", file=sys.stderr)
        return 1 if bad else 0
    text = HEADER + "\nTABLE = (\n" + "".join(entries.values()) + ")\n"
    OUT.write_text(text)
    print(f"wrote {OUT} ({len(text)} bytes)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
