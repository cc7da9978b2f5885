"""Library client for the small-messages workload.

Usage: python message_client.py INPUT_PREFIX SECONDS

Reads keys and sizes from INPUT_PREFIX.json and the concatenated messages
from INPUT_PREFIX.bin, then runs passes over all messages until SECONDS
have elapsed (at least one pass). Each message is one `parse_key` plus
one `encrypt_bytes`, timed on its own. The host-speed calibration loop
runs before every CHUNK messages and after the last; each message gets
the mean of the calibrations on either side of its chunk. Prints one
JSON object: per pass, each message's latency and calibration in
seconds and a digest of its ciphertext.
"""

import hashlib
import json
import sys
from time import perf_counter

import bernstream as bs
import hostspeed

CHUNK = 20


def main(argv) -> int:
    prefix, seconds = argv[1], float(argv[2])
    with open(prefix + ".json") as f:
        spec = json.load(f)
    with open(prefix + ".bin", "rb") as f:
        blob = f.read()
    messages, pos = [], 0
    for size in spec["sizes"]:
        messages.append(blob[pos:pos + size])
        pos += size
    jobs = list(zip(spec["keys"], messages))
    latencies, calibrations, digests = [], [], []
    start = perf_counter()
    while not latencies or perf_counter() - start < seconds:
        times, cals, outputs = [], [], []
        before = hostspeed.python_loop_s()
        for first in range(0, len(jobs), CHUNK):
            for key_hex, message in jobs[first:first + CHUNK]:
                t = perf_counter()
                out = bs.encrypt_bytes(bs.parse_key(key_hex), message)
                times.append(perf_counter() - t)
                outputs.append(out)
            after = hostspeed.python_loop_s()
            cals += [(before + after) / 2] * (len(times) - len(cals))
            before = after
        latencies.append(times)
        calibrations.append(cals)
        digests.append([hashlib.blake2b(o, digest_size=8).hexdigest() for o in outputs])
    json.dump({"latencies": latencies, "calibrations": calibrations, "digests": digests},
              sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
