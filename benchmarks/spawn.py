"""Run one command; print its exit code, wall time, own peak RSS and the
host-speed calibration taken beside it, as JSON.

Usage: python -I -S spawn.py STDOUT_PATH TIMEOUT_S LOOP ARGV...

LOOP names the calibration loop of hostspeed.py: python or memory.

The benchmark starts every measured child through this small process.
On Linux a child started by vfork (as subprocess does) takes over the
parent's address space until it execs, and the kernel carries that
address space's high-water RSS into the child's ru_maxrss. Started from
the benchmark's own process, which holds inputs and references, a 35 MB
child would report hundreds of MB. Here the floor is this process's
size, about 14 MB. The child is killed after TIMEOUT_S seconds.

This process and the child are pinned to one CPU, and the calibration
loop runs on it just before and just after the child, so that it sees
the vCPU speed the child saw.
"""

import json
import os
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import hostspeed  # noqa: E402


def main(argv) -> int:
    out_path, timeout, loop, command = argv[1], float(argv[2]), argv[3], argv[4:]
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    calibration = hostspeed.calibrate(loop)
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=out, stderr=subprocess.DEVNULL)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - start
    calibration += hostspeed.calibrate(loop)
    proc.returncode = os.waitstatus_to_exitcode(status)
    json.dump({"code": proc.returncode, "wall_s": wall, "maxrss_kib": usage.ru_maxrss,
               "calibration_s": sum(calibration) / len(calibration)}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
