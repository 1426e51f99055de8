"""Run one command and record its wall time, peak RSS and exit code.

Usage: python3 launch.py RESULT_JSON COMMAND...

The benchmark starts every measured command through this small process.
On Linux a child's ``ru_maxrss`` starts from the peak RSS of the process
that spawned it, so spawning from the benchmark itself, which grows while
it checks outputs, would count the benchmark's memory as the command's.
This launcher imports nothing large and leaves a floor of a few MB. It
times the command itself, so its own start-up is not in the figure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    result_path, *command = argv
    start = time.perf_counter()
    proc = subprocess.Popen(command)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"wall": wall, "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
