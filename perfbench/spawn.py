"""Run one command and report its own peak RSS and wall time.

    python3 perfbench/spawn.py RESULT_FILE COMMAND...

A child's ``ru_maxrss`` also counts the high-water RSS of the process that
started it, so a command started straight from ``run.py`` would report the
runner's own memory whenever that is the larger (on ``kernel-train`` the
runner holds the oracle's data). This launcher imports nothing heavy, so
the command it starts inherits only a few MiB. It writes
``{"maxrss_kib": ..., "seconds": ...}`` to RESULT_FILE, ``seconds`` running
from just before the command starts to just after it is reaped, and exits
with the command's exit code (128 + N if signal N ended it).
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    result, command = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    proc = subprocess.Popen(command)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    with open(result, "w") as handle:
        json.dump({"maxrss_kib": usage.ru_maxrss, "seconds": seconds}, handle)
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main())
