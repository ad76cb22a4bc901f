"""Spawn and time benchmark jobs from a small process of their own.

On Linux a child's ru_maxrss also holds the peak RSS of the process that
spawned it: exec keeps the high-water mark of the address space it replaces.
Jobs spawned straight from the benchmark, which parses megabyte reports,
would all report at least the benchmark's own peak.  This process stays
small.  It reads one JSON request per stdin line::

    {"cmd": [...], "stdout": PATH, "stderr": PATH, "cwd": DIR, "timeout": S}

runs the command with this process's environment, and answers with one
JSON line: wall seconds from spawn to exit, exit status and ru_maxrss (KB).
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(cmd, stdout, stderr, cwd, timeout) -> dict:
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, cwd=cwd)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "status": proc.returncode,
            "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        reply = run(**json.loads(line))
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
