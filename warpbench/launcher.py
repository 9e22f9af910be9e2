"""Start CLI processes one at a time and report their wall time and rusage.

Usage: python3 launcher.py TMP_DIR

Reads one JSON request per line on stdin, ``{"argv": [...], "timeout": s}``,
and answers each with one JSON line: exit code, wall and CPU seconds,
peak RSS in bytes and the tail of stdout and stderr.  Ends when stdin closes.

It is a process of its own so that it stays small.  Linux counts the
parent's resident set at fork/exec into the child's ``ru_maxrss``; the
benchmark's own process grows while it parses ledgers, so children started
from it would report its peak instead of their own.
"""

import json
import os
import subprocess
import sys
import tempfile
import threading
import time

TAIL = 4000


def _tail(fh) -> str:
    fh.seek(0)
    return fh.read().decode(errors="replace")[-TAIL:]


def run(argv, timeout, tmp_dir):
    with tempfile.TemporaryFile(dir=tmp_dir) as out, \
            tempfile.TemporaryFile(dir=tmp_dir) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        timer.cancel()
        timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"rc": proc.returncode, "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "maxrss_bytes": usage.ru_maxrss * 1024,
                "stdout": _tail(out), "stderr": _tail(err)}


def main():
    tmp_dir = sys.argv[1]
    for line in sys.stdin:
        req = json.loads(line)
        sys.stdout.write(json.dumps(run(req["argv"], req["timeout"],
                                        tmp_dir)) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
