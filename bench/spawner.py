"""Runs the benchmark's commands from a small process, so their peak RSS is their own.

On Linux the ru_maxrss that wait4 reports for a child starts from the
resident size of the process that spawned it: the kernel carries that
high-water mark across fork and exec. The benchmark's own process holds
numpy and the bitmaps it checks, which would mask the commands' peaks. This
helper imports only the standard library and holds almost nothing.

Protocol: one JSON request per line on stdin,
[argv, cwd, env, stdout_path, timeout_s]; one JSON reply per line on stdout,
[wall_s, exit_code, maxrss_kib]. Wall time runs from spawn to exit; a child
still running after timeout_s is killed. The helper exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        argv, cwd, env, stdout_path, timeout_s = json.loads(line)
        with open(stdout_path, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out)
            timer = threading.Timer(timeout_s, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps([wall, proc.returncode, usage.ru_maxrss]), flush=True)


if __name__ == "__main__":
    main()
