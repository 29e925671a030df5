"""Starts the benchmark's child processes and reports what each one used.

On Linux a child's ru_maxrss starts from the high-water RSS of the process
that forked it. The benchmark process holds numpy and the oracles' tables,
so children forked from it would report its peak, not their own. This
small process imports nothing heavy and forks every child instead.

Protocol, one JSON object per line: a request on stdin
{"argv", "env", "cwd", "stdout", "stderr", "timeout"}; a reply on stdout
{"exit", "wall_s", "cpu_s", "maxrss_kib"}. The child is killed after
`timeout` seconds. The launcher exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "w") as out, open(req["stderr"], "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, env=req["env"], cwd=req["cwd"])
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        reply = {"exit": code, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime, "maxrss_kib": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
