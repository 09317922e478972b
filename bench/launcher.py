"""Starts the benchmark's child processes and reports what each one cost.

A process's peak RSS (``ru_maxrss``) starts out at its parent's RSS when it
is exec'd, so a command started from the harness, which holds numpy and the
generated inputs, would report the harness's memory whenever its own is
smaller.  This process imports nothing heavy and is started before the
harness loads anything, so the peak it reports is the command's own.

Protocol, one JSON object per line: a request on stdin
``{"argv": [...], "env": {...}, "stderr": PATH}`` is answered on stdout by
``{"pid": N}`` once the child is started and
``{"seconds": S, "maxrss_kb": K, "code": C}`` once it has been reaped.
The launcher exits when stdin closes.
"""

import json
import os
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
            (os.POSIX_SPAWN_OPEN, 2, request["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        argv = request["argv"]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, request["env"], file_actions=actions)
        print(json.dumps({"pid": pid}), flush=True)
        _, status, usage = os.wait4(pid, 0)
        seconds = time.perf_counter() - start
        print(json.dumps({"seconds": seconds, "maxrss_kb": usage.ru_maxrss,
                          "code": os.waitstatus_to_exitcode(status)}), flush=True)


if __name__ == "__main__":
    main()
