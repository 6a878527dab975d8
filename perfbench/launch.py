"""Small process that starts the benchmark's operations and reports on each.

The kernel credits a child with the peak memory of the process it was
cloned from, so operations are started from this lean process rather than
from the benchmark itself; otherwise every operation's peak RSS would read
at least the benchmark's own.

Protocol, one JSON object per line: read ``{"argv", "env", "stdout",
"stderr", "deadline"}``, run ``argv`` with its output in the two files,
kill it at the deadline, and write ``{"exit", "timed_out", "seconds",
"rss_kb"}``.  Exits at end of input, or on SIGTERM after killing and
reaping the operation in flight.
"""

import json
import os
import signal
import sys
import time

_running: list[int] = []  # pid of the operation in flight, if any


def _stop(signum, frame) -> None:
    for pid in _running:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    os._exit(0)


def run(request: dict) -> dict:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, request["stdout"], flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, request["stderr"], flags, 0o644),
    ]
    timed_out = False
    start = time.perf_counter()
    pid = os.posix_spawn(request["argv"][0], request["argv"], request["env"], file_actions=actions)
    _running.append(pid)

    def kill(signum, frame):
        nonlocal timed_out
        timed_out = True
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, request["deadline"])
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        _running.clear()
    seconds = time.perf_counter() - start
    return {
        "exit": None if timed_out else os.waitstatus_to_exitcode(status),
        "timed_out": timed_out,
        "seconds": seconds,
        "rss_kb": usage.ru_maxrss,
    }


def main() -> None:
    signal.signal(signal.SIGTERM, _stop)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
