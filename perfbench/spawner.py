"""Fork server that starts the benchmark's child processes one at a time.

Children are forked from this small process rather than from the harness
because Linux carries the forking process's peak resident set over into the
child's ``ru_maxrss``: forked from the harness, which holds parsed outputs,
every child would report the harness's peak instead of its own.

The server pins itself, and so every child, to one CPU, and times a probe
on that CPU right before each child, every PROBE_EVERY_S while it runs (from
a thread that briefly takes the CPU from the child) and right after it.  The
probe is the quicker of two runs of a fixed ``Fraction`` sum, the kind of
arithmetic the program does.  On a virtual CPU that shares its core with
other tenants, speed changes by up to 1.8x from one second to the next, and
each CPU changes on its own; the probes let the harness take that change out
of the child's times.

The probes measure how fast the CPU runs while the child runs on it, not
how long the child does not run at all.  Two things stop it: the host not
scheduling the virtual CPU (the CPU's steal time in /proc/stat, which stops
the child and the probe alike) and other processes on the same CPU (the
child's run-queue wait in /proc/<pid>/schedstat; the probes wake with
priority and so do not see it).  The server reports both, and the child's
time on the CPU, and the harness takes them out of the child's wall time.
The child's rusage CPU time includes neither.

Protocol, one JSON object per line:
  request on stdin:  {"argv": [...], "stdout": path, "stderr": path, "timeout": s}
  reply on stdout:   {"code": int, "wall_s": s, "wait_s": s, "steal_s": s,
                      "exec_s": s, "cpu_s": s, "maxrss_kb": int,
                      "probe_s": [before, during..., after]}
``code`` is the exit code, or minus the signal number that ended the child.
The children inherit this process's environment.
"""

import json
import os
import signal
import sys
import threading
import time
from fractions import Fraction

PROBE_TERMS = 100
PROBE_REPEATS = 2
PROBE_EVERY_S = 0.03
CPU = None  # the one CPU this server and its children run on
TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def probe() -> float:
    """Seconds of the quickest of PROBE_REPEATS runs of a fixed Fraction sum."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, PROBE_TERMS):
            total += Fraction(i, i + 7)
        best = min(best, time.perf_counter() - start)
    return best


def steal_s() -> float:
    """Steal time of CPU so far, in seconds; 0 where /proc/stat has none."""
    prefix = f"cpu{CPU} "
    try:
        with open("/proc/stat") as fh:
            for line in fh:
                if line.startswith(prefix):
                    fields = line.split()
                    return int(fields[8]) / TICKS_PER_S if len(fields) > 8 else 0.0
    except OSError:
        pass
    return 0.0


def read_schedstat(pid):
    """(seconds on a CPU, seconds waiting for one) of pid, or None."""
    try:
        with open(f"/proc/{pid}/schedstat") as fh:
            on_cpu, waiting = fh.read().split()[:2]
    except (OSError, ValueError):
        return None
    return int(on_cpu) / 1e9, int(waiting) / 1e9


def run(argv, stdout, stderr, timeout):
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    out = os.open(stdout, flags, 0o644)
    err = os.open(stderr, flags, 0o644)
    null = os.open(os.devnull, os.O_RDONLY)
    probes = [probe()]
    stolen = steal_s()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.dup2(null, 0)
            os.dup2(out, 1)
            os.dup2(err, 2)
            os.execv(argv[0], argv)
        finally:
            os._exit(127)
    for fd in (out, err, null):
        os.close(fd)
    done = threading.Event()
    sampler = threading.Thread(target=sample, args=(done, probes))
    sampler.start()
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.alarm(timeout)
    try:
        # wait for the exit without reaping, so that /proc/<pid> stays
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        stolen = steal_s() - stolen
        schedstat = read_schedstat(pid)
        _, status, usage = os.wait4(pid, 0)
    finally:
        done.set()
        sampler.join()
    signal.alarm(0)
    probes.append(probe())
    return {
        "code": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "wait_s": schedstat[1] if schedstat else 0.0,
        "steal_s": stolen,
        "exec_s": schedstat[0] if schedstat else usage.ru_utime + usage.ru_stime,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "probe_s": probes,
    }


def sample(done, probes):
    while not done.wait(PROBE_EVERY_S):
        probes.append(probe())


def main():
    global CPU
    # a short switch interval lets the main thread read the clock as soon
    # as the child ends, even while the sampler is in a probe
    sys.setswitchinterval(0.0002)
    CPU = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {CPU})
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(**json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
