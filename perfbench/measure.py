"""Process control and statistics for perfbench/run.py.

Latency is wall time seen by the run.py process: spawn to exit for a CLI
op, write to response line for a serve request. CPU time is the program's
own: child rusage for a CLI op, scheduler run time of the server process
tree for a serve round.
"""

import os
import select
import statistics
import subprocess
import time
from pathlib import Path

REPLY_TIMEOUT_S = 60
SPIN_S = 0.05


def run_op(argv, cwd):
    """Runs one CLI op to completion. Returns (wall_s, cpu_s, maxrss_kb,
    exit_code, stdout_text)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL)
    out = p.stdout.read()
    p.stdout.close()
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return (wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss, p.returncode,
            out.decode(errors="replace"))


def _tree_pids(pid):
    """pid and all its descendants, via /proc/<pid>/task/*/children."""
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        try:
            for task in os.listdir(f"/proc/{p}/task"):
                kids = Path(f"/proc/{p}/task/{task}/children").read_text()
                todo.extend(int(k) for k in kids.split())
        except OSError:
            pass
    return out


def tree_cpu_ns(pid):
    """Scheduler run time (ns) of every live thread of pid's process tree."""
    total = 0
    for p in _tree_pids(pid):
        try:
            for task in os.listdir(f"/proc/{p}/task"):
                total += int(Path(f"/proc/{p}/task/{task}/schedstat")
                             .read_text().split()[0])
        except OSError:
            pass
    return total


def tree_rss_kb(pid):
    """Peak RSS (VmHWM, kB) of the largest live process in pid's tree."""
    peak = 0
    for p in _tree_pids(pid):
        try:
            for line in Path(f"/proc/{p}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    peak = max(peak, int(line.split()[1]))
        except OSError:
            pass
    return peak


class Server:
    """One `isex serve` process driven over its stdin/stdout pipes."""

    def __init__(self, argv, cwd):
        self.t_spawn = time.perf_counter()
        self.p = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL)
        self.win = self.p.stdin.fileno()
        self.rout = self.p.stdout.fileno()
        os.set_blocking(self.rout, False)
        self.buf = b""

    def send(self, line):
        data = line.encode() + b"\n"
        while data:
            data = data[os.write(self.win, data):]

    def recv(self):
        """The next response line. The client polls the pipe for SPIN_S
        before it blocks: a blocked client adds its own wake-up, which varies
        from run to run, to every sub-millisecond response."""
        spin_until = time.perf_counter() + SPIN_S
        while b"\n" not in self.buf:
            try:
                chunk = os.read(self.rout, 1 << 16)
            except BlockingIOError:
                if time.perf_counter() < spin_until:
                    continue
                ready, _, _ = select.select([self.rout], [], [],
                                            REPLY_TIMEOUT_S)
                if not ready:
                    raise RuntimeError("isex serve stopped answering")
                continue
            if not chunk:
                raise RuntimeError("isex serve stopped answering")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode()

    def request(self, line):
        """Closed loop: send one line, wait for its response. Returns
        (response, seconds)."""
        t0 = time.perf_counter()
        self.send(line)
        resp = self.recv()
        return resp, time.perf_counter() - t0

    def cpu_ns(self):
        return tree_cpu_ns(self.p.pid)

    def rss_kb(self):
        return tree_rss_kb(self.p.pid)

    def close(self):
        """EOF on stdin, then wait for a clean exit. Returns the exit code."""
        self.p.stdin.close()
        try:
            rc = self.p.wait(timeout=REPLY_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.p.kill()
            self.p.wait()
            rc = -9
        self.p.stdout.close()
        return rc

    def kill(self):
        if self.p.poll() is None:
            self.p.kill()
            self.p.wait()
        for f in (self.p.stdin, self.p.stdout):
            if f and not f.closed:
                f.close()


# --- statistics ---------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def floors(samples):
    """input -> list of per-round samples  =>  input -> minimum."""
    return {k: min(v) for k, v in samples.items()}


def tail(values):
    """Highest percentile of `values` that leaves at least 10 values above
    it: (value, percentile, count). None below 20 values."""
    n = len(values)
    if n < 20:
        return None
    s = sorted(values)
    i = n - 11
    return s[i], 100.0 * (i + 1) / n, n


def spread_record(samples):
    """Per-input floor and quartiles over rounds, for the run report."""
    return {k: {"floor": min(v), "quartiles": quartiles(v), "rounds": len(v)}
            for k, v in samples.items()}


def calibration_floor(reps=7):
    """Floor of a fixed pure-Python loop, in seconds: how fast this host ran
    during the run. Recorded only; never used to scale a metric."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        best = min(best, time.perf_counter() - t0)
    return best
