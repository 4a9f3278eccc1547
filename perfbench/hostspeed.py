"""The shared host's current speed, read from a fixed piece of reference work.

The benchmark runs on a shared host that takes its CPU away for whole
scheduler ticks (the guest sees this as steal time) and, while the CPU runs,
slows it by up to three quarters through other tenants' load, both changing
within seconds and lasting up to minutes.  The benchmark therefore times its
work in thread CPU time, which leaves the stolen ticks out, and between items,
once every PERIOD_S seconds, it times `reference_work`, which touches no
sdepthlab code and never changes.  Each CPU time is then rescaled by
REFERENCE_S over the mean of the reference times taken around it.  A time so
rescaled is in reference seconds: the CPU time the work would take on a host
where `reference_work` takes REFERENCE_S, which is its time on a quiet host.

    python3 perfbench/hostspeed.py

prints the reference time of the machine it runs on.
"""
from __future__ import annotations

import bisect
import random
import statistics
import time

PERIOD_S = 0.2
WINDOW = 5  # reference samples on each side of a time that rescale it
# the lowest of 200 samples on a 2-core Intel Xeon VM with Python 3.11
REFERENCE_S = 0.0074


def reference_work() -> int:
    """Tuples, dicts, frozensets, sorting, big-integer bit operations and
    small-integer arithmetic: the kinds of operation sdepthlab spends its
    time on, in a fixed amount."""
    rng = random.Random(7)
    vecs = [tuple(rng.randrange(4) for _ in range(8)) for _ in range(120)]
    joins: dict[tuple, int] = {}
    for a in vecs[:40]:
        for b in vecs[:40]:
            t = tuple(max(x, y) for x, y in zip(a, b))
            joins[t] = joins.get(t, 0) + 1
    supports = {frozenset(i for i, x in enumerate(v) if x) for v in vecs}
    rows = [(1 << 200) - 1 - i * 7919 for i in range(60)]
    acc = 0
    for r in rows:
        for q in rows[:30]:
            acc ^= (r & q) | (r >> 3)
    total = 0
    for i in range(40000):
        total += i * i % 7
    return len(sorted(joins)) + len(supports) + acc.bit_length() + total


class HostClock:
    """Reference samples (wall-clock start, CPU seconds) taken through a run;
    `scale(at)` turns a CPU time measured from wall-clock time `at` into
    reference seconds."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        self.starts.append(time.perf_counter())
        t = time.thread_time()
        reference_work()
        self.seconds.append(time.thread_time() - t)

    def tick(self) -> None:
        """Take a sample if PERIOD_S has passed since the last one."""
        if not self.starts or time.perf_counter() - self.starts[-1] >= PERIOD_S:
            self.sample()

    def scale(self, at: float) -> float:
        """REFERENCE_S over the mean of the WINDOW samples before `at` and
        the WINDOW samples after it."""
        k = bisect.bisect_right(self.starts, at)
        around = self.seconds[max(k - WINDOW, 0):k + WINDOW]
        return REFERENCE_S / statistics.fmean(around)

    def speed(self) -> float:
        """The run's host speed, 1.0 on a quiet host."""
        return REFERENCE_S / statistics.fmean(self.seconds)


if __name__ == "__main__":
    clock = HostClock()
    for _ in range(200):
        clock.sample()
    print(f"reference_work: lowest {min(clock.seconds):.6f} s, "
          f"median {statistics.median(clock.seconds):.6f} s of CPU time")
