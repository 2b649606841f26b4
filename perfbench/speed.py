"""Host-speed probe, and operation times expressed at a reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts
by up to 2x, within seconds and over minutes, so the same code on the
same inputs reads differently from one run to the next.  To take that
drift out, a fixed pure-Python kernel (:func:`kernel`: build a small
object graph, walk it breadth first, sort its rows) is timed on the
thread that runs the operations, while they run, and each operation's
wall time is summed at the speed the kernel ran at through it:

    ref_time = integral over the operation of REF_PROBE_S / probe(t) dt

where probe(t) is the median of the probes nearest to t.

``REF_PROBE_S`` is a fixed scale, a little under the fastest probe seen
on the machine the benchmark was defined on (a 2-vCPU Linux VM, CPython
3.11.7: fastest 0.26 ms, median 0.34 ms while the host was busy), so a
reference time reads somewhat below that machine's wall time; only
ratios between runs carry meaning.  The kernel never calls ``repro``
and runs with the garbage collector off, so a change to the program
cannot move it, only the host can; the time spent probing is taken out
of every operation it interrupts.  Raw wall times are printed beside
the reference ones in every run's table.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import threading
import time
from typing import List, Optional, Tuple

# Seconds of one probe (:func:`probe`) at the reference speed.
REF_PROBE_S = 0.00020
# Seconds between probes while a :class:`Sampler` interrupts.
INTERVAL_S = 0.02
# Probes on entry to and exit from a :class:`Sampler`.
MIN_PROBES = 9
# The speed at a probe is the median of it and SMOOTH probes either side.
SMOOTH = 5


class _Node:
    __slots__ = ("v", "nbrs")

    def __init__(self, v: int):
        self.v = v
        self.nbrs: List["_Node"] = []


def kernel() -> int:
    """Fixed interpreter work of the same kind the program does: object
    allocation, attribute access, set and list traffic, sorting."""
    n = 200
    nodes = [_Node(i) for i in range(n)]
    for i, node in enumerate(nodes):
        for j in (i * 7 % n, i * 13 % n, (i + 1) % n):
            node.nbrs.append(nodes[j])
    seen = {0}
    frontier = [nodes[0]]
    edges = 0
    while frontier:
        nxt = []
        for node in frontier:
            for m in node.nbrs:
                edges += 1
                if m.v not in seen:
                    seen.add(m.v)
                    nxt.append(m)
        frontier = nxt
    rows = sorted((node.v % 17, -node.v, str(node.v)) for node in nodes)
    return edges + len(rows)


def probe() -> float:
    """Seconds for one kernel run right now, with the garbage collector
    off so the program's heap cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Probes the host's speed during one timed pass, and scales the
    pass's operations to the reference speed.

    With ``interrupt=True`` a timer signal runs a probe on the main
    thread every :data:`INTERVAL_S`, between the program's bytecodes, so
    long operations are sampled while they run; there are also
    :data:`MIN_PROBES` probes on entry and on exit.

    Time operations with :meth:`clock` and :meth:`record` each one's
    start and end.  When the operations run on the main thread
    (``ops_here``), the clock leaves out the time the signal's probes
    took; when they run on other threads, which a probe does not stop,
    it is plain wall time."""

    def __init__(self, interrupt: bool, ops_here: bool = True):
        self.interrupt = interrupt
        self.ops_here = ops_here
        self.times: List[float] = []    # each probe's start, on the clock
        self.probes: List[float] = []   # each probe's seconds
        self.ops: List[Tuple[float, float]] = []
        self._spent = 0.0
        self._old = None
        self._busy = False

    def clock(self) -> float:
        return time.perf_counter() - self._spent

    def sample(self, n: int) -> None:
        for _ in range(n):
            t = self.clock()
            self.probes.append(probe())
            self.times.append(t)

    def _on_signal(self, signum, frame) -> None:
        if self._busy:  # a probe slower than INTERVAL_S: skip this tick
            return
        self._busy = True
        start = time.perf_counter()
        self.times.append(start - self._spent)
        self.probes.append(probe())
        if self.ops_here:
            self._spent += time.perf_counter() - start
        self._busy = False

    def __enter__(self) -> "Sampler":
        self.sample(MIN_PROBES)
        if self.interrupt:
            assert threading.current_thread() is threading.main_thread()
            self._old = signal.signal(signal.SIGALRM, self._on_signal)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.interrupt:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._old)
        self.sample(MIN_PROBES)

    def record(self, start: float, end: float) -> float:
        """Record one operation; its latency in seconds."""
        self.ops.append((start, end))
        return end - start

    def _speeds(self) -> List[float]:
        """The factor to the reference speed at each probe."""
        p = self.probes
        return [
            REF_PROBE_S / statistics.median(p[max(0, i - SMOOTH): i + SMOOTH + 1])
            for i in range(len(p))
        ]

    def _ref_time(self, start: float, end: float, speeds: List[float]) -> float:
        """``end - start`` at the reference speed: each stretch between
        the probes inside it at the speed of the probe nearest to it."""
        times = self.times
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_right(times, end)
        cuts = [start] + times[lo:hi] + [end]
        total = 0.0
        for a, b in zip(cuts, cuts[1:]):
            mid = (a + b) / 2
            j = min(bisect.bisect_left(times, mid), len(times) - 1)
            if j > 0 and mid - times[j - 1] < times[j] - mid:
                j -= 1
            total += (b - a) * speeds[j]
        return total

    def scaled(self, wall: Optional[float] = None) -> Tuple[List[float], float]:
        """The recorded latencies at the reference speed, and ``wall``
        (by default the sum of the latencies) scaled by the operations'
        latency-weighted mean factor."""
        speeds = self._speeds()
        raw = [end - start for start, end in self.ops]
        latencies = [self._ref_time(s, e, speeds) for s, e in self.ops]
        total = sum(raw)
        if wall is None:
            wall = total
        return latencies, wall * (sum(latencies) / total if total else 1.0)
