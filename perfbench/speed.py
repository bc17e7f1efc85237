"""Machine-speed track: timed intervals in reference seconds.

The benchmark's host is a few cores of a shared machine, and its speed
changes within seconds with what its neighbours run: the same search
refresh took 1.1-1.7 s across the rounds of one 30 s run, and the
interquartile range of ten run medians reached 40-50% of their median
(2-vCPU x86 host).

A timer signal every ``TICK_S`` of wall time runs a fixed pure-Python
loop (:func:`loop`) in the benchmark's own thread, between two bytecodes
of whatever runs, and records how long the loop took.  The loop works
on a few KB of its own, so it depends on how fast the core runs Python
and not on the program's heap or data.  Every timed interval is then
reported in *reference seconds*: its wall time, less the loop time
inside it, times ``REFERENCE_LOOP_S`` over the mean loop time within
``WINDOW_S`` around it.  On a machine that runs the loop in
``REFERENCE_LOOP_S`` a reference second is a wall second; a program
change moves the interval and not the loop, so it moves the reported
time as much as the wall time.  The loop takes about 2% of the wall
time.

Over ten 30 s runs per workload (2-vCPU x86 host), this scaling cut
the spread of run medians (interquartile range over median) of searched
refreshes from 0.46 to 0.06 (replay-hits), 0.19 to 0.05 (sdss-grow) and
0.12 to 0.06 (tpch-window), and of cache hits on replay-hits from 0.38
to 0.04.  It does not remove all of the host's drift: in one stretch
where the host ran the loop 27% faster, the program ran 35% faster.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right

#: Interval of the timer signal.
TICK_S = 0.01

#: Arithmetic iterations and token-classifying rounds each tick runs.
LOOP_ITERATIONS = 800
TOKEN_ROUNDS = 8

#: Median loop time on a 2-vCPU x86 host (Python 3.11): the scale of a
#: reference second.  Only ratios to it matter, so it is a constant.
REFERENCE_LOOP_S = 0.00022

#: Ticks this far either side of an interval also count toward its
#: speed, so a cache hit of microseconds still gets dozens.
WINDOW_S = 0.25

_KEYWORDS = {"select": 1, "from": 2, "where": 3, "and": 4, "between": 5, "by": 6}
_TEXT = "select objid , ra , dec from photoobj where ra between 10 and 20 and dec < 5 group by objid"


class _Token:
    __slots__ = ("kind", "text")

    def __init__(self, kind: int, text: str) -> None:
        self.kind = kind
        self.text = text


def _token(word: str) -> _Token:
    kind = _KEYWORDS.get(word.lower())
    if kind is None:
        kind = 9 if word[:1].isdigit() else 8
    return _Token(kind, word)


def loop() -> None:
    """The fixed workload each tick times.

    Integer arithmetic, then function calls, small objects, string
    methods and dict updates over a fixed text: a mix of the interpreter
    work the program does, on a working set of a few KB.
    """
    x = 0
    for i in range(LOOP_ITERATIONS):
        x = (x * 31 + i) % 1_000_003
    seen = {}
    for r in range(TOKEN_ROUNDS):
        tokens = [_token(word) for word in _TEXT.split()]
        shape = tuple(token.kind for token in tokens)
        seen[shape] = seen.get(shape, 0) + len(tokens)
        for token in tokens:
            if token.kind == 8:
                seen[token.text] = r


class SpeedTrack:
    """Ticks the loop on a wall-clock timer while it is started.

    ``stamps`` (start times, ``time.perf_counter``) and ``loop_s``
    (durations) grow in tick order; :meth:`reference_seconds` reads them
    once the ticks after an interval exist, i.e. after :meth:`stop`.
    """

    def __init__(self) -> None:
        self.stamps = array("d")
        self.loop_s = array("d")
        self._previous = None

    def _tick(self, signum, frame) -> None:
        # Collector off: the loop's objects are freed before it returns,
        # so it neither triggers nor shifts the program's collections.
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        loop()
        self.loop_s.append(time.perf_counter() - start)
        self.stamps.append(start)
        if enabled:
            gc.enable()

    def start(self) -> None:
        for _ in range(10):  # the first runs of the loop are slower
            loop()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def reference_seconds(self, start: float, end: float) -> float:
        """Reference seconds of the wall interval ``[start, end]``."""
        stamps, loop_s = self.stamps, self.loop_s
        inside = sum(loop_s[bisect_left(stamps, start) : bisect_left(stamps, end)])
        around = loop_s[bisect_left(stamps, start - WINDOW_S) : bisect_right(stamps, end + WINDOW_S)]
        mean = sum(around) / len(around) if around else statistics.median(loop_s)
        return (end - start - inside) * REFERENCE_LOOP_S / mean

    def summary(self) -> dict:
        """Loop-time statistics for the run's detail line."""
        return {
            "reference_s": REFERENCE_LOOP_S,
            "ticks": len(self.loop_s),
            "median_s": statistics.median(self.loop_s) if self.loop_s else None,
            "min_s": min(self.loop_s, default=None),
            "max_s": max(self.loop_s, default=None),
        }
