"""Wall time rescaled by a reference loop run between commands.

On a shared host the speed of one vCPU drifts by up to about 25% over
tens of seconds, so raw wall times of the same work spread widely from
run to run. The ratio of a command's wall time to the time of a fixed
pure-Python reference loop measured just before and just after it does
not drift. ``Clock.scaled`` turns that ratio back into seconds at the
speed where the reference loop takes ``REFERENCE_S``.

Never change ``reference_loop``, its sizes or ``REFERENCE_S`` in a change that claims
a speed-up: they are the ruler both sides are measured with.
"""

from __future__ import annotations

import time
from collections import deque
from fractions import Fraction

# Median wall time of reference_loop() on the 2-core VM (Python 3.11.7)
# the benchmark was defined on.
REFERENCE_S = 0.066
# Size of the reference loop: tree vertices, BFS sources, Fraction steps.
N, SOURCES, FRACTIONS = 12_000, 150, 800


def reference_loop():
    """Fixed work shaped like bilip's: bounded BFS, set building, Fractions."""
    n = N
    adj: list[list[int]] = [[] for _ in range(n)]
    for v in range(1, n):
        p = (v - 1) // 3
        adj[p].append(v)
        adj[v].append(p)
    total = 0
    for src in range(0, 3 * SOURCES, 3):
        dist = [-1] * n
        dist[src] = 0
        q = deque([src])
        while q:
            v = q.popleft()
            d = dist[v]
            if d < 2:
                for u in adj[v]:
                    if dist[u] == -1:
                        dist[u] = d + 1
                        q.append(u)
        total += len({u for u, d in enumerate(dist) if d != -1})
    f = Fraction(0)
    for i in range(1, FRACTIONS):
        f = abs(f + Fraction(1, 3 ** (i % 9 + 1)) - Fraction(1, 2))
    return total, f


class Clock:
    """Brackets every timed command with reference-loop measurements."""

    def __init__(self):
        self.refs: list[float] = []
        self._last = self.measure()

    def measure(self) -> float:
        start = time.perf_counter()
        reference_loop()
        elapsed = time.perf_counter() - start
        self.refs.append(elapsed)
        return elapsed

    def scaled(self, elapsed: float) -> float:
        """Rescale a wall time that ended just now; runs the next reference."""
        before, self._last = self._last, self.measure()
        return elapsed * REFERENCE_S * 2 / (before + self._last)
