"""Machine-speed sampling next to, and during, every op.

The CPU speed of a shared machine drifts by tens of percent within seconds,
so two runs of the same code a minute apart can differ by more than any
useful regression bound.  A worker therefore times a fixed kernel in a
burst before its first op, on a timer tick every ``TICK_S`` while ops run,
and in a burst after its last op.  The runner scales each op's time by
``REFERENCE_S`` over the mean kernel time sampled within ``WINDOW_S`` of
the op, which gives the op's duration on a machine where the kernel takes
``REFERENCE_S``.  Time spent in tick samples is taken out of the op.

The kernel touches no ``qlrc`` code, so a change to ``qlrc`` cannot move
it: it mixes integer arithmetic with the list and tuple traffic of a small
Gauss-Jordan elimination over GF(7), the shape of ``qlrc``'s inner loops.
"""

from __future__ import annotations

import random
import signal
from time import perf_counter
from typing import List, Tuple

REFERENCE_S = 0.003          # kernel time on the 2-vCPU Xeon the benchmark was tuned on
TICK_S = 0.1
BURST = 8
WINDOW_S = 0.5

_rng = random.Random(7)
_MATRIX = tuple(tuple(_rng.randrange(7) for _ in range(24)) for _ in range(12))


def kernel() -> int:
    acc = 0
    for i in range(20000):
        acc += (i * 7) % 13
    p = 7
    for _ in range(2):
        rows = [list(r) for r in _MATRIX]
        r = 0
        for c in range(24):
            piv = next((i for i in range(r, 12) if rows[i][c]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            inv = pow(rows[r][c], p - 2, p)
            rows[r] = [(inv * x) % p for x in rows[r]]
            for i in range(12):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
            r += 1
            if r == 12:
                break
        acc += sum(map(sum, rows))
    return acc


class SpeedSampler:
    """Kernel timings (start, duration) over a worker's life."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []

    def _sample(self, *_signal_args) -> None:
        t = perf_counter()
        kernel()
        self.samples.append((t, perf_counter() - t))

    def burst(self) -> float:
        """Sample ``BURST`` times back to back; return their mean."""
        for _ in range(BURST):
            self._sample()
        return sum(d for _, d in self.samples[-BURST:]) / BURST

    def start_ticks(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop_ticks(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent_within(self, t0: float, t1: float) -> float:
        """Sampling time that fell inside [t0, t1]."""
        return sum(max(0.0, min(t1, s + d) - max(t0, s)) for s, d in self.samples
                   if s < t1 and s + d > t0)

    def speed_around(self, t0: float, t1: float) -> float:
        """Mean kernel time over the samples taken within WINDOW_S of [t0, t1]."""
        near = [d for s, d in self.samples if t0 - WINDOW_S <= s <= t1 + WINDOW_S]
        near = near or [d for _, d in self.samples]
        return sum(near) / len(near)
