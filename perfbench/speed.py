"""A fixed block of work that measures how fast this machine runs right now.

The benchmark's host is a VM on a shared machine.  Its speed changes with
other work on the machine, for seconds to minutes at a time: over two
minutes the same el_s1 solve took from 0.87 to 1.33 CPU seconds, while this
block took from 50 to 78 ms, the two rising and falling together (correlation
0.8 over 100 pairs).  Timing the block just before and just after each
operation gives the operation's time at one reference speed:
``cpu seconds * REFERENCE_S / block cpu seconds``.  On those pairs that
halved the spread of every operation's times.  Longer operations get more
blocks after them, so that the blocks take a fixed share of the time.

The block mixes the kinds of work nllc does (interpreted Python loops, FFTs
of a 3-D grid, many small dense solves) and depends on nothing in nllc, so a
change to the program cannot change it.
"""

import statistics
import time

import numpy as np

# the block's CPU time at the reference speed, the usual one of a 2-core
# Intel Xeon VM with one OpenBLAS thread; scaled times read as CPU seconds
# at that speed
REFERENCE_S = 0.075
# share of a run spent timing blocks: one block after a 1.5 s operation,
# three after a 4.5 s one
SHARE = 0.05


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._grid = rng.standard_normal((48, 48, 48))
        self._small = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
        self._work()  # first use of each routine, not timed

    def _work(self):
        acc = 0.0
        for i in range(300_000):
            acc += i * 0.5
        for _ in range(6):
            np.fft.irfftn(np.fft.rfftn(self._grid), self._grid.shape, axes=(0, 1, 2))
        for _ in range(3000):
            np.linalg.solve(self._small, self._small[0])
        return acc

    def block_s(self, blocks: int = 1) -> float:
        """CPU seconds one block takes now: the median of this many timed in a row."""
        times = []
        for _ in range(blocks):
            start = time.process_time()
            self._work()
            times.append(time.process_time() - start)
        return statistics.median(times)

    def blocks_for(self, seconds: float) -> int:
        """Blocks to time after seconds of work, to spend about SHARE of the time on them."""
        return max(1, round(SHARE * seconds / REFERENCE_S))
