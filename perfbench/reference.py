"""Speed probe that rescales the benchmark's times to a fixed machine speed.

On a shared host the same pass can take 1.8x longer from one minute to the
next because of other tenants: over ten identical runs of grid3d N=4 --D 32
the pass took 2.9-5.3 s, and the host flips between a fast and a slow state
every few seconds.  That is far more than any regression worth catching,
and process CPU time swings with it, since a slowed CPU is still charged.

So while the benchmark runs, a probe runs a fixed small block of exact
arithmetic (Gauss-Jordan elimination of a 5x5 Fraction matrix, the kind of
work incilab does) about every 8 ms and times it in CPU seconds.  The probe
is a process of its own, with its own interpreter, heap and garbage
collector, so the program's heap and lock do not leak into its block times;
it is pinned to the same CPU as the benchmark, so it sees the same host
state.  An interval's time is rescaled by the probe's mean block time over
that same interval: ``seconds * REF_BLOCK_S / mean block seconds``.  The
probe's own CPU time in the interval is taken out of the wall time first;
it costs about 5% of the wall time.

The two processes still share the CPU's caches, so a program whose working
set grows can cool the probe's caches; the probe's working set is a few
kilobytes, so that effect is small next to its 0.5 ms blocks.

Run as a script, this file is the probe: it answers every byte it reads on
stdin with one line ``<block CPU seconds so far> <blocks> <mean of the last
64 blocks>`` and exits at end of input.
"""

from __future__ import annotations

import os
import random
import select
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

# CPU seconds one block takes at the reference speed, so rescaled times
# read as seconds on a host where a block runs this fast.  Any constant
# would do; this one is mid-range for a shared 2-vCPU Xeon VM (0.42-0.70 ms
# per block while the program runs), so rescaled times stay close to wall
# time there.
REF_BLOCK_S = 0.0005

_PERIOD_S = 0.008
_SIZE = 5
_rng = random.Random(5)
_MATRICES = [
    [[Fraction(_rng.randint(-60, 60), _rng.randint(1, 40)) for _ in range(_SIZE)] for _ in range(_SIZE)]
    for _ in range(50)
]


def _block(k: int) -> int:
    """Eliminate one of the fixed matrices; returns its rank."""
    rows = [list(r) for r in _MATRICES[k % len(_MATRICES)]]
    rank = 0
    for c in range(_SIZE):
        pivot = next((i for i in range(rank, _SIZE) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][c]
        rows[rank] = [v / inv for v in rows[rank]]
        for i in range(_SIZE):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _serve() -> None:
    """The probe process: a block every _PERIOD_S, a reply per request."""
    total, blocks, recent = 0.0, 0, deque(maxlen=64)
    next_block = time.monotonic()
    while True:
        timeout = max(0.0, next_block - time.monotonic())
        ready, _, _ = select.select([0], [], [], timeout)
        if ready:
            requests = os.read(0, 4096)
            if not requests:
                return
            mean = sum(recent) / len(recent) if recent else 0.0
            reply = f"{total!r} {blocks} {mean!r}\n".encode()
            os.write(1, reply * len(requests))
            continue
        t0 = time.thread_time()
        _block(blocks)
        dt = time.thread_time() - t0
        total += dt
        blocks += 1
        recent.append(dt)
        next_block = time.monotonic() + _PERIOD_S


@dataclass(frozen=True)
class Reading:
    wall: float
    cpu: float  # CPU seconds of the benchmark's process
    probe_cpu: float  # CPU seconds of the probe's blocks so far
    blocks: int
    recent_block: float  # mean CPU seconds of the probe's last 64 blocks


class Probe:
    """Context manager running the probe process; ``read()`` snapshots it.

    Entering pins this process, and so the probe and every process started
    later, to one CPU."""

    def __init__(self):
        self._proc: subprocess.Popen | None = None

    def __enter__(self):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE
        )
        try:
            while self.read().blocks < 8:
                time.sleep(_PERIOD_S)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        proc, self._proc = self._proc, None
        proc.stdin.close()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        return False

    def read(self) -> Reading:
        wall, cpu = time.perf_counter(), time.process_time()
        self._proc.stdin.write(b"?")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline().split()
        if len(line) != 3:
            raise RuntimeError("the speed probe stopped")
        return Reading(wall, cpu, float(line[0]), int(line[1]), float(line[2]))

    @staticmethod
    def rescaled(start: Reading, end: Reading) -> tuple[float, float]:
        """Wall and CPU seconds of the program between two readings, the
        probe's time taken out of the wall time and both rescaled to the
        reference speed.  Intervals too short for eight blocks are rescaled
        by the probe's recent blocks."""
        probe = end.probe_cpu - start.probe_cpu
        blocks = end.blocks - start.blocks
        mean_block = probe / blocks if blocks >= 8 else end.recent_block
        scale = REF_BLOCK_S / mean_block
        wall = end.wall - start.wall - probe
        cpu = end.cpu - start.cpu
        return wall * scale, cpu * scale


if __name__ == "__main__":
    _serve()
