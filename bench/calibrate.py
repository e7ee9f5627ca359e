"""A fixed piece of exact-rational work that measures the machine's speed.

The host this benchmark was built on changes speed by up to 2x within
seconds and in regimes of many minutes, and the benchmark cannot stop
that.  So every timed interval is measured next to calibration blocks,
and the run reports it scaled to a reference speed:

    reported = measured * (block time at the reference speed)
                        / (median time of the nearby blocks)

An in-process block is fixed plain-`fractions` work of the kind
horopoly's exact kernels do: rational dot products of points with
functionals, the sets of points where each is largest, and
intersections of those sets, as in a face lattice.  (A tight Gaussian
elimination loop followed the machine less well: it sped up more than
the program did in fast stretches.)  A process
block starts a fresh interpreter on this file, which runs one
in-process block: the same kind of work as a CLI call, whose cost is mostly
interpreter start and imports.  Neither imports horopoly, so no change
to the program changes a block's cost.  The reference times are the
medians on the machine the README describes, so reported times read as
milliseconds and seconds on that machine in its usual state.
"""

from __future__ import annotations

import gc
import random
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

REF_S = 0.01  # one in-process repetition at the reference speed
PROCESS_REF_S = 0.08  # one process block at the reference speed
REACH = 2
_rng = random.Random(0)
POINTS = tuple(tuple(Fraction(_rng.randint(-12, 12), _rng.randint(1, 6)) for _ in range(4))
               for _ in range(30))
FUNCTIONALS = tuple(tuple(Fraction(_rng.randint(-5, 5), _rng.randint(1, 3)) for _ in range(4))
                    for _ in range(20))


def _faces() -> int:
    argmax = []
    for f in FUNCTIONALS:
        values = [sum(a * b for a, b in zip(f, p)) for p in POINTS]
        top = max(values)
        argmax.append(frozenset(i for i, v in enumerate(values) if v == top))
    faces = set(argmax)
    for a in argmax:
        for b in argmax[:10]:
            faces.add(a & b)
    return len(faces)


def block(reps: int) -> float:
    """Seconds that `reps` repetitions take now.  The collector is off, so
    the program's heap does not change the cost of a block."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(reps):
            _faces()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def process_block() -> float:
    """Seconds that a fresh interpreter running this file takes now."""
    t0 = perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve())], check=True)
    return perf_counter() - t0


def scale(seconds: float, blocks, ref_s: float) -> float:
    """`seconds` at the reference speed, from the blocks measured around
    it, each of which takes ref_s at that speed."""
    return seconds * ref_s / statistics.median(blocks)


def scale_all(latencies, marks, blocks, ref_s: float) -> list:
    """Scale each latency by the blocks nearest to it.  blocks[marks[i]]
    is the last block measured before latency i and the next block the
    first after it; the median of those two and the REACH blocks on
    either side damps a block that was itself disturbed."""
    assert len(blocks) == marks[-1] + 2
    return [scale(t, blocks[max(0, m - REACH):m + REACH + 2], ref_s)
            for t, m in zip(latencies, marks)]


if __name__ == "__main__":
    block(1)
