"""A fixed reference loop that gauges how fast the machine runs at a moment.

The 2-core machine this benchmark was built on switches, for seconds at a
time, between speeds up to half apart, and a whole run can fall into a
slow stretch. Raw times of one commit then spread over ten runs by 20% to
35%, more than any bound the benchmark could fix. So the benchmark times
this loop between goals and reports every time at the reference speed:

    reported = measured * REFERENCE_S / (mean of the loop's times just before and just after)

The loop runs none of the program's code, so a change to the program
moves the measured time and leaves the scale alone. It does the kind of
work the program does: it walks a formula-like tree of tuples, builds
frozensets, hashes them and looks them up in dicts.
"""

from __future__ import annotations

import gc
import time

# The loop's time, in seconds, at the reference speed: about its time when
# the benchmark's machine ran at its faster speed. Reported times are the
# times the calls would take at that speed.
REFERENCE_S = 0.00055


def _tree(depth: int, i: int) -> tuple:
    if depth == 0:
        return ("atom", f"p{i % 9}")
    if depth % 3 == 0:
        return ("box", _tree(depth - 1, i * 2))
    return ("and" if i % 2 else "imp", _tree(depth - 1, i * 2), _tree(depth - 1, i * 2 + 1))


_TREE = _tree(9, 1)


def _atoms(f: tuple) -> frozenset:
    if f[0] == "atom":
        return frozenset((f[1],))
    out = _atoms(f[1])
    return out | _atoms(f[2]) if len(f) > 2 else out


def probe() -> float:
    """Seconds the reference loop takes now.

    The garbage collector is off meanwhile, so that the program's heap,
    which grows with every goal, cannot slow the loop.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        counts: dict = {}
        for i in range(600):
            s = frozenset((i % 7, i % 11, (i * 3) % 13))
            counts[s] = counts.get(s, 0) + len(s | {i % 5})
            hash((s, i % 3))
        for _ in range(3):
            "".join(sorted(_atoms(_TREE)))
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor from measured time to time at the reference speed, for work
    done between two probes."""
    return 2 * REFERENCE_S / (before + after)
