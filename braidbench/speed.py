"""Machine-speed references used to normalise measured times.

The shared machines this benchmark runs on change speed by up to 1.5x
for seconds to minutes at a time (both CPU time and wall time move).  A
fixed workload of the benchmark's own, timed right before and right after
each measurement on the same CPU, tracks that speed; a time reported as
`seconds * NOMINAL_S[kind] / reference` is the time the step would take
when the reference runs in its nominal time.  The references import
nothing from braidalg, so a change to the program does not move them.

Two kinds, each the one that tracked its measurements best: "child" for
a CLI child process (interpreter start and import slow down less than
Python arithmetic does: a plain integer loop follows them), "inproc" for
cases run inside one process (the loop plus Fraction row reduction and
tuple hashing, the work of the checker's layers).
"""

import time
from fractions import Fraction

# each reference's fastest time on a 2-core Intel Xeon VM, Python 3.11.7
NOMINAL_S = {"child": 0.0013, "inproc": 0.0027}

_ROWS = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3) for j in range(7)]
         for i in range(7)]


def _loop(n):
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


def _inproc():
    """Small-int arithmetic, Fraction row reduction and tuple hashing."""
    s = _loop(10000)
    rows = [list(r) for r in _ROWS]
    for col in range(7):
        piv = next((i for i in range(col, 7) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for i in range(7):
            if i != col and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    seen = {}
    for i in range(1500):
        t = tuple((i * k) % 13 for k in range(5))
        seen[t] = seen.get(t, 0) + 1
    return s, rows, len(seen)


def _child():
    return _loop(20000)


_KERNELS = {"child": _child, "inproc": _inproc}


def reference_s(kind, repeats=3):
    """Fastest of `repeats` timings of the `kind` reference workload."""
    kernel = _KERNELS[kind]
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best
