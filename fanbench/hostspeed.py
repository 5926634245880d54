"""Host-speed reference for the fanpoly benchmark.

The benchmark runs on a few cores of a shared machine whose speed drifts by
up to 1.7x over tens of seconds: a fixed loop's median over 5 s windows
read 14 to 25 ms within two minutes on a 2-vCPU host, with CPU time equal
to wall time, so the slowdown is not time stolen from the process but every
instruction running slower.  A 50 s run samples that drift in a different
stretch each time, and its wall-time medians spread by more than 15%
between runs of the same code.

``reference_work`` is a fixed piece of pure Python of the kind fanpoly does
(small-integer row operations with gcd steps, tuple keys in a dict) that
never touches fanpoly, so no change to the program can speed it up.  Timed
next to each job, it says how fast the host is running at that moment, and

    scaled time = wall time * REFERENCE_S / (reference time around the job)

is the job's time on a host running at the reference speed.  On 50 s
windows of the geometry workload this cut the spread of jobs_per_s from
0.16 to 0.01 (IQR/median over nine windows) and that of job_p50_ms from
0.12 to 0.06.
"""

from __future__ import annotations

from math import gcd
from time import perf_counter

REPS = 60
# median time of reference_work() on the 2-vCPU host the benchmark was
# written on, so that scaled times read close to wall times there
REFERENCE_S = 0.0064


def reference_work(reps=REPS):
    acc = 0
    for rep in range(reps):
        m = [[(i * 7 + j * 3 + rep) % 11 - 5 for j in range(7)] for i in range(7)]
        seen = {}
        for c in range(7):
            for r in range(c + 1, 7):
                a, b = m[c][c], m[r][c]
                while b:
                    q, rem = divmod(a, b)
                    m[c], m[r] = m[r], [x - q * y for x, y in zip(m[c], m[r])]
                    a, b = b, rem
                g = 0
                for x in m[r]:
                    g = gcd(g, x)
                if g > 1:
                    m[r] = [x // g for x in m[r]]
                key = tuple(m[r])
                seen[key] = seen.get(key, 0) + 1
        acc += len(seen) + sum(abs(x) for row in m for x in row) % 97
    return acc


def reference_time():
    """Wall time of one reference_work() call."""
    t0 = perf_counter()
    reference_work()
    return perf_counter() - t0


def scale(elapsed, before, after):
    """``elapsed`` wall seconds, measured between reference times ``before``
    and ``after``, as seconds at the reference speed."""
    return elapsed * REFERENCE_S / ((before + after) / 2)
