"""Host speed reference: scales CPU times to a nominal host.

A shared host runs this process at speeds that differ by up to 2x from
second to second and drift over minutes, in CPU time as well as in wall
time.  A fixed reference computation, independent of the library, is
timed every REFERENCE_EVERY_S of CPU time, also in the middle of long
library calls; the median of those samples over a stretch of work
measures how fast the host ran during it, and reported times are scaled
to a host on which the reference takes REFERENCE_NOMINAL_S.

The library's time goes to interpreter work (dispatch, allocation:
forms, certificates, small Fractions) and to big-integer arithmetic in C
(exact kernels and gcds over large coefficients), and when this host
slows down the two slow by different amounts.  So the reference does
some of each: it compiles and runs a fixed module body of classes,
functions and constants, and it runs a fixed chain of multiplications,
remainders and gcds of integers of a few thousand bits.  Over 185 rounds
of short library segments on the shared VM the bounds were set on, the
log of the segment time rose with the log of the reference time with a
slope of 0.79 (binary), 0.94 (quartic), 1.16 (ternary) and 1.26
(certificate replay), where 1 is perfect tracking; the module body
alone gave 0.62 to 1.01, and an exact Fraction elimination of a small
integer matrix, the first reference used, 0.43 to 0.70.

This module imports only small standard modules, so a fresh interpreter
can start sampling before `import waring` (see setupprobe.py).
"""

from __future__ import annotations

import gc
import marshal
import math
import signal
import time
from contextlib import contextmanager

REFERENCE_SOURCE = "\n".join(
    f"class C{i}:\n    kind = {i}\n    def __init__(self, a, b=()):\n"
    f"        self.a = a\n        self.b = tuple(b)\n"
    f"    def __repr__(self):\n        return f'C{i}({{self.a!r}}, {{self.b!r}})'\n"
    f"    def scaled(self, x):\n        return C{i}(self.a * x, [v * x for v in self.b])\n"
    f"def f{i}(x, y={i}, *, z=None):\n    if z is None:\n"
    f"        z = {{k: k * y for k in range(5)}}\n"
    f"    return [x * k + y + z.get(k, 0) for k in range(10)]\n"
    f"T{i} = tuple(f{i}(j) for j in range(8))\n" for i in range(8))
REFERENCE_CODE = marshal.dumps(compile(REFERENCE_SOURCE, "<reference>", "exec"))
REFERENCE_MODULUS = 3 ** 4000 + 12345
REFERENCE_FACTOR = 7 ** 3000 + 999
REFERENCE_ROUNDS = 8
# its CPU time on an uncontended core of the 2-vCPU x86-64 VM the bounds
# were set on (Python 3.11); only the scale of reported times depends on it
REFERENCE_NOMINAL_S = 3.5e-3
REFERENCE_EVERY_S = 0.1


def reference_seconds() -> float:
    """CPU time of one run of the reference: the module body, then the integers."""
    start = time.thread_time()
    exec(marshal.loads(REFERENCE_CODE), {"__name__": "reference"})
    compile(REFERENCE_SOURCE, "<reference>", "exec")
    x = REFERENCE_MODULUS
    for k in range(REFERENCE_ROUNDS):
        x = (x * REFERENCE_FACTOR) % REFERENCE_MODULUS + k
        math.gcd(x, REFERENCE_FACTOR)
    return time.thread_time() - start


class HostProbe:
    """Samples reference_seconds() from a CPU-time timer signal.

    `clock()` is the thread's CPU time less the time spent in samples, so
    work timed with it does not include the probe.  The garbage collector
    is off during a sample: a collection over the library's heap that the
    sample's allocations would trigger stays in the library's time and
    out of the reference.  The sample's own garbage (about 150 objects in
    reference cycles) is collected later in the library's time, under
    0.1 ms per sample, or under 0.1% of the time measured.  Thread rather
    than process CPU time: on Linux the process clock falls back to
    timer-tick resolution while the ITIMER_PROF timer is armed, and the
    benchmark runs a single thread.
    """

    def __init__(self, every_s: float = REFERENCE_EVERY_S):
        self.every_s = every_s
        self.samples: list[float] = []
        self.taken_at: list[float] = []     # clock() when each sample started
        self.spent = 0.0

    def factor(self, start: float, end: float) -> float:
        """How much slower than nominal the host ran while clock() went from start to end.

        The median of the samples taken in that stretch; there must be one.
        """
        import statistics  # here, so a set-up child loads it after its timed import

        picked = [s for t, s in zip(self.taken_at, self.samples) if start <= t <= end]
        return statistics.median(picked) / REFERENCE_NOMINAL_S

    def clock(self) -> float:
        return time.thread_time() - self.spent

    def sample(self, *_):
        start = time.thread_time()
        self.taken_at.append(start - self.spent)
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.samples.append(reference_seconds())
        finally:
            if collecting:
                gc.enable()
        self.spent += time.thread_time() - start

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, self.every_s, self.every_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)
