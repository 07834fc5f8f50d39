"""Machine-speed probe: scales measured wall time to a reference speed of the host.

The benchmark runs on a shared host whose speed, seen from one process,
changes by 30-50% within seconds to minutes as other tenants load the
physical cores; CPU time slows with wall time, so neither shows the cost of
the program alone.  The probe measures that speed from inside the timed
thread: every ``INTERVAL_S`` a SIGALRM handler runs a small fixed kernel
(Legendre series evaluation on small arrays, a small matmul and a pure-Python
loop, like the program's own mix) and records how long it took.  A timed interval is then
reported as ``raw_seconds * REF_KERNEL_S / mean(kernel seconds within it)``:
seconds at the speed at which the kernel takes ``REF_KERNEL_S``.  Over 30
back-to-back verify passes on the reference machine (a 2-vCPU Intel Xeon VM)
this brought the spread of single passes from 0.15 to 0.05 of their median.

The kernel runs in the main thread between bytecodes, so it interleaves with
the program rather than competing with it; it costs about 2% of the wall
time, the same for every commit.  Raw seconds and the factors are recorded
next to every result.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.02
REF_KERNEL_S = 0.0005  # mean kernel time on the reference machine under its usual load
MIN_SAMPLES = 10
CAPACITY = 1 << 16  # samples; 20 minutes at INTERVAL_S

_X = np.linspace(-1.0, 1.0, 200)
_COEF = np.random.default_rng(0).standard_normal(60)
_A = np.random.default_rng(1).standard_normal((32, 32))
_ITEMS = list(range(2000))


def kernel():
    """Fixed work of ~0.5 ms: Legendre series evaluation, a small matmul and a Python loop."""
    np.polynomial.legendre.legval(_X, _COEF)
    _A @ _A
    return sum(i * i for i in _ITEMS)


class SpeedProbe:
    """Samples the kernel's duration on a wall-clock timer while running."""

    def __init__(self):
        self.samples = np.zeros(CAPACITY)  # preallocated: no list grows while the program runs
        self.count = 0
        self._previous = None

    def _sample(self, signum, frame):
        if self.count < CAPACITY:
            start = time.perf_counter()
            kernel()
            self.samples[self.count] = time.perf_counter() - start
            self.count += 1

    def start(self):
        kernel()  # warm: first-call costs stay out of the samples
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self):
        return self.count

    def factor(self, lo, hi):
        """How much slower than the reference the host ran between two marks."""
        if hi - lo < MIN_SAMPLES:
            raise RuntimeError(f"speed probe took {hi - lo} samples, at least {MIN_SAMPLES} needed")
        return float(self.samples[lo:hi].mean()) / REF_KERNEL_S
