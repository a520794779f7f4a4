"""Host speed, measured with fixed reference kernels, for scaling timings.

On a shared host the same work can take anywhere from one to two times its
quiet-host time, in spells that last seconds to minutes, so raw timings from
two runs of the same code can differ by more than any useful bound. The
benchmark therefore times a kernel just before and after every operation,
and scales the operation's time by the kernel's reference time divided by
its mean time around the operation. The scaled figures are milliseconds at
the speed the reference machine runs the kernel on a quiet host: they equal
plain milliseconds there, and stay put when the host slows down. Unscaled
figures are reported on standard error.

Load does not slow every kind of work alike. On the reference machine,
spells that slowed Python-level looping 1.4 times slowed numpy calls on
8x8 matrices 1.8 times. So each workload names the kernel whose mix of work
is closest to its own (see README):

- INTERPRETER: Python-level looping plus complex matrix products at dims 8
  and 48. It tracks fiber-sampling, and interpreter start-up.
- ROTATIONS: sweeps of two-sided Jacobi rotations on an 8x8 complex matrix,
  made of many small numpy calls, plus Python-level looping. It tracks
  chsh-lattice and cli-reports, whose time goes to hvsim's Jacobi solver.
  It is the benchmark's own code, so a change to hvsim's solver does not
  move it.
"""

from __future__ import annotations

import math
import time


def _interpreter(np) -> None:
    x = 0
    for i in range(20000):
        x += i * i
    for n, rounds in ((8, 300), (48, 20)):
        a = np.arange(n * n, dtype=np.complex128).reshape(n, n) / (n * n)
        b = a
        for _ in range(rounds):
            b = (b @ a) * 0.5 + a[:, ::-1]


def _rotations(np) -> None:
    x = 0
    for i in range(8000):
        x += i * i
    n = 8
    k = np.arange(n * n).reshape(n, n)
    a0 = (k % 7 + 1j * (k % 5)) / 10.0
    a0 = a0 + a0.conj().T
    for _ in range(3):  # one sweep each from the same start, so every run does the same work
        a = a0.copy()
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                mag = abs(apq)
                if mag == 0.0:
                    continue
                tau = (a[q, q].real - a[p, p].real) / (2.0 * mag)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = (t * c) * (apq / mag)
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s.conjugate() * col_q
                a[:, q] = s * col_p + c * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s.conjugate() * row_p + c * row_q


class Kernel:
    """A fixed piece of work and its time on a quiet host of the reference machine."""

    def __init__(self, body, reference_s: float):
        self.body = body
        self.reference_s = reference_s

    def seconds(self) -> float:
        """Time one run of the kernel."""
        import numpy as np  # not at import time: run.py pins the CPU first

        t0 = time.perf_counter()
        self.body(np)
        return time.perf_counter() - t0

    def scale(self, before_s: float, after_s: float) -> float:
        """Factor turning a time measured between two kernel runs into reference time."""
        return self.reference_s / (0.5 * (before_s + after_s))


# INTERPRETER's reference is its 5th-percentile time on a quiet host of the
# reference machine. ROTATIONS' is set from INTERPRETER's by the ratio of
# their 5th percentiles over 4154 interleaved runs of each.
INTERPRETER = Kernel(_interpreter, 3.4e-3)
ROTATIONS = Kernel(_rotations, 2.1e-3)
