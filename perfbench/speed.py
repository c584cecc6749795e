"""Host speed, measured next to each timing so that drift cancels.

The benchmark shares a small virtual machine with other tenants, and the
host's speed swings by a third within minutes; every timing of the library
moves with it.  So each timed pass is bracketed by two runs of a fixed
pure-Python kernel, an associativity scan over a fixed table, in a child
interpreter that never imports ncats; the library's own state (trace
hooks, allocator, garbage) cannot touch it.  A time is reported at the
reference speed: ``seconds * REFERENCE_S / kernel seconds``, so it reads as
wall seconds on a host where the kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import subprocess
import sys

REFERENCE_S = 0.010

_KERNEL = """
import gc, sys, time
gc.disable()
n = 12
t = {(a, b): (a * 7 + b * 3 + a * b) % n for a in range(n) for b in range(n)}
def kernel():
    t0 = time.perf_counter()
    bad = 0
    for _ in range(20):
        for a in range(n):
            for b in range(n):
                ab = t[(a, b)]
                for c in range(n):
                    if t[(ab, c)] != t[(a, t[(b, c)])]:
                        bad += 1
    return time.perf_counter() - t0
for _line in sys.stdin:
    print(kernel(), flush=True)
"""


class HostSpeed:
    """A child interpreter that times the kernel on request.  Use it as a
    context manager; leaving it ends the child and waits for it."""

    def __enter__(self):
        self._proc = subprocess.Popen([sys.executable, "-I", "-c", _KERNEL],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      text=True)
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.wait(timeout=30)
        return False

    def kernel_s(self):
        """Median of three kernel runs, so that one disturbed run does not
        skew the pass it brackets."""
        runs = []
        for _ in range(3):
            self._proc.stdin.write("\n")
            self._proc.stdin.flush()
            runs.append(float(self._proc.stdout.readline()))
        return sorted(runs)[1]


def at_reference(seconds, kernel_before, kernel_after):
    """``seconds`` measured between two kernel timings, at the reference speed."""
    return seconds * REFERENCE_S * 2 / (kernel_before + kernel_after)
