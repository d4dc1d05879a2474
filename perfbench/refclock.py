"""Seconds at a reference machine speed.

The benchmark runs on shared machines whose speed moves by up to a third,
both from one second to the next and over minutes, as other tenants come
and go; raw timings of whole runs scatter by 20-30% from run to run.  A
:class:`ReferenceClock` times a fixed kernel -- BLAS eigenvalues, many
small numpy calls and interpreter arithmetic, the mix the program spends
its time on -- right before and right after each timed operation, and
scales the operation's seconds by ``KERNEL_REFERENCE_S`` over the kernel
time measured around it.  The kernel runs in the benchmark process,
outside every timed region, and shares no code with the program; the
benchmark pins itself and its children to one CPU, so that the kernel
sees the same CPU as the operation."""

import statistics
import time

import numpy as np

# Kernel time on the machine where the benchmark was defined (2-core
# x86-64 at 2.1 GHz, single-threaded OpenBLAS); any constant works, since
# only runs on the same machine are compared.
KERNEL_REFERENCE_S = 0.007

_MATRIX = np.random.default_rng(0).standard_normal((64, 64))
_HERMITIAN = _MATRIX + _MATRIX.T
_SMALL = np.eye(4, dtype=complex) + 0.1j


def kernel_seconds():
    start = time.perf_counter()
    for _ in range(6):
        np.linalg.eigvalsh(_HERMITIAN)
    for _ in range(200):
        np.linalg.det(_SMALL)
    acc = 0j
    for i in range(15000):
        acc += complex(i, 1) * 1.0000001
    return time.perf_counter() - start


class ReferenceClock:
    """Collects operation seconds with the kernel times around them."""

    def __init__(self):
        self.last_kernel = kernel_seconds()
        self.samples = []       # (seconds, mean of the kernels before and after)

    def record(self, seconds):
        """Call right after each timed operation, with its seconds."""
        kernel = kernel_seconds()
        self.samples.append((seconds, 0.5 * (self.last_kernel + kernel)))
        self.last_kernel = kernel

    def scale(self):
        """Reference seconds per measured second over the run so far."""
        return sum(self.reference_seconds()) / sum(seconds for seconds, _ in self.samples)

    def reference_seconds(self):
        """Each operation's seconds at the reference speed: scaled by
        ``KERNEL_REFERENCE_S`` over the median kernel level of the
        operation and its two neighbours, which tracks drift over seconds
        without following every single noisy kernel sample."""
        levels = [level for _, level in self.samples]
        return [seconds * KERNEL_REFERENCE_S / statistics.median(levels[max(i - 1, 0):i + 2])
                for i, (seconds, _) in enumerate(self.samples)]
