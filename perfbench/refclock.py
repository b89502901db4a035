"""The host's current speed, read from a fixed reference computation.

The benchmark gets a few cores of a shared host whose speed drifts by a
third over minutes, and the program's times drift with it. A run
therefore times a fixed computation of its own between the program's
units of work (a request, a pipeline stage, a set-up). The reference
does what a small decoder step does with numpy: one-row matmuls,
RMS norms, a softmax over cached keys, SiLU and an argmax over the
vocabulary, so a busy host slows it in about the same proportion as
the program.

A unit's time is scaled by ``NOMINAL_NS`` over the mean of the two
reference samples around it, so scaled times read as on a host where
one sample takes ``NOMINAL_NS``. The program's code changes scaled
times; the reference is the benchmark's own and does not change with
the program. Over eight 15-second stretches of speculative decoding on
a drifting 2-vCPU Xeon, the middle half of the stretches' token times
spread 0.24 of their median unscaled and 0.03 scaled.
"""

from __future__ import annotations

import time

import numpy as np

# Fixed once, and never to be changed: scaled times from different values
# do not compare. A sample took 2.3 to 4.7 ms on a 2-vCPU Xeon (numpy 2.4,
# OpenBLAS at 1 thread) as the host's load changed.
NOMINAL_NS = 4_500_000
DIM = 64
VOCAB = 512
KEYS = 96
LAYERS = 8
STEPS = 12


class RefClock:
    """Times the reference; keeps every sample for the regions around it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.weights = [rng.normal(scale=DIM ** -0.5, size=(DIM, DIM)) for _ in range(LAYERS)]
        self.keys = rng.normal(size=(KEYS, DIM))
        self.table = rng.normal(size=(VOCAB, DIM))
        self.samples: list[int] = []
        self.checksum: int | None = None

    def kernel(self) -> int:
        x = self.table[3:4].copy()
        total = 0
        for _ in range(STEPS):
            for w in self.weights:
                h = x @ w
                h = h / np.sqrt((h * h).mean(axis=-1, keepdims=True) + 1e-6)
                s = self.keys @ h[0]
                s = np.exp(s - s.max())
                s /= s.sum()
                x = x + 0.01 * (h * (1.0 / (1.0 + np.exp(-h)))) + 0.001 * (s @ self.keys)
            total += int(np.argmax(x @ self.table.T))
        return total

    def sample(self) -> int:
        """Run the reference once; returns and keeps its time in ns."""
        t0 = time.perf_counter_ns()
        total = self.kernel()
        ns = time.perf_counter_ns() - t0
        if self.checksum is None:
            self.checksum = total
        elif total != self.checksum:
            raise AssertionError("the reference computation gave another result")
        self.samples.append(ns)
        return ns


def scaled_ns(ns: float, ref_ns: float) -> float:
    """A time scaled to the nominal host speed."""
    return ns * NOMINAL_NS / ref_ns
