"""Reference kernel that every timed phase is normalised against.

On a small shared machine the same work timed in separate processes
drifts by up to a quarter; its ratio to adjacent runs of a fixed kernel
varies much less (README.md gives the measured spreads). This kernel mixes interpreter-bound
loops with small numpy calls the way posepriors does: row-by-row
triangular substitution over narrow and wide right-hand sides, a scalar
Python recurrence, and parsing and re-printing a block of CSV-like
decimal text. It shares no code with posepriors.

Work is timed in chunks of 0.1-2 s. A chunk that took `raw` seconds
between two kernel rounds that took r0 and r1 seconds counts as
raw * NOMINAL_S / ((r0 + r1) / 2): seconds at the kernel's nominal speed.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

# About the median duration of one round on the reference machine (2-core
# x86-64, Python 3.11, numpy 2.4 with OpenBLAS on one thread). Only the
# ratio matters; the constant keeps normalised figures in seconds.
NOMINAL_S = 0.1

_N = 48
_WIDE = 256
_REPS = 30
_SCALAR_STEPS = 4000
_TEXT_ROWS = 12


class RefKernel:
    """Fixed, seeded work; round() returns its wall time in seconds."""

    def __init__(self):
        rng = np.random.default_rng(20190927)
        self.lower = np.tril(rng.standard_normal((_N, _N)) / _N, -1) + np.diag(
            1.0 + rng.random(_N)
        )
        self.narrow = rng.standard_normal(_N)
        self.wide = rng.standard_normal((_N, _WIDE))
        self.text = "\n".join(
            ",".join(repr(float(v)) for v in row) for row in rng.standard_normal((_TEXT_ROWS, 66))
        )
        self.checksum = None

    def _substitute(self, b: np.ndarray) -> np.ndarray:
        lower = self.lower
        y = np.empty_like(b)
        for i in range(_N):
            y[i] = (b[i] - lower[i, :i] @ y[:i]) / lower[i, i]
        x = np.empty_like(b)
        for i in range(_N - 1, -1, -1):
            x[i] = (y[i] - lower[i + 1 :, i] @ x[i + 1 :]) / lower[i, i]
        return x

    def _work(self) -> float:
        acc = 0.0
        for _ in range(_REPS):
            acc += float(self._substitute(self.narrow)[0])
            acc += float(self._substitute(self.wide)[0, 0])
            s = 0.5
            for k in range(_SCALAR_STEPS):
                s = s * 0.999 + (k & 7) * 1e-3
            acc += s
            rows = [[float(c) for c in line.split(",")] for line in self.text.split("\n")]
            acc += len("\n".join(",".join(repr(v) for v in row) for row in rows))
        return acc

    def round(self) -> float:
        t0 = time.perf_counter()
        value = self._work()
        elapsed = time.perf_counter() - t0
        if self.checksum is None:
            self.checksum = value
        elif value != self.checksum:
            raise RuntimeError("reference kernel result changed between rounds")
        return elapsed


class PairedClock:
    """Times chunks of work, each followed by one reference-kernel round.

    The round after one chunk is the round before the next, so every
    chunk is flanked by two kernel rounds and is normalised by their mean.
    """

    def __init__(self):
        self.kernel = RefKernel()
        self.kernel_times = [self.kernel.round()]
        self.chunks = []  # (start, end, factor) in time order; raw seconds * factor = normalised

    def phase(self) -> "PhaseTimer":
        return PhaseTimer(self)

    def factor_at(self, t: float) -> float:
        """Normalising factor of the timed chunk that was running at time t."""
        i = bisect.bisect_right(self.chunks, t, key=lambda chunk: chunk[0]) - 1
        if i < 0 or t > self.chunks[i][1]:
            raise ValueError(f"no timed chunk was running at perf_counter {t}")
        return self.chunks[i][2]


class PhaseTimer:
    """Collects the raw and normalised seconds of one phase's chunks."""

    def __init__(self, clock: PairedClock):
        self.clock = clock
        self.raw = []
        self.normalised = []

    def __call__(self, fn, *args):
        """Run fn(*args) as one timed chunk and return its result."""
        before = self.clock.kernel_times[-1]
        t0 = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - t0
        after = self.clock.kernel.round()
        self.clock.kernel_times.append(after)
        factor = NOMINAL_S * 2.0 / (before + after)
        self.clock.chunks.append((t0, t0 + raw, factor))
        self.raw.append(raw)
        self.normalised.append(raw * factor)
        return result
