"""Reference kernels: fixed pieces of numpy and Python work that the timed
window runs between ops, so op times can be read in units of machine speed.

The benchmark's host is a small share of a busy machine, and its speed
drifts more between runs than seeds move op times.  Code that runs in the
core's caches switches, every few seconds, between a fast state and one in
which the same code takes 1.3-2x as long; code that streams memory hardly
feels that switch, but drifts with the memory traffic of other tenants.

A reference kernel does not touch ipstruct, so no change to the program can
change its cost.  It is sampled between ops at least ``EVERY_S`` seconds
apart, and each op time is divided by the mean of the samples just before
and just after that op, which cancels the machine state the op and its
neighbours share.  Each workload names the kernel whose work is most like
its own:

* ``compute``: a dense complex eigendecomposition (the spectral layer), a
  thin SVD that fits in L2, and a loop of small numpy calls and dictionary
  updates (the codes and CLI layers); about 75 ms on a 2-core VM.
* ``memory``: an SVD with its full 11.5 MB U factor (the algebra layer's
  commutant, whose U factor is 30-120 MB) and a pass over 256 MB of arrays,
  more than the 105 MB L3; about 80 ms.
"""

from __future__ import annotations

import time

import numpy as np

# seconds of program work between two samples of the kernel
EVERY_S = 0.5
KERNELS = ("compute", "memory")


class Reference:
    """One kernel's fixed inputs and the times of its samples."""

    def __init__(self, kernel: str):
        if kernel not in KERNELS:
            raise ValueError(f"unknown reference kernel {kernel!r}")
        rng = np.random.default_rng(20100607)
        if kernel == "compute":
            self.dense = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
            self.thin = rng.standard_normal((1000, 200))
            self.small = [rng.standard_normal((4, 4)) for _ in range(8)]
        else:
            self.tall = rng.standard_normal((1200, 24))
            self.big = rng.standard_normal(16_000_000)
            self.out = np.empty_like(self.big)
        self.kernel = getattr(self, f"_{kernel}")
        self.samples: list[float] = []
        # marks[i]: the number of samples taken before op i started
        self.marks: list[int] = []
        self._due = 0.0
        self.kernel()  # warm-up, untimed

    def _compute(self) -> float:
        np.linalg.eig(self.dense)
        np.linalg.svd(self.thin, full_matrices=False)
        acc = 0.0
        for _ in range(300):
            for m in self.small:
                acc += float(np.trace(m @ m.T))
        counts: dict[str, int] = {}
        for i in range(30000):
            key = str(i % 997)
            counts[key] = counts.get(key, 0) + i
        return acc

    def _memory(self) -> float:
        np.linalg.svd(self.tall)
        np.multiply(self.big, 1.0001, out=self.out)
        return float(self.out[-1])

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - t0)

    def mark_op(self) -> None:
        """Note that an op starts now."""
        self.marks.append(len(self.samples))

    def maybe_sample(self) -> None:
        """Sample the kernel if ``EVERY_S`` seconds have passed since the last
        sample ended."""
        if time.perf_counter() >= self._due:
            self.sample()
            self._due = time.perf_counter() + EVERY_S

    def in_units(self, times: list[float]) -> list[float]:
        """Each op time divided by the mean of the samples just before and
        just after the op; the window must open and close with a sample."""
        return in_units(times, self.marks, self.samples)


def in_units(times, marks, samples) -> list[float]:
    """``times[i] / mean(samples[marks[i] - 1], samples[marks[i]])``."""
    if len(times) != len(marks) or not marks or marks[0] < 1 or marks[-1] >= len(samples):
        raise ValueError("every op needs a reference sample before and after it")
    return [t / (0.5 * (samples[k - 1] + samples[k])) for t, k in zip(times, marks)]
