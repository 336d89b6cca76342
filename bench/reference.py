"""Reference kernel: fixed code of the benchmark's own, timed all through a
run to measure how fast the machine is running at the moment.

The machine the benchmark was tuned on (a 2-vCPU share of a Xeon host)
switches between two speeds about 1.5x apart, for seconds to minutes at a
time.  A run that falls in the slow state reads 1.5x slower in every figure,
and no estimate over the run's own calls removes that.  So each call's time
is scaled by ``NOMINAL_S / k``, k being the kernel's median time around the
call (``run.Phase.scaled_times``): it reads as seconds on a machine on which
the kernel takes ``NOMINAL_S``.  The kernel never calls the library, so a
change to the library does not move it; it mixes the two kinds of work the
library does, interpreter-bound word tables and small complex SVDs.
"""

from __future__ import annotations

import time

import numpy as np

# Median of measure() on the reference machine in its fast state.
NOMINAL_S = 0.0024

_WORDS = [(a, b, c, d) for a in range(6) for b in range(6) for c in range(6) for d in range(6)]
_rng = np.random.default_rng(0)
_MATRIX = _rng.standard_normal((24, 24)) + 1j * _rng.standard_normal((24, 24))


def _word_tables() -> int:
    """Index words in a dict and look up their rotations, as the dynamics
    and extension tables do."""
    table = {w: i for i, w in enumerate(_WORDS)}
    total = 0
    for w in _WORDS:
        total += table[w[1:] + w[:1]]
        total += len([x for x in w if x])
    return total


def _small_svds() -> None:
    """Singular values of a small complex matrix, as the norm estimators
    take them."""
    for _ in range(20):
        np.linalg.svd(_MATRIX, compute_uv=False)


def measure() -> float:
    """One timing of the kernel, in seconds."""
    start = time.perf_counter()
    _word_tables()
    _small_svds()
    return time.perf_counter() - start
