"""The machine's speed at the moment, from fixed reference kernels.

The host this benchmark was built on shares its cores with other tenants,
and its speed drifts by up to 1.8x over tens of seconds: the (6,6) verify
invocation took 1.5 s in some 20-second windows of one process and 2.8 s in
others, with CPU time equal to wall time and no steal reported.  Medians
within a run cannot remove a drift that lasts the whole run, so every time
the benchmark reports is scaled to the reference machine by readings of
three kernels taken next to it.  The drift does not slow all work alike: in
one slow spell the interpreted loop slowed 1.4x, small numpy calls 1.65x and
complex BLAS products 1.25x, while the sampler's counting loop slowed 1.65x.
So each workload weighs the three kernels by the kind of work it does.  The
kernels share no code with the program.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Each kernel's time on the reference machine (see README.md) when it ran
# fastest; a scaled time reads as the time the program would take there.
REFERENCE_S = {"interpreter": 0.0020, "numpy_calls": 0.0009, "blas": 0.0013}
REPEATS = 3

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))
_LARGE = _rng.standard_normal((128, 128)) + 1j * _rng.standard_normal((128, 128))


def _interpreter():
    counts: dict[int, int] = {}
    for i in range(20_000):
        key = i % 97
        counts[key] = counts.get(key, 0) + 3 * i


def _numpy_calls():
    x = _SMALL.real
    for _ in range(300):
        x = np.abs(_SMALL @ _SMALL.conj().T) + x


def _blas():
    for _ in range(4):
        _LARGE @ _LARGE


_BODIES = {"interpreter": _interpreter, "numpy_calls": _numpy_calls, "blas": _blas}


def _time(body) -> float:
    start = time.perf_counter()
    body()
    return time.perf_counter() - start


def reading() -> dict[str, float]:
    """Each kernel's median time over REPEATS runs."""
    return {name: statistics.median(_time(body) for _ in range(REPEATS)) for name, body in _BODIES.items()}


def scale(before: dict[str, float], after: dict[str, float], weights: dict[str, float]) -> float:
    """The factor converting a time measured between two readings to the reference machine."""
    return sum(
        w * REFERENCE_S[name] / (0.5 * (before[name] + after[name])) for name, w in weights.items()
    )
