"""Fixed reference work that gauges how fast the host runs at the moment.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 1.8x over tens of seconds, with the same effect on wall and CPU time.
Slices of this reference work run before every operation and after the last
one; the timings the benchmark reports are scaled by
``NOMINAL_SLICE_S / mean slice time``, which cancels the drift that the
program and the reference share.

The reference never touches kgen, so no change to kgen can change its
cost.  Its four parts mirror the kinds of work kgen does: interpreter loops,
per-point calls into numpy on small matrices, batched linear algebra over
many small matrices, and float formatting.
"""

from __future__ import annotations

import time

import numpy as np

# About the fastest slice time seen on 2 vCPUs of a Xeon host (Python 3.11,
# numpy 2.4, OpenBLAS); it only fixes the scale of the reported seconds.
NOMINAL_SLICE_S = 0.035

_rng = np.random.default_rng(12345)
_SMALL = _rng.standard_normal((120, 4, 4)) + 1j * _rng.standard_normal((120, 4, 4))
_SMALL = _SMALL + _SMALL.conj().transpose(0, 2, 1)
_SHIFT = 9.0 * np.eye(4)
_BATCH = _rng.standard_normal((6000, 2, 2)) + 1j * _rng.standard_normal((6000, 2, 2))
_BATCH = _BATCH + _BATCH.conj().transpose(0, 2, 1)
_VALUES = _rng.standard_normal(8000).tolist()


def _interpreter() -> int:
    table = {}
    total = 0
    for i in range(70000):
        total += i * i % 7
        table[i & 63] = total
    return total


def _small_calls() -> float:
    total = 0.0
    for m in _SMALL:
        _, v = np.linalg.eigh(m)
        np.linalg.svd(m @ m)
        total += float(np.einsum("ij,ji->", v, np.linalg.inv(m + _SHIFT)).real)
    return total


def _batched() -> float:
    w = np.linalg.eigvalsh(_BATCH)
    return float(np.einsum("nij,njk->nik", _BATCH, _BATCH).real.sum() + w.sum())


def _formatting() -> int:
    return len("\n".join("%.6g,%.6g" % (a, -a) for a in _VALUES))


PARTS = (_interpreter, _small_calls, _batched, _formatting)


def run_slice() -> float:
    """Run one slice of the reference work; returns its wall seconds."""
    start = time.perf_counter()
    for part in PARTS:
        part()
    return time.perf_counter() - start
