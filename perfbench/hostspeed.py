"""Host-speed reference for the benchmark's wall-clock times.

On a shared host the same code runs up to twice as slow for stretches of
seconds to minutes, while co-tenants load the physical cores: everything
slows together, a plain interpreter loop, AES-GCM and small numpy calls alike
(no time is stolen from the process, so CPU time slows as much as wall time).
A fixed reference task is timed between windows of queries and around each
set-up; a time measured next to it is scaled by `REFERENCE_MS` over the
task's time, so it reads as on a host where the task takes `REFERENCE_MS`.

The task mixes what the program under test spends its time on: interpreted
code over small objects, bytes and ints; AES-GCM on short blobs through
`cryptography`; and numpy calls on small arrays.  It calls nothing of the
program, so a change to the program moves the scaled times in full.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

# The task's typical time, in ms, on the 2-core Intel Xeon VM the bounds were
# set on.  It only fixes the scale of the reported times.
REFERENCE_MS = 1.6
# The task runs this many times per measurement; the fastest run counts, as
# an interrupt inside one run says nothing about the host's speed.
REPS = 3

_AEAD = AESGCM(bytes(16))
_NONCE = bytes(12)
_BLOB = bytes(64)
_LANES = np.arange(64, dtype=np.uint64)


class _Slot:
    __slots__ = ("key",)

    def __init__(self, key: int):
        self.key = key

    def mix(self, other: int) -> int:
        return self.key ^ other


def _task() -> int:
    acc = 0
    slots = [_Slot(i) for i in range(600)]
    for slot in slots:
        acc += slot.mix(7) + int.from_bytes(slot.key.to_bytes(8, "little")[2:6], "big")
    acc += len({i: str(i) for i in range(600)})
    for _ in range(250):
        acc += len(_AEAD.encrypt(_NONCE, _BLOB, None))
    for _ in range(80):
        lanes = (_LANES * np.uint64(3) + np.uint64(7)) ^ _LANES
        acc += int(np.argsort(lanes)[0]) + int(lanes.sum() & 1)
    return acc


def measure_ms() -> float:
    """The reference task's time now, in ms."""
    best = float("inf")
    for _ in range(REPS):
        start = time.perf_counter_ns()
        _task()
        best = min(best, (time.perf_counter_ns() - start) / 1e6)
    return best


def settled_ms(measurements: int = 7) -> float:
    """The median of several `measure_ms`, for a time taken once, such as a
    set-up, rather than in many windows whose factors a median pools."""
    return statistics.median(measure_ms() for _ in range(measurements))


def scale(before_ms: float, after_ms: float) -> float:
    """Factor for a time taken between two measurements of the task."""
    return REFERENCE_MS / ((before_ms + after_ms) / 2)
