"""Benchmark harness: construction comparison over result sizes, branching
and tree-size sweeps, integrity overhead.

A workload is a list of cells; each cell fixes (n, branching, result size,
construction, integrity) and is measured over `reps` queries whose ranges are
sampled as uniformly random windows of the sorted key list, so every query
returns exactly the requested number of values.  Reported latencies are
medians: single-query times at this scale are noisy and the tail belongs to
the allocator, not the algorithm.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass

from hsbt.bptree import KEY_MAX, scan_oracle
from hsbt.deploy import Deployment

BENCH_CSV_HEADER = (
    "construction,b,n,integrity,result_size,reps,median_micros,"
    "median_crossings,median_nodes,median_touched"
)


@dataclass(frozen=True)
class WorkloadCell:
    n: int
    branching: int
    result_size: int
    construction: int  # 1 = resident tree, 2 = streamed batches
    reps: int = 1000
    integrity: bool = False

    def __post_init__(self):
        if self.construction not in (1, 2):
            raise ValueError("construction must be 1 or 2")
        if self.result_size > self.n:
            raise ValueError("result size cannot exceed the pair count")


def make_dataset(n: int, rng: random.Random, value_size: int = 16):
    """n distinct random keys with fixed-size payloads."""
    keys = rng.sample(range(1, KEY_MAX + 1), n)
    return [(k, b"%0*d" % (value_size, i)) for i, k in enumerate(keys)]


def sample_result_window(sorted_keys, result_size: int, rng: random.Random):
    """A uniformly random window of `result_size` consecutive sorted keys;
    querying [first, last] returns exactly those keys' values."""
    start = rng.randrange(0, len(sorted_keys) - result_size + 1)
    return sorted_keys[start], sorted_keys[start + result_size - 1]


class DeploymentCache:
    """Builds (and reuses) one encrypted deployment per (n, b, integrity)."""

    def __init__(self, seed: int, value_size: int = 16):
        self.seed = seed
        self.value_size = value_size
        self._cache: dict[tuple, tuple[list, list, Deployment]] = {}

    def get(self, n: int, branching: int, integrity: bool) -> tuple[list, list, Deployment]:
        """Returns (pairs, sorted keys, deployment)."""
        key = (n, branching, integrity)
        if key not in self._cache:
            rng = random.Random(f"{self.seed}/{n}/{branching}/{integrity}")
            pairs = make_dataset(n, rng, self.value_size)
            dep = Deployment.build(pairs, branching, integrity=integrity, rng=rng)
            self._cache[key] = (pairs, sorted(k for k, _ in pairs), dep)
        return self._cache[key]


def run_cell(cell: WorkloadCell, cache: DeploymentCache, rng: random.Random, *, verify: bool = False) -> dict:
    """Measure one cell; returns the median row.

    Every query takes the full client path, result tag included.  With
    `verify` set, the decrypted values are also checked against the scan
    oracle (slow; meant for correctness sweeps, not timing)."""
    pairs, sorted_keys, dep = cache.get(cell.n, cell.branching, cell.integrity)

    # Nodes the enclave visited: each one scans its b-1 key slots.
    counter = dep.enclave.touch_counter
    micros, crossings, nodes, touched = [], [], [], []
    for _ in range(cell.reps):
        rs, re_ = sample_result_window(sorted_keys, cell.result_size, rng)
        key_slots = counter.key_slots
        values, stats = dep.query(rs, re_, cell.construction)
        assert stats.result_size == cell.result_size
        if verify:
            assert sorted(values) == sorted(scan_oracle(pairs, rs, re_))
        micros.append(stats.micros)
        crossings.append(stats.crossings)
        nodes.append(stats.nodes_transferred)
        touched.append((counter.key_slots - key_slots) // (cell.branching - 1))

    return {
        "construction": cell.construction,
        "b": cell.branching,
        "n": cell.n,
        "integrity": int(cell.integrity),
        "result_size": cell.result_size,
        "reps": cell.reps,
        "median_micros": statistics.median(micros),
        "median_crossings": statistics.median(crossings),
        "median_nodes": statistics.median(nodes),
        "median_touched": statistics.median(touched),
    }


def row_to_csv(row: dict) -> str:
    return (
        f"{row['construction']},{row['b']},{row['n']},{row['integrity']},"
        f"{row['result_size']},{row['reps']},{row['median_micros']:.1f},"
        f"{row['median_crossings']},{row['median_nodes']},{row['median_touched']}"
    )


def run_workload(cells, seed: int):
    """Run every cell against a shared deployment cache; yields result rows."""
    cache = DeploymentCache(seed)
    rng = random.Random(seed ^ 0x5EED)
    for cell in cells:
        yield run_cell(cell, cache, rng)
