"""Benchmark harness contracts: exact-size window sampling, well-formed rows."""

import random

import pytest

from hsbt.bench import (
    BENCH_CSV_HEADER,
    DeploymentCache,
    WorkloadCell,
    make_dataset,
    row_to_csv,
    run_cell,
    run_workload,
    sample_result_window,
)
from hsbt.bptree import scan_oracle
from hsbt.leakage import leak_hw_nodes


def test_window_sampling_returns_exact_result_size():
    rng = random.Random(0)
    pairs = make_dataset(500, rng)
    sorted_keys = sorted(k for k, _ in pairs)
    for r in (1, 7, 100, 500):
        for _ in range(20):
            a, b = sample_result_window(sorted_keys, r, rng)
            assert len(scan_oracle(pairs, a, b)) == r


def test_run_cell_row_well_formed_and_verified():
    cache = DeploymentCache(seed=1)
    rng = random.Random(2)
    row = run_cell(
        WorkloadCell(n=300, branching=5, result_size=10, construction=2, reps=25),
        cache,
        rng,
        verify=True,
    )
    assert row["median_micros"] > 0
    assert row["median_crossings"] >= 1
    assert row["result_size"] == 10
    assert row_to_csv(row).count(",") == BENCH_CSV_HEADER.count(",")


def test_resident_cell_reports_zero_transfers():
    cache = DeploymentCache(seed=3)
    rng = random.Random(4)
    row = run_cell(
        WorkloadCell(n=200, branching=4, result_size=5, construction=1, reps=10),
        cache,
        rng,
        verify=True,
    )
    assert row["median_nodes"] == 0
    assert row["median_crossings"] == 2


def test_workload_reuses_deployments():
    cells = [
        WorkloadCell(n=200, branching=4, result_size=1, construction=2, reps=5),
        WorkloadCell(n=200, branching=4, result_size=2, construction=2, reps=5),
    ]
    rows = list(run_workload(cells, seed=5))
    assert len(rows) == 2


def test_cell_validation():
    with pytest.raises(ValueError):
        WorkloadCell(n=10, branching=4, result_size=11, construction=2)
    with pytest.raises(ValueError):
        WorkloadCell(n=10, branching=4, result_size=1, construction=3)


@pytest.mark.parametrize("construction", [1, 2])
def test_median_touched_is_the_declared_access_tree_size(construction):
    cache = DeploymentCache(seed=3)
    pairs, sorted_keys, dep = cache.get(2000, 6, False)
    rs, re_ = sample_result_window(sorted_keys, 40, random.Random(7))
    access, _ = leak_hw_nodes(dep.tree, rs, re_)
    cell = WorkloadCell(n=2000, branching=6, result_size=40, construction=construction, reps=1)
    row = run_cell(cell, cache, random.Random(7))
    assert row["median_touched"] == len(access.vertices) > 1
