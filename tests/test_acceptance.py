"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured evidence.  Tolerances are fixed here, not tuned elsewhere.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import random
import statistics
import time
from collections import Counter

import numpy as np
import pytest

from hsbt.bench import DeploymentCache, WorkloadCell, run_cell, sample_result_window
from hsbt.bptree import KEY_MAX, KEY_MIN, build_tree, scan_oracle
from hsbt.codec import (
    decrypt_results,
    encrypt_index,
    make_token,
    node_plain_size,
)
from hsbt.crypto import (
    AuthenticationError,
    MultisetHash,
    SecretKey,
    decrypt_wire,
    encrypt_wire,
    generate_key,
    open_wires,
    prp_permutation,
)
from hsbt.deploy import Deployment
from hsbt.enclave import EnclaveSim
from hsbt.leakage import AccessTrace, PageLayout, audit_query, leak_hw_nodes, leak_hw_pages
from hsbt.server import search_resident, search_streamed
from hsbt.tamper import KINDS, Outcome, run_with_tamper


def _report(criterion, detail):
    print(f"\n[criterion {criterion}] PASS - {detail}")


@pytest.fixture(scope="module")
def cache():
    return DeploymentCache(seed=20240717, value_size=12)


# -- 1. correctness ------------------------------------------------------------


def test_criterion_1_correctness_1000_random_ranges(cache):
    pairs, _, dep = cache.get(10_000, 10, False)
    if not dep.enclave.tree_loaded:
        dep.enclave.load_tree(dep.index)
    rng = random.Random(101)
    started = time.perf_counter()
    mismatches = 0
    for construction in (1, 2):
        for _ in range(1000):
            a, b = sorted((rng.randint(KEY_MIN, KEY_MAX), rng.randint(KEY_MIN, KEY_MAX)))
            token = make_token(dep.sk.tree_key, a, b)
            if construction == 1:
                blobs, _ = search_resident(dep.index, dep.enclave, token)
            else:
                blobs, _, _ = search_streamed(dep.index, dep.enclave, token)
            values = decrypt_results(dep.sk.value_key, blobs)
            if sorted(values) != sorted(scan_oracle(pairs, a, b)):
                mismatches += 1
    elapsed = time.perf_counter() - started
    assert mismatches == 0
    assert elapsed < 60.0, f"correctness sweep took {elapsed:.1f}s (budget 60s)"
    _report(1, f"2x1000 random ranges, 0 mismatches, {elapsed:.1f}s")


# -- 2. logarithmic touched-node growth ----------------------------------------


def test_criterion_2_logarithmic_touched_node_growth(cache):
    per_decade_budget = math.log(10, 5) + 1  # height-bound growth per 10x
    medians = {}
    rng = random.Random(202)
    for n in (1_000, 10_000, 100_000):
        _, sorted_keys, dep = cache.get(n, 10, False)
        touched = []
        for _ in range(301):
            rs, re_ = sample_result_window(sorted_keys, 16, rng)
            trace = AccessTrace()
            search_streamed(dep.index, dep.enclave, make_token(dep.sk.tree_key, rs, re_), trace=trace)
            touched.append(len(trace.touched("node")))
        medians[n] = statistics.median(touched)
    d1 = medians[10_000] - medians[1_000]
    d2 = medians[100_000] - medians[10_000]
    assert d1 <= per_decade_budget, f"decade growth {d1} exceeds {per_decade_budget:.2f}"
    assert d2 <= per_decade_budget, f"decade growth {d2} exceeds {per_decade_budget:.2f}"
    # Two decades never look anything like the 100x of linear scaling.
    assert medians[100_000] <= medians[1_000] + 2 * per_decade_budget
    _report(
        2,
        f"median touched nodes {medians} (result size 16), decade growth "
        f"{d1:.1f}/{d2:.1f} <= {per_decade_budget:.2f}",
    )


# -- 3. construction convergence ------------------------------------------------


def test_criterion_3_constructions_converge_with_result_size(cache):
    # 201 queries per cell, run in 67 alternating rounds of 3 so that a host
    # slowdown lands on every cell alike; each cell's median is taken over
    # its round medians.
    rng = random.Random(303)
    sides = [(construction, result_size) for construction in (1, 2) for result_size in (1, 4096)]
    cells = [
        WorkloadCell(
            n=100_000, branching=10, result_size=result_size, construction=construction, reps=3
        )
        for construction, result_size in sides
    ]
    rounds = [[run_cell(cell, cache, rng)["median_micros"] for cell in cells] for _ in range(67)]
    medians = {side: statistics.median(cell) for side, cell in zip(sides, zip(*rounds))}
    ratio_small = medians[(2, 1)] / medians[(1, 1)]
    ratio_big = medians[(2, 4096)] / medians[(1, 4096)]
    assert ratio_big < ratio_small, (
        f"C2/C1 ratio did not shrink: {ratio_small:.2f} (2^0) vs {ratio_big:.2f} (2^12)"
    )
    _report(
        3,
        f"C2/C1 median ratio {ratio_small:.2f} at result 2^0 -> {ratio_big:.2f} at 2^12 "
        f"(medians us: {medians})",
    )


# -- 4. desk latency sanity -------------------------------------------------------


def test_criterion_4_desk_scale_latency_bound(cache):
    rng = random.Random(404)
    row = run_cell(
        WorkloadCell(n=100_000, branching=100, result_size=100, construction=2, reps=1000),
        cache,
        rng,
    )
    median_ms = row["median_micros"] / 1000
    assert median_ms <= 5.0, f"median {median_ms:.3f} ms exceeds the 5 ms budget"
    _report(4, f"streamed median {median_ms:.3f} ms at n=1e5, b=100, result 100 (budget 5 ms)")


# -- 5. integrity overhead --------------------------------------------------------


def test_criterion_5_integrity_overhead_bounded(cache):
    # 1000 queries per side, run in ten alternating rounds of 100 so that a
    # host slowdown lands on both sides alike; each side's median is taken
    # over its round medians.
    rng = random.Random(505)
    cells = [
        WorkloadCell(
            n=100_000, branching=100, result_size=100, construction=2, reps=100, integrity=flag
        )
        for flag in (False, True)
    ]
    rounds = [[run_cell(cell, cache, rng)["median_micros"] for cell in cells] for _ in range(10)]
    plain, protected = (statistics.median(side) for side in zip(*rounds))
    ratio = protected / plain
    assert ratio <= 2.0, f"integrity median is {ratio:.2f}x the plain median"
    _report(5, f"integrity overhead {ratio:.2f}x ({protected:.0f}us vs {plain:.0f}us)")


# -- 6. tamper suite ---------------------------------------------------------------


def test_criterion_6_tamper_suite_full_detection():
    rng = random.Random(606)
    keys = rng.sample(range(1, KEY_MAX), 2000)
    pairs = [(k, b"doc%06d" % i) for i, k in enumerate(keys)]
    dep = Deployment.build(pairs, 8, integrity=True, rng=rng)
    sorted_keys = sorted(keys)

    detecting = [k for k in KINDS if k != "replay-token"]
    missed = Counter()
    for kind in detecting:
        for _ in range(50):
            start = rng.randrange(0, len(sorted_keys) - 30)
            token = make_token(dep.sk.tree_key, sorted_keys[start], sorted_keys[start + 24])
            report = run_with_tamper(dep, token, kind, rng)
            if report.outcome not in (Outcome.ENCLAVE_ABORT, Outcome.CLIENT_REJECT):
                missed[kind] += 1
    assert not missed, f"undetected deviations: {dict(missed)}"

    replays_consistent = 0
    for _ in range(50):
        start = rng.randrange(0, len(sorted_keys) - 30)
        token = make_token(dep.sk.tree_key, sorted_keys[start], sorted_keys[start + 24])
        report = run_with_tamper(dep, token, "replay-token", rng)
        assert report.outcome == Outcome.ACCEPTED, report.detail
        replays_consistent += 1
    _report(
        6,
        f"{len(detecting)} deviation kinds x 50 targets all detected; {replays_consistent} replays "
        "accepted with identical result sets",
    )


# -- 7. leakage simulatability ------------------------------------------------------


def test_criterion_7_simulatability_and_injected_fetch():
    rng = random.Random(707)
    keys = rng.sample(range(1, KEY_MAX), 5000)
    pairs = [(k, b"v%06d" % i) for i, k in enumerate(keys)]
    seed_rng = random.Random(708)
    dep = Deployment.build(
        pairs, 10, rng=rng, enclave=EnclaveSim(order_seed_source=lambda: seed_rng.getrandbits(64))
    )
    tree, sk, index, enclave = dep.tree, dep.sk, dep.index, dep.enclave
    enclave.load_tree(index)
    perm = prp_permutation(sk.tree_key, index.node_count)
    pm = lambda nid: int(perm[nid])
    layout = PageLayout(record_size=node_plain_size(index.branching))

    passes = 0
    for construction in (1, 2):
        for _ in range(100):
            a, b = sorted((rng.randint(KEY_MIN, KEY_MAX), rng.randint(KEY_MIN, KEY_MAX)))
            token = make_token(sk.tree_key, a, b)
            trace = AccessTrace()
            if construction == 1:
                search_resident(index, enclave, token, trace=trace)
                leak = leak_hw_pages(tree, a, b, layout, position_map=pm)
            else:
                search_streamed(index, enclave, token, trace=trace)
                leak = leak_hw_nodes(tree, a, b, position_map=pm)
            verdict = audit_query(trace, *leak)
            assert verdict.passed, f"C{construction} [{a},{b}]: {verdict.detail}"
            passes += 1

    # Injecting one fetch outside the declared leakage must flip the verdict.
    a, b = sorted(rng.sample(sorted(keys), 2))
    token = make_token(sk.tree_key, a, b)
    trace = AccessTrace()
    search_streamed(index, enclave, token, trace=trace)
    access, pattern = leak_hw_nodes(tree, a, b, position_map=pm)
    outsider = next(s for s in range(index.node_count) if s not in access.vertices)
    trace.node_fetches([outsider])
    assert not audit_query(trace, access, pattern).passed
    _report(7, f"{passes} honest queries reconstructible from leakage; injected fetch FAILs")


# -- 8. obliviousness counters ---------------------------------------------------------


def test_criterion_8_touch_counts_exact_over_sweep():
    # The enclave counts the slots its scan examines; each case reads that
    # count around a one-node batch, whatever the node and the range.
    rng = random.Random(808)
    keys = rng.sample(range(1, KEY_MAX), 600)
    pairs = [(k, b"v") for k in keys]
    dep = Deployment.build(pairs, 8, rng=rng)
    index, enclave = dep.index, dep.enclave

    cases = 0
    counter = enclave.touch_counter
    while cases < 1000:
        at = rng.randrange(index.node_count)
        a, b = sorted((rng.randrange(0, 2**32), rng.randrange(0, 2**32)))
        before = (counter.key_slots, counter.pointer_slots)
        enclave.search_batch(make_token(dep.sk.tree_key, a, b), [at])
        key_touches = counter.key_slots - before[0]
        ptr_touches = counter.pointer_slots - before[1]
        assert key_touches == index.branching - 1, (key_touches, cases)
        assert ptr_touches == index.branching, (ptr_touches, cases)
        cases += 1
    _report(8, f"{cases} (node, range) cases: exactly b-1=7 key and b=8 pointer touches each")


# -- 9. primitive property sweeps ---------------------------------------------------


def test_criterion_9_primitive_sweeps():
    # PRP bijectivity, exhaustive over every domain size up to 4096.
    key = generate_key()
    pairs = [(k, b"v%03d" % k) for k in range(1, 401)]
    sk = SecretKey.generate()
    index = encrypt_index(sk, build_tree(pairs, 10, rng=random.Random(9)), [v for _, v in pairs])
    for n in range(1, 4097):
        perm = prp_permutation(key, n)
        counts = np.bincount(perm.astype(np.int64), minlength=n)
        assert counts.shape[0] == n and (counts == 1).all(), f"not a bijection at n={n}"

    # AEAD: 10^4 random single-bit flips of a token wire, and 10^4 of a node
    # record opened at its slot under its record key, zero acceptances.
    aead_key = generate_key()
    rng = random.Random(909)
    wire = encrypt_wire(aead_key, bytes(range(64)))
    accepted = 0
    for _ in range(10_000):
        flipped = bytearray(wire)
        flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
        try:
            decrypt_wire(aead_key, bytes(flipped))
            accepted += 1
        except AuthenticationError:
            pass
    assert accepted == 0
    slot = index.root_slot
    record_key = index.record_key(sk.tree_key)
    record = index.node_rows[slot : slot + 1]
    assert open_wires(record_key, record, index.salt, [slot])
    for _ in range(10_000):
        flipped = record.copy()
        flipped[0, rng.randrange(flipped.shape[1])] ^= 1 << rng.randrange(8)
        try:
            open_wires(record_key, flipped, index.salt, [slot])
            accepted += 1
        except AuthenticationError:
            pass
    assert accepted == 0

    # Multiset hash: fold invariant under 100 random shuffles of a multiset
    # with genuine repetitions.
    mset_key = generate_key()
    elements = [bytes([rng.randrange(7)]) * 16 for _ in range(50)]
    reference = MultisetHash.empty(mset_key).add_all(b"".join(elements))
    for _ in range(100):
        rng.shuffle(elements)
        again = MultisetHash.empty(mset_key).add_all(b"".join(elements))
        assert again == reference

    _report(
        9,
        "PRP bijective on all domains 1..4096; 10^4 token and 10^4 node-record "
        "AEAD bit-flips rejected; "
        "100 multiset shuffles invariant",
    )
