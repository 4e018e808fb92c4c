"""Untrusted-driver contracts: crossing accounting, end-to-end correctness,
fail-closed error handling, and absence of plaintext on the untrusted side."""

import dataclasses
import random
from collections import Counter

import numpy as np
import pytest

from hsbt.bptree import KEY_MAX, scan_oracle
from hsbt.codec import SealedValues, decrypt_results, make_token, verify_result_mac
from hsbt.crypto import _BULK_MIN_WIRES as CUT
from hsbt.deploy import Deployment
from hsbt.enclave import EnclaveAbort, EnclaveSim
from hsbt.leakage import AccessTrace
from hsbt.server import CSV_HEADER, QueryStats, fetch_values, search_resident, search_streamed


def _fixture(n=400, b=5, seed=0, integrity=False, reserved_space=64 * 1024):
    rng = random.Random(seed)
    keys = rng.sample(range(1, KEY_MAX), n)
    pairs = [(k, b"val%06d" % i) for i, k in enumerate(keys)]
    dep = Deployment.build(
        pairs, b, integrity=integrity, rng=rng, enclave=EnclaveSim(reserved_space=reserved_space)
    )
    return pairs, dep.tree, dep.sk, dep.index, dep.enclave


@pytest.mark.parametrize("k", [0, 1, CUT - 1, CUT, 300])
def test_fetch_values_gathers_rows_in_pointer_order(k):
    # One form at every size: a new (k, width) uint8 matrix, one blob per
    # row, in pointer order, from any integer sequence of pointers, with the
    # pointers as its slots and the container's salt.
    pairs, tree, sk, index, _ = _fixture(300)
    width = index.value_width
    rng = random.Random(k)
    order = [rng.randrange(300) for _ in range(k)]
    backwards = range(299, 299 - k, -1)
    for pointers in (order, tuple(order), np.array(order, np.uint32), backwards):
        got = fetch_values(index, pointers)
        assert isinstance(got, SealedValues) and got.rows.shape == (k, width)
        assert got.rows.dtype == np.uint8 and got.rows.flags.c_contiguous
        assert [bytes(row) for row in got.rows] == [bytes(index.value_rows[p]) for p in pointers]
        assert got.slots.tolist() == list(pointers) and got.salt == index.salt
    # The rows open, in order, to the values behind the pointers.
    value_at = {p: v for (_, v), p in zip(pairs, tree.value_positions)}
    opened = decrypt_results(sk.value_key, fetch_values(index, order))
    assert opened == [value_at[p] for p in order]
    if k:
        # A fresh matrix every time: the caller may edit it.
        got.rows[0, 0] ^= 1
        assert bytes(fetch_values(index, backwards).rows[0]) == bytes(index.value_rows[299])


def test_fetch_values_names_the_first_bad_pointer():
    pairs, tree, sk, index, _ = _fixture(20)
    with pytest.raises(ValueError, match=r"value pointer 25 outside \[0, 20\)"):
        fetch_values(index, [3, 25, -1, 40])
    with pytest.raises(ValueError, match=r"value pointer -1 outside"):
        fetch_values(index, [0, -1, 30])
    with pytest.raises(ValueError, match=r"value pointer 20 outside"):
        fetch_values(index, range(15, 25))
    with pytest.raises(ValueError, match=r"value pointer -2 outside"):
        fetch_values(index, range(-2, 5))
    with pytest.raises(ValueError, match=r"value pointer 20 outside"):
        fetch_values(index, np.array([20], np.uint32))
    assert fetch_values(index, range(5, 5)).rows.shape == (0, index.value_width)
    # In a result of any size, a negative or too-large pointer is named,
    # never wrapped around.
    big = _fixture(300)[3]
    order = [random.Random(2).randrange(300) for _ in range(CUT)]
    for bad in (-1, -300, 300):
        for at in (0, 10, CUT):
            with pytest.raises(ValueError, match=rf"value pointer {bad} outside \[0, 300\)"):
                fetch_values(big, order[:at] + [bad] + order[at:])
        with pytest.raises(ValueError, match=rf"value pointer {bad} outside \[0, 300\)"):
            fetch_values(big, [bad])


def test_resident_driver_crossings_and_results():
    pairs, tree, sk, index, enclave = _fixture(300, seed=1)
    enclave.load_tree(index)
    keys = sorted(k for k, _ in pairs)
    blobs, stats = search_resident(index, enclave, make_token(sk.tree_key, keys[3], keys[50]))
    assert stats.crossings == 2 and stats.nodes_transferred == 0
    values = decrypt_results(sk.value_key, blobs)
    assert Counter(values) == Counter(scan_oracle(pairs, keys[3], keys[50]))

    blobs, stats = search_resident(
        index, enclave, make_token(sk.tree_key, keys[-1] + 1, None)
    )
    assert blobs.rows.shape == (0, index.value_width)
    assert stats.crossings == 2 and stats.result_size == 0


def test_streamed_driver_matches_oracle_and_mac_verifies():
    pairs, tree, sk, index, enclave = _fixture(500, b=6, seed=2, integrity=True)
    rng = random.Random(3)
    for _ in range(25):
        a, b_ = sorted((rng.randrange(1, KEY_MAX), rng.randrange(1, KEY_MAX)))
        blobs, mac, stats = search_streamed(index, enclave, make_token(sk.tree_key, a, b_))
        values = decrypt_results(sk.value_key, blobs)
        assert Counter(values) == Counter(scan_oracle(pairs, a, b_))
        assert verify_result_mac(sk.tree_key, values, mac)


def test_single_node_tree_takes_one_batch_call():
    dep = Deployment.build([(5, b"v")], 4, rng=random.Random(0))
    sk, index, enclave = dep.sk, dep.index, dep.enclave
    blobs, mac, stats = search_streamed(index, enclave, make_token(sk.tree_key, None, None))
    assert stats.crossings == 1 and stats.nodes_transferred == 1
    assert mac is None
    assert decrypt_results(sk.value_key, blobs) == [b"v"]


def test_batch_ceiling_one_gives_crossings_touched_plus_finalize():
    pairs, tree, sk, index, enclave = _fixture(300, b=5, seed=4, integrity=True, reserved_space=1)
    assert enclave.max_batch_nodes(index.node_record_size) == 1
    trace = AccessTrace()
    token = make_token(sk.tree_key, None, None)
    blobs, mac, stats = search_streamed(index, enclave, token, trace=trace)
    touched = len(trace.touched("node"))
    assert stats.nodes_transferred == touched == index.node_count
    assert stats.crossings == touched + 1  # one node per call, plus finalize
    assert verify_result_mac(sk.tree_key, decrypt_results(sk.value_key, blobs), mac)


def test_streamed_integrity_query_byte_accounting():
    # Every batch carries the token and its records in, and 4 bytes per
    # pointer out (a uint32 each); the finalize crossing carries the token in and the 32-byte
    # tag out.
    pairs, tree, sk, index, enclave = _fixture(400, b=5, seed=8, integrity=True, reserved_space=2048)
    keys = sorted(k for k, _ in pairs)
    token = make_token(sk.tree_key, keys[30], keys[150])
    batches = []
    search_batch = enclave.search_batch

    def counted(token, positions, trace=None):
        values, nodes = search_batch(token, positions, trace=trace)
        batches.append((len(positions), len(values) + len(nodes)))
        return values, nodes

    enclave.search_batch = counted
    blobs, mac, stats = search_streamed(index, enclave, token)
    assert len(batches) > 1 and stats.crossings == len(batches) + 1
    nodes = sum(n for n, _ in batches)
    pointers = sum(p for _, p in batches)
    assert stats.nodes_transferred == nodes and pointers > stats.result_size == 121
    assert stats.bytes_in == (len(batches) + 1) * 36 + nodes * index.node_record_size
    assert stats.bytes_out == 4 * pointers + 32 == 4 * pointers + len(mac)


def test_crossings_match_trace_accounting():
    pairs, tree, sk, index, enclave = _fixture(400, b=5, seed=5, integrity=True)
    keys = sorted(k for k, _ in pairs)
    rng = random.Random(6)
    max_batch = enclave.max_batch_nodes(index.node_record_size)
    for _ in range(10):
        i = rng.randrange(0, len(keys) - 40)
        trace = AccessTrace()
        _, _, stats = search_streamed(
            index, enclave, make_token(sk.tree_key, keys[i], keys[i + 40]), trace=trace
        )
        assert stats.nodes_transferred == len(trace.touched("node"))
        # Batches recorded as enclave calls: seeds list has one entry per call.
        assert stats.crossings == len(trace.order_seeds) + 1


def test_fail_closed_on_tampered_container():
    pairs, tree, sk, index, enclave = _fixture(200, seed=7, integrity=True)
    region = bytearray(index.node_region)
    region[len(region) // 3] ^= 0x10
    broken = dataclasses.replace(index, node_region=bytes(region))
    enclave.attach_container(broken)
    with pytest.raises(EnclaveAbort):
        search_streamed(broken, enclave, make_token(sk.tree_key, None, None))


def test_no_plaintext_sentinels_on_untrusted_surfaces():
    sentinel_value = b"PLAINTEXT-SENTINEL-VALUE-0042"
    sentinel_key = 0x0BADF00D
    values = [sentinel_value] + [b"filler%023d" % i for i in range(1, 64)]
    rng = random.Random(8)
    keys = [sentinel_key] + rng.sample(range(1, KEY_MAX), 63)
    pairs = [(k, values[i]) for i, k in enumerate(keys)]
    dep = Deployment.build(pairs, 5, rng=rng)
    sk, index, enclave = dep.sk, dep.index, dep.enclave
    token = make_token(sk.tree_key, sentinel_key, sentinel_key)
    blobs, mac, stats = search_streamed(index, enclave, token)

    # Every byte surface the untrusted side handles: container regions, the
    # token wire, and the returned blobs.
    key_bytes_le = sentinel_key.to_bytes(4, "little")
    surfaces = [index.node_region, index.value_region, token, *blobs.rows]
    for surface in surfaces:
        assert sentinel_value not in surface
    assert key_bytes_le not in index.node_region
    assert key_bytes_le not in token
    # And yet the client can still recover the value.
    assert decrypt_results(sk.value_key, blobs) == [sentinel_value]


def test_concurrent_queries_stay_independent():
    # Read-only query paths may run in parallel; each owns its own session.
    import threading

    pairs, tree, sk, index, enclave = _fixture(400, b=5, seed=9, integrity=True)
    keys = sorted(k for k, _ in pairs)
    failures = []

    def worker(offset):
        rng = random.Random(offset)
        try:
            for _ in range(10):
                i = rng.randrange(0, len(keys) - 30)
                token = make_token(sk.tree_key, keys[i], keys[i + 30])
                blobs, mac, _ = search_streamed(index, enclave, token)
                values = decrypt_results(sk.value_key, blobs)
                assert Counter(values) == Counter(scan_oracle(pairs, keys[i], keys[i + 30]))
                assert verify_result_mac(sk.tree_key, values, mac)
        except Exception as exc:  # pragma: no cover - surfaced via failures
            failures.append(exc)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not failures


def test_csv_row_schema():
    stats = QueryStats(2, 10, 1000, 5, 3, 4, 7, 800, 40, 123.456)
    row = stats.csv_row()
    assert CSV_HEADER.count(",") == row.count(",")
    assert row == "2,10,1000,5,3,4,7,800,40,123.5"


class _ListFed:
    """The enclave as a driver that sends every batch as an int list sees
    it; every other attribute is the enclave's."""

    def __init__(self, enclave: EnclaveSim):
        self._enclave = enclave

    def __getattr__(self, name):
        return getattr(self._enclave, name)

    def search_batch(self, token, positions, trace=None):
        return self._enclave.search_batch(token, positions.tolist(), trace=trace)


@pytest.mark.parametrize("integrity", [False, True], ids=["plain", "integrity"])
@pytest.mark.parametrize("b", [5, 10, 32, 100])
def test_list_fed_and_array_fed_batches_answer_alike(b, integrity):
    # Under one fixed order-seed stream, a query whose batches reach the
    # enclave as int lists gives what the driver's `int64` array batches
    # give: the same value and node pointers, in the same order, batch by
    # batch, the same stats but the CPU time, and the same result tag.
    pairs, tree, sk, index, _ = _fixture(3000, b=b, seed=60, integrity=integrity)
    keys = sorted(k for k, _ in pairs)
    rng = random.Random(61)
    tokens = []
    for _ in range(60):
        lo = rng.randrange(len(keys))
        hi = min(len(keys) - 1, lo + rng.choice([0, 3, 40, 600, 3000]))
        tokens.append(make_token(sk.tree_key, keys[lo], keys[hi]))

    def run(wrap):
        seeds = random.Random(62)
        enclave = EnclaveSim(order_seed_source=lambda: seeds.getrandbits(64))
        Deployment.attach(index, sk, tree.root_id, integrity=integrity, enclave=enclave)
        answers = []
        for token in tokens:
            trace = AccessTrace()
            blobs, mac, stats = search_streamed(index, wrap(enclave), token, trace=trace)
            answers.append(
                (blobs.slots.tolist(), mac, dataclasses.replace(stats, micros=0), trace.events)
            )
        return answers

    arrayed = run(lambda enclave: enclave)
    assert run(_ListFed) == arrayed
    # Some query takes several batches, some returns many values.
    assert any(stats.crossings - integrity > 1 for _, _, stats, _ in arrayed)
    assert any(len(slots) > 64 for slots, _, _, _ in arrayed)
    assert all((mac is not None) == integrity for _, mac, _, _ in arrayed)
