"""Deployment factory: build and attach stand up the same working system, and
the client path demands a result tag whenever its own record says integrity."""

import dataclasses
import random
from collections import Counter

import numpy as np
import pytest

from hsbt import crypto
from hsbt.bptree import KEY_MAX, scan_oracle
from hsbt.cli import pad_values, unpad
from hsbt.codec import SealedValues, decrypt_results, make_token, verify_result_mac
from hsbt.crypto import AuthenticationError
from hsbt.deploy import Deployment
from hsbt.enclave import EnclaveAbort, EnclaveSim
from hsbt.server import search_streamed


def _pairs(n=300, seed=0):
    rng = random.Random(seed)
    return [(k, b"v%05d" % i) for i, k in enumerate(rng.sample(range(1, KEY_MAX), n))], rng


def test_build_and_attach_answer_both_constructions():
    pairs, rng = _pairs()
    built = Deployment.build(pairs, 5, integrity=True, rng=rng)
    enclave = EnclaveSim(reserved_space=1)
    attached = Deployment.attach(
        built.index, built.sk, built.tree.root_id, integrity=True, enclave=enclave
    )
    assert attached.enclave.max_batch_nodes(built.index.node_record_size) == 1
    keys = sorted(k for k, _ in pairs)
    for dep in (built, attached):
        for construction in (1, 2):
            values, stats = dep.query(keys[20], keys[90], construction)
            assert Counter(values) == Counter(scan_oracle(pairs, keys[20], keys[90]))
            assert stats.construction == construction


def test_query_rejects_an_unknown_construction():
    pairs, rng = _pairs()
    dep = Deployment.build(pairs, 5, integrity=True, rng=rng)
    for construction in (0, 3, 7):
        with pytest.raises(ValueError, match="^construction must be 1 or 2$"):
            dep.query(1, KEY_MAX, construction=construction)
    assert len(dep.enclave._sessions) == 0 and not dep.enclave.tree_loaded


def test_query_stats_carry_the_range_size():
    # Open sides count from KEY_NEG_INFINITY (0) or to KEY_INFINITY (2^32 - 1).
    pairs, rng = _pairs()
    dep = Deployment.build(pairs, 5, rng=rng)
    for construction in (1, 2):
        sizes = [
            dep.query(r_start, r_end, construction)[1].range_size
            for r_start, r_end in [(1000, 200000), (None, 9), (KEY_MAX, None), (None, None)]
        ]
        assert sizes == [199001, 10, 2, 2**32]


def test_client_requires_tag_when_header_flag_is_cleared():
    pairs, rng = _pairs(seed=1)
    dep = Deployment.build(pairs, 5, integrity=True, rng=rng)
    # The host clears the header flag.  Every record is bound to the header,
    # so neither construction gets past the first record it opens.
    downgraded = dataclasses.replace(dep.index, integrity=False)
    hosted = Deployment.attach(downgraded, dep.sk, dep.tree.root_id, integrity=True)
    for construction in (1, 2):
        with pytest.raises(EnclaveAbort, match="failed authentication"):
            hosted.query(None, None, construction=construction)
    # A driver that drops the tag still meets the client's own record.
    blobs, mac, _ = search_streamed(dep.index, dep.enclave, make_token(dep.sk.tree_key, None, None))
    assert mac is not None
    with pytest.raises(AuthenticationError, match="no result tag"):
        dep.receive(blobs, None)
    assert Counter(dep.receive(blobs, mac)) == Counter(v for _, v in pairs)


def test_wrong_tag_rejected():
    pairs, rng = _pairs(seed=2)
    dep = Deployment.build(pairs, 5, integrity=True, rng=rng)
    real = dep.enclave.finalize_session
    dep.enclave.finalize_session = lambda token: bytes(len(real(token)))
    with pytest.raises(AuthenticationError):
        dep.query(None, None)


@pytest.mark.parametrize("construction", [1, 2])
def test_values_of_several_lengths_answer_large_results(monkeypatch, construction):
    # A container holds values of one length.  Values of several lengths go
    # in padded to one width, as `hsbt build` pads them: a large result then
    # takes the bulk open, the C2 tag verifies, and the values unpad exactly.
    rng = random.Random(5)
    keys = rng.sample(range(1, KEY_MAX), 400)
    pairs = [(k, b"x" * (i % 23) + b"%d" % i) for i, k in enumerate(keys)]
    with pytest.raises(ValueError, match="one length"):
        Deployment.build(pairs, 5, integrity=True, rng=random.Random(6))
    dep = Deployment.build(pad_values(pairs), 5, integrity=True, rng=rng)
    bulk = []
    real = crypto._open_pass

    def spy(state, rows, salt, slots):
        # Node records at b=5 (39-byte bodies) take the array pass too.
        if rows.shape[1] == dep.index.value_width:
            bulk.append(len(rows))
        return real(state, rows, salt, slots)

    monkeypatch.setattr(crypto, "_open_pass", spy)
    keys.sort()
    sizes = 0
    for lo, hi in [(keys[10], keys[10 + 3 * crypto._BULK_MIN_WIRES]), (None, None)]:
        values, stats = dep.query(lo, hi, construction)
        assert stats.result_size >= crypto._BULK_MIN_WIRES
        assert Counter(map(unpad, values)) == Counter(scan_oracle(pairs, lo or 0, hi or KEY_MAX))
        sizes += stats.result_size
    assert sum(bulk) == sizes
    if construction == 2:
        token = make_token(dep.sk.tree_key, None, None)
        blobs, mac, _ = search_streamed(dep.index, dep.enclave, token)
        assert verify_result_mac(dep.sk.tree_key, decrypt_results(dep.sk.value_key, blobs), mac)


@pytest.mark.parametrize("construction", [1, 2])
def test_a_bulk_opened_result_fails_closed_on_one_bad_blob(construction):
    pairs, rng = _pairs(n=600, seed=3)
    dep = Deployment.build(pairs, 5, integrity=True, rng=rng)
    keys = sorted(k for k, _ in pairs)
    lo, hi = keys[100], keys[100 + crypto._BULK_MIN_WIRES]
    values, _ = dep.query(lo, hi, construction)
    assert len(values) > crypto._BULK_MIN_WIRES
    assert Counter(values) == Counter(scan_oracle(pairs, lo, hi))

    def position(key):
        return dep.tree.value_positions[next(i for i, (k, _) in enumerate(pairs) if k == key)]

    def hosting(blob):
        # Every blob has one width, so the swap keeps every row in place.
        region = bytearray(dep.index.value_region)
        start = position(keys[150]) * dep.index.value_width
        region[start : start + len(blob)] = blob
        hosted = dataclasses.replace(dep.index, value_region=bytes(region))
        assert hosted.value_rows.shape == dep.index.value_rows.shape
        return dataclasses.replace(dep, index=hosted)

    genuine = bytes(dep.index.value_rows[position(keys[150])])
    flipped = genuine[:20] + bytes([genuine[20] ^ 1]) + genuine[21:]
    other = Deployment.build(pairs, 5, integrity=True, rng=random.Random(4))
    foreign = bytes(other.index.value_rows[0])  # sealed under another value key
    # A genuine blob from outside the range, moved into the slot: its nonce
    # names its own slot, so it no longer opens, on either construction.
    outsider = bytes(dep.index.value_rows[position(keys[0])])
    for blob in (flipped, foreign, outsider):
        with pytest.raises(AuthenticationError, match="ciphertext rejected"):
            hosting(blob).query(lo, hi, construction)


def test_rows_of_another_container_under_the_same_key_are_rejected():
    # Two containers built under one SecretKey draw their own salts.  A host
    # that answers a query on A with B's rows at A's matched slots must send
    # them under B's salt, where they open, and the result tag then folds
    # the wrong salt; under A's salt they do not open at all.
    pairs, rng = _pairs(n=400, seed=6)
    a = Deployment.build(pairs, 5, integrity=True, rng=rng)
    b = Deployment.build(pairs, 5, integrity=True, sk=a.sk, rng=random.Random(7))
    assert a.index.salt != b.index.salt
    keys = sorted(k for k, _ in pairs)
    token = make_token(a.sk.tree_key, keys[50], keys[90])
    blobs, mac, _ = search_streamed(a.index, a.enclave, token)
    assert Counter(a.receive(blobs, mac)) == Counter(scan_oracle(pairs, keys[50], keys[90]))
    rows = b.index.value_rows[blobs.slots]
    assert len(rows) == 41 and not np.array_equal(rows, blobs.rows)
    under_b = SealedValues(rows, blobs.slots, b.index.salt)
    assert len(decrypt_results(a.sk.value_key, under_b)) == 41  # they open
    with pytest.raises(AuthenticationError, match="result tag verification failed"):
        a.receive(under_b, mac)
    with pytest.raises(AuthenticationError, match="ciphertext rejected"):
        a.receive(SealedValues(rows, blobs.slots, a.index.salt), mac)
