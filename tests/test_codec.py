"""Container format contracts: slot permutation, fixed record shape,
roundtrips, token behaviour, client result handling."""

import dataclasses
import hashlib
import random
import struct
from collections import Counter

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from hsbt import crypto
from hsbt.bptree import (
    DUMMY_POINTER,
    KEY_INFINITY,
    KEY_MAX,
    KEY_MIN,
    MIN_BRANCHING,
    build_tree,
    scan_oracle,
)
from hsbt.codec import (
    _HEADER,
    FLAG_LEAF,
    EncryptedIndex,
    decrypt_results,
    deserialize_node,
    encrypt_index,
    leaf_mask,
    make_token,
    node_dtype,
    node_plain_size,
    unpack_range,
    verify_result_mac,
)
from hsbt.crypto import (
    NONCE_BYTES,
    TAG_BYTES,
    AuthenticationError,
    MultisetHash,
    SecretKey,
    decrypt_wire,
    encrypt_wires,
    prp_apply,
    prp_permutation,
    result_mac,
)
from hsbt.deploy import Deployment


def _rows(wires) -> np.ndarray:
    """Wires of one length as a matrix, one per row, as the server gathers
    a result."""
    return np.frombuffer(b"".join(wires), np.uint8).reshape(len(wires), -1)


def _dataset(n, b, seed, integrity=False):
    rng = random.Random(seed)
    keys = rng.sample(range(1, KEY_MAX), n)
    pairs = [(k, b"value-%08d" % i) for i, k in enumerate(keys)]
    tree = build_tree(pairs, b, rng=rng)
    sk = SecretKey.generate()
    index = encrypt_index(sk, tree, [v for _, v in pairs], integrity=integrity)
    return pairs, tree, sk, index


def _plain_rows(tree):
    """Each node of a built tree as Python values: (id, leaf, key count,
    keys, pointers)."""
    return zip(
        range(tree.node_count),
        tree.leaf.tolist(),
        tree.key_count.tolist(),
        tree.keys.tolist(),
        tree.ptrs.tolist(),
    )


def _decrypt_all_nodes(index, sk):
    """Every node as one record array, indexed by storage slot."""
    plains = [
        decrypt_wire(sk.tree_key, index.node_record(slot), index.record_aad(slot))
        for slot in range(index.node_count)
    ]
    return deserialize_node(plains, index.branching, index.integrity)


def test_single_node_tree_container_shape():
    pairs, tree, sk, index = _dataset(3, 5, 0)
    assert index.node_count == 1
    assert index.n_values == 3
    width = len(b"value-00000000") + NONCE_BYTES + TAG_BYTES
    assert index.value_width == width and len(index.value_region) == 3 * width
    assert index.value_rows.shape == (3, width)


def test_slots_occupied_by_prp_permutation():
    # A record names no node: the slot it opens at does.
    pairs, tree, sk, index = _dataset(40, 4, 1)
    nodes = _decrypt_all_nodes(index, sk)
    slot_of = prp_permutation(sk.tree_key, index.node_count)
    assert sorted(slot_of.tolist()) == list(range(index.node_count))
    for node_id, _, key_count, keys, _ in _plain_rows(tree):
        slot = slot_of[node_id]
        assert slot == prp_apply(sk.tree_key, index.node_count, node_id)
        assert nodes["key_count"][slot] == key_count
        assert nodes["keys"][slot].tolist() == keys


def test_two_encryptions_differ_bytewise():
    rng = random.Random(2)
    keys = rng.sample(range(1, KEY_MAX), 30)
    pairs = [(k, b"v%06d" % i) for i, k in enumerate(keys)]
    tree = build_tree(pairs, 4, rng=random.Random(0))
    sk = SecretKey.generate()
    a = encrypt_index(sk, tree, [v for _, v in pairs])
    b = encrypt_index(sk, tree, [v for _, v in pairs])
    assert a.node_region != b.node_region


def test_node_records_share_one_size_across_kinds():
    pairs, tree, sk, index = _dataset(200, 6, 3, integrity=True)
    plain = node_plain_size(6, True)
    assert set(tree.leaf.tolist()) == {True, False}
    assert index.node_record_size == plain + NONCE_BYTES + TAG_BYTES
    # The record size follows from the fields, so a rewritten header carries its own.
    cleared = dataclasses.replace(index, integrity=False)
    assert cleared.node_record_size == node_plain_size(6, False) + NONCE_BYTES + TAG_BYTES
    sizes = {
        len(decrypt_wire(sk.tree_key, index.node_record(slot), index.record_aad(slot)))
        for slot in range(index.node_count)
    }
    assert sizes == {plain}
    assert node_plain_size(6, True) - node_plain_size(6, False) == 16 * 5
    # The record layout of the module docstring, for b from 3 to 299.
    for b in range(MIN_BRANCHING, 300):
        fixed = 1 + 2 + 4 * (b - 1) + 4 * b
        assert node_plain_size(b, False) == fixed
        assert node_plain_size(b, True) == fixed + 16 * (b - 1)


def test_decrypted_tree_preserves_logical_structure():
    pairs, tree, sk, index = _dataset(300, 5, 4, integrity=True)
    nodes = _decrypt_all_nodes(index, sk)
    leaves = leaf_mask(nodes)
    slot_of = prp_permutation(sk.tree_key, index.node_count)
    for node_id, is_leaf, key_count, keys, plain_pointers in _plain_rows(tree):
        got = nodes[slot_of[node_id]]
        assert leaves[slot_of[node_id]] == is_leaf
        assert got["key_count"] == key_count
        assert got["keys"].tolist() == keys
        pointers = got["ptrs"].tolist()
        if is_leaf:
            assert pointers[1 : key_count + 1] == plain_pointers[1 : key_count + 1]
            for j in range(1, key_count + 1):
                tag = index.value_blob(pointers[j])[-TAG_BYTES:]
                assert got["value_tags"][j - 1].tobytes() == tag
        else:
            # Inner pointers were rewritten from child ids to storage slots,
            # and the integrity region is zero, kept only for the shape.
            for i in range(key_count + 1):
                assert pointers[i] == slot_of[plain_pointers[i]]
            assert not got["value_tags"].any()


@st.composite
def _builds(draw):
    """Pairs for one build: b from 3 to 12, distinct keys each repeated up
    to b-1 times, in a drawn order, plus the seed of the value shuffle."""
    branching = draw(st.integers(MIN_BRANCHING, 12))
    runs = draw(
        st.lists(
            st.tuples(st.integers(KEY_MIN, KEY_MAX), st.integers(1, branching - 1)),
            min_size=1,
            max_size=40,
            unique_by=lambda run: run[0],
        )
    )
    keys = draw(st.permutations([key for key, count in runs for _ in range(count)]))
    pairs = [(key, b"v%06d" % i) for i, key in enumerate(keys)]
    return branching, pairs, draw(st.integers(0, 2**32))


@settings(max_examples=80, deadline=None)
@given(_builds(), st.booleans())
def test_encoder_round_trip_matches_plain_tree(build, integrity):
    branching, pairs, seed = build
    tree = build_tree(pairs, branching, rng=random.Random(seed))
    sk = SecretKey(bytes(range(16)), bytes(range(16, 32)))
    index = encrypt_index(sk, tree, [v for _, v in pairs], integrity=integrity)
    records = _decrypt_all_nodes(index, sk)
    slot_of = prp_permutation(sk.tree_key, index.node_count)
    for node_id, is_leaf, key_count, keys, pointers in _plain_rows(tree):
        got = records[slot_of[node_id]]
        live = key_count + 1
        assert got["flags"] == (FLAG_LEAF if is_leaf else 0)
        assert got["key_count"] == key_count
        assert got["keys"].tolist() == keys
        if is_leaf:
            assert got["ptrs"].tolist() == pointers
        else:
            slots = [int(slot_of[child]) for child in pointers[:live]]
            assert got["ptrs"].tolist() == slots + [DUMMY_POINTER] * (branching - live)
        if not integrity:
            continue
        if is_leaf:
            for j in range(1, branching):
                want = index.value_blob(pointers[j])[-TAG_BYTES:] if j < live else bytes(16)
                assert got["value_tags"][j - 1].tobytes() == want
        else:
            assert not got["value_tags"].any()


@pytest.mark.parametrize("count", [1, 7, 300])
def test_leaf_entries_are_the_tags_of_their_value_blobs(count):
    pairs, tree, sk, index = _dataset(count, 5, count, integrity=True)
    nodes = _decrypt_all_nodes(index, sk)
    slots = np.arange(index.branching)
    live = (slots >= 1) & (slots <= nodes["key_count"][:, None]) & leaf_mask(nodes)[:, None]
    rows, cols = np.nonzero(live)
    pointers = nodes["ptrs"][rows, cols].tolist()
    assert sorted(pointers) == list(range(count))  # each blob committed once
    entries = nodes["value_tags"][rows, cols - 1]
    assert [e.tobytes() for e in entries] == [index.value_blob(p)[-TAG_BYTES:] for p in pointers]


# SHA-256 over the header, every node plaintext in slot order and every value
# plaintext in region order, for the build in `_golden_digest`.  A change to
# any byte of the format changes it.  Nonces are random and stay out, and so
# do the leaves' value tags, which depend on them: each is checked against its
# blob's tag and hashed as the blob's position instead.  The node records
# also pin the tree shape that `build_tree`'s bulk load gives, and the value
# region order pins its one numpy permutation.
_GOLDEN_HSBT4 = {
    False: "b7723cf69b4594b797c33c8b0072d07ca647f65d84a6bfd92e1f94daa8dd9f50",
    True: "d274ed412a6b2feed3d7e6996cdbb71f4bd55a6ced804267650d9f75b5a28225",
}


def _golden_digest(integrity):
    rng = random.Random(5)
    pairs = [(rng.randrange(1, 4000), rng.randbytes(24)) for _ in range(2000)]
    tree = build_tree(pairs, 7, rng=random.Random(6))
    sk = SecretKey(bytes(range(16)), bytes(range(16, 32)))
    index = encrypt_index(sk, tree, [v for _, v in pairs], integrity=integrity)
    digest = hashlib.sha256(index.to_bytes()[: _HEADER.size])
    records = _decrypt_all_nodes(index, sk).copy()
    if integrity:
        slots = np.arange(index.branching)
        live = (slots >= 1) & (slots <= records["key_count"][:, None]) & leaf_mask(records)[:, None]
        rows, cols = np.nonzero(live)
        pointers = records["ptrs"][rows, cols]
        tags = [index.value_blob(p)[-TAG_BYTES:] for p in pointers.tolist()]
        assert [t.tobytes() for t in records["value_tags"][rows, cols - 1]] == tags
        stand_in = np.zeros((len(rows), TAG_BYTES), np.uint8)
        stand_in[:, :4] = pointers.astype("<u4").view(np.uint8).reshape(-1, 4)
        records["value_tags"][rows, cols - 1] = stand_in
    digest.update(records.tobytes())
    for blob in index.value_rows:
        digest.update(decrypt_wire(sk.value_key, bytes(blob)))
    return digest.hexdigest()


@pytest.mark.parametrize("integrity", [False, True])
def test_container_bytes_match_the_pinned_format(integrity):
    assert _golden_digest(integrity) == _GOLDEN_HSBT4[integrity]


@pytest.mark.parametrize("version", [1, 2, 3])
def test_older_container_versions_rejected_as_unsupported(version):
    older = _with_header_field(_with_header_field(_VALID, 0, b"HSBT%d" % version), 1, version)
    with pytest.raises(ValueError, match=f"unsupported container version {version}"):
        EncryptedIndex.from_bytes(older)


@pytest.mark.parametrize("length", [0, 64, 65, 80])
def test_values_on_both_sides_of_the_bulk_seal_round_trip_end_to_end(monkeypatch, length):
    # Values of 1 to 64 bytes are sealed in array passes, longer and empty
    # ones one AEAD call each; both must answer queries on both
    # constructions, result tag checked.
    passes = []
    real = crypto._seal_bulk

    def spy(state, plains, wires):
        passes.append(len(plains))
        return real(state, plains, wires)

    monkeypatch.setattr(crypto, "_seal_bulk", spy)
    rng = random.Random(length)
    keys = rng.sample(range(1, KEY_MAX), 300)
    pairs = [(k, rng.randbytes(length)) for k in keys]
    dep = Deployment.build(pairs, 6, integrity=True, rng=rng)
    assert sum(passes) == (300 if 0 < length <= 64 else 0)
    keys.sort()
    want = Counter(scan_oracle(pairs, keys[20], keys[219]))
    for construction in (1, 2):
        values, stats = dep.query(keys[20], keys[219], construction)
        assert stats.result_size == 200 and Counter(values) == want


def test_encrypt_index_rejects_values_of_several_lengths():
    pairs = [(k, b"v%02d" % k) for k in range(1, 13)] + [(13, b"longer")]
    tree = build_tree(pairs, 4, rng=random.Random(0))
    with pytest.raises(ValueError, match=r"one length, got lengths \[3, 6\]"):
        encrypt_index(SecretKey.generate(), tree, [v for _, v in pairs])


def test_encrypt_index_rejects_a_value_count_that_differs_from_the_tree():
    pairs = [(k, b"v%02d" % k) for k in range(1, 13)]
    tree = build_tree(pairs, 4, rng=random.Random(0))
    values = [v for _, v in pairs]
    for wrong in (values[:-1], values + [b"v13"]):
        with pytest.raises(ValueError, match="value count does not match the built tree"):
            encrypt_index(SecretKey.generate(), tree, wrong)


@pytest.mark.parametrize("slot", [-1, "count"])
def test_node_record_outside_the_node_region_raises_index_error(slot):
    pairs, tree, sk, index = _dataset(40, 4, 3)
    slot = index.node_count if slot == "count" else slot
    with pytest.raises(IndexError, match=f"node slot {slot} outside"):
        index.node_record(slot)


def test_batch_decode_matches_record_by_record_decode():
    pairs, tree, sk, index = _dataset(200, 6, 11, integrity=True)
    plains = [
        decrypt_wire(sk.tree_key, index.node_record(slot), index.record_aad(slot))
        for slot in range(index.node_count)
    ]
    batch = deserialize_node(plains, index.branching, True)
    assert batch.dtype == node_dtype(index.branching, True)
    for slot, plain in enumerate(plains):
        alone = deserialize_node([plain], index.branching, True)
        assert batch[slot].tobytes() == alone[0].tobytes()
    assert len(deserialize_node([], index.branching, True)) == 0


def test_relocated_record_rejected_by_slot_binding():
    pairs, tree, sk, index = _dataset(50, 4, 5)
    with pytest.raises(AuthenticationError):
        decrypt_wire(sk.tree_key, index.node_record(0), index.record_aad(1))
    # The header is bound too: a record read under any other header fails.
    for name, value in [("branching", 28), ("integrity", True), ("n_values", 49)]:
        reshaped = dataclasses.replace(index, **{name: value})
        assert reshaped.header != index.header
        with pytest.raises(AuthenticationError):
            decrypt_wire(sk.tree_key, index.node_record(0), reshaped.record_aad(0))


def test_container_file_roundtrip_byte_exact(tmp_path):
    pairs, tree, sk, index = _dataset(120, 5, 6, integrity=True)
    path = tmp_path / "index.hsbt"
    index.save(path)
    again = EncryptedIndex.load(path)
    assert again == index
    assert again.to_bytes() == index.to_bytes()


def test_header_magic_checked():
    with pytest.raises(ValueError):
        EncryptedIndex.from_bytes(b"NOPE!" + bytes(64))


def _small_container() -> bytes:
    pairs = [(k, b"v%02d" % k) for k in range(1, 13)]
    tree = build_tree(pairs, 4, rng=random.Random(0))
    index = encrypt_index(SecretKey.generate(), tree, [v for _, v in pairs], integrity=True)
    return index.to_bytes()


_VALID = _small_container()
# The header and node region of `_VALID`, to put any value region behind.
_NODES = _VALID[: _HEADER.size + len(EncryptedIndex.from_bytes(_VALID).node_region)]
_N, _WIDTH = _HEADER.unpack_from(_VALID, 0)[5:]


def _with_header_field(data: bytes, field: int, value: int) -> bytes:
    fields = list(_HEADER.unpack_from(data, 0))
    fields[field] = value
    return _HEADER.pack(*fields) + data[_HEADER.size :]


@pytest.mark.parametrize(
    "data",
    [
        pytest.param(_VALID[: _HEADER.size - 1], id="short-header"),
        pytest.param(_VALID[:100], id="truncated-node-region"),
        pytest.param(_VALID[:-1], id="truncated-value-blob"),
        pytest.param(_VALID + b"\0", id="trailing-bytes"),
        pytest.param(_with_header_field(_VALID, 3, 2), id="branching-below-minimum"),
        pytest.param(_with_header_field(_VALID, 2, 0), id="integrity-flag-cleared"),
        # The record size follows from b: at b=5 the node region is too short.
        pytest.param(_with_header_field(_VALID, 3, 5), id="record-size-mismatch"),
        pytest.param(_with_header_field(_VALID, 5, 10**6), id="value-count-beyond-data"),
        pytest.param(_with_header_field(_VALID, 5, _N + 1), id="value-count-one-more"),
        pytest.param(_with_header_field(_VALID, 5, _N - 1), id="value-count-one-less"),
        pytest.param(_with_header_field(_VALID, 6, _WIDTH + 1), id="value-width-one-more"),
        pytest.param(_with_header_field(_VALID, 6, _WIDTH - 1), id="value-width-one-less"),
        # 12 bytes a blob fill the region exactly, but hold no nonce and tag.
        pytest.param(
            _with_header_field(_with_header_field(_VALID, 6, 12), 5, _N * _WIDTH // 12),
            id="value-width-below-28",
        ),
    ],
)
def test_malformed_container_raises_value_error(data):
    assert EncryptedIndex.from_bytes(_VALID).to_bytes() == _VALID
    with pytest.raises(ValueError):
        EncryptedIndex.from_bytes(data)


def _mutate_header_byte(at_value):
    at, value = at_value
    data = bytearray(_VALID)
    data[at] = value
    return bytes(data)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=256),
        st.tuples(st.integers(0, len(_VALID)), st.binary(max_size=8)).map(
            lambda cut_tail: _VALID[: cut_tail[0]] + cut_tail[1]
        ),
        st.tuples(st.integers(0, _HEADER.size - 1), st.integers(0, 255)).map(_mutate_header_byte),
    )
)
def test_arbitrary_bytes_parse_exactly_or_raise_value_error(data):
    try:
        index = EncryptedIndex.from_bytes(data)
    except ValueError:
        return
    # Whatever parses is a well-formed container: it re-serializes byte-exact.
    assert index.to_bytes() == data


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(0, 40),
    width=st.integers(0, 60),
    delta=st.sampled_from([0, 0, 0, -1, 1]) | st.integers(-100, 100),
)
def test_value_region_parse_takes_exactly_n_rows_of_one_width(n, width, delta):
    # A header value count and blob width over a value region of about
    # n x width bytes: the parse accepts exactly n x width bytes of blobs
    # that can hold a nonce and a tag, and sees them as n rows.
    tail = max(n * width + delta, 0)
    region = bytes(i % 251 for i in range(tail))
    data = _with_header_field(_with_header_field(_NODES, 5, n), 6, width) + region
    try:
        index = EncryptedIndex.from_bytes(data)
    except ValueError:
        assert tail != n * width or width < NONCE_BYTES + TAG_BYTES
        return
    assert tail == n * width and width >= NONCE_BYTES + TAG_BYTES
    assert index.value_rows.shape == (n, width)
    want = [region[i * width : (i + 1) * width] for i in range(n)]
    assert list(map(bytes, index.value_rows)) == want
    assert [index.value_blob(i) for i in range(n)] == want
    assert index.to_bytes() == data
    # A rewritten header value count leaves the region as it is.
    reshaped = dataclasses.replace(index, n_values=n + 1)
    assert list(map(bytes, reshaped.value_rows)) == want
    with pytest.raises(IndexError, match=rf"value index {n} outside \[0, {n}\)"):
        reshaped.value_blob(n)


def test_value_count_rewrite_keeps_the_region():
    pairs, tree, sk, index = _dataset(80, 5, 13)
    for n in (0, 79, 81, 10**6):
        reshaped = dataclasses.replace(index, n_values=n)
        assert reshaped.header != index.header
        assert reshaped.value_rows.shape == index.value_rows.shape
        assert reshaped.value_region is index.value_region


# -- tokens -------------------------------------------------------------------


def test_token_roundtrip():
    sk = SecretKey.generate()
    tok = make_token(sk.tree_key, 3, 5)
    assert unpack_range(decrypt_wire(sk.tree_key, tok.wire)) == (3, 5)


def test_token_open_range_sentinels():
    sk = SecretKey.generate()
    below = make_token(sk.tree_key, None, 7)
    assert unpack_range(decrypt_wire(sk.tree_key, below.wire)) == (0, 7)
    above = make_token(sk.tree_key, 7, None)
    assert unpack_range(decrypt_wire(sk.tree_key, above.wire)) == (7, KEY_INFINITY)


def test_equal_ranges_give_distinct_tokens():
    sk = SecretKey.generate()
    a, b = make_token(sk.tree_key, 3, 5), make_token(sk.tree_key, 3, 5)
    assert a.wire != b.wire


def test_token_wire_and_wire_size():
    # A token is one wire: nonce(12) || the 8-byte range || tag(16).  A named
    # client adds its id and one separator byte; the driver charges exactly
    # this to `bytes_in` per crossing.
    key = SecretKey.generate().tree_key
    plain = make_token(key, 3, 5)
    assert len(plain.wire) == NONCE_BYTES + 8 + TAG_BYTES == 36
    assert plain.wire_size == 36
    named = make_token(key, 3, 5, client_id="client-7")
    assert len(named.wire) == 36
    assert named.wire_size == len("client-7") + 1 + 36 == 45


def test_token_rejects_inverted_range():
    sk = SecretKey.generate()
    with pytest.raises(ValueError):
        make_token(sk.tree_key, 9, 3)


@pytest.mark.parametrize("r_start,r_end", [(-1, 5), (0, 2**32), (2**32, 2**32 + 1)])
def test_token_rejects_an_endpoint_outside_32_bits(r_start, r_end):
    with pytest.raises(ValueError, match="outside the 32-bit key space"):
        make_token(SecretKey.generate().tree_key, r_start, r_end)


@pytest.mark.parametrize("length", [0, 7, 9, 16])
def test_unpack_range_rejects_a_plaintext_that_is_not_8_bytes(length):
    with pytest.raises(ValueError, match="token plaintext must be 8 bytes"):
        unpack_range(bytes(length))


def test_token_plaintext_is_8_byte_le_pair():
    sk = SecretKey.generate()
    tok = make_token(sk.tree_key, 0x01020304, 0x0A0B0C0D)
    plain = decrypt_wire(sk.tree_key, tok.wire)
    assert plain == struct.pack("<II", 0x01020304, 0x0A0B0C0D)


# -- client-side result handling ----------------------------------------------


def test_decrypt_results_roundtrip_and_order():
    pairs, tree, sk, index = _dataset(100, 5, 7)
    # Blob at value position p holds the value of the pair that mapped to p.
    want = {tree.value_positions[i]: pairs[i][1] for i in range(len(pairs))}
    picks = random.Random(0).sample(range(100), 30)
    got = decrypt_results(sk.value_key, index.value_rows[picks])
    assert got == [want[p] for p in picks]


def test_decrypt_results_aborts_wholesale_on_tamper():
    pairs, tree, sk, index = _dataset(10, 5, 8)
    blobs = index.value_rows[:3].copy()
    blobs[1, -1] ^= 0x80
    with pytest.raises(AuthenticationError):
        decrypt_results(sk.value_key, blobs)


def test_verify_result_mac_roundtrip():
    pairs, tree, sk, index = _dataset(50, 5, 10, integrity=True)
    blobs = [index.value_blob(p) for p in (3, 17, 42)]
    state = MultisetHash.empty(sk.tree_key).add_all(b"".join(b[-TAG_BYTES:] for b in blobs))
    mac = result_mac(sk.tree_key, state)

    def check(chosen):
        return verify_result_mac(sk.tree_key, decrypt_results(sk.value_key, _rows(chosen)), mac)

    assert check(blobs)
    assert check(blobs[::-1])  # order-free
    assert not check(blobs[:-1])
    assert not check(blobs + [index.value_blob(0)])
    assert not check(blobs[:-1] + [index.value_blob(0)])
    # Only plaintexts decrypt_results authenticated can be checked.
    results = decrypt_results(sk.value_key, _rows(blobs))
    for unauthenticated in (list(results), results[:], tuple(results)):
        with pytest.raises(TypeError):
            verify_result_mac(sk.tree_key, unauthenticated, mac)
    with pytest.raises(TypeError):
        results[0] = b"forged"
    with pytest.raises(TypeError):
        results.append(b"forged")
    positions = tree.value_positions.tolist()
    assert results == [pairs[positions.index(p)][1] for p in (3, 17, 42)]


def test_verify_result_mac_folds_the_last_16_bytes_of_blobs_of_mixed_lengths():
    sk = SecretKey.generate()

    def mac_over(chunks):
        return result_mac(sk.tree_key, MultisetHash.empty(sk.tree_key).add_all(b"".join(chunks)))

    # A result's blobs share one width; each width here is its own result.
    for length in (0, 1, 15, 16, 333):
        values = [bytes([i]) * length for i in range(3)]
        blobs = encrypt_wires(sk.value_key, values)
        results = decrypt_results(sk.value_key, _rows(blobs))
        assert results == values
        assert verify_result_mac(sk.tree_key, results, mac_over(b[-TAG_BYTES:] for b in blobs))
        # Any other 16 bytes of each blob (its first 16, or the 16 before its
        # last byte) make a different multiset.
        for other in (
            [b[:TAG_BYTES] for b in blobs],
            [b[-TAG_BYTES - 1 : -1] for b in blobs],
        ):
            assert not verify_result_mac(sk.tree_key, results, mac_over(other))


def test_all_hundred_random_blobs_match_build_input():
    pairs, tree, sk, index = _dataset(100, 6, 9)
    got = decrypt_results(sk.value_key, index.value_rows)
    assert Counter(got) == Counter(v for _, v in pairs)
