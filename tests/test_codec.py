"""Container format contracts: slot permutation, fixed record shape,
roundtrips, token behaviour, client result handling."""

import dataclasses
import hashlib
import random
import struct
from collections import Counter

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

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
    SealedValues,
    decrypt_results,
    deserialize_node,
    encrypt_index,
    leaf_mask,
    make_token,
    node_dtype,
    node_plain_size,
    token_key,
    unpack_range,
    verify_result_mac,
)
from hsbt.crypto import (
    NONCE_BYTES,
    TAG_BYTES,
    VALUE_SALT_BYTES,
    AuthenticationError,
    MultisetHash,
    SecretKey,
    decrypt_wire,
    prp_permutation,
    result_mac,
    value_elements,
)
from hsbt.deploy import Deployment
from hsbt.server import fetch_values


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


def _open_records(index, sk, slots=None):
    """The plaintexts of the node records at `slots`, every slot by
    default, each opened at its slot under the container's record key."""
    slots = range(index.node_count) if slots is None else slots
    rows = index.node_rows[list(slots)]
    return crypto.open_wires(index.record_key(sk.tree_key), rows, index.salt, slots)


def _decrypt_all_nodes(index, sk):
    """Every node as one record array, indexed by storage slot."""
    return deserialize_node(_open_records(index, sk), index.branching)


def test_single_node_tree_container_shape():
    pairs, tree, sk, index = _dataset(3, 5, 0)
    assert index.node_count == 1
    assert index.n_values == 3
    width = len(b"value-00000000") + TAG_BYTES
    assert index.value_width == width and len(index.value_region) == 3 * width
    assert index.value_rows.shape == (3, width)


def test_slots_occupied_by_prp_permutation():
    # A record names no node: the slot it opens at does.  The header names
    # the root's slot, the slot of the last node.
    pairs, tree, sk, index = _dataset(40, 4, 1)
    nodes = _decrypt_all_nodes(index, sk)
    slot_of = prp_permutation(sk.tree_key, index.node_count)
    assert sorted(slot_of.tolist()) == list(range(index.node_count))
    assert tree.root_id == index.node_count - 1
    assert index.root_slot == slot_of[tree.root_id]
    assert EncryptedIndex.from_bytes(index.to_bytes()).root_slot == index.root_slot
    for node_id, _, key_count, keys, _ in _plain_rows(tree):
        slot = slot_of[node_id]
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
    # Each container draws its own value salt, so no value nonce repeats
    # under the key.
    assert a.salt != b.salt and a.value_region != b.value_region


def test_node_records_share_one_size_across_kinds():
    pairs, tree, sk, index = _dataset(200, 6, 3, integrity=True)
    plain = node_plain_size(6)
    assert set(tree.leaf.tolist()) == {True, False}
    assert index.node_record_size == plain + TAG_BYTES
    # One record layout serves both integrity settings, so a header with the
    # flag rewritten implies the same record size.
    cleared = dataclasses.replace(index, integrity=False)
    assert cleared.node_record_size == index.node_record_size
    assert set(map(len, _open_records(index, sk))) == {plain}
    # The record layout of the module docstring, for b from 3 to 299; the
    # flag, still accepted, changes nothing.
    for b in range(MIN_BRANCHING, 300):
        fixed = 1 + 2 + 4 * (b - 1) + 4 * b
        assert node_plain_size(b) == node_plain_size(b, True) == node_plain_size(b, False) == fixed


@pytest.mark.parametrize("branching", [3, 10, 100])
@pytest.mark.parametrize("integrity", [False, True])
def test_container_size_is_header_records_and_value_rows(branching, integrity):
    # A 33-byte header, one body-and-tag row per node and one per value: no
    # nonce and no tag region anywhere.
    pairs, tree, sk, index = _dataset(700, branching, branching, integrity=integrity)
    value = len(pairs[0][1])
    size = 33 + index.node_count * (node_plain_size(branching) + 16) + len(pairs) * (value + 16)
    assert _HEADER.size == 33 and len(index.to_bytes()) == size
    assert index.node_record_size == node_plain_size(branching) + 16
    assert index.node_rows.shape == (index.node_count, index.node_record_size)


def test_every_value_is_sealed_at_its_own_slot_under_one_salt():
    # The nonce of the blob at slot s is salt || s, so no two value nonces
    # of a container are equal, and each blob is the AEAD's own sealing of
    # its value at that nonce.
    pairs, tree, sk, index = _dataset(300, 5, 12)
    n = index.n_values
    elements = value_elements(index.salt, range(n))
    nonces = [elements[16 * s : 16 * s + NONCE_BYTES] for s in range(n)]
    assert len(set(nonces)) == n
    assert all(nonce == index.salt + s.to_bytes(4, "little") for s, nonce in enumerate(nonces))
    value_at = {int(p): v for (_, v), p in zip(pairs, tree.value_positions)}
    aead = AESGCM(sk.value_key)
    assert all(
        bytes(index.value_rows[s]) == aead.encrypt(nonces[s], value_at[s], None) for s in range(n)
    )


@pytest.mark.parametrize("branching", [5, 10])
def test_every_node_record_is_sealed_at_its_slot_under_the_record_key(branching):
    # A record is sealed as a value is, ``body || tag`` at the nonce
    # salt || slot, with no associated data, under the record key: the AEAD's
    # own sealing of its plaintext, whether the records took the array pass
    # (b=5, 3,750 records of 39 bytes) or one call each (b=10, 1,485 of 79).
    pairs, tree, sk, index = _dataset(12_000, branching, 14, integrity=True)
    blocks = -(-node_plain_size(branching) // 16)
    assert (index.node_count >= crypto._SEAL_ROWS_PER_BLOCK * blocks) == (branching == 5)
    aead = AESGCM(index.record_key(sk.tree_key))
    for slot, plain in enumerate(_open_records(index, sk)):
        nonce = index.salt + slot.to_bytes(4, "little")
        assert bytes(index.node_rows[slot]) == aead.encrypt(nonce, plain, None)


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
        else:
            # Inner pointers were rewritten from child ids to storage slots.
            for i in range(key_count + 1):
                assert pointers[i] == slot_of[plain_pointers[i]]


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
    assert records.dtype == node_dtype(branching)  # whatever the integrity flag
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


@pytest.mark.parametrize("count", [1, 7, 300])
def test_leaf_entries_name_the_slots_their_values_open_at(count):
    pairs, tree, sk, index = _dataset(count, 5, count, integrity=True)
    nodes = _decrypt_all_nodes(index, sk)
    slots = np.arange(index.branching)
    live = (slots >= 1) & (slots <= nodes["key_count"][:, None]) & leaf_mask(nodes)[:, None]
    rows, cols = np.nonzero(live)
    pointers = nodes["ptrs"][rows, cols].tolist()
    assert sorted(pointers) == list(range(count))  # each blob named once
    # Each leaf entry's blob opens at the entry's slot, to the value of the
    # pair whose key sits beside it.
    values = dict(pairs)
    keys = nodes["keys"][rows, cols - 1].tolist()
    opened = decrypt_results(sk.value_key, fetch_values(index, pointers))
    assert opened == [values[k] for k in keys]


# SHA-256 over the header without its salt, every node plaintext in slot
# order and every value plaintext in region order, each opened at its slot,
# for the build in `_golden_digest`.  A change to any byte of the format
# changes it.  The value salt is random and stays out, and with it every
# ciphertext byte, since it is in every record's key and nonce.
# The node records also pin the tree shape that `build_tree`'s bulk load
# gives and the node placement, `prp_permutation`, as does the header's root
# slot; the value region order pins the build's one numpy permutation.
_GOLDEN_HSBT7 = {
    False: "991be265800afba7dbce048e4d55490e96db84e09222d1dda91eb28a825f5e04",
    True: "9d3adca5210d8dcd09bf8e0b738973d2794f5a4c5a6ae5a202e9eb60cec9e6ea",
}


def _golden_digest(integrity):
    rng = random.Random(5)
    pairs = [(rng.randrange(1, 4000), rng.randbytes(24)) for _ in range(2000)]
    tree = build_tree(pairs, 7, rng=random.Random(6))
    sk = SecretKey(bytes(range(16)), bytes(range(16, 32)))
    index = encrypt_index(sk, tree, [v for _, v in pairs], integrity=integrity)
    digest = hashlib.sha256(index.to_bytes()[: _HEADER.size - VALUE_SALT_BYTES])
    digest.update(_decrypt_all_nodes(index, sk).tobytes())
    for value in decrypt_results(sk.value_key, fetch_values(index, range(index.n_values))):
        digest.update(value)
    return digest.hexdigest()


@pytest.mark.parametrize("integrity", [False, True])
def test_container_bytes_match_the_pinned_format(integrity):
    assert _golden_digest(integrity) == _GOLDEN_HSBT7[integrity]


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6])
def test_older_container_versions_rejected_as_unsupported(version):
    older = _with_header_field(_with_header_field(_VALID, 0, b"HSBT%d" % version), 1, version)
    with pytest.raises(ValueError, match=f"unsupported container version {version}"):
        EncryptedIndex.from_bytes(older)


@pytest.mark.parametrize("length", [0, 64, 65, 80, 128, 129])
def test_values_on_both_sides_of_the_bulk_seal_round_trip_end_to_end(monkeypatch, length):
    # 8,192 values of 1 to 128 bytes, 1,024 rows a block or more, are sealed
    # in array passes, longer and empty ones one AEAD call each; both must
    # answer queries on both constructions, result tag checked.  The node
    # records, 31 bytes at b=4, take array passes too.
    passes = {}
    real = crypto._seal_pass

    def spy(state, tables, plains, wires, salt, slots):
        passes[plains.shape[1]] = passes.get(plains.shape[1], 0) + len(plains)
        return real(state, tables, plains, wires, salt, slots)

    monkeypatch.setattr(crypto, "_seal_pass", spy)
    rng = random.Random(length)
    n = 8 * crypto._SEAL_ROWS_PER_BLOCK
    keys = rng.sample(range(1, KEY_MAX), n)
    pairs = [(k, rng.randbytes(length)) for k in keys]
    dep = Deployment.build(pairs, 4, integrity=True, rng=rng)
    assert dep.index.node_count >= 2 * crypto._SEAL_ROWS_PER_BLOCK
    assert passes.pop(node_plain_size(4)) == dep.index.node_count
    assert passes == ({length: n} if 0 < length <= 16 * crypto._BULK_MAX_BLOCKS else {})
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


def test_node_rows_hold_the_regions_whole_records():
    # One row per record, in slot order, viewing the region itself.  A
    # header rewritten in memory that does not fit the region still gives a
    # matrix: the region's whole rows at the record size its `b` implies.
    pairs, tree, sk, index = _dataset(40, 4, 3)
    size = index.node_record_size
    assert index.node_rows.shape == (index.node_count, size)
    assert index.node_rows.base is not None and not index.node_rows.flags.writeable
    assert [bytes(row) for row in index.node_rows] == [
        index.node_region[s * size : (s + 1) * size] for s in range(index.node_count)
    ]
    wider = dataclasses.replace(index, branching=5)
    assert wider.node_rows.shape == (len(index.node_region) // (size + 8), size + 8)
    assert dataclasses.replace(index, node_count=3).node_rows.shape == index.node_rows.shape


def test_batch_decode_matches_record_by_record_decode():
    pairs, tree, sk, index = _dataset(200, 6, 11, integrity=True)
    plains = _open_records(index, sk)
    batch = deserialize_node(plains, index.branching)
    assert batch.dtype == node_dtype(index.branching)
    for slot, plain in enumerate(plains):
        alone = deserialize_node([plain], index.branching)
        assert batch[slot].tobytes() == alone[0].tobytes()
    assert len(deserialize_node([], index.branching)) == 0


def test_relocated_record_rejected_by_slot_binding():
    # A record opens only at its own slot: its nonce is the salt, then the
    # slot.
    pairs, tree, sk, index = _dataset(50, 4, 5)
    key, count = index.record_key(sk.tree_key), index.node_count
    for slot in range(count):
        row = index.node_rows[slot : slot + 1]
        assert crypto.open_wires(key, row, index.salt, [slot]) == _open_records(index, sk, [slot])
        for other in ((slot + 1) % count, (slot + count // 2) % count):
            with pytest.raises(AuthenticationError):
                crypto.open_wires(key, row, index.salt, [other])
    # Two records swapped between their slots fail as a batch.
    swapped = index.node_rows[[1, 0, *range(2, count)]]
    with pytest.raises(AuthenticationError):
        crypto.open_wires(key, swapped, index.salt, range(count))


_HEADER_FIELDS = (
    "version",
    "integrity",
    "branching",
    "node_count",
    "n_values",
    "value_width",
    "root_slot",
    "salt",
)


@pytest.mark.parametrize("name", _HEADER_FIELDS)
def test_a_record_opens_only_under_the_header_it_was_sealed_with(name):
    # The record key is the subkey of the tree key labelled by the whole
    # packed header, so any one header field changed, the magic aside,
    # gives another key, under which no record opens.
    pairs, tree, sk, index = _dataset(60, 4, 9, integrity=True)
    assert index.record_key(sk.tree_key) == crypto.subkey(
        sk.tree_key, b"hsbt-node-records\x00" + index.header
    )
    fields = list(_HEADER.unpack(index.header))
    at = 1 + _HEADER_FIELDS.index(name)
    fields[at] = bytes(reversed(fields[at])) if name == "salt" else fields[at] ^ 1
    other = _HEADER.pack(*fields)
    assert other != index.header
    key = crypto.subkey(sk.tree_key, b"hsbt-node-records\x00" + other)
    if name != "version":
        reshaped = dataclasses.replace(index, **{name: fields[at]})
        assert reshaped.header == other and reshaped.record_key(sk.tree_key) == key
    assert len(_open_records(index, sk)) == index.node_count
    for slot in range(index.node_count):
        with pytest.raises(AuthenticationError):
            crypto.open_wires(key, index.node_rows[slot : slot + 1], index.salt, [slot])


def test_value_salt_of_another_length_rejected():
    pairs, tree, sk, index = _dataset(20, 4, 7)
    for length in (0, 7, 9):
        with pytest.raises(ValueError, match="value salt must be 8 bytes"):
            dataclasses.replace(index, salt=bytes(length))


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
_COUNT, _N, _WIDTH = _HEADER.unpack_from(_VALID, 0)[4:7]


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
        pytest.param(_with_header_field(_VALID, 2, 2), id="integrity-flag-two"),
        # The record size follows from b: at b=5 the node region is too short.
        pytest.param(_with_header_field(_VALID, 3, 5), id="record-size-mismatch"),
        pytest.param(_with_header_field(_VALID, 5, 10**6), id="value-count-beyond-data"),
        pytest.param(_with_header_field(_VALID, 5, _N + 1), id="value-count-one-more"),
        pytest.param(_with_header_field(_VALID, 5, _N - 1), id="value-count-one-less"),
        pytest.param(_with_header_field(_VALID, 6, _WIDTH + 1), id="value-width-one-more"),
        pytest.param(_with_header_field(_VALID, 6, _WIDTH - 1), id="value-width-one-less"),
        # 12 bytes a blob fill the region exactly, but hold no tag.
        pytest.param(
            _with_header_field(_with_header_field(_VALID, 6, 12), 5, _N * _WIDTH // 12),
            id="value-width-below-16",
        ),
        # The root slot must name a record of the node region.
        pytest.param(_with_header_field(_VALID, 7, _COUNT), id="root-slot-at-node-count"),
        pytest.param(_with_header_field(_VALID, 7, 2**32 - 1), id="root-slot-far-beyond"),
        # No node record, so no slot for the root.
        pytest.param(
            _with_header_field(_with_header_field(_VALID[: _HEADER.size], 4, 0), 7, 0)
            + _VALID[len(_NODES) :],
            id="no-node-records",
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
    # that can hold a tag, and sees them as n rows.
    tail = max(n * width + delta, 0)
    region = bytes(i % 251 for i in range(tail))
    data = _with_header_field(_with_header_field(_NODES, 5, n), 6, width) + region
    try:
        index = EncryptedIndex.from_bytes(data)
    except ValueError:
        assert tail != n * width or width < TAG_BYTES
        return
    assert tail == n * width and width >= TAG_BYTES
    assert index.value_rows.shape == (n, width)
    want = [region[i * width : (i + 1) * width] for i in range(n)]
    assert list(map(bytes, index.value_rows)) == want
    assert index.to_bytes() == data
    # A rewritten header value count leaves the region as it is.
    reshaped = dataclasses.replace(index, n_values=n + 1)
    assert list(map(bytes, reshaped.value_rows)) == want
    assert len(reshaped.value_rows) == n


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
    assert unpack_range(decrypt_wire(token_key(sk.tree_key), tok)) == (3, 5)
    # The token key is a subkey: the tree key itself opens no token.
    assert token_key(sk.tree_key) == crypto.subkey(sk.tree_key, b"hsbt-tokens") != sk.tree_key
    with pytest.raises(AuthenticationError):
        decrypt_wire(sk.tree_key, tok)


def test_token_open_range_sentinels():
    sk = SecretKey.generate()
    below = make_token(sk.tree_key, None, 7)
    assert unpack_range(decrypt_wire(token_key(sk.tree_key), below)) == (0, 7)
    above = make_token(sk.tree_key, 7, None)
    assert unpack_range(decrypt_wire(token_key(sk.tree_key), above)) == (7, KEY_INFINITY)


def test_equal_ranges_give_distinct_tokens():
    sk = SecretKey.generate()
    a, b = make_token(sk.tree_key, 3, 5), make_token(sk.tree_key, 3, 5)
    assert a != b


def test_token_wire_and_wire_size():
    # A token is its wire, `bytes`: nonce(12) || the 8-byte range || tag(16).
    # The driver charges exactly its length to `bytes_in` per crossing.
    token = make_token(SecretKey.generate().tree_key, 3, 5)
    assert type(token) is bytes
    assert len(token) == NONCE_BYTES + 8 + TAG_BYTES == 36


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
    plain = decrypt_wire(token_key(sk.tree_key), tok)
    assert plain == struct.pack("<II", 0x01020304, 0x0A0B0C0D)


# -- client-side result handling ----------------------------------------------


def test_decrypt_results_roundtrip_and_order():
    pairs, tree, sk, index = _dataset(100, 5, 7)
    # Blob at value position p holds the value of the pair that mapped to p.
    want = {tree.value_positions[i]: pairs[i][1] for i in range(len(pairs))}
    picks = random.Random(0).sample(range(100), 30)
    got = decrypt_results(sk.value_key, fetch_values(index, picks))
    assert got == [want[p] for p in picks]
    assert got.salt == index.salt and got.slots.tolist() == picks


def test_decrypt_results_aborts_wholesale_on_tamper():
    pairs, tree, sk, index = _dataset(10, 5, 8)
    blobs = fetch_values(index, range(3))
    assert len(decrypt_results(sk.value_key, blobs)) == 3
    blobs.rows[1, -1] ^= 0x80
    with pytest.raises(AuthenticationError):
        decrypt_results(sk.value_key, blobs)
    # Two rows whose slots are swapped, or one read under another salt, do
    # not open either.
    for swapped in (
        SealedValues(index.value_rows[:3], np.array([1, 0, 2]), index.salt),
        SealedValues(index.value_rows[:3], np.arange(3), bytes(VALUE_SALT_BYTES)),
    ):
        with pytest.raises(AuthenticationError):
            decrypt_results(sk.value_key, swapped)


def test_verify_result_mac_roundtrip():
    pairs, tree, sk, index = _dataset(50, 5, 10, integrity=True)
    state = MultisetHash.empty(sk.tree_key).add_all(value_elements(index.salt, [3, 17, 42]))
    mac = result_mac(sk.tree_key, state)

    def check(chosen):
        results = decrypt_results(sk.value_key, fetch_values(index, chosen))
        return verify_result_mac(sk.tree_key, results, mac)

    assert check([3, 17, 42])
    assert check([42, 17, 3])  # order-free
    assert not check([3, 17])
    assert not check([3, 17, 42, 0])
    assert not check([3, 17, 0])
    assert not check([3, 17, 42, 42])
    # Only plaintexts decrypt_results authenticated can be checked.
    results = decrypt_results(sk.value_key, fetch_values(index, [3, 17, 42]))
    for unauthenticated in (list(results), results[:], tuple(results)):
        with pytest.raises(TypeError):
            verify_result_mac(sk.tree_key, unauthenticated, mac)
    with pytest.raises(TypeError):
        results[0] = b"forged"
    with pytest.raises(TypeError):
        results.append(b"forged")
    with pytest.raises(ValueError):
        results.slots[0] = 0
    positions = tree.value_positions.tolist()
    assert results == [pairs[positions.index(p)][1] for p in (3, 17, 42)]


def test_verify_result_mac_folds_the_salt_and_slot_of_each_value():
    pairs, tree, sk, index = _dataset(50, 5, 14, integrity=True)
    slots = [4, 9, 33]
    results = decrypt_results(sk.value_key, fetch_values(index, slots))

    def mac_over(elements):
        return result_mac(sk.tree_key, MultisetHash.empty(sk.tree_key).add_all(elements))

    assert verify_result_mac(sk.tree_key, results, mac_over(value_elements(index.salt, slots)))
    # Another salt, other slots, or the blobs' GCM tags make a different
    # multiset.
    for other in (
        value_elements(bytes(VALUE_SALT_BYTES), slots),
        value_elements(index.salt, [4, 9, 34]),
        b"".join(bytes(index.value_rows[p, -TAG_BYTES:]) for p in slots),
    ):
        assert not verify_result_mac(sk.tree_key, results, mac_over(other))


def test_all_hundred_random_blobs_match_build_input():
    pairs, tree, sk, index = _dataset(100, 6, 9)
    got = decrypt_results(sk.value_key, fetch_values(index, range(100)))
    assert Counter(got) == Counter(v for _, v in pairs)
