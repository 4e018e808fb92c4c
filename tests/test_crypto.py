"""Primitive-level contracts: AEAD roundtrips and tamper rejection, PRP
bijectivity, multiset-hash order independence, MAC determinism."""

import random
import secrets
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import given, settings
from hypothesis import strategies as st

from hsbt import crypto
from hsbt.crypto import (
    AuthenticationError,
    MultisetHash,
    SecretKey,
    decrypt_wire,
    encrypt_wire,
    generate_key,
    mac_tag,
    prp_permutation,
)


def test_generate_key_length_and_distinctness():
    k1, k2 = generate_key(), generate_key()
    assert len(k1) == 16 and len(k2) == 16
    assert k1 != k2


def test_generate_key_no_repeats_in_1000_draws():
    draws = {generate_key() for _ in range(1000)}
    assert len(draws) == 1000


def test_secret_key_halves_must_differ():
    k = generate_key()
    with pytest.raises(ValueError):
        SecretKey(k, k)
    sk = SecretKey.generate()
    assert sk.tree_key != sk.value_key


@pytest.mark.parametrize("tree_len,value_len", [(15, 16), (16, 17), (0, 16)])
def test_secret_key_rejects_a_key_of_the_wrong_length(tree_len, value_len):
    with pytest.raises(ValueError, match="keys must be 16 bytes"):
        SecretKey(b"\x01" * tree_len, b"\x02" * value_len)


def test_encrypt_is_probabilistic():
    key = generate_key()
    wires = {encrypt_wire(key, b"same message") for _ in range(3)}
    assert len(wires) == 3


def test_decrypt_rejects_wrong_key_and_wrong_aad():
    # No AEAD call takes associated data: a wire sealed with any is rejected.
    key, other = generate_key(), generate_key()
    wire = encrypt_wire(key, b"m")
    assert decrypt_wire(key, wire) == b"m"
    with pytest.raises(AuthenticationError):
        decrypt_wire(other, wire)
    nonce = wire[:12]
    with pytest.raises(AuthenticationError):
        decrypt_wire(key, nonce + AESGCM(key).encrypt(nonce, b"m", b"a"))


def test_decrypt_rejects_single_bit_flip():
    # One bit flipped in the nonce, the body or the tag.
    key = generate_key()
    wire = encrypt_wire(key, b"thirteen byte")
    for at in (0, 14, len(wire) - 1):
        flipped = bytearray(wire)
        flipped[at] ^= 0x01
        with pytest.raises(AuthenticationError):
            decrypt_wire(key, bytes(flipped))


def test_wire_layout_is_nonce_body_tag():
    # The wire is AES-GCM's output under its own nonce, the nonce prepended:
    # nonce(12) || body || tag(16), checked against the AEAD directly.
    key = generate_key()
    plain = bytes(range(20))
    wire = encrypt_wire(key, plain)
    assert len(wire) == 12 + 20 + 16
    nonce, sealed = wire[:12], wire[12:]
    assert sealed == AESGCM(key).encrypt(nonce, plain, None)
    assert AESGCM(key).decrypt(nonce, sealed, None) == plain
    assert decrypt_wire(key, wire) == plain


def test_wire_helpers_round_trip_with_a_nonce_per_call():
    key = generate_key()
    plains = [b"", b"a", b"bb" * 20]
    wires = [encrypt_wire(key, plain) for plain in plains]
    assert [decrypt_wire(key, wire) for wire in wires] == plains
    assert len({wire[:12] for wire in wires}) == 3  # a nonce per call


@pytest.mark.parametrize("length", [0, 7, 11, 12, 27])
def test_short_wires_raise_authentication_error_only(length):
    # No length check runs in Python: the AEAD rejects a nonce under 8 bytes
    # with ValueError and a missing or partial tag with InvalidTag, and
    # `decrypt_wire` must turn either into AuthenticationError; `open_wires`
    # builds its own 12-byte nonces, so a value row too short for a tag is
    # rejected as InvalidTag, and a short row in bulk fails its tag check.
    key = generate_key()
    wire = secrets.token_bytes(length)
    good = _blobs(key, [b"fine" * 8])[0]
    with pytest.raises(AuthenticationError):
        decrypt_wire(key, wire)
    for batch in ([wire], [wire] * 3, [good[:length]] * 2, [good[:length]] * CUT):
        with pytest.raises(AuthenticationError):
            crypto.open_wires(key, _rows(batch), SALT, [0] * len(batch))
    assert crypto.open_wires(key, _rows([good, good]), SALT, [0, 0]) == [b"fine" * 8] * 2
    assert crypto.open_wires(key, _rows([]), SALT, []) == []


def _fold_reference(key: bytes, element: bytes) -> bytes:
    """The digest of the multiset of one 16-byte `element` under `key`,
    from a fresh AES context: its image under the multiset-PRF subkey."""
    sub = crypto.subkey(key, b"hsbt-mset-prf")
    return Cipher(algorithms.AES(sub), modes.ECB()).encryptor().update(element)


def test_one_state_table_holds_at_most_its_cap_of_keys():
    # Token wires, per-row opens, array opens and folds all take their state
    # from one table, here under more keys than it holds, twice over: the
    # table empties and refills between two uses of a key, and every result
    # stays right.
    cap = crypto._STATE_CAP
    keys = [generate_key() for _ in range(cap + 5)]
    plains = [[b"value %06d" % (CUT * i + j) for j in range(CUT)] for i in range(len(keys))]
    wires = [encrypt_wire(key, want[0]) for key, want in zip(keys, plains)]
    arrays = [_rows(_blobs(key, want)) for key, want in zip(keys, plains)]
    element = bytes(range(16))
    sizes = []
    for _ in range(2):
        for key, wire, rows, want in zip(keys, wires, arrays, plains):
            assert decrypt_wire(key, wire) == want[0]
            assert crypto.open_wires(key, rows[:1], SALT, [0]) == want[:1]
            assert crypto.open_wires(key, rows, SALT, range(CUT)) == want
            assert MultisetHash.empty(key).add_all(element).digest == _fold_reference(key, element)
            sizes.append(len(crypto._states.by_key))
            assert sizes[-1] <= cap
    assert any(later < earlier for earlier, later in zip(sizes, sizes[1:]))


def test_aead_fuzz_bit_flips_never_accepted():
    # Smaller sibling of the acceptance sweep; full 10^4 flips run there.
    key = generate_key()
    rng = random.Random(7)
    wire = encrypt_wire(key, secrets.token_bytes(64))
    for _ in range(500):
        flipped = bytearray(wire)
        flipped[rng.randrange(len(wire))] ^= 1 << rng.randrange(8)
        with pytest.raises(AuthenticationError):
            decrypt_wire(key, bytes(flipped))


# -- value blobs: sealed at their slots, opened per blob or in bulk -----------

CUT = crypto._BULK_MIN_WIRES
SEAL_CUT = crypto._SEAL_ROWS_PER_BLOCK
MAX_BODY = 16 * crypto._BULK_MAX_BLOCKS
SALT = bytes(range(8))


def _nonce(slot: int, salt: bytes = SALT) -> bytes:
    return salt + slot.to_bytes(4, "little")


def _blobs(key: bytes, plains, first: int = 0) -> list[bytes]:
    """Plaintext i sealed by the AEAD itself at slot ``first + i`` under
    SALT: ``body || tag``, the reference every value path must match."""
    return [AESGCM(key).encrypt(_nonce(first + i), p, None) for i, p in enumerate(plains)]


def _rows(wires) -> np.ndarray:
    """Blobs of one length as a matrix, one per row, the form in which the
    server gathers a result."""
    width = len(wires[0]) if wires else crypto.TAG_BYTES
    return np.frombuffer(b"".join(wires), np.uint8).reshape(len(wires), width)


@pytest.fixture
def bulk_passes(monkeypatch):
    """Counts the rows `open_wires` hands to the array pass."""
    opened = []
    real = crypto._open_pass

    def spy(state, rows, salt, slots):
        opened.append(len(rows))
        return real(state, rows, salt, slots)

    monkeypatch.setattr(crypto, "_open_pass", spy)
    return opened


def _flip(wire: bytes, bit: int) -> bytes:
    flipped = bytearray(wire)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return bytes(flipped)


def test_value_elements_are_the_nonce_then_four_zero_bytes():
    slots = [0, 1, 0x01020304, 2**32 - 1]
    elements = crypto.value_elements(SALT, slots)
    assert elements == b"".join(_nonce(s) + bytes(4) for s in slots)
    assert crypto.value_elements(SALT, []) == b""
    for salt in (b"", SALT[:7], SALT + b"!"):
        with pytest.raises(AuthenticationError, match="value salt"):
            crypto.value_elements(salt, slots)


def test_bulk_open_matches_per_wire_decrypt_at_every_body_length(bulk_passes):
    key = generate_key()
    rng = random.Random(11)
    for length in range(1, MAX_BODY + 1):
        # Zero-ended values too: no trailing byte may be lost.
        plains = [rng.randbytes(length - 1) + bytes([i % 2]) for i in range(4096)]
        blobs = _blobs(key, plains)
        for count in (CUT - 1, CUT, 4096):
            del bulk_passes[:]
            got = crypto.open_wires(key, _rows(blobs[:count]), SALT, range(count))
            assert sum(bulk_passes) == (count if count >= CUT else 0)
            assert got == plains[:count]


@settings(max_examples=300, deadline=None)
@given(
    length=st.integers(1, MAX_BODY),
    count=st.integers(CUT, CUT + 40),
    data=st.data(),
)
def test_bulk_open_rejects_any_single_bit_flip(length, count, data):
    key = generate_key()
    blobs = _blobs(key, [secrets.token_bytes(length) for _ in range(count)])
    slots = list(range(count))
    victim = data.draw(st.integers(0, count - 1), label="blob")
    where = data.draw(st.sampled_from(["row", "slot", "salt"]), label="where")
    salt = SALT
    if where == "row":  # body or tag
        bit = data.draw(st.integers(0, 8 * len(blobs[0]) - 1), label="bit")
        blobs[victim] = _flip(blobs[victim], bit)
    elif where == "slot":
        slots[victim] ^= 1 << data.draw(st.integers(0, 31), label="bit")
    else:
        salt = _flip(SALT, data.draw(st.integers(0, 63), label="bit"))
    with pytest.raises(AuthenticationError):
        crypto.open_wires(key, _rows(blobs), salt, slots)


def test_bulk_open_rejects_every_bit_flip_of_one_wire(bulk_passes):
    key = generate_key()
    blobs = _blobs(key, [secrets.token_bytes(17) for _ in range(CUT)])
    for bit in range(8 * len(blobs[0])):
        rows = _rows(blobs[:5] + [_flip(blobs[5], bit)] + blobs[6:])
        with pytest.raises(AuthenticationError):
            crypto.open_wires(key, rows, SALT, range(CUT))
    assert set(bulk_passes) == {CUT}


def test_bulk_open_batches_it_does_not_take_behave_as_per_wire(bulk_passes):
    key = generate_key()
    # Below the cut-over a matrix opens one AEAD call per row, at any body
    # length, and one flipped bit, or one swapped slot, rejects the batch.
    for length in (1, 16, MAX_BODY, 200):
        plains = [secrets.token_bytes(length) for _ in range(CUT - 1)]
        blobs = _blobs(key, plains)
        assert crypto.open_wires(key, _rows(blobs), SALT, range(CUT - 1)) == plains
        flipped = _rows(blobs[:3] + [_flip(blobs[3], 100)] + blobs[4:])
        with pytest.raises(AuthenticationError):
            crypto.open_wires(key, flipped, SALT, range(CUT - 1))
        with pytest.raises(AuthenticationError):
            crypto.open_wires(key, _rows(blobs), SALT, [1, 0, *range(2, CUT - 1)])
    # The same bytes read at twice the width keep the joined bytes, and
    # fail: the rows are the blobs.
    same = _blobs(key, [secrets.token_bytes(16) for _ in range(CUT)])
    with pytest.raises(AuthenticationError):
        crypto.open_wires(key, _rows(same).reshape(CUT // 2, -1), SALT, range(CUT // 2))
    # Matrices of empty bodies (16-byte rows) and of bodies over the block
    # limit.
    for length in (0, MAX_BODY + 1, 200):
        plains = [secrets.token_bytes(length) for _ in range(CUT)]
        blobs = _blobs(key, plains)
        assert crypto.open_wires(key, _rows(blobs), SALT, range(CUT)) == plains
        with pytest.raises(AuthenticationError):
            crypto.open_wires(key, _rows(blobs[:-1] + [_flip(blobs[-1], 0)]), SALT, range(CUT))
    assert bulk_passes == []
    # Matrices of truncated blobs; only the 27- and 47-byte ones, bodies of
    # 11 and 31 bytes, open in bulk.
    good = _blobs(key, [b"x" * 32 for _ in range(CUT)])
    for length in (0, 7, 15, 16, 27, 47):
        with pytest.raises(AuthenticationError):
            crypto.open_wires(key, _rows([blob[:length] for blob in good]), SALT, range(CUT))
    assert bulk_passes == [CUT, CUT]
    # A slot count other than the row count rejects the batch on both paths.
    for count in (CUT - 1, CUT):
        for slots in (range(count - 1), range(count + 1)):
            with pytest.raises(AuthenticationError, match="value blobs come with"):
                crypto.open_wires(key, _rows(good[:count]), SALT, slots)
    assert crypto.open_wires(key, _rows([]), SALT, []) == []


@settings(max_examples=100, deadline=None)
@given(
    body=st.integers(0, MAX_BODY + 16),
    count=st.sampled_from([1, 63, 64, 513, 1023, 1024, 3100]),
    data=st.data(),
)
def test_seal_wires_opens_row_by_row_and_as_a_matrix(body, count, data):
    key = generate_key()
    plains = np.frombuffer(secrets.token_bytes(body * count), np.uint8).reshape(count, body)
    first = data.draw(st.integers(0, 2**32 - count), label="first slot")
    slots = np.arange(first, first + count)
    passes = []
    real = crypto._seal_pass

    def spy(state, tables, rows, wires, salt, at):
        passes.append(len(rows))
        return real(state, tables, rows, wires, salt, at)

    crypto._seal_pass = spy
    try:
        wires = crypto.seal_wires(key, plains, SALT, slots)
    finally:
        crypto._seal_pass = real
    bulk = 0 < body <= MAX_BODY and count >= SEAL_CUT * -(-body // 16)
    split = crypto._passes(count, body + crypto.TAG_BYTES) if bulk else []
    assert passes == [len(range(count)[rows]) for rows in split]
    assert wires.shape == (count, body + crypto.TAG_BYTES)
    want = [row.tobytes() for row in plains]
    # Either path gives the AEAD's own bytes at each slot's nonce.
    assert [row.tobytes() for row in wires] == _blobs(key, want, first)
    assert crypto.open_wires(key, wires, SALT, slots) == want
    victim = data.draw(st.integers(0, count - 1), label="row")
    at = data.draw(st.integers(0, wires.shape[1] - 1), label="byte")  # body or tag
    flipped = wires.copy()
    flipped[victim, at] ^= data.draw(st.integers(1, 255), label="mask")
    with pytest.raises(AuthenticationError):
        crypto.open_wires(key, flipped, SALT, slots)


@pytest.mark.parametrize("body", [1, 16, 17, 64, 79, MAX_BODY])
def test_seal_wires_gives_the_same_rows_per_call_and_in_bulk(body, monkeypatch):
    # One row short of SEAL_CUT rows a block, the rows are sealed one AEAD
    # call each; at the cut-over, in array passes.  Under one salt the shared
    # rows are byte-identical, and so are their opens.
    cut = SEAL_CUT * -(-body // 16)
    key = generate_key()
    plains = np.frombuffer(secrets.token_bytes(body * cut), np.uint8).reshape(cut, body)
    slots = np.random.default_rng(body).permutation(10 * cut)[:cut]
    passes = []
    real = crypto._seal_pass

    def spy(state, tables, rows, wires, salt, at):
        passes.append(len(rows))
        return real(state, tables, rows, wires, salt, at)

    monkeypatch.setattr(crypto, "_seal_pass", spy)
    per_call = crypto.seal_wires(key, plains[: cut - 1], SALT, slots[: cut - 1])
    assert passes == []
    in_bulk = crypto.seal_wires(key, plains, SALT, slots)
    assert sum(passes) == cut
    assert per_call.tobytes() == in_bulk[: cut - 1].tobytes()
    assert crypto.open_wires(key, in_bulk, SALT, slots)[:-1] == crypto.open_wires(
        key, per_call, SALT, slots[: cut - 1]
    )
    # Another salt or other slots give other rows.
    assert not np.array_equal(crypto.seal_wires(key, plains, SALT[::-1], slots), in_bulk)
    assert not np.array_equal(crypto.seal_wires(key, plains, SALT, slots + 1), in_bulk)


def test_bulk_open_under_two_keys_in_two_threads_at_once():
    # Two threads at once, each alternating between the same two keys: a
    # token open, a per-row open, an array open and a fold, every one right,
    # and each thread on cipher state of its own.
    keys = [generate_key(), generate_key()]
    plains = [[b"%016d" % (i + 10**6 * k) for i in range(3 * CUT)] for k in range(2)]
    batches = [_rows(_blobs(key, want)) for key, want in zip(keys, plains)]
    tokens = [encrypt_wire(key, want[0]) for key, want in zip(keys, plains)]
    folds = [_fold_reference(key, plains[0][0]) for key in keys]
    both_running = threading.Barrier(2)

    def run(first):
        both_running.wait(timeout=60)
        for i in range(400):
            k = (first + i) % 2
            key, want = keys[k], plains[k]
            if not (
                decrypt_wire(key, tokens[k]) == want[0]
                and crypto.open_wires(key, batches[k][:1], SALT, [0]) == want[:1]
                and crypto.open_wires(key, batches[k], SALT, range(3 * CUT)) == want
                and MultisetHash.empty(key).add_all(plains[0][0]).digest == folds[k]
            ):
                return None
        subkeys = [crypto.subkey(key, b"hsbt-mset-prf") for key in keys]
        return [crypto._states.by_key[key] for key in keys + subkeys]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(run, first) for first in (0, 1)]
            mine, theirs = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert mine is not None and theirs is not None
    for a, b in zip(mine, theirs):
        assert a is not b and a.ecb is not b.ecb and a.aead is not b.aead



# -- the batched tag check of an open pass ------------------------------------

# Row counts across the cut-over, up to two passes of 79-byte bodies.
PASS_COUNTS = [CUT, CUT + 1, 100, 255, 456, 600, 2 * crypto._PASS_BYTES // 95]


def _sealed_rows(count: int, body: int):
    key = generate_key()
    plains = np.frombuffer(secrets.token_bytes(count * body), np.uint8).reshape(count, body)
    return key, [row.tobytes() for row in plains], crypto.seal_wires(key, plains, SALT, range(count))


@pytest.mark.parametrize("body", [16, 79])
@pytest.mark.parametrize("count", PASS_COUNTS)
def test_bulk_open_rejects_edits_of_two_rows_that_cancel_under_fixed_coefficients(
    bulk_passes, body, count
):
    # Each edit leaves some combination of the rows with coefficients the
    # host can know unchanged, so only a combination it cannot predict
    # catches it.
    key, want, wires = _sealed_rows(count, body)
    slots = np.arange(count)
    assert crypto.open_wires(key, wires, SALT, slots) == want
    rng = random.Random(count * body)
    i, j = rng.sample(range(count), 2)
    # One nonzero delta in two tags: the XOR of all tags, a combination
    # with every coefficient 1, is unchanged.
    delta = np.frombuffer(rng.randbytes(15) + b"\x01", np.uint8)
    in_tags = wires.copy()
    in_tags[[i, j], body:] ^= delta
    assert np.array_equal(
        np.bitwise_xor.reduce(in_tags[:, body:]), np.bitwise_xor.reduce(wires[:, body:])
    )
    # The same bit flipped in two bodies: the XOR of the bodies and of the
    # tags are unchanged.
    in_bodies = wires.copy()
    in_bodies[[i, j], rng.randrange(body)] ^= 1 << rng.randrange(8)
    # Two rows, or two slots, swapped: every multiset of rows is unchanged.
    rows_swapped = wires.copy()
    rows_swapped[[i, j]] = wires[[j, i]]
    slots_swapped = slots.copy()
    slots_swapped[[i, j]] = slots[[j, i]]
    for rows, at in [(in_tags, slots), (in_bodies, slots), (rows_swapped, slots), (wires, slots_swapped)]:
        with pytest.raises(AuthenticationError, match="ciphertext rejected"):
            crypto.open_wires(key, rows, SALT, at)
    # Every open ran in array passes; a rejected pass stops the open.
    assert len(bulk_passes) >= 5 and min(bulk_passes) >= count // 2


@pytest.mark.parametrize("body", [16, 79])
@pytest.mark.parametrize("count", PASS_COUNTS)
def test_bulk_open_rejects_every_single_bit_flip_at_every_pass_size(bulk_passes, body, count):
    key, want, wires = _sealed_rows(count, body)
    slots = np.arange(count)
    victim = random.Random(count + body).randrange(count)
    for bit in range(8 * wires.shape[1]):  # body or tag
        flipped = wires.copy()
        flipped[victim, bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(AuthenticationError):
            crypto.open_wires(key, flipped, SALT, slots)
    for bit in range(32):
        moved = slots.copy()
        moved[victim] ^= 1 << bit
        with pytest.raises(AuthenticationError):
            crypto.open_wires(key, wires, SALT, moved)
    for bit in range(64):
        with pytest.raises(AuthenticationError):
            crypto.open_wires(key, wires, _flip(SALT, bit), slots)
    assert crypto.open_wires(key, wires, SALT, slots) == want
    assert len(bulk_passes) >= 8 * wires.shape[1] + 32 + 64 + 1
    assert min(bulk_passes) >= count // 2


def test_each_bulk_open_pass_checks_under_a_key_drawn_for_it(monkeypatch):
    # The check's GHASH key comes from a 16-byte `secrets` draw made inside
    # the pass, one per pass, never from a cache or from the host's input.
    key, want, wires = _sealed_rows(3000, 79)
    draws = []
    real = secrets.token_bytes

    def spy(n):
        draws.append(n)
        return real(n)

    monkeypatch.setattr(crypto.secrets, "token_bytes", spy)
    assert crypto.open_wires(key, wires, SALT, range(3000)) == want
    assert draws == [crypto.KEY_BYTES] * len(crypto._passes(3000, wires.shape[1]))


@pytest.mark.parametrize("width", [17, 32, 95, 144])
@pytest.mark.parametrize("rows", [1, CUT, 1379, 1380, 1381, 4096, 14000, 100_000])
def test_array_passes_split_a_matrix_evenly_within_the_byte_budget(rows, width):
    passes = crypto._passes(rows, width)
    sizes = [len(range(rows)[span]) for span in passes]
    assert [i for span in passes for i in range(rows)[span]] == list(range(rows))
    assert max(sizes) * width <= crypto._PASS_BYTES
    assert len(passes) == -(-rows * width // crypto._PASS_BYTES)
    assert max(sizes) - min(sizes) < len(passes)


# -- PRP ---------------------------------------------------------------------


def test_prp_singleton_domain():
    assert prp_permutation(generate_key(), 1).tolist() == [0]


def test_prp_domain_8_is_permutation():
    key = generate_key()
    assert sorted(prp_permutation(key, 8).tolist()) == list(range(8))


def test_prp_non_power_of_two_domain_is_permutation():
    key = generate_key()
    assert sorted(prp_permutation(key, 1000).tolist()) == list(range(1000))


def _ranks_of_aes_images(aes_key, n):
    """The prefix cipher computed the slow way: each x's rank among the AES
    images of the blocks ``n || x``, compared as 128-bit integers."""
    ecb = Cipher(algorithms.AES(aes_key), modes.ECB()).encryptor()
    images = [
        int.from_bytes(ecb.update(n.to_bytes(8, "little") + x.to_bytes(8, "little")), "little")
        for x in range(n)
    ]
    order = sorted(range(n), key=images.__getitem__)
    return [order.index(x) for x in range(n)]


@pytest.mark.parametrize("n", [1, 2, 3, 17, 100, 257])
def test_prp_ranks_the_aes_images_of_the_domain_under_a_subkey(n):
    # p[x] is x's rank among the images of n || x under a subkey of the
    # key, never under the key itself, which also keys the node AEAD.
    key = generate_key()
    subkey = mac_tag(key, b"hsbt-node-placement")[:16]
    perm = prp_permutation(key, n)
    assert perm.dtype == np.uint64
    assert perm.tolist() == _ranks_of_aes_images(subkey, n)
    if n >= 17:
        assert perm.tolist() != _ranks_of_aes_images(key, n)


def test_prp_deterministic_per_key_and_key_sensitive():
    k1, k2 = generate_key(), generate_key()
    p1a = prp_permutation(k1, 512)
    p1b = prp_permutation(k1, 512)
    p2 = prp_permutation(k2, 512)
    assert np.array_equal(p1a, p1b)
    assert not np.array_equal(p1a, p2)


def test_prp_permutation_rejects_an_empty_domain():
    for n in (0, -1):
        with pytest.raises(ValueError, match="domain size must be positive"):
            prp_permutation(generate_key(), n)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=2048))
def test_prp_bijective_on_random_domains(n):
    perm = prp_permutation(b"\x42" * 16, n)
    assert len(np.unique(perm)) == n and int(perm.max()) == n - 1


# -- Multiset hash -----------------------------------------------------------


def test_mset_commutative_fold():
    key = generate_key()
    h0 = MultisetHash.empty(key)
    a, b = b"a" * 16, b"b" * 16
    assert h0.add(a).add(b) == h0.add(b).add(a)


def test_mset_nondegenerate_and_count_sensitive():
    h0 = MultisetHash.empty(generate_key())
    h1 = h0.add(b"a" * 16)
    assert h1 != h0
    h2 = h1.add(b"a" * 16)
    # A repeated element does not cancel: every multiplicity counts.
    assert h2 != h0 and h2 != h1


def test_mset_tells_multisets_apart_that_agree_in_size_and_parities():
    # {a,a,a,b} and {a,b,b,b}: the same size, and every multiplicity odd.
    h0 = MultisetHash.empty(generate_key())
    a, b = b"a" * 16, b"b" * 16
    assert h0.add_all(a * 3 + b) != h0.add_all(a + b * 3)


def test_mset_removed_elements_fold_out():
    key = generate_key()
    h0 = MultisetHash.empty(key)
    a, b, c = b"a" * 16, b"b" * 16, b"c" * 16
    assert h0.add_all(a + b, removed=a + b) == h0
    assert h0.add_all(a * 3 + b).add_all(b"", removed=a) == h0.add_all(a * 2 + b)
    assert h0.add_all(c, removed=a) == h0.add_all(c).add_all(b"", removed=a)
    # Folding out what was never folded in leaves a nonzero balance.
    assert h0.add_all(b"", removed=a) != h0
    assert h0.add_all(b"", removed=a).add(a) == h0


def test_mset_add_all_matches_repeated_add():
    key = generate_key()
    items = [secrets.token_bytes(16) for _ in range(20)]
    one_by_one = MultisetHash.empty(key)
    for item in items:
        one_by_one = one_by_one.add(item)
    assert one_by_one == MultisetHash.empty(key).add_all(b"".join(items))
    assert one_by_one != MultisetHash.empty(key).add_all(b"".join(items[:19]))
    # Folding in pieces is folding at once.
    split = MultisetHash.empty(key).add_all(b"".join(items[:7])).add_all(b"".join(items[7:]))
    assert split == one_by_one


@settings(max_examples=40, deadline=None)
@given(st.lists(st.binary(min_size=16, max_size=16), min_size=1, max_size=30), st.randoms())
def test_mset_invariant_under_shuffle(items, rng):
    key = b"\x13" * 16
    base = MultisetHash.empty(key).add_all(b"".join(items))
    shuffled = list(items)
    rng.shuffle(shuffled)
    again = MultisetHash.empty(key).add_all(b"".join(shuffled))
    assert again == base


def test_mset_shuffle_invariance_50_elements_100_shuffles():
    key = generate_key()
    items = [secrets.token_bytes(16) for _ in range(50)]
    reference = MultisetHash.empty(key).add_all(b"".join(items))
    rng = random.Random(1234)
    for _ in range(100):
        rng.shuffle(items)
        again = MultisetHash.empty(key).add_all(b"".join(items))
        assert again == reference


@pytest.mark.parametrize("length", [1, 9, 15, 17, 31])
def test_mset_rejects_input_that_is_not_16_byte_elements(length):
    h0 = MultisetHash.empty(generate_key())
    with pytest.raises(ValueError):
        h0.add_all(bytes(length))
    with pytest.raises(ValueError):
        h0.add(bytes(length))
    with pytest.raises(ValueError):
        h0.add_all(bytes(16), removed=bytes(length))


def test_mset_empty_input_leaves_state_unchanged():
    h1 = MultisetHash.empty(generate_key()).add(b"z" * 16)
    assert h1.add_all(b"") == h1
    assert h1.add_all(b"", removed=b"") == h1


def test_mset_prf_is_keyed_by_a_subkey_not_the_tree_key():
    # Under the raw key, the image of the zero block (node id 0) would be
    # AES_k(0^128), the GHASH key of every AES-GCM ciphertext under that key.
    key = generate_key()
    zero = bytes(16)
    raw = Cipher(algorithms.AES(key), modes.ECB()).encryptor().update(zero)
    folded = MultisetHash.empty(key).add_all(zero).digest
    assert folded != raw
    sub = crypto.subkey(key, b"hsbt-mset-prf")
    assert sub != key
    assert folded == Cipher(algorithms.AES(sub), modes.ECB()).encryptor().update(zero)


def test_subkey_is_the_cut_hmac_tag_of_its_label():
    # One derivation serves the multiset PRF, the placement, the record key
    # and the tokens; distinct labels, or keys, give distinct subkeys.
    key, other = generate_key(), generate_key()
    labels = [
        b"hsbt-mset-prf",
        b"hsbt-node-placement",
        b"hsbt-node-records\x00" + bytes(33),
        b"hsbt-tokens",
    ]
    subkeys = {crypto.subkey(k, label) for k in (key, other) for label in labels}
    assert len(subkeys) == 8 and all(len(sub) == 16 for sub in subkeys)
    for label in labels:
        assert crypto.subkey(key, label) == mac_tag(key, label)[:16]


@pytest.mark.parametrize("k", [1, 2, 3, 257, 4096])
def test_mset_add_all_matches_an_integer_xor_reference(k):
    # Reference fold: each element's AES-ECB image under the subkey, read as
    # one 128-bit little-endian integer and summed mod 2^128 in Python, onto
    # a nonzero start state; a removed element's image is subtracted.
    key = generate_key()
    source = random.Random(k)
    elements = source.randbytes(16 * k)
    removed = source.randbytes(16 * (k // 2 + 1))
    aes = Cipher(algorithms.AES(crypto.subkey(key, b"hsbt-mset-prf")), modes.ECB()).encryptor()

    def images(blob):
        out = aes.update(blob)
        return [int.from_bytes(out[i : i + 16], "little") for i in range(0, len(out), 16)]

    start = MultisetHash.empty(key).add(b"s" * 16)
    want = int.from_bytes(start.digest, "little") + sum(images(elements))
    assert start.add_all(elements).digest == (want % 2**128).to_bytes(16, "little")
    want -= sum(images(removed))
    got = start.add_all(elements, removed=removed)
    assert got.digest == (want % 2**128).to_bytes(16, "little")


def test_mset_folds_agree_across_threads():
    key = generate_key()
    items = b"".join(secrets.token_bytes(16) for _ in range(64))
    want = MultisetHash.empty(key).add_all(items)
    with ThreadPoolExecutor(max_workers=4) as pool:
        got = list(pool.map(lambda _: MultisetHash.empty(key).add_all(items), range(32)))
    assert all(g == want for g in got)


# -- MAC ---------------------------------------------------------------------


def test_mac_deterministic_and_256_bit():
    key = generate_key()
    assert mac_tag(key, b"msg") == mac_tag(key, b"msg")
    assert len(mac_tag(key, b"msg")) == 32


def test_mac_key_sensitivity():
    assert mac_tag(generate_key(), b"msg") != mac_tag(generate_key(), b"msg")


def test_mac_message_bit_sensitivity():
    key = generate_key()
    assert mac_tag(key, b"\x00") != mac_tag(key, b"\x01")


def test_result_mac_binds_count_and_digest():
    # The digest alone carries the multiplicities.
    key = generate_key()
    a = MultisetHash.empty(key).add(b"x" * 16)
    b = a.add(b"x" * 16)
    assert crypto.result_mac(key, a) != crypto.result_mac(key, b)
    assert crypto.result_mac(key, a) == crypto.mac_tag(key, b"hsbt-results\x00" + a.digest)
