"""Cryptographic building blocks for the encrypted index.

Four primitives live here: authenticated probabilistic encryption (AES-128-GCM),
a small-domain pseudorandom permutation (the prefix cipher: the domain sorted
by its AES images), an incremental multiset hash over 16-byte elements (the
sum mod 2^128 of AES-128, used as a PRF under a subkey derived from the
caller's key), and an HMAC tag.

A token is wire bytes, ``nonce(12) || body || tag(16)``, under a fresh
random nonce and the token key, a `subkey` of the tree key
(`codec.token_key`): `encrypt_wire` seals one and `decrypt_wire` opens one.
A node record and a value blob are ``body || tag(16)`` at an implied nonce:
the blob at slot ``s`` of a container's region is sealed under
``salt(8) || s(4, little-endian)``, the container's salt then its slot
(`value_elements`), a deterministic nonce as in NIST SP 800-38D §8.2.1.
No slot repeats within a region and each container draws its own salt, so
no nonce repeats under a key, and a blob opens only at the slot, and in the
container, it was sealed for.  The values are sealed under the value key;
the node records under a record key, a `subkey` of the tree key and the
container header.  No AEAD call takes associated data.  `seal_wires` seals
a region and `open_wires` opens rows of one.

A region and a batch of its rows are ``(k, width)`` uint8 matrices, one
blob per row: the form in which the server gathers a result from a
container's value region, and the enclave a batch from its node region,
whose blobs all have one width.  `seal_wires` and `open_wires` alone
decide how they run.  One AEAD call per blob costs ~0.5 us, nearly all of
it per-call overhead, so a matrix with a body of at most
`_BULK_MAX_BLOCKS` 16-byte blocks is opened in array passes of at most
`_PASS_BYTES` from `_BULK_MIN_WIRES` rows, and sealed so from
`_SEAL_ROWS_PER_BLOCK` rows a block, where its per-seal tables pay.  One
ECB call makes every counter block, from the salt and the slots
(`_keystream`).  A seal computes each row's GHASH by gathers from per-key
tables of byte multiples of the powers of H, indexed by ciphertext bytes,
which the untrusted host already sees (`_tags`), and writes each tag into
its row.  An open checks every tag of a pass at once, by one random
linear combination of the rows under a GHASH key drawn fresh for that
pass (`_open_pass`): a few C-speed GMAC calls over the pass's columns,
whatever its row count, and one constant-time compare.  A pass with any
bad row is accepted with probability at most (n + 1)/2^128 for n rows, and
rejected whole, as the per-blob path rejects a batch; no plaintext is
formed before the check.  Both paths give the same bytes; every other
matrix takes one AEAD call per blob.

All operations are pure given their key material, so they are safe for
unrestricted concurrent use.  Every AES use takes its cipher state, one
AES-ECB context and one AEAD per key, from one table per thread (`_state`),
which holds at most `_STATE_CAP` keys.
`MultisetHash` values are immutable snapshots; `add_all` returns a new
state.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
import itertools
import operator
import secrets
import struct
import threading
from dataclasses import dataclass

import numpy as np
from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

KEY_BYTES = 16
NONCE_BYTES = 12
TAG_BYTES = 16
VALUE_SALT_BYTES = 8
# A blob's nonce: the container's salt, then the blob's slot.
_VALUE_NONCE = struct.Struct(f"<{VALUE_SALT_BYTES}sI")
MSET_DIGEST_BYTES = 16


class AuthenticationError(Exception):
    """Decryption or tag verification failed.

    Raised for a wrong key, a wrong nonce (another slot or salt), or a
    modified ciphertext; callers use this to detect tampering.
    """


def generate_key() -> bytes:
    """Draw one uniformly random 128-bit symmetric key from the OS CSPRNG."""
    return secrets.token_bytes(KEY_BYTES)


@dataclass(frozen=True)
class SecretKey:
    """Client key material: `tree_key` protects index nodes and query tokens,
    `value_key` protects the stored values and never leaves the client."""

    tree_key: bytes
    value_key: bytes

    def __post_init__(self) -> None:
        if len(self.tree_key) != KEY_BYTES or len(self.value_key) != KEY_BYTES:
            raise ValueError("keys must be 16 bytes")
        if self.tree_key == self.value_key:
            raise ValueError("tree key and value key must differ")

    @classmethod
    def generate(cls) -> "SecretKey":
        return cls(generate_key(), generate_key())


class _CipherState:
    """One key's cipher state: an AES-ECB context (the array passes'
    keystream, the placement's images and the multiset PRF) and the key's
    AEAD (per-row seals and opens, tokens and an open pass's tag check)."""

    def __init__(self, key: bytes):
        self.ecb = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
        self.aead = AESGCM(key)


# Cipher state, one table per thread (an ECB context must not be shared
# across threads), keyed by its key, for at most _STATE_CAP keys per thread.
# No state holds GHASH tables: a seal builds its own (`seal_wires`).
_states = threading.local()
_STATE_CAP = 64


def _state(key: bytes) -> _CipherState:
    """This thread's cipher state for `key`, built on first use; a full
    table is emptied."""
    try:
        return _states.by_key[key]
    except AttributeError:
        table = _states.by_key = {}
    except KeyError:
        table = _states.by_key
        if len(table) >= _STATE_CAP:
            table.clear()
    state = table[key] = _CipherState(key)
    return state


def encrypt_wire(key: bytes, plaintext: bytes) -> bytes:
    """Probabilistic authenticated encryption of `plaintext` to wire bytes,
    ``nonce(12) || body || tag(16)``, under a fresh random nonce."""
    nonce = secrets.token_bytes(NONCE_BYTES)
    return nonce + _state(key).aead.encrypt(nonce, plaintext, None)


def decrypt_wire(key: bytes, wire: bytes) -> bytes:
    """Invert `encrypt_wire`; raises AuthenticationError on any
    modification.

    A wire too short for a nonce and a tag is rejected by the AEAD itself
    (`ValueError` for a nonce under 8 bytes, `InvalidTag` otherwise), so no
    length check runs in Python."""
    try:
        return _state(key).aead.decrypt(wire[:NONCE_BYTES], wire[NONCE_BYTES:], None)
    except (InvalidTag, ValueError):
        raise AuthenticationError("ciphertext rejected") from None


def value_elements(salt: bytes, slots) -> bytes:
    """The 16-byte element of the value blob at each of `slots`, in order,
    in the container whose value salt is `salt`: the blob's nonce,
    ``salt(8) || slot(4, little-endian)``, then 4 zero bytes, its GCM
    counter block 0.  A result digest folds these elements
    (`codec.verify_result_mac`, the enclave's session).  Raises
    `AuthenticationError` unless `salt` is `VALUE_SALT_BYTES` long."""
    _check_salt(salt)
    # Two little-endian words a block: the salt, then the slot in the low
    # 32 bits, whose high 32 bits, the counter, are zero.
    elements = np.zeros((len(slots), 2), "<u8")
    elements[:, 0] = np.frombuffer(salt, "<u8")
    elements[:, 1] = np.asarray(slots).astype(np.uint32, copy=False)
    return elements.tobytes()


def _value_nonces(salt: bytes, slots) -> list[bytes]:
    """The 12-byte nonce ``salt || slot`` of the blob at each of `slots`,
    for one AEAD call each, packed one by one: for the few rows these calls
    take that costs less than the numpy calls of `value_elements`, whose
    first 12 bytes a block it matches (0.3 against 1.3 us at one row on a
    2-core Xeon VM).  An int list or range is packed as it is; a slot
    outside 32 bits raises `struct.error`."""
    if isinstance(slots, np.ndarray):
        slots = slots.astype(np.uint32, copy=False).tolist()
    return [_VALUE_NONCE.pack(salt, slot) for slot in slots]


def _check_salt(salt: bytes) -> None:
    """Raise `AuthenticationError` unless `salt` is `VALUE_SALT_BYTES`
    long: a result's salt comes from the host."""
    if len(salt) != VALUE_SALT_BYTES:
        raise AuthenticationError(f"value salt is {len(salt)} bytes, not {VALUE_SALT_BYTES}")


def _row_bytes(matrix: np.ndarray) -> list[bytes]:
    """The rows of a 2-D uint8 matrix as bytes, in one C-level pass.  A
    void row converts to bytes of its full width, where an "S" row would
    drop trailing zero bytes."""
    k, width = matrix.shape
    if not width:
        return [b""] * k
    return np.ascontiguousarray(matrix).view(f"V{width}").ravel().tolist()


def open_wires(key: bytes, wires: np.ndarray, salt: bytes, slots) -> list[bytes]:
    """Open the rows of a ``(k, width)`` uint8 matrix of blobs, row i at
    the nonce of `slots[i]` under `salt` (`value_elements`), as
    `server.fetch_values` gathers a result and the enclave a batch of node
    records: their plaintexts, in order.  A row opens only under the key,
    at the slot and under the salt it was sealed with; any failure, a salt
    of another length or a count of slots other than ``k`` included, aborts
    the whole batch with `AuthenticationError`.

    At least `_BULK_MIN_WIRES` rows, with a body of 1 to `_BULK_MAX_BLOCKS`
    blocks, open in array passes of at most `_PASS_BYTES` each
    (`_open_pass`), read as they are.  Any other matrix opens in one `map`
    of the AEAD over its rows."""
    k, width = wires.shape
    _check_salt(salt)
    if len(slots) != k:
        raise AuthenticationError(f"{k} value blobs come with {len(slots)} slots")
    state = _state(key)
    if k >= _BULK_MIN_WIRES and 0 < width - TAG_BYTES <= 16 * _BULK_MAX_BLOCKS:
        slots = np.asarray(slots)
        plains: list[bytes] = []
        for rows in _passes(k, width):
            plains += _open_pass(state, wires[rows], salt, slots[rows])
        return plains
    decrypt = state.aead.decrypt
    try:
        if k == 1:
            # A streamed batch's usual size: one call, and no list to build.
            return [decrypt(_VALUE_NONCE.pack(salt, slots[0]), wires.tobytes(), None)]
        nonces = _value_nonces(salt, slots)
        return list(map(decrypt, nonces, _row_bytes(wires), itertools.repeat(None)))
    except (InvalidTag, struct.error):
        raise AuthenticationError("ciphertext rejected") from None


def seal_wires(key: bytes, plains: np.ndarray, salt: bytes, slots) -> np.ndarray:
    """Seal the rows of a ``(k, body)`` uint8 matrix, row i at the nonce of
    `slots[i]` under `salt` (`value_elements`), into a
    ``(k, body + TAG_BYTES)`` uint8 matrix of ``body || tag`` rows, in
    order: `open_wires` opens it at the same salt and slots.  Sealing is
    deterministic in the key, the salt, the slots and the plaintexts, so
    the caller must never seal two plaintexts at one salt and slot.

    A body of 1 to `_BULK_MAX_BLOCKS` blocks, in at least
    `_SEAL_ROWS_PER_BLOCK` rows a block, is sealed in array passes of at
    most `_PASS_BYTES` each (`_seal_pass`).  Any other matrix is sealed one
    AEAD call per row; both give the same bytes."""
    k, body = plains.shape
    width = body + TAG_BYTES
    blocks = -(-body // 16)
    _check_salt(salt)
    state = _state(key)
    if 0 < blocks <= _BULK_MAX_BLOCKS and k >= _SEAL_ROWS_PER_BLOCK * blocks:
        # The GHASH tables are built here and never kept: a container's
        # values are sealed once, and tables kept from amid the seal's
        # temporaries held ~1 MB more peak RSS over ten builds of 100k
        # values; they cost ~0.16 ms a power of H, `body` blocks plus one.
        tables = _ghash_tables(state, blocks + 1)
        slots = np.asarray(slots)
        wires = np.empty((k, width), np.uint8)
        for rows in _passes(k, width):
            _seal_pass(state, tables, plains[rows], wires[rows], salt, slots[rows])
        return wires
    nonces = _value_nonces(salt, slots)
    seal = state.aead.encrypt
    sealed = b"".join(map(seal, nonces, _row_bytes(plains), itertools.repeat(None)))
    return np.frombuffer(sealed, np.uint8).reshape(k, width)


def _passes(rows: int, width: int) -> list[slice]:
    """`rows` rows of `width` bytes split into the fewest array passes of at
    most `_PASS_BYTES` each, of near-equal size, so that no pass is a short
    remainder."""
    count = -(-rows * width // _PASS_BYTES)
    step = -(-rows // count)
    return [slice(at, at + step) for at in range(0, rows, step)]


# Array passes.  An AEAD call costs ~0.5 us a blob, nearly all of it
# per-call overhead; an array pass ~25 us of numpy and AES calls, plus
# ~1 us a body block and a few ns a byte.  So a matrix with a body of 1 to
# _BULK_MAX_BLOCKS 16-byte blocks takes array passes, each of at most
# _PASS_BYTES of rows (`_passes`), to open from _BULK_MIN_WIRES rows and
# to seal from _SEAL_ROWS_PER_BLOCK rows a block.  Measured on a 2-core
# Xeon VM against a `map` of the AEAD, best of 21 interleaved runs:
# - An open (`_open_pass`) checks all its tags with one random linear
#   combination, m + 5 GMAC calls for m-block bodies, whatever the row
#   count.  It won from 64 rows at one block, and broke even near 80 rows
#   at five blocks and 100 at eight; at twelve blocks it tied at 2,048
#   rows, and at sixteen it lost there.  100 one-block rows opened in 30 us
#   (34 with a per-row GHASH gather, 56 per call), 4,096 in 252 (757,
#   2,398), 456 rows of 79 bytes in 108 (253 per call) and 14,000 in 2.9 ms
#   (8.0 per call).
# - A seal (`_seal_pass`) gathers each row's tag from per-key tables, 16
#   entries a block a row (`_tags`), after it builds the tables, ~0.16 ms a
#   power of H, blocks plus one.  A seal's AEAD call costs ~0.75 us a row,
#   at one block as at eight, so the tables pay off only over
#   _SEAL_ROWS_PER_BLOCK rows a block.  Medians of 21 interleaved runs:
#   at one block array passes sealed 512 rows in 0.57 ms (0.65 per call),
#   1,024 in 0.72 (1.36) and 100,000 in 11.0 (93.6); at five blocks 4,096
#   rows in 4.0 (3.3 per call), 6,144 in 4.8 (5.5) and 12,350 in 8.7
#   (12.9); at eight blocks 8,192 in 7.9 (7.9) and 12,288 in 10.5 (11.7).
# - Passes of 128 to 512 KiB opened 14,000 rows of 79 bytes in 2.9-3.0 ms,
#   against 5.4 in 16 KiB passes and 4.7 in one whole pass.  A seal was
#   fastest from 128 KiB too, where its gather's temporaries, 24 bytes an
#   entry, stay under 3 MB.
_BULK_MIN_WIRES = 64
_BULK_MAX_BLOCKS = 8
_SEAL_ROWS_PER_BLOCK = 1024
_PASS_BYTES = 1 << 17
_GCM_R = 0xE1 << 120  # x^128 = 1 + x + x^2 + x^7, in GCM's reflected bit order
# Counters 0 .. _BULK_MAX_BLOCKS + 1 of a value's GCM counter blocks, each as
# the second uint64 word of a block: its 4 big-endian bytes in bytes 12..15.
_COUNTER_WORDS = np.arange(_BULK_MAX_BLOCKS + 2, dtype=">u4").view("<u4").astype("<u8") << 32
# The nonce of every GMAC call of an open's tag check (`_open_pass`).
_CHECK_NONCE = bytes(NONCE_BYTES)


def _x_multiples(h: int) -> list[int]:
    """h·x^p in GF(2^128) for p = 0..127.  GCM reads a block as a 128-bit
    big-endian integer whose most significant bit is the coefficient of
    x^0, so multiplying by x is a right shift, reduced by `_GCM_R`."""
    out = []
    for _ in range(128):
        out.append(h)
        h = (h >> 1) ^ (_GCM_R if h & 1 else 0)
    return out


def _ghash_tables(state: _CipherState, count: int) -> np.ndarray:
    """A seal's GHASH tables for H^1 .. H^count, H = AES_k(0^128):
    `tables[k - 1, j, v]` is the product (v at byte j)·H^k as two uint64
    words, so a block times H^k is the XOR of its 16 bytes' entries.  The
    tables are indexed by ciphertext bytes only, which the host already
    holds, so no memory access depends on a secret."""
    h = int.from_bytes(state.ecb.update(bytes(16)), "big")
    h_multiples = _x_multiples(h)
    multiples = []
    power = h
    for _ in range(count):
        multiples += _x_multiples(power)
        # power·H: the x-multiples of H picked by the bits of power.
        power = functools.reduce(
            operator.xor, itertools.compress(h_multiples, map(int, f"{power:0128b}")), 0
        )
    # basis[k, j, q]: (bit 0x80 >> q of byte j)·H^(k+1).
    basis = np.frombuffer(b"".join(v.to_bytes(16, "big") for v in multiples), np.uint8)
    basis = basis.reshape(count, 16, 8, 16)
    tables = np.zeros((count, 16, 256, 16), np.uint8)
    for bit in range(8):
        low = 1 << bit
        tables[:, :, low : 2 * low] = tables[:, :, :low] ^ basis[:, :, 7 - bit, None]
    return tables.view(np.uint64)


@functools.lru_cache(maxsize=None)
def _table_rows(blocks: int) -> np.ndarray:
    """Row offsets into the flattened GHASH tables for the bytes of a body
    of `blocks` blocks, one per byte: byte j of block i (from 0) reads the
    table of byte j for H^(blocks+1-i)."""
    power_index = np.repeat(np.arange(blocks, 0, -1), 16)
    rows = ((power_index * 16 + np.tile(np.arange(16), blocks)) * 256).reshape(-1, 1)
    rows.flags.writeable = False
    return rows


def _keystream(state: _CipherState, salt: bytes, slots: np.ndarray, blocks: int) -> np.ndarray:
    """The GCM counter blocks of the value nonce of each slot, encrypted in
    one ECB call, as a ``(blocks + 1, n, 16)`` uint8 array, one block of
    every row after another: block 0 is E_K(J0), J0 = nonce‖1, each row's
    tag mask, and blocks 1..`blocks` are the keystream,
    E_K(nonce‖2 .. nonce‖blocks+1).  A counter block is laid out as in
    `value_elements`, with its counter, big-endian, in the high 32 bits of
    its second little-endian word."""
    counters = np.empty((blocks + 1, len(slots), 2), "<u8")
    counters[:, :, 0] = int.from_bytes(salt, "little")
    slot = slots.astype(np.uint32, copy=False)
    np.bitwise_or(slot, _COUNTER_WORDS[1 : blocks + 2, None], out=counters[:, :, 1])
    stream = np.frombuffer(state.ecb.update(counters.tobytes()), np.uint8)
    return stream.reshape(blocks + 1, len(slots), 16)


def _tags(tables: np.ndarray, cipher: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The GCM tag of each row of an ``(n, body)`` uint8 ciphertext matrix,
    with no associated data, as ``(n, 2)`` uint64 words: GHASH by
    `_ghash_tables` xor `mask`, the rows' E_K(J0).

    GHASH is the XOR over blocks i = 1..m of C_i·H^(m+2-i), the last block
    zero-padded, and L·H, L the length block: one table gather per
    ciphertext byte, indexed by that byte alone."""
    n, body = cipher.shape
    blocks = -(-body // 16)
    rows = np.zeros((16 * blocks, n), np.intp)
    rows[:body] = cipher.T
    rows += _table_rows(blocks)
    tags = np.bitwise_xor.reduce(np.take(tables.reshape(-1, 2), rows, axis=0), axis=0)
    # L is 0^64 ‖ 8·body, whose only nonzero bytes are its last two.
    length = (8 * body).to_bytes(2, "big")
    tags ^= tables[0, 14, length[0]] ^ tables[0, 15, length[1]]
    tags ^= mask.view(np.uint64)
    return tags


def _open_pass(
    state: _CipherState, wire: np.ndarray, salt: bytes, slots: np.ndarray
) -> list[bytes]:
    """`open_wires` of the rows of an ``(n, width)`` uint8 matrix of value
    blobs with array operations (GCM with a 96-bit nonce, NIST SP 800-38D;
    McGrew-Viega 2004), every tag checked at once by one random linear
    combination (batch verification: Bellare, Garay and Rabin, EUROCRYPT
    1998).

    Row i, with body blocks C_i1..C_im (the last zero-padded), tag T_i and
    mask E_i = E_K(J0_i), is authentic iff its error
    T_i ⊕ E_i ⊕ ⊕_j C_ij·H^(m+2-j) ⊕ L·H is zero, L the length block.
    The error is linear in the blocks, so the pass weights row i by
    ρ^(n+2-i), ρ a GHASH key drawn here, after the rows are fixed: ρ is
    AES_K'(0) for a fresh key K' from `secrets`, never cached and never
    drawn from anything the host has seen.  GMAC under K' of 16n bytes A
    is ⊕_i A_i·ρ^(n+2-i) ⊕ c, c fixed by n, so W(A) = GMAC(A) ⊕ GMAC(0)
    weights a column of the rows in one C-speed call: W(C_j) for each block
    column, W(L) for the length blocks and W(T ⊕ E) for the tags.  Every
    error is zero, but with probability at most (n + 1)/2^128 (the weighted
    sum is a nonzero polynomial in ρ of degree at most n + 1 otherwise,
    plus AES's advantage as a PRF), iff

        ⊕_j W(C_j)·H^(m+2-j) ⊕ W(L)·H ⊕ W(T ⊕ E) = 0.

    The left side times H^2 is GHASH_H of the m + 2 weighted blocks
    W(C_1) .. W(C_m), W(L), W(T ⊕ E), less GHASH_H of as many zero blocks,
    so the pass compares the GMACs under K of the two at one fixed nonce,
    whose E_K term cancels; neither leaves the call, only whether they are
    equal.  (Multiplying by the powers of H with the seal's GHASH tables
    instead took ~6 us more numpy calls a pass, which made a 100-row open
    slower than the per-row gather this check replaces.)  Any failure
    rejects the whole pass, and no plaintext is formed before the check."""
    n, width = wire.shape
    body = width - TAG_BYTES
    blocks = -(-body // 16)
    stream = _keystream(state, salt, slots, blocks)
    # The bodies as columns: block j of every row, zero-padded, in a row.
    columns = np.zeros((blocks, n, 16), np.uint8)
    by_row = columns.transpose(1, 0, 2)
    full = body // 16
    by_row[:, :full] = wire[:, : 16 * full].reshape(n, full, 16)
    if full < blocks:
        by_row[:, full, : body - 16 * full] = wire[:, 16 * full : body]
    gmac = AESGCM(secrets.token_bytes(KEY_BYTES)).encrypt
    common = int.from_bytes(gmac(_CHECK_NONCE, b"", bytes(16 * n)), "big")
    sums = [gmac(_CHECK_NONCE, b"", column) for column in columns]
    sums.append(gmac(_CHECK_NONCE, b"", (8 * body).to_bytes(16, "big") * n))
    sums.append(gmac(_CHECK_NONCE, b"", np.bitwise_xor(wire[:, body:], stream[0])))
    weighted = b"".join([(int.from_bytes(s, "big") ^ common).to_bytes(16, "big") for s in sums])
    check = state.aead.encrypt
    if not hmac.compare_digest(
        check(_CHECK_NONCE, b"", weighted), check(_CHECK_NONCE, b"", bytes(len(weighted)))
    ):
        raise AuthenticationError("ciphertext rejected")
    plains = np.empty((n, blocks, 16), np.uint8)
    np.bitwise_xor(by_row, stream[1:].transpose(1, 0, 2), out=plains)
    return _row_bytes(plains.reshape(n, 16 * blocks)[:, :body])


def _seal_pass(
    state: _CipherState,
    tables: np.ndarray,
    plains: np.ndarray,
    wire: np.ndarray,
    salt: bytes,
    slots: np.ndarray,
) -> None:
    """`seal_wires` of the rows of an ``(n, body)`` uint8 matrix into `wire`,
    ``(n, body + TAG_BYTES)`` rows: each body is encrypted under its slot's
    keystream, and its tag is computed over the ciphertext it now holds
    (`_tags`), as `_open_pass` checks it."""
    n, body = plains.shape
    blocks = -(-body // 16)
    stream = _keystream(state, salt, slots, blocks)
    keystream = stream[1:].transpose(1, 0, 2).reshape(n, 16 * blocks)
    cipher = wire[:, :body]
    np.bitwise_xor(plains, keystream[:, :body], out=cipher)
    wire[:, body:] = _tags(tables, cipher, stream[0]).view(np.uint8)


# ---------------------------------------------------------------------------
# Small-domain pseudorandom permutation
# ---------------------------------------------------------------------------


def prp_permutation(key: bytes, domain_size: int) -> np.ndarray:
    """The keyed permutation of [0, domain_size), as a uint64 array `p`
    whose entry ``p[x]`` is the image of x: Black and Rogaway's prefix
    cipher (Ciphers with Arbitrary Finite Domains, CT-RSA 2002).

    Every x is encrypted as the block ``domain_size || x`` (two
    little-endian u64 words) in one AES-ECB call, under a subkey derived
    from `key`, and ``p[x]`` is the rank of x's 128-bit image among all n
    images.  AES images of distinct blocks are distinct, so the ranks form
    a permutation for every domain size, and, AES being a PRP, one
    indistinguishable from a uniformly random permutation.  The domain size
    in every block makes the permutations of different domains
    independent.  Raises `ValueError` for an empty domain."""
    if domain_size < 1:
        raise ValueError("domain size must be positive")
    blocks = np.empty((domain_size, 2), "<u8")
    blocks[:, 0] = domain_size
    blocks[:, 1] = np.arange(domain_size)
    ecb = _state(subkey(key, b"hsbt-node-placement")).ecb
    images = np.frombuffer(ecb.update(blocks.tobytes()), "<u8").reshape(domain_size, 2)
    # Images compared as little-endian 128-bit integers: high word first.
    ranked = np.lexsort((images[:, 0], images[:, 1]))
    perm = np.empty(domain_size, np.uint64)
    perm[ranked] = np.arange(domain_size, dtype=np.uint64)
    return perm


# ---------------------------------------------------------------------------
# Incremental multiset hash
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultisetHash:
    """Order-independent incremental digest of a multiset of 16-byte elements
    (MSet-Add-Hash, Clarke et al., ASIACRYPT 2003): the sum mod 2^128, as
    16 little-endian bytes, of the AES images of the elements under
    ``subkey(key, b"hsbt-mset-prf")``.  Unlike an XOR, which sees each
    multiplicity only mod 2, the sum is multiset collision resistant: while
    the digest stays hidden (a session balance never leaves the enclave, a
    result digest leaves only under `result_mac`), two multisets whose
    multiplicities differ by less than 2^32 hash alike with probability at
    most 2^-96.
    """

    digest: bytes
    key: bytes

    @classmethod
    def empty(cls, key: bytes) -> "MultisetHash":
        return cls(bytes(MSET_DIGEST_BYTES), key)

    def add(self, element: bytes) -> "MultisetHash":
        """Fold one 16-byte element; `add_all` of that element."""
        return self.add_all(element)

    def add_all(self, elements: bytes, removed: bytes = b"") -> "MultisetHash":
        """Fold in the concatenation of any number of 16-byte `elements` and
        fold out those of `removed`, all in one PRF call; raises
        `ValueError` on a ragged length."""
        if len(elements) % MSET_DIGEST_BYTES or len(removed) % MSET_DIGEST_BYTES:
            raise ValueError("multiset input is not 16-byte elements")
        if not elements and not removed:
            return self
        data = elements + removed if removed else elements
        # The AES images land in a writable array (ECB asks for 15 spare
        # bytes), so `removed` is negated in place: -x = ~x + 1 mod 2^128.
        out = np.empty(len(data) + 15, np.uint8)
        _state(subkey(self.key, b"hsbt-mset-prf")).ecb.update_into(data, out)
        images = out[: len(data)].view("<u4")
        gone = len(removed) // MSET_DIGEST_BYTES
        if gone:
            tail = images[len(elements) // 4 :]
            np.invert(tail, out=tail)
        # Each image as four 32-bit limbs, one contiguous row per limb: summing
        # rows is several times faster than summing across a 4-word axis.
        s0, s1, s2, s3 = images.reshape(-1, 4).T.copy().sum(axis=1, dtype=np.uint64).tolist()
        total = int.from_bytes(self.digest, "little") + gone
        total += s0 + (s1 << 32) + (s2 << 64) + (s3 << 96)
        return MultisetHash((total % 2**128).to_bytes(MSET_DIGEST_BYTES, "little"), self.key)


def mac_tag(key: bytes, message: bytes) -> bytes:
    """Deterministic 256-bit keyed tag (HMAC-SHA256)."""
    return hmac.new(key, message, hashlib.sha256).digest()


@functools.lru_cache(maxsize=256)
def subkey(key: bytes, label: bytes) -> bytes:
    """The AES key `label` names under `key`: its HMAC tag, cut to
    `KEY_BYTES` (a one-call KDF in the sense of NIST SP 800-108).  Four AES
    uses take their key from the tree key through it: the node records
    (`codec.EncryptedIndex.record_key`), the node placement
    (`prp_permutation`), the multiset PRF and the tokens
    (`codec.token_key`).  The tree key itself keys only HMAC, here and in
    `result_mac`, never an AES context: two AES uses under one key would
    share it, as a PRF under the key of an AEAD gives that AEAD's GHASH key,
    AES_k(0^128), as the image of the zero block.  The last 256 subkeys are
    kept, so a batch runs no HMAC."""
    return mac_tag(key, label)[:KEY_BYTES]


def result_mac(tree_key: bytes, state: MultisetHash) -> bytes:
    """Tag over a result-multiset digest, issued at session finalization and
    recomputed by the client over the values it actually received."""
    return mac_tag(tree_key, b"hsbt-results\x00" + state.digest)
