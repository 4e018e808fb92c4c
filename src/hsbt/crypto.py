"""Cryptographic building blocks for the encrypted index.

Four primitives live here: authenticated probabilistic encryption (AES-128-GCM),
a small-domain pseudorandom permutation (the prefix cipher: the domain sorted
by its AES images), an incremental multiset hash over 16-byte elements (the
sum mod 2^128 of AES-128, used as a PRF under a subkey derived from the
caller's key), and an HMAC tag.

A token is wire bytes, ``nonce(12) || body || tag(16)``, under a fresh
random nonce: `encrypt_wires` seals tokens and `decrypt_wire` opens one.
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
decide how they run, by one rule.  One AEAD call per blob costs ~1 us,
nearly all of it per-call overhead, so a matrix of at least
`_BULK_MIN_WIRES` rows, with a body of at most `_BULK_MAX_BLOCKS` 16-byte
blocks, is sealed or opened with array operations.  One ECB call makes
every counter block, from the salt and the slots (`_keystream`), and GHASH
is a gather from per-key tables of byte multiples of the powers of H
(`_tags`); a seal writes each tag into its row, an open checks every tag in
one constant-time compare, and any mismatch rejects the whole batch, as the
per-blob path does.  The GHASH tables are indexed by ciphertext bytes,
which the untrusted host already sees, so neither pass makes a memory
access that depends on a secret.  Both paths give the same bytes; every
other matrix takes one AEAD call per blob.

All operations are pure given their key material, so they are safe for
unrestricted concurrent use; the cipher contexts they cache are per thread,
and each cache holds a bounded number of keys.
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


def _per_thread(store: threading.local, cap: int, key: bytes, make):
    """`make(key)`, kept in this thread's table in `store`, which holds at
    most `cap` keys; a full table is emptied."""
    try:
        return store.by_key[key]
    except AttributeError:
        table = store.by_key = {}
    except KeyError:
        table = store.by_key
        if len(table) >= cap:
            table.clear()
    item = table[key] = make(key)
    return item


# AEAD objects, one dict per thread, keyed by their key, for at most
# _AEAD_CAP keys per thread.
_aeads = threading.local()
_AEAD_CAP = 64


def _aead(key: bytes) -> AESGCM:
    return _per_thread(_aeads, _AEAD_CAP, key, AESGCM)


def encrypt_wires(key: bytes, plaintexts) -> list[bytes]:
    """Probabilistic authenticated encryption of each plaintext to wire
    bytes, ``nonce(12) || body || tag(16)``, under a fresh random nonce, with
    one nonce draw and one AEAD object for the whole batch.  `plaintexts` is
    a sized sequence of bytes-like items."""
    seal = _aead(key).encrypt
    drawn = secrets.token_bytes(NONCE_BYTES * len(plaintexts))
    starts = range(0, len(drawn), NONCE_BYTES)
    return [
        (nonce := drawn[at : at + NONCE_BYTES]) + seal(nonce, plain, None)
        for at, plain in zip(starts, plaintexts)
    ]


def decrypt_wire(key: bytes, wire: bytes) -> bytes:
    """Invert one `encrypt_wires` item; raises AuthenticationError on any
    modification.

    A wire too short for a nonce and a tag is rejected by the AEAD itself
    (`ValueError` for a nonce under 8 bytes, `InvalidTag` otherwise), so no
    length check runs in Python."""
    try:
        return _aead(key).decrypt(wire[:NONCE_BYTES], wire[NONCE_BYTES:], None)
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
    blocks, open in array passes of up to `_BULK_CHUNK_WIRES` rows each
    (`_open_bulk`), read as they are.  Any other matrix opens in one `map`
    of the AEAD over its rows."""
    k, width = wires.shape
    _check_salt(salt)
    if len(slots) != k:
        raise AuthenticationError(f"{k} value blobs come with {len(slots)} slots")
    if k >= _BULK_MIN_WIRES and 0 < width - TAG_BYTES <= 16 * _BULK_MAX_BLOCKS:
        state = _bulk_state(key)
        slots = np.asarray(slots)
        plains: list[bytes] = []
        for at in range(0, k, _BULK_CHUNK_WIRES):
            chunk = slice(at, at + _BULK_CHUNK_WIRES)
            plains += _open_bulk(state, wires[chunk], salt, slots[chunk])
        return plains
    decrypt = _aead(key).decrypt
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

    The cut-over is `open_wires`'s: at least `_BULK_MIN_WIRES` rows, with a
    body of 1 to `_BULK_MAX_BLOCKS` blocks, are sealed in array passes of up
    to `_BULK_CHUNK_WIRES` rows each (`_seal_bulk`).  Any other matrix is
    sealed one AEAD call per row; both give the same bytes."""
    k, body = plains.shape
    width = body + TAG_BYTES
    _check_salt(salt)
    if k >= _BULK_MIN_WIRES and 0 < body <= 16 * _BULK_MAX_BLOCKS:
        # Not the cached state: a container's values are sealed once, and
        # tables kept from amid the seal's temporaries held ~1 MB more peak
        # RSS over ten builds of 100k values; a fresh state costs ~0.4 ms.
        state = _BulkGcm(key)
        slots = np.asarray(slots)
        wires = np.empty((k, width), np.uint8)
        for at in range(0, k, _BULK_CHUNK_WIRES):
            chunk = slice(at, at + _BULK_CHUNK_WIRES)
            _seal_bulk(state, plains[chunk], wires[chunk], salt, slots[chunk])
        return wires
    nonces = _value_nonces(salt, slots)
    seal = _aead(key).encrypt
    sealed = b"".join(map(seal, nonces, _row_bytes(plains), itertools.repeat(None)))
    return np.frombuffer(sealed, np.uint8).reshape(k, width)


# Bulk open and seal.  A batch opens in array passes (`_open_bulk`) from
# _BULK_MIN_WIRES wires up: an AEAD call costs ~1 us a wire, nearly all of
# it per-call overhead, against ~0.3 us a wire for the array pass plus
# ~20 us of numpy calls per pass; they break even near 32 wires of one
# block and 48 of four.  It takes bodies of up to _BULK_MAX_BLOCKS 16-byte
# blocks: GHASH costs 16 table gathers per block per wire, and at 5 blocks
# the array pass was slower at every batch size tried.  A pass covers at
# most _BULK_CHUNK_WIRES wires, which keeps its temporaries (16 bytes per
# gather) small: one pass over 4,096 one-block wires page-faulted ~500
# times and took twice as long as eight passes.  Measured on a 2-core Xeon
# VM against a `map` of the AEAD, at 1 to 8 blocks and 32 to 4,096 wires.
# A seal (`_seal_bulk`) takes the same matrices.  Against `encrypt_wires`
# it broke even between 16 and 32 wires at 1 to 8 blocks, and took 38 us
# against 66 for 64 one-block wires and 281 against 809 for 512 four-block
# ones (same VM, best of five).
_BULK_MIN_WIRES = 64
_BULK_MAX_BLOCKS = 4
_BULK_CHUNK_WIRES = 512
# Bulk-open state (`_BulkGcm`), one per thread (an ECB context must not be
# shared across threads) and key, for at most _BULK_STATE_CAP keys per
# thread; each holds 64 KiB of GHASH tables per power of H it has used, at
# most `_BULK_MAX_BLOCKS + 1` powers.
_bulk_states = threading.local()
_BULK_STATE_CAP = 16
_GCM_R = 0xE1 << 120  # x^128 = 1 + x + x^2 + x^7, in GCM's reflected bit order
# Counters 0 .. _BULK_MAX_BLOCKS + 1 of a value's GCM counter blocks, each as
# the second uint64 word of a block: its 4 big-endian bytes in bytes 12..15.
_COUNTER_WORDS = np.arange(_BULK_MAX_BLOCKS + 2, dtype=">u4").view("<u4").astype("<u8") << 32


def _x_multiples(h: int) -> list[int]:
    """h·x^p in GF(2^128) for p = 0..127.  GCM reads a block as a 128-bit
    big-endian integer whose most significant bit is the coefficient of
    x^0, so multiplying by x is a right shift, reduced by `_GCM_R`."""
    out = []
    for _ in range(128):
        out.append(h)
        h = (h >> 1) ^ (_GCM_R if h & 1 else 0)
    return out


class _BulkGcm:
    """One key's state for `_open_bulk` and `_seal_bulk`: an AES-ECB
    context and the GHASH tables for the powers of H = AES_k(0^128) used so
    far.

    `tables[k - 1, j, v]` is the product (v at byte j)·H^k as two uint64
    words, so a block times H^k is the XOR of its 16 bytes' entries.  The
    tables are indexed by ciphertext bytes only, which the host already
    holds, so no memory access depends on a secret."""

    def __init__(self, key: bytes):
        self.ecb = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
        self.h = int.from_bytes(self.ecb.update(bytes(16)), "big")
        self.tables = np.zeros((0, 16, 256, 2), np.uint64)

    def powers(self, count: int) -> np.ndarray:
        """The tables of at least H^1 .. H^count, built on first use."""
        if len(self.tables) < count:
            h_multiples = _x_multiples(self.h)
            multiples = []
            power = self.h
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
            self.tables = tables.view(np.uint64)
        return self.tables


def _bulk_state(key: bytes) -> _BulkGcm:
    return _per_thread(_bulk_states, _BULK_STATE_CAP, key, _BulkGcm)


@functools.lru_cache(maxsize=None)
def _table_rows(blocks: int) -> np.ndarray:
    """Row offsets into the flattened GHASH tables for the bytes of a body
    of `blocks` blocks, one per byte: byte j of block i (from 0) reads the
    table of byte j for H^(blocks+1-i)."""
    power_index = np.repeat(np.arange(blocks, 0, -1), 16)
    rows = ((power_index * 16 + np.tile(np.arange(16), blocks)) * 256).reshape(-1, 1)
    rows.flags.writeable = False
    return rows


def _keystream(state: _BulkGcm, salt: bytes, slots: np.ndarray, blocks: int) -> np.ndarray:
    """The GCM counter blocks of the value nonce of each slot, encrypted in
    one ECB call, as an ``(n, blocks + 1, 16)`` uint8 array: block 0 is
    E_K(J0), J0 = nonce‖1, the tag mask, and blocks 1..`blocks` are the
    keystream, E_K(nonce‖2 .. nonce‖blocks+1).  A block is laid out as in
    `value_elements`, with its counter, big-endian, in the high 32 bits of
    its second little-endian word; built here in two array assignments,
    ~5 us less than from `value_elements` at 64 slots."""
    counters = np.empty((len(slots), blocks + 1, 2), "<u8")
    counters[:, :, 0] = np.frombuffer(salt, "<u8")
    slot = slots.astype(np.uint32, copy=False)[:, None]
    counters[:, :, 1] = slot | _COUNTER_WORDS[1 : blocks + 2]
    stream = np.frombuffer(state.ecb.update(counters.tobytes()), np.uint8)
    return stream.reshape(len(slots), blocks + 1, 16)


def _tags(state: _BulkGcm, cipher: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The GCM tag of each row of an ``(n, body)`` uint8 ciphertext matrix,
    with no associated data, as ``(n, 2)`` uint64 words: GHASH xor `mask`,
    the rows' E_K(J0).

    GHASH is the XOR over blocks i = 1..m of C_i·H^(m+2-i), the last block
    zero-padded, and L·H, L the length block: one table gather per
    ciphertext byte, indexed by that byte alone."""
    n, body = cipher.shape
    blocks = -(-body // 16)
    rows = np.zeros((16 * blocks, n), np.intp)
    rows[:body] = cipher.T
    rows += _table_rows(blocks)
    tables = state.powers(blocks + 1)
    tags = np.bitwise_xor.reduce(np.take(tables.reshape(-1, 2), rows, axis=0), axis=0)
    # L is 0^64 ‖ 8·body, whose only nonzero bytes are its last two.
    length = (8 * body).to_bytes(2, "big")
    tags ^= tables[0, 14, length[0]] ^ tables[0, 15, length[1]]
    tags ^= mask.view(np.uint64)
    return tags


def _open_bulk(state: _BulkGcm, wire: np.ndarray, salt: bytes, slots: np.ndarray) -> list[bytes]:
    """`open_wires` of the rows of an ``(n, width)`` uint8 matrix of value
    blobs with array operations (GCM with a 96-bit nonce, NIST SP 800-38D;
    McGrew-Viega 2004): one `_keystream` call, one `_tags` call, and all
    tags checked in one constant-time compare."""
    n, width = wire.shape
    body = width - TAG_BYTES
    blocks = -(-body // 16)
    stream = _keystream(state, salt, slots, blocks)
    cipher = wire[:, :body]
    tags = _tags(state, cipher, stream[:, 0])
    if not hmac.compare_digest(tags.tobytes(), wire[:, body:].tobytes()):
        raise AuthenticationError("ciphertext rejected")
    return _row_bytes(cipher ^ stream[:, 1:].reshape(n, 16 * blocks)[:, :body])


def _seal_bulk(
    state: _BulkGcm, plains: np.ndarray, wire: np.ndarray, salt: bytes, slots: np.ndarray
) -> None:
    """`seal_wires` of the rows of an ``(n, body)`` uint8 matrix into `wire`,
    ``(n, body + TAG_BYTES)`` rows: each body is encrypted under its slot's
    keystream, and its tag is computed over the ciphertext it now holds, as
    `_open_bulk` checks it."""
    n, body = plains.shape
    blocks = -(-body // 16)
    stream = _keystream(state, salt, slots, blocks)
    cipher = wire[:, :body]
    np.bitwise_xor(plains, stream[:, 1:].reshape(n, 16 * blocks)[:, :body], out=cipher)
    wire[:, body:] = _tags(state, cipher, stream[:, 0]).view(np.uint8)


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
    ecb = Cipher(algorithms.AES(subkey(key, b"hsbt-node-placement")), modes.ECB()).encryptor()
    images = np.frombuffer(ecb.update(blocks.tobytes()), "<u8").reshape(domain_size, 2)
    # Images compared as little-endian 128-bit integers: high word first.
    ranked = np.lexsort((images[:, 0], images[:, 1]))
    perm = np.empty(domain_size, np.uint64)
    perm[ranked] = np.arange(domain_size, dtype=np.uint64)
    return perm


# ---------------------------------------------------------------------------
# Incremental multiset hash
# ---------------------------------------------------------------------------


# Multiset-PRF contexts, one dict per thread (a cipher context must not be
# shared across threads), keyed by the caller's key.  Building one, subkey
# included, costs about three small `add_all` calls, so they are kept; the
# cap bounds the table.
_mset_contexts = threading.local()
_MSET_CONTEXT_CAP = 64


def _mset_prf(key: bytes):
    return _per_thread(_mset_contexts, _MSET_CONTEXT_CAP, key, _mset_context)


def _mset_context(key: bytes):
    return Cipher(algorithms.AES(subkey(key, b"hsbt-mset-prf")), modes.ECB()).encryptor()


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
        _mset_prf(self.key).update_into(data, out)
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
    `KEY_BYTES` (a one-call KDF in the sense of NIST SP 800-108).  Three AES
    uses take their key from the tree key through it: the node records
    (`codec.EncryptedIndex.record_key`), the node placement
    (`prp_permutation`) and the multiset PRF.  The tree key itself keys only
    the token AEAD, whose GHASH key, AES_k(0^128), the PRF under the raw key
    would give as the image of slot 0.  The last 256 subkeys are kept, so a
    batch runs no HMAC."""
    return mac_tag(key, label)[:KEY_BYTES]


def result_mac(tree_key: bytes, state: MultisetHash) -> bytes:
    """Tag over a result-multiset digest, issued at session finalization and
    recomputed by the client over the values it actually received."""
    return mac_tag(tree_key, b"hsbt-results\x00" + state.digest)
