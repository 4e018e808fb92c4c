"""Cryptographic building blocks for the encrypted index.

Four primitives live here: authenticated probabilistic encryption (AES-128-GCM),
a small-domain pseudorandom permutation (cycle-walking Feistel network keyed by
AES), an incremental multiset hash over 16-byte elements (XOR accumulator over
AES-128 used as a PRF under a subkey derived from the caller's key, plus an
explicit element counter), and an HMAC tag.

All operations are pure given their key material, so they are safe for
unrestricted concurrent use.  `MultisetHash` values are immutable snapshots;
`add_all` returns a new state.
"""

from __future__ import annotations

import hashlib
import hmac
import itertools
import secrets
import struct
import threading
from dataclasses import dataclass
from operator import itemgetter

import numpy as np
from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

KEY_BYTES = 16
NONCE_BYTES = 12
TAG_BYTES = 16
MSET_DIGEST_BYTES = 16
MAC_BYTES = 32

_FEISTEL_ROUNDS = 4


class AuthenticationError(Exception):
    """Decryption or tag verification failed.

    Raised for a wrong key, wrong associated data, or a modified ciphertext;
    callers use this to detect tampering.
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


@dataclass(frozen=True)
class Ciphertext:
    """One authenticated ciphertext.

    Wire layout is ``nonce(12) || body || tag(16)``, bit-exact, the layout
    `decrypt_wire` opens.
    """

    nonce: bytes
    body: bytes
    tag: bytes

    def to_bytes(self) -> bytes:
        return self.nonce + self.body + self.tag


_aead_cache: dict[bytes, AESGCM] = {}


def _aead(key: bytes) -> AESGCM:
    inst = _aead_cache.get(key)
    if inst is None:
        inst = _aead_cache[key] = AESGCM(key)
    return inst


def encrypt(key: bytes, plaintext: bytes, aad: bytes = b"") -> Ciphertext:
    """Probabilistic authenticated encryption; a fresh nonce is drawn per call."""
    nonce = secrets.token_bytes(NONCE_BYTES)
    sealed = _aead(key).encrypt(nonce, plaintext, aad or None)
    return Ciphertext(nonce, sealed[:-TAG_BYTES], sealed[-TAG_BYTES:])


def decrypt(key: bytes, ciphertext: Ciphertext, aad: bytes = b"") -> bytes:
    """Invert `encrypt`; raises AuthenticationError unless (key, aad, c) is authentic."""
    try:
        return _aead(key).decrypt(
            ciphertext.nonce, ciphertext.body + ciphertext.tag, aad or None
        )
    except InvalidTag:
        raise AuthenticationError("ciphertext rejected") from None


def encrypt_wires(key: bytes, plaintexts, aads=None) -> list[bytes]:
    """`encrypt` of each plaintext straight to wire bytes, with one nonce
    draw and one AEAD object for the whole batch.  `plaintexts` is a sized
    sequence of bytes-like items (numpy rows included); `aads`, any iterable
    when given, binds each plaintext to its own associated data."""
    seal = _aead(key).encrypt
    drawn = secrets.token_bytes(NONCE_BYTES * len(plaintexts))
    starts = range(0, len(drawn), NONCE_BYTES)
    if aads is None:
        aads = itertools.repeat(None)
    return [
        (nonce := drawn[at : at + NONCE_BYTES]) + seal(nonce, plain, aad)
        for at, plain, aad in zip(starts, plaintexts, aads)
    ]


def decrypt_wire(key: bytes, wire: bytes, aad: bytes = b"") -> bytes:
    """Invert one `encrypt_wires` item; raises AuthenticationError on any
    modification.

    A wire too short for a nonce and a tag is rejected by the AEAD itself
    (`ValueError` for a nonce under 8 bytes, `InvalidTag` otherwise), so no
    length check runs in Python."""
    try:
        return _aead(key).decrypt(wire[:NONCE_BYTES], wire[NONCE_BYTES:], aad or None)
    except (InvalidTag, ValueError):
        raise AuthenticationError("ciphertext rejected") from None


_nonce_of = itemgetter(slice(None, NONCE_BYTES))
_body_of = itemgetter(slice(NONCE_BYTES, None))


def decrypt_wires(key: bytes, wires, aad: bytes = b"") -> list[bytes]:
    """Bulk `decrypt_wire` over a sequence of wires, in order, in one `map`;
    any failure aborts the whole batch."""
    bound = itertools.repeat(aad or None)
    try:
        return list(map(_aead(key).decrypt, map(_nonce_of, wires), map(_body_of, wires), bound))
    except (InvalidTag, ValueError):
        raise AuthenticationError("ciphertext rejected") from None


# ---------------------------------------------------------------------------
# Small-domain pseudorandom permutation
# ---------------------------------------------------------------------------
#
# A 4-round balanced Feistel network over the smallest even bit-width covering
# the domain, with AES-128 as the round function, restricted to [0, n) by
# cycle-walking.  Walking terminates because the Feistel network permutes the
# power-of-two superset, and costs < 4 expected iterations since the superset
# is below 4n.


def _feistel_width(domain_size: int) -> int:
    bits = max((domain_size - 1).bit_length(), 2)
    return bits + (bits & 1)


def _round_values(encryptor, width: int, rnd: int, halves: np.ndarray) -> np.ndarray:
    # One PRF evaluation per element: AES_k(width || round || half), bulk-encrypted.
    m = halves.shape[0]
    blocks = np.zeros((m, 16), dtype=np.uint8)
    blocks[:, 0] = width
    blocks[:, 1] = rnd
    blocks[:, 8:16] = halves.astype("<u8").view(np.uint8).reshape(m, 8)
    out = encryptor.update(blocks.tobytes())
    return np.frombuffer(out, dtype=np.uint8).reshape(m, 16)[:, :8].copy().view("<u8").reshape(m)


def _feistel(encryptor, width: int, xs: np.ndarray) -> np.ndarray:
    half = width // 2
    mask = np.uint64((1 << half) - 1)
    left = xs >> np.uint64(half)
    right = xs & mask
    for rnd in range(_FEISTEL_ROUNDS):
        f = _round_values(encryptor, width, rnd, right) & mask
        left, right = right, left ^ f
    return (left << np.uint64(half)) | right


def _prp_encryptor(key: bytes):
    # Raw AES block permutation used strictly as a PRF on distinct inputs.
    return Cipher(algorithms.AES(key), modes.ECB()).encryptor()


def prp_permutation(key: bytes, domain_size: int) -> np.ndarray:
    """Evaluate the keyed permutation on the whole domain [0, domain_size).

    Returns an array `p` with ``p[x] == prp_apply(key, domain_size, x)``.
    """
    if domain_size < 1:
        raise ValueError("domain size must be positive")
    if domain_size == 1:
        return np.zeros(1, dtype=np.uint64)
    enc = _prp_encryptor(key)
    width = _feistel_width(domain_size)
    ys = _feistel(enc, width, np.arange(domain_size, dtype=np.uint64))
    bad = ys >= domain_size
    while bad.any():
        ys[bad] = _feistel(enc, width, ys[bad])
        bad = ys >= domain_size
    return ys


def prp_apply(key: bytes, domain_size: int, x: int) -> int:
    """Apply the keyed permutation to one point of [0, domain_size)."""
    if not 0 <= x < domain_size:
        raise ValueError(f"point {x} outside domain [0, {domain_size})")
    if domain_size == 1:
        return 0
    enc = _prp_encryptor(key)
    width = _feistel_width(domain_size)
    y = _feistel(enc, width, np.array([x], dtype=np.uint64))
    while y[0] >= domain_size:
        y = _feistel(enc, width, y)
    return int(y[0])


# ---------------------------------------------------------------------------
# Incremental multiset hash
# ---------------------------------------------------------------------------


# Multiset-PRF contexts, one dict per thread (a cipher context must not be
# shared across threads), keyed by the caller's key.  Building one, subkey
# included, costs about three small `add_all` calls, so they are kept; the
# cap bounds the table.
_mset_contexts = threading.local()
_MSET_CONTEXT_CAP = 64


def mset_subkey(key: bytes) -> bytes:
    """The AES key of the multiset PRF: derived from `key`, never `key`
    itself.  The tree key also keys the node AEAD and the Feistel PRP, and
    the GHASH key of AES-GCM is AES_k(0^128), which would be the image of
    node id 0 under the raw key."""
    return mac_tag(key, b"hsbt-mset-prf")[:KEY_BYTES]


def _mset_prf(key: bytes):
    contexts = getattr(_mset_contexts, "by_key", None)
    if contexts is None:
        contexts = _mset_contexts.by_key = {}
    prf = contexts.get(key)
    if prf is None:
        if len(contexts) >= _MSET_CONTEXT_CAP:
            contexts.clear()
        prf = contexts[key] = Cipher(algorithms.AES(mset_subkey(key)), modes.ECB()).encryptor()
    return prf


@dataclass(frozen=True)
class MultisetHash:
    """Order-independent incremental digest of a multiset of 16-byte elements
    (MSet-XOR-Hash, Clarke et al., ASIACRYPT 2003).

    The accumulator XORs AES under `mset_subkey(key)` of each element, and the
    explicit element counter keeps repeated elements from cancelling out.
    Equality compares both accumulator and count.
    """

    digest: bytes
    count: int
    key: bytes

    @classmethod
    def empty(cls, key: bytes) -> "MultisetHash":
        return cls(bytes(MSET_DIGEST_BYTES), 0, key)

    def add(self, element: bytes) -> "MultisetHash":
        """Fold one 16-byte element; `add_all` of that element."""
        return self.add_all(element)

    def add_all(self, elements: bytes) -> "MultisetHash":
        """Fold the concatenation of any number of 16-byte elements, all in
        one PRF call; raises `ValueError` on a ragged length."""
        if len(elements) % MSET_DIGEST_BYTES:
            raise ValueError(f"multiset input of {len(elements)} bytes is not 16-byte elements")
        if not elements:
            return self
        images = np.frombuffer(_mset_prf(self.key).update(elements), dtype="<u8")
        acc = np.bitwise_xor.reduce(images.reshape(-1, 2), axis=0)
        acc ^= np.frombuffer(self.digest, dtype="<u8")
        count = self.count + len(elements) // MSET_DIGEST_BYTES
        return MultisetHash(acc.tobytes(), count, self.key)


def mac_tag(key: bytes, message: bytes) -> bytes:
    """Deterministic 256-bit keyed tag (HMAC-SHA256)."""
    return hmac.new(key, message, hashlib.sha256).digest()


def result_mac(tree_key: bytes, state: MultisetHash) -> bytes:
    """Tag over a result-multiset state, issued at session finalization and
    recomputed by the client over the values it actually received."""
    msg = b"hsbt-results\x00" + state.digest + struct.pack("<Q", state.count)
    return mac_tag(tree_key, msg)
