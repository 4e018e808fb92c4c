"""Serialization and encryption of the index container.

The container holds two regions behind a 33-byte header (magic, version,
integrity flag, branching factor ``b``, node count, value count, value blob
width, root slot, value salt):

* node region: one fixed-size encrypted record per tree node, placed by a
  keyed sort: the record of node id ``x`` is stored at slot ``p[x]`` of
  ``p = crypto.prp_permutation(tree_key, node_count)``.  Every record has
  the same size whether it came from the root, an inner node, or a leaf,
  so the ciphertexts expose nothing about node fullness; that size follows
  from ``b`` alone.  A record is ``body || tag``, sealed as a value is, at
  the nonce ``salt || slot``, under the record key
  (`EncryptedIndex.record_key`): a `crypto.subkey` of the tree key and the
  whole packed header.  The nonce binds a record to its slot, so a record
  opens only at the slot it was sealed for: the slot is the node's
  identity, and no record repeats it.  The key binds it to the header, so
  rewriting any header field, the salt included, gives another key.
  Relocating a record, or rewriting the header, is detected at the first
  record decrypted.
  The bulk load emits the root last, so the root is node ``node_count - 1``,
  a fact every record binds through the header's node count.  The header's
  root slot, ``p[node_count - 1]``, which every record binds too, is where
  the enclave starts a walk: it evaluates no permutation.
* value region: ``n`` encrypted blobs of one width, back to back with no
  framing, in the random order chosen at build time, decryptable only with
  the value key.  A blob is ``body || tag`` at an implied nonce: the blob at
  region slot ``s`` is sealed under ``salt || s`` (`crypto.value_elements`),
  the 8-byte salt `encrypt_index` draws for the container, so it opens only
  at its own slot and in its own container.  The header carries the width,
  ``len(value) + 16``, so the region is exactly ``n x width`` bytes and every
  record's key binds the width and the salt.

Every value of a container has one length: `encrypt_index` rejects values of
several lengths, and `hsbt build` pads variable-length input to one width
before it gets here.  One width also hides each value's length from the host.
In memory each region is one contiguous buffer, seen as a uint8 matrix of
one row per record (`EncryptedIndex.node_rows`) or per value
(`EncryptedIndex.value_rows`): every result, of any size, is gathered from
the value rows with one `np.take`, with the slots it was read from and the
salt (`SealedValues`), and the client opens each row at its slot
(`decrypt_results`).

A query token is plain `bytes`, its 36-byte wire (`make_token`): the range
sealed under the token key, a subkey of the one tree key the enclave holds.
Nothing rides beside it in the clear.

Node record plaintext, all integers little-endian, one layout whatever the
integrity flag::

    flags(1, bit0 = leaf) | key_count(2) | keys[(b-1) x 4] | pointers[b x 4]

Records are array-shaped on both sides: `encrypt_index` assigns the built
tree's row arrays (`bptree.PlainTree`) into one numpy structured dtype,
`node_dtype`, and the enclave decodes a large batch of plaintexts, or the
whole node region, into a record array of it with a single `np.frombuffer`
(`deserialize_node`), and a small batch record by record into tuples of
the same fields (`node_struct`).  Every record authenticates under the key
of the header that fixes its size, so the dtype has one item size.  Inner
pointer slots hold child storage slots on disk (the build-side child ids
are rewritten here); leaf pointer slots hold value-region slots.
"""

from __future__ import annotations

import functools
import hmac
import secrets
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from hsbt.bptree import KEY_INFINITY, KEY_NEG_INFINITY, MIN_BRANCHING, PlainTree
from hsbt.crypto import (
    TAG_BYTES,
    VALUE_SALT_BYTES,
    MultisetHash,
    SecretKey,
    encrypt_wire,
    open_wires,
    prp_permutation,
    result_mac,
    seal_wires,
    subkey,
    value_elements,
)

HEADER_MAGIC = b"HSBT7"
HEADER_VERSION = 7
# magic, version, integrity, b, #nodes, n, value blob width, root slot, value
# salt.  The value count is 4 bytes, as wide as a value pointer.
_HEADER = struct.Struct(f"<5sBBHIIII{VALUE_SALT_BYTES}s")
# The label of the record key: this, then the packed header.
_RECORD_LABEL = b"hsbt-node-records\x00"

FLAG_LEAF = 0x01


@functools.lru_cache(maxsize=None)
def node_struct(branching: int) -> struct.Struct:
    """A record's fixed part as one struct:
    ``(flags, key_count, keys..., pointers...)``."""
    return struct.Struct(f"<BH{branching - 1}I{branching}I")


@functools.lru_cache(maxsize=None)
def node_dtype(branching: int) -> np.dtype:
    """Structured numpy dtype of one node record plaintext, laid out as in
    the module docstring; its item size is `node_plain_size`.

    Fields: `flags`, `key_count`, `keys[b-1]` and `ptrs[b]`.  No field names
    the node: its storage slot, bound into the record's nonce, does."""
    # Unaligned, so the fields sit back to back as in the record.
    return np.dtype(
        {
            "names": ["flags", "key_count", "keys", "ptrs"],
            "formats": ["u1", "<u2", ("<u4", (branching - 1,)), ("<u4", (branching,))],
        }
    )


def node_plain_size(branching: int, integrity: bool = False) -> int:
    """Byte size of one node record plaintext: `node_dtype`'s item size.
    The integrity flag no longer changes it; the parameter is accepted, and
    ignored, for callers that still pass it."""
    return node_dtype(branching).itemsize


def deserialize_node(plains, branching: int) -> np.ndarray:
    """Decode node plaintexts into a `node_dtype` record array, one record
    per plaintext, with one `np.frombuffer` over their concatenation.

    Every plaintext is `node_plain_size` bytes: a record that opened under
    the container's record key (`EncryptedIndex.record_key`) was sealed at
    the size that header's `b` gives, and a header rewritten to another `b`
    gives another key, under which no record opens."""
    return np.frombuffer(b"".join(plains), dtype=node_dtype(branching))


def leaf_mask(nodes: np.ndarray) -> np.ndarray:
    """Boolean mask of the leaf records in a `node_dtype` array."""
    return (nodes["flags"] & FLAG_LEAF).astype(bool)


@dataclass
class EncryptedIndex:
    """The deployable container: header fields plus the two encrypted regions.

    Immutable after creation; concurrent readers need no coordination.  The
    node region is a single byte blob, which doubles as the shared
    host-memory region the enclave fetches records from; `node_rows` views
    it as a ``(rows, node_record_size)`` uint8 matrix, one record per row,
    each sealed at its slot under `salt` and `record_key`.  The value region
    is `value_region`, the blobs of `value_width` bytes each back to back,
    each sealed at its slot under `salt`; `value_rows` views it as an
    ``(n, value_width)`` uint8 matrix.
    `node_record_size`, `header`, the packed container header, and both row
    views follow from the other fields and are computed once.  Each view
    holds its region's own whole rows, not the header's count: `node_rows`
    at the header's record size, `value_rows` at its value width, so a
    header rewritten in memory that does not fit a region still gives a
    matrix.  The record key
    binds every node record to the header, whose node count also names the
    root, node ``node_count - 1``, and whose `root_slot` is the slot of the
    root's record.
    """

    branching: int
    n_values: int
    node_count: int
    integrity: bool
    node_region: bytes
    value_region: bytes = field(repr=False)
    value_width: int
    root_slot: int
    salt: bytes
    node_record_size: int = field(init=False, compare=False)
    header: bytes = field(init=False, repr=False, compare=False)
    node_rows: np.ndarray = field(init=False, repr=False, compare=False)
    value_rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.salt) != VALUE_SALT_BYTES:
            raise ValueError(f"value salt must be {VALUE_SALT_BYTES} bytes")
        self.node_record_size = size = node_plain_size(self.branching) + TAG_BYTES
        self.header = _HEADER.pack(
            HEADER_MAGIC,
            HEADER_VERSION,
            1 if self.integrity else 0,
            self.branching,
            self.node_count,
            self.n_values,
            self.value_width,
            self.root_slot,
            self.salt,
        )
        # The regions' own row counts, not the header's counts, which a
        # reshaped header may contradict.
        nodes = np.frombuffer(self.node_region, np.uint8)
        self.node_rows = nodes[: len(nodes) - len(nodes) % size].reshape(-1, size)
        values = np.frombuffer(self.value_region, np.uint8)
        width = self.value_width
        self.value_rows = values[: len(values) - len(values) % width].reshape(-1, width)

    def record_key(self, tree_key: bytes) -> bytes:
        """The key the node records are sealed under: the `crypto.subkey`
        of `tree_key` labelled by the packed header, so another header gives
        another key."""
        return subkey(tree_key, _RECORD_LABEL + self.header)

    def to_bytes(self) -> bytes:
        return b"".join((self.header, self.node_region, self.value_region))

    @classmethod
    def from_bytes(cls, data: bytes) -> "EncryptedIndex":
        """Parse a container; any malformed or inconsistent input raises
        `ValueError`, trailing bytes included."""
        if len(data) < _HEADER.size:
            raise ValueError("container shorter than its header")
        fields = _HEADER.unpack_from(data, 0)
        magic, version, integrity, b, node_count, n, width, root_slot, salt = fields
        if magic[:4] != HEADER_MAGIC[:4]:
            raise ValueError("not an index container")
        if (magic, version) != (HEADER_MAGIC, HEADER_VERSION):
            raise ValueError(f"unsupported container version {version}")
        # A root slot inside the node region implies at least one node.
        if integrity not in (0, 1) or b < MIN_BRANCHING or root_slot >= node_count:
            raise ValueError("malformed container header")
        record_size = node_plain_size(b) + TAG_BYTES
        if width < TAG_BYTES:
            raise ValueError(f"value blob width {width} is below a tag")
        region_end = _HEADER.size + node_count * record_size
        size = region_end + n * width
        if len(data) != size:
            raise ValueError(f"container is {len(data)} bytes, its header implies {size}")
        region = data[_HEADER.size : region_end]
        tail = data[region_end:]
        return cls(b, n, node_count, bool(integrity), region, tail, width, root_slot, salt)

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path) -> "EncryptedIndex":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


def value_width(values) -> int:
    """The blob width of a container holding `values`: their one length
    plus a tag.  Raises `ValueError` unless they all have one length."""
    lengths = set(map(len, values))
    if len(lengths) != 1:
        raise ValueError(f"values must have one length, got lengths {sorted(lengths)}")
    return lengths.pop() + TAG_BYTES


def encrypt_index(
    sk: SecretKey, tree: PlainTree, values, *, integrity: bool = False
) -> EncryptedIndex:
    """Encrypt a built tree and its values into a container.

    `values` must align with the pair order given to the build; the tree's
    value permutation decides where each encrypted blob lands, and they
    must all have one length (`ValueError` otherwise).  One 8-byte value
    salt is drawn for the container from the OS CSPRNG.  The tree's row
    arrays, inner child ids rewritten to slots, are scattered field by
    field straight to each node's slot of one `node_dtype` array, and the
    records are sealed by one `seal_wires` call under the record key
    (`EncryptedIndex.record_key`), which binds the salt and the root's
    slot, the record at slot ``s`` under the nonce ``salt || s``.  The
    values are joined into one ``(n, length)`` matrix, put in value-region
    order by one scatter (pair i's row to `tree.value_positions[i]`), and
    sealed the same way under the value key.
    """
    n_values = tree.n_values
    if len(values) != n_values:
        raise ValueError("value count does not match the built tree")
    width = value_width(values)
    salt = secrets.token_bytes(VALUE_SALT_BYTES)
    branching = tree.branching
    node_count = tree.node_count
    slot_of_id = prp_permutation(sk.tree_key, node_count)

    # The regions are sealed in container order, the node records first, and
    # no temporary of either outlives its seal.  Sealing the values first
    # left set-up's peak RSS 1-4 MB higher on every benchmark workload, on a
    # heap more fragmented, not more full: with glibc's mmap threshold pinned
    # both orders peaked within 0.5 MB of each other.
    ptrs = tree.ptrs.copy()
    inner = (np.arange(branching) <= tree.key_count[:, None]) & ~tree.leaf[:, None]
    ptrs[inner] = slot_of_id[ptrs[inner]]
    records = np.zeros(node_count, dtype=node_dtype(branching))
    records["flags"][slot_of_id] = tree.leaf * FLAG_LEAF
    records["key_count"][slot_of_id] = tree.key_count
    records["keys"][slot_of_id] = tree.keys
    records["ptrs"][slot_of_id] = ptrs
    del ptrs
    root_slot = int(slot_of_id[node_count - 1])
    index = EncryptedIndex(
        branching, n_values, node_count, integrity, b"", b"", width, root_slot, salt
    )
    plains = records.view(np.uint8).reshape(node_count, records.itemsize)
    sealed = seal_wires(index.record_key(sk.tree_key), plains, salt, np.arange(node_count))
    del records, plains
    node_region = sealed.tobytes()
    del sealed

    plains = np.frombuffer(b"".join(values), np.uint8).reshape(n_values, width - TAG_BYTES)
    in_region = np.empty_like(plains)
    in_region[tree.value_positions] = plains
    del plains
    value_region = seal_wires(sk.value_key, in_region, salt, np.arange(n_values)).tobytes()
    del in_region
    return replace(index, node_region=node_region, value_region=value_region)


# ---------------------------------------------------------------------------
# Query tokens and client-side result handling
# ---------------------------------------------------------------------------


def token_key(tree_key: bytes) -> bytes:
    """The key tokens are sealed under by `make_token` and opened under by
    the enclave: the tree key's `crypto.subkey` labelled ``hsbt-tokens``."""
    return subkey(tree_key, b"hsbt-tokens")


def make_token(tree_key: bytes, r_start: int | None, r_end: int | None) -> bytes:
    """Mint a token for [r_start, r_end]; `None` endpoints encode the open
    sides (below / above queries).

    A token is its 36 wire bytes: the endpoints, ``<II`` little-endian,
    sealed as one wire (`crypto.encrypt_wire`) under the token key
    (`token_key`), so the enclave, which holds the tree key, opens it.
    Randomized: two tokens for the same range are distinct wires.  The
    enclave keys a query's integrity session by these bytes."""
    rs = KEY_NEG_INFINITY if r_start is None else int(r_start)
    re_ = KEY_INFINITY if r_end is None else int(r_end)
    if not 0 <= rs <= 0xFFFFFFFF or not 0 <= re_ <= 0xFFFFFFFF:
        raise ValueError("range endpoint outside the 32-bit key space")
    if rs > re_:
        raise ValueError(f"empty range: {rs} > {re_}")
    return encrypt_wire(token_key(tree_key), struct.pack("<II", rs, re_))


def unpack_range(plain: bytes) -> tuple[int, int]:
    if len(plain) != 8:
        raise ValueError("token plaintext must be 8 bytes")
    rs, re_ = struct.unpack("<II", plain)
    return rs, re_


@dataclass(frozen=True, eq=False)
class SealedValues:
    """A result as the host hands it to the client (`server.fetch_values`):
    `rows`, the ``(k, width)`` uint8 matrix of ``body || tag`` blobs gathered
    from a container's value region, `slots`, the region slot each row was
    read from, and `salt`, the container's value salt.  Nothing in it is
    trusted: a row opens only at the slot and under the salt it was sealed
    with (`decrypt_results`), and the result tag covers the salt and the
    slots (`verify_result_mac`)."""

    rows: np.ndarray
    slots: np.ndarray
    salt: bytes


class Results(list):
    """Decrypted result values, in order, and the value salt and slots at
    which they opened.

    A read-only `list` of the plaintexts, so `==`, `Counter` and iteration
    work as on a plain list; `salt` and `slots` (a read-only ``uint32``
    array, one slot per value, in order) are the ones `crypto.open_wires`
    authenticated them under.  Only `decrypt_results` makes one, and
    `verify_result_mac` accepts nothing else, so no path can check a result
    tag over slots other than those the values opened at (its docstring
    gives why folding the slots suffices).
    """

    __slots__ = ("salt", "slots")

    def __init__(self, plains, salt: bytes, slots: np.ndarray):
        super().__init__(plains)
        self.salt = salt
        self.slots = slots

    def _read_only(self, *args, **kwargs):
        raise TypeError("Results are read-only: they must stay the decryptions of their blobs")

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = extend = insert = pop = remove = clear = sort = reverse = _read_only


def decrypt_results(value_key: bytes, blobs: SealedValues) -> Results:
    """Decrypt fetched result blobs, in order, each at its own slot under
    the result's salt (`crypto.open_wires`); `blobs` is what
    `server.fetch_values` gathers.  The slots are copied once, so the slots
    the values opened at are the slots `verify_result_mac` folds.  Any
    authentication failure aborts the whole result: partial output would
    mask tampering."""
    salt = bytes(blobs.salt)
    slots = np.asarray(blobs.slots).astype(np.uint32).ravel()
    slots.flags.writeable = False
    return Results(open_wires(value_key, blobs.rows, salt, slots), salt, slots)


def verify_result_mac(tree_key: bytes, results: Results, mac: bytes) -> bool:
    """Check the enclave-issued result tag against the results received.

    The enclave folds the element ``salt || slot || 0^4`` of each value
    pointer a query matched (`crypto.value_elements`), the salt being the
    attached container's, which every node record binds.  The client folds
    the same elements for the salt and the slots its values opened at
    (`Results.salt`, `Results.slots`), with one `MultisetHash.add_all`, and
    compares the two result MACs; no value is hashed here.

    Why that suffices: `decrypt_results` already authenticated every blob
    at its slot under `value_key`, which only the client holds, and a blob
    opens only at the nonce ``salt || slot`` it was sealed under.  A host
    that passes off any blob at a folded slot, other than the one the build
    sealed there, has forged an AES-GCM ciphertext, which INT-CTXT of
    AES-GCM rules out (Bellare-Namprempre, ASIACRYPT 2000; McGrew-Viega
    2004).  A genuine blob from outside the result, from another container
    under the same key (another salt), or a dropped or repeated one,
    changes the folded multiset, and MSet-Add-Hash is multiset collision
    resistant (Clarke et al., ASIACRYPT 2003), however often a slot repeats.
    AES-GCM does not commit to its key (Dodis et al., CRYPTO 2018), so this
    is no commitment against a holder of `value_key`; that is the client
    itself, outside this threat model.

    Raises `TypeError` for anything but a `Results` from `decrypt_results`.
    """
    if not isinstance(results, Results):
        raise TypeError("verify_result_mac needs the Results of decrypt_results")
    elements = value_elements(results.salt, results.slots)
    state = MultisetHash.empty(tree_key).add_all(elements)
    return hmac.compare_digest(result_mac(tree_key, state), mac)
