"""The simulated trusted component.

Everything in this module models code running behind the hardware isolation
boundary: it serves one client, the data owner, and holds that owner's tree
key (never exported).  It decrypts tokens, each its 36 wire bytes, under the
tree key's `codec.token_key`, and node records, walks the tree, and hands
only value pointers back out.  Nothing the host sends chooses a key.  The
two query entry points mirror the two deployment modes:

* `search_resident`: the whole decrypted tree was loaded into trusted memory
  once (`load_tree`); queries then never decrypt another node and cross the
  boundary exactly twice (token in, pointers out).  The observable channel is
  the page-granular access pattern of the resident node array.
* `search_batch`: nodes stay encrypted in the shared host region; the
  untrusted driver passes storage positions batch by batch and routes the
  returned pointers.  The observable channel is the node-granular fetch
  pattern.  A batch that would open more records than the reserved space
  holds (`max_batch_nodes`), or in integrity mode than its session has
  outstanding, is refused before any record is read, so trusted memory per
  call is bounded whatever the driver sends.

The resident tree is one `node_dtype` record array indexed by slot.  A
streamed batch is the unit of work: before any of its rows is read it
passes one check (`_admit`), which makes every refusal of a batch and
copies its positions into trusted memory once: the positions are a 1-D
`int64` array, as the driver queues them, or a list or a tuple of
integers; the batch fits the ceiling, every position names a record of the
region and, in integrity mode, the batch fits its session's outstanding
count and, when it opens a session, starts at the root.  Every later step
reads that copy.  Its rows are then gathered from the node region with one
`take` and recorded as fetched, once each.  The resident load and a
streamed batch open records in one place, `_open_records`: one
`decrypt_wire` call under the container's record key, each row at the
nonce of its slot, so a record opens only under the header it was sealed
with, and at its own slot.
Either every record opens or the call aborts with ``node record failed
authentication``, naming no record; nothing of an aborted batch is
decoded, matched, counted or folded.  The AES-GCM open is most of the call;
64 or more records of at most 128 bytes (b <= 16) take its array passes,
which check a pass's tags together by one random linear combination under
a key drawn for that pass (`crypto.open_wires`).

A streamed batch, or a level of the resident walk, of at least
`_VECTOR_MIN_SLOTS` slots is matched in one vectorised comparison
(`oblivious_match_slots`), a streamed batch decoded first into one record
array with a single `deserialize_node`.  A smaller one, too small to repay
numpy's per-call cost, is decoded and scanned node by node with the same
per-slot formula (`_scan_record`), its pointers collected as Python ints
and made arrays once: a one-node batch at b=100, or up to twelve nodes at
b=10.

Value pointers leave the enclave as shuffled `int64` arrays, from both
entry points, and the driver dereferences them without a conversion.  A
batch also answers with node pointers, shuffled on their own, as an `int64`
array: the driver appends them to its queue, itself one `int64` array, and
sends its next batch as a slice of it.  A matched record array yields both
kinds by two boolean masks over its match (`_expand`).

In integrity mode `search_batch` additionally runs a per-query session, keyed
by the wire bytes of the token that opened it: a batch continues the open
session of its own token, or opens one at the root.  It counts the
requested nodes still outstanding, and a batch may deliver no more nodes
than that; an honest driver only ever sends pointers it was already given.
It keeps two multiset hashes, both keyed by the tree key, as is the result
tag, and each folded once per call: a balance that adds the requested
storage slots and subtracts the received ones, and the result digest,
which folds the element ``salt || slot || 0^4`` of each matched value
pointer (`crypto.value_elements`), the salt being the attached container's
value salt, bound into every record's key and nonce.  A value
blob opens only at the nonce ``salt || slot`` it was sealed under, so the
client, which folds the same elements for the slots its values opened at,
checks both which blobs it got and that they came from this container.  A
record opens only at the slot it was sealed for, so a slot names its node.
A session only ever yields a result tag when nothing is outstanding and
the balance is zero, so every requested node arrived as often as it was
requested and nothing else arrived, and when the first node of the query
was the root, the container's last node, at the slot its header names.  An
abort of a batch ends its token's session (`_abort`).  At most
`MAX_OPEN_SESSIONS` sessions stay open; opening one more evicts the
oldest.

Every pointer sequence leaving the enclave is freshly shuffled, and in-node
matching touches every key and pointer slot whether it matches or not, so
neither output order nor intra-node access reveals key positions.  The
shuffles draw from one PCG64 generator per thread, set to each call's
64-bit seed before the call's first shuffle of two or more items, so an
output order is a function of the recorded seed alone.  A shuffle of
fewer items draws nothing, and a call that runs none sets no state.
"""

from __future__ import annotations

import operator
import random
import secrets
import threading
from dataclasses import dataclass
from itertools import count
from typing import NoReturn

import numpy as np

from hsbt.codec import (
    FLAG_LEAF,
    EncryptedIndex,
    deserialize_node,
    leaf_mask,
    node_plain_size,
    node_struct,
    token_key,
    unpack_range,
)
from hsbt.crypto import (
    MSET_DIGEST_BYTES,
    AuthenticationError,
    MultisetHash,
    open_wires,
    result_mac,
    slot_elements,
    value_elements,
)
from hsbt.crypto import decrypt_wire as decrypt

# Token opens go through `decrypt`, record opens through `decrypt_wire`, one
# call per batch: the traced benchmark (perfbench/run.py) wraps each module
# name as its own layer, `crypto.token_open` and `crypto.node_decrypt`.
# ROADMAP item 1 drops both aliases.
decrypt_wire = open_wires

PAGE_SIZE = 4096

# The one client's name, which `provision` still takes first so that
# existing callers keep working; ROADMAP item 1 drops both.
DEFAULT_CLIENT = "client-0"

# Open integrity sessions an enclave keeps; opening one more evicts the
# oldest, so a driver that abandons queries cannot grow trusted state.
MAX_OPEN_SESSIONS = 1024


class EnclaveError(Exception):
    """Base class for trusted-side rejections."""


class NoKeyError(EnclaveError):
    """Operation needs a provisioned key that is not installed."""


class CapacityExceededError(EnclaveError):
    """Resident-tree load would exceed the trusted memory budget."""


class EnclaveAbort(EnclaveError):
    """The trusted side refused to continue: failed authentication or a
    protocol deviation by the untrusted driver."""


@dataclass
class IntegritySession:
    """Per-query integrity state, keyed by the wire bytes of the token that
    opened it; its hashes are keyed by the tree key.

    `outstanding` counts requested nodes not yet received, the root included
    from the start.  `balance` adds every requested slot and subtracts every
    received slot (the root's, which opens the session unrequested,
    excepted); requests and deliveries agree as multisets when its digest is
    zero (`crypto.MultisetHash`).
    """

    outstanding: int
    balance: MultisetHash
    result_hash: MultisetHash


@dataclass
class TouchCounter:
    """Instrumentation for the data-oblivious in-node scan: slots examined,
    not slots matched, counted once per call by `EnclaveSim._tally`."""

    key_slots: int = 0
    pointer_slots: int = 0


def oblivious_match_slots(nodes: np.ndarray, r_start: int, r_end: int) -> np.ndarray:
    """Matching pointer slots of every node in a `node_dtype` record array,
    as a boolean array of shape ``(len(nodes), b)``.

    Slot ``j`` of a leaf matches when ``rs <= lo <= re``, where
    ``lo = keys[j-1]`` (slot 0, at -inf, never does).  Slot ``j`` of an
    inner node matches when its child's key window
    ``[lo, hi) = [keys[j-1], keys[j])`` meets [r_start, r_end], where slot 0
    opens at -inf and slot b-1 closes at +inf.  With rs <= re, which the
    enclave demands of every token, that is ``(lo <= re) & (rs < hi)``.
    This relies on every live window being non-empty: a built tree's inner
    separators strictly increase, and every record the enclave matches
    authenticated under the container key, so no other node reaches it.
    The infinite ends reduce slot 0 to ``rs < keys[0]`` and slot b-1 to
    ``keys[b-2] <= re``.  Both formulas are evaluated for every key and
    pointer slot of every node, live or padded, leaf or inner, matching or
    not, with whole-array comparisons; the node kind and the liveness term
    ``j <= key_count`` then select bits, never control flow.
    """
    keys = nodes["keys"]
    n, width = keys.shape
    edges = np.empty((n, width + 2), dtype=np.int64)
    edges[:, 0] = -1
    edges[:, 1:-1] = keys
    edges[:, -1] = 1 << 32
    le_start = edges <= r_start
    le_end = edges <= r_end
    leaf = (edges[:, :-1] >= r_start) & le_end[:, :-1]
    # On booleans, `x > y` is `x & ~y`: lo <= re and rs < hi.
    inner = le_end[:, :-1] > le_start[:, 1:]
    live = np.arange(width + 1) <= nodes["key_count"][:, None]
    return np.where(nodes["flags"][:, None] & FLAG_LEAF, leaf, inner) & live


# A resident level or a streamed batch of fewer slots than this is scanned
# node by node (`_scan_record`): one vectorised match has a fixed cost of
# some twenty numpy calls, a scan a cost per slot.  Medians of per-batch
# timings of integrity batches on a 2-core Xeon VM, scanned against matched:
# one b=100 node 48 against 53 us, two b=100 leaves 71 against 64; at b=10,
# batches of one to three nodes 20 against 37, fully matched leaf batches of
# 60 slots 60 against 65 and of 120 slots 86 against 75.  Whole queries of
# the three benchmark workloads ran alike at cut-overs of 101, 128 and 200,
# and the resident walk no slower than at the earlier 100.
_VECTOR_MIN_SLOTS = 128


def _scan_record(record: tuple, branching: int, r_start: int, r_end: int) -> list[int]:
    """`oblivious_match_slots` for one record unpacked by `node_struct`:
    the same bit for every pointer slot, live or padded, matching or not,
    with non-short-circuiting operators; returns the pointers of the
    matching slots, in slot order."""
    key_count = record[1]
    edges = (-1, *record[2 : branching + 1], 1 << 32)
    ptrs = record[branching + 1 :]
    if record[0] & FLAG_LEAF:
        slots = zip(count(), edges, ptrs)
        return [p for j, lo, p in slots if (r_start <= lo) & (lo <= r_end) & (j <= key_count)]
    slots = zip(count(), edges, edges[1:], ptrs)
    return [p for j, lo, hi, p in slots if (lo <= r_end) & (r_start < hi) & (j <= key_count)]


def _scan_records(records, branching: int, r_start: int, r_end: int):
    """`_scan_record` over records unpacked by `node_struct`: their
    matching pointers as ``(value_ptrs, node_ptrs)`` int lists, in record
    order, slot order within a record, as `_expand` lists them."""
    values: list[int] = []
    children: list[int] = []
    for record in records:
        out = values if record[0] & FLAG_LEAF else children
        out += _scan_record(record, branching, r_start, r_end)
    return values, children


# Per-query shuffle seeds come from a process-level generator that is itself
# seeded from the OS CSPRNG once; drawing from the OS per query would cost a
# syscall on the hot path without changing what the simulation models.
_seed_stream = random.Random(secrets.randbits(128))

# One shuffle generator per thread (a bit generator must not be shared across
# threads), reseeded by every enclave call that shuffles two or more items:
# setting a PCG64 state costs about a tenth of constructing a seeded
# generator.  The call's 64-bit seed is the
# state, the increment is fixed (odd, as PCG requires).
_order_rngs = threading.local()
_ORDER_INCREMENT = 0xDA3E39CB94B95BDB5851F42D4C957F2D


def _seeded_order_rng(seed: int) -> np.random.Generator:
    """This thread's shuffle generator, its state set to `seed`."""
    rng = getattr(_order_rngs, "generator", None)
    if rng is None:
        rng = _order_rngs.generator = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": seed, "inc": _ORDER_INCREMENT},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


class EnclaveSim:
    """Simulated enclave: one client's tree key and root id, optional
    resident tree, session map.

    `reserved_space` is the byte budget for streamed node batches and decides
    the batch ceiling; `capacity` is the budget for a resident tree (modelling
    the protected-memory limit).  Query paths are read-only and may run
    concurrently; provisioning, session mutation and the instrumentation
    counters (`node_decryptions`, `touch_counter`, folded once per call) are
    serialized internally.  `sessions_evicted` counts open sessions dropped to
    keep the table at `MAX_OPEN_SESSIONS`.

    Every traced call records its output-order shuffle seed on the trace.
    `order_seed_source`, when set, is where those seeds come from, so an
    auditor can replay output orders (`hsbt audit`, the tests and demo 02
    set it); a deployment leaves it unset and seeds from the CSPRNG.
    """

    def __init__(
        self,
        *,
        reserved_space: int = 64 * 1024,
        capacity: int = 96 * 2**20,
        order_seed_source=None,
    ):
        self.reserved_space = reserved_space
        self.capacity = capacity
        self.node_decryptions = 0
        self.touch_counter = TouchCounter()
        self._order_seed_source = order_seed_source
        self._tree_key: bytes | None = None
        self._root_id: int | None = None
        self._container: EncryptedIndex | None = None
        # The resident record array and the container it was loaded from.
        self._resident: tuple[EncryptedIndex, np.ndarray] | None = None
        self._sessions: dict[bytes, IntegritySession] = {}
        self.sessions_evicted = 0
        # Re-entrant: `_abort` ends a session from inside the locked fold too.
        self._lock = threading.RLock()

    # -- provisioning and container wiring ---------------------------------

    def provision(self, client_id: str, tree_key: bytes, *, root_id: int) -> None:
        """Install the data owner's tree key and root id over the
        (simulated) secure channel: node records and tokens open under
        subkeys of that one key.

        The first argument must be `DEFAULT_CLIENT`; any other raises
        `ValueError`.  Re-provisioning replaces the key and root id, and
        drops the resident tree and every open session, all of which the
        old key opened.
        """
        if client_id != DEFAULT_CLIENT:
            raise ValueError(f"the enclave serves one client, {DEFAULT_CLIENT!r}")
        with self._lock:
            self._tree_key, self._root_id = tree_key, root_id
            self._resident = None
            self._sessions.clear()

    def attach_container(self, index: EncryptedIndex) -> None:
        """Share the container with the enclave (host-memory mapping: records
        are fetched from it directly, no copy crosses the boundary).  A
        resident tree loaded from another container is dropped."""
        if index is not self._container:
            self._resident = None
        self._container = index

    def root_slot(self) -> int:
        """Storage slot of the root node in the attached container.  Revealed
        to the driver at setup; the first fetch of any query discloses it
        anyway.  It is the attached container's header field, never the
        caller's, and that header is bound into every record, so a root slot
        the host rewrote fails at the first record opened."""
        return self._find_root_slot(self._container)

    def _find_root_slot(self, container: EncryptedIndex | None) -> int:
        # `root_slot` without its public name: the resident walk and a new
        # session start here, and only the driver's own lookups count as
        # root-slot calls.  Each passes the container whose records it
        # opened, never the one attached now: the host may attach a copy
        # whose header names another slot at any moment.  The root is the
        # last node, which every record binds via the node count.
        if self._tree_key is None:
            raise NoKeyError("enclave not provisioned")
        if container is None:
            raise EnclaveError("no container attached")
        if self._root_id != container.node_count - 1:
            raise EnclaveAbort("provisioned root id is not the container's root")
        return container.root_slot

    def max_batch_nodes(self, record_size: int) -> int:
        """Batch ceiling: how many records fit in the reserved space."""
        return max(1, self.reserved_space // record_size)

    @property
    def tree_loaded(self) -> bool:
        return self._resident is not None

    # -- construction 1: resident tree --------------------------------------

    def load_tree(self, index: EncryptedIndex) -> None:
        """One-time load: verify and decrypt every node into trusted memory,
        decoded into one record array indexed by slot."""
        if self._tree_key is None:
            raise NoKeyError("enclave not provisioned")
        plain_size = node_plain_size(index.branching)
        if plain_size * index.node_count > self.capacity:
            raise CapacityExceededError(
                f"resident tree needs {plain_size * index.node_count} bytes, "
                f"budget is {self.capacity}"
            )
        # A region of other than `node_count` rows fails the one call.
        plains = self._open_records(index, range(index.node_count), index.node_rows)
        resident = deserialize_node(plains, index.branching)
        self._tally(len(resident), 0, index.branching)
        self.attach_container(index)
        self._find_root_slot(index)  # aborts unless the root id is the last node's
        self._resident = index, resident

    def search_resident(self, token: bytes, trace=None) -> np.ndarray:
        """Range search over the resident tree; returns the value pointers as
        an `int64` array.

        Level-synchronous walk: each level's frontier is shuffled, which
        orders its page touches, then matched; every parent level is touched
        before its children.  A level of at least `_VECTOR_MIN_SLOTS` slots
        is matched in one `oblivious_match_slots` call, a smaller one node by
        node with `_scan_record`, read straight from the record array.  A
        matched level's child pointers are the next frontier as they come,
        an `int64` array.  The value pointers of matched levels stay arrays,
        those of scanned levels are converted once, and all of them are
        shuffled once more on the way out.
        """
        loaded = self._resident
        if loaded is None:
            raise EnclaveError("no resident tree loaded")
        index, resident = loaded
        rs, re_ = self._open_token(token)
        shuffle = self._order_shuffle(trace)
        branching = resident["ptrs"].shape[1]
        unpack = node_struct(branching).unpack_from
        frontier = [self._find_root_slot(index)]
        scanned: list[int] = []
        matched: list[np.ndarray] = []
        visited = 0
        while len(frontier):
            shuffle(frontier)
            if trace is not None:
                # Resident nodes sit back to back in slot order; the page
                # channel observes 4 KiB granules of that layout.
                for slot in frontier:
                    trace.page_touch(int(slot) * resident.itemsize // PAGE_SIZE)
            visited += len(frontier)
            if len(frontier) * branching < _VECTOR_MIN_SLOTS:
                records = (unpack(resident, slot * resident.itemsize) for slot in frontier)
                values, frontier = _scan_records(records, branching, rs, re_)
                scanned += values
            else:
                values, frontier = _expand(resident[frontier], rs, re_)
                matched.append(values)
        self._tally(0, visited, branching)
        pointers = np.concatenate([np.array(scanned, np.int64), *matched])
        shuffle(pointers)
        if trace is not None:
            trace.pointers_out(pointers.tolist())
        return pointers

    # -- construction 2: streamed batches ------------------------------------

    def search_batch(self, token: bytes, positions, trace=None) -> tuple[np.ndarray, np.ndarray]:
        """Process one batch of node positions for a range query.

        `positions` is a 1-D `int64` array, as `server.search_streamed`
        sends a slice of its queue, or a list or a tuple of integers.
        Returns ``(value_ptrs, node_ptrs)``, both `int64` arrays: value
        pointers come from leaves and index the value region; node pointers
        name storage positions still to traverse.  Each is a fresh
        permutation drawn from the call's seeded generator.  In integrity
        mode the batch continues its token's open session, or, if that
        token has none, opens one and must start at the root.

        A batch opens whole or aborts whole.  Every refusal of a batch, the
        first-node check included, comes before any of its rows is read
        (`_admit`), which copies the positions into trusted memory; its
        rows are then gathered from the shared node region at that copy,
        recorded on the trace as fetched, and opened in one call.  A record
        that fails aborts the whole batch, naming no record.  An admitted
        batch of at least `_VECTOR_MIN_SLOTS` slots is decoded and matched
        at once (`deserialize_node`, `_expand`); a smaller one is decoded
        and scanned node by node (`_scan_record`).  Each session
        accumulator is folded once.  Every abort ends the token's session.
        """
        if self._container is None:
            raise EnclaveError("no container attached")
        if self._tree_key is None:
            raise NoKeyError("enclave not provisioned")
        container = self._container
        rs, re_ = self._open_token(token)
        shuffle = self._order_shuffle(trace)

        batch = self._admit(container, token, positions)
        rows = container.node_rows.take(batch, axis=0)
        if trace is not None:
            trace.node_fetches(batch.tolist() if type(batch) is np.ndarray else batch)
        plains = self._open_records(container, batch, rows, token)
        branching = container.branching
        self._tally(len(plains), len(plains), branching)
        if len(plains) * branching < _VECTOR_MIN_SLOTS:
            unpack = node_struct(branching).unpack
            values, children = _scan_records(map(unpack, plains), branching, rs, re_)
            value_ptrs, node_ptrs = np.array(values, np.int64), np.array(children, np.int64)
        else:
            value_ptrs, node_ptrs = _expand(deserialize_node(plains, branching), rs, re_)

        if container.integrity and len(batch):
            matched = value_elements(container.salt, value_ptrs)
            # One locked step from lookup to the last fold: two opening
            # batches of one token share one session, and concurrent batches
            # of a session lose none of its updates.
            with self._lock:
                sess = self._sessions.get(token)
                fresh = sess is None
                if fresh:
                    sess = self._open_session(token, container, int(batch[0]))
                if len(batch) > sess.outstanding:
                    self._abort(token, "protocol violation: more nodes than requested")
                sess.outstanding += len(node_ptrs) - len(batch)
                # Received records opened at their slots; node pointers are requests.
                sess.balance = sess.balance.add_all(
                    slot_elements(node_ptrs), removed=slot_elements(batch[fresh:])
                )
                sess.result_hash = sess.result_hash.add_all(matched)

        shuffle(value_ptrs)
        shuffle(node_ptrs)
        if trace is not None:
            trace.pointers_out(value_ptrs.tolist())
        return value_ptrs, node_ptrs

    def finalize_session(self, token: bytes) -> bytes:
        """Close the token's integrity session and issue the result tag.

        Only succeeds when no requested node is outstanding and the received
        node multiset matches the requested one, a zero balance.  Any other
        state aborts, and the session is closed either way.
        """
        _check_token_type(token)
        with self._lock:
            sess = self._sessions.pop(token, None)
        if sess is None:
            raise EnclaveAbort("no open session for this token")
        if sess.outstanding != 0:
            raise EnclaveAbort(
                f"protocol violation: {sess.outstanding} requested nodes never arrived"
            )
        if sess.balance.digest != bytes(MSET_DIGEST_BYTES):
            raise EnclaveAbort("protocol violation: received nodes differ from requested nodes")
        return result_mac(sess.result_hash.key, sess.result_hash)

    # -- internals -----------------------------------------------------------

    def _open_token(self, token: bytes) -> tuple[int, int]:
        """The range the token names, opened under the tree key's `token_key`."""
        _check_token_type(token)
        try:
            plain = decrypt(token_key(self._tree_key), token)
        except AuthenticationError:
            raise EnclaveAbort("token failed authentication") from None
        r_start, r_end = unpack_range(plain)
        if r_start > r_end:
            raise EnclaveAbort("token names an empty range")
        return r_start, r_end

    def _admit(self, container: EncryptedIndex, token: bytes, positions) -> list[int] | np.ndarray:
        """The batch at `positions`, copied into trusted memory, or an abort
        that ends the token's session.  Every later step of the call reads
        that copy, so no host write after the call begins reaches the
        checks, the gather or the trace.

        The batch is a 1-D `int64` numpy array, as the driver queues it,
        copied once and bounds-checked by one `argmax` over the copy viewed as
        unsigned, where a negative position is above every valid one; or a
        `list` or a `tuple`, turned into a list of Python ints by one
        `operator.index` pass, where a `bool` passes as the integer it is
        (`False` is position 0).  Anything else is refused: `None`, a bare
        int, a set, a generator, or an array of another shape or dtype.
        The batch must fit the ceiling (`max_batch_nodes`), checked before
        it is copied so that no longer batch is, and name records of the
        region.  In integrity mode it must also fit the nodes its session
        has outstanding and, when it opens a session, start at the root.
        Nothing is locked: the session is read as it stands, and both
        session checks run again under the lock once the records are
        open."""
        rows = len(container.node_rows)
        ceiling = self.max_batch_nodes(container.node_record_size)
        sess = self._sessions.get(token) if container.integrity else None
        if type(positions) in (list, tuple):
            copy_in = _as_integers
        elif type(positions) is np.ndarray and positions.ndim == 1 and positions.dtype == np.int64:
            copy_in = np.ndarray.copy
        else:
            copy_in = None
        if copy_in is None:
            reason = "protocol violation: node positions are not a list, a tuple or an int64 array"
        elif (size := len(positions)) > ceiling:
            reason = f"protocol violation: batch of {size} nodes exceeds the ceiling of {ceiling}"
        elif (batch := copy_in(positions)) is None:
            reason = "protocol violation: a node position is not an integer"
        elif (outside := _first_outside(batch, rows)) is not None:
            reason = f"no node record at position {outside}"
        elif not container.integrity or not size:
            return batch
        elif size > (1 if sess is None else sess.outstanding):
            reason = "protocol violation: more nodes than requested"
        elif sess is None and batch[0] != self._find_root_slot(container):
            reason = "protocol violation: first node is not the root"
        else:
            return batch
        self._abort(token, reason)

    def _open_records(
        self, container: EncryptedIndex, positions, rows: np.ndarray, token=None
    ) -> list[bytes]:
        """Authenticate `rows`, the node records at `positions` of
        `container`, in one `decrypt_wire` call under the container's record
        key, each at the nonce of its slot: their plaintexts, in order.  If
        any record fails, none opens: the call aborts, ending `token`'s
        session."""
        key = container.record_key(self._tree_key)
        try:
            return decrypt_wire(key, rows, container.salt, positions)
        except AuthenticationError:
            self._abort(token, "node record failed authentication")

    def _abort(self, token: bytes | None, reason: str) -> NoReturn:
        """Raise `EnclaveAbort(reason)`, ending `token`'s session if it has one."""
        with self._lock:
            self._sessions.pop(token, None)
        raise EnclaveAbort(reason) from None

    def _order_shuffle(self, trace):
        """The call's output-order shuffle: draws the call's seed, records it
        on the trace, and returns a function that shuffles a list or an
        `int64` array in place.  The thread's generator is set to the seed
        at the first shuffle of two or more items, the first to draw from
        it.  A list and an array of one length come out in one order."""
        seed = (
            self._order_seed_source()
            if self._order_seed_source is not None
            else _seed_stream.getrandbits(64)
        )
        if trace is not None:
            trace.order_seeds.append(seed)
        rng = None

        def shuffle(items) -> None:
            nonlocal rng
            if len(items) < 2:
                return
            if rng is None:
                rng = _seeded_order_rng(seed)
            rng.shuffle(items)

        return shuffle

    def _tally(self, decrypted: int, scanned: int, branching: int) -> None:
        """Fold one call's instrumentation into the shared counters: a full
        scan of `scanned` nodes examines every key and pointer slot."""
        with self._lock:
            self.node_decryptions += decrypted
            self.touch_counter.key_slots += scanned * (branching - 1)
            self.touch_counter.pointer_slots += scanned * branching

    def _open_session(
        self, token: bytes, container: EncryptedIndex, first: int
    ) -> IntegritySession:
        """A new session for `token`'s batch whose first node is at slot
        `first` of `container`, which must be the root's, keyed by the tree
        key; the caller holds the lock.  `_admit` checked the root only if
        the session was missing then: one evicted or finalized since is
        checked here."""
        if first != self._find_root_slot(container):
            raise EnclaveAbort("protocol violation: first node is not the root")
        while len(self._sessions) >= MAX_OPEN_SESSIONS:
            del self._sessions[next(iter(self._sessions))]
            self.sessions_evicted += 1
        empty = MultisetHash.empty(self._tree_key)
        # The root counts as requested: the opening batch delivers it.
        sess = self._sessions[token] = IntegritySession(1, empty, empty)
        return sess


def _check_token_type(token) -> None:
    """Refuse a token that is not `bytes` as unauthentic, before it can
    reach the session table: a minted token is `bytes`, and anything else
    is either unhashable or not a wire."""
    if type(token) is not bytes:
        raise EnclaveAbort("token failed authentication")


def _as_integers(positions) -> list[int] | None:
    """Every position as a Python int, by `operator.index` in one C-level
    pass, or None if one is not an integer."""
    try:
        return list(map(operator.index, positions))
    except TypeError:
        return None


def _first_outside(batch, rows: int) -> int | None:
    """The first position of `batch`, an int list or an `int64` array, that
    names no record of a region of `rows` records, or None."""
    if not len(batch):
        return None
    if type(batch) is np.ndarray:
        # A negative position views as above every valid one.  `argmax`
        # finds the largest without numpy's reduction machinery, at a third
        # of `max`'s cost on a batch of a few nodes.
        unsigned = batch.view(np.uint64)
        if unsigned[unsigned.argmax()] < rows:
            return None
        return int(batch[np.argmax(unsigned >= rows)])
    if min(batch) >= 0 and max(batch) < rows:
        return None
    return next(p for p in batch if not 0 <= p < rows)


def _expand(nodes: np.ndarray, r_start: int, r_end: int) -> tuple[np.ndarray, np.ndarray]:
    """Match a record array (`oblivious_match_slots`): the pointers of its
    matching slots in node order, slot order within a node, as
    ``(value_ptrs, node_ptrs)`` `int64` arrays, where a value pointer comes
    from a leaf and a node pointer names a child node.  Each kind is
    selected by one boolean mask over the whole ``(len(nodes), b)`` match,
    ``match & leaf`` and ``match & ~leaf``, so no step depends on which
    slots match or which nodes are leaves."""
    match = oblivious_match_slots(nodes, r_start, r_end)
    leaf = leaf_mask(nodes)[:, None]
    ptrs = nodes["ptrs"].astype(np.int64)
    return ptrs[match & leaf], ptrs[match & ~leaf]
