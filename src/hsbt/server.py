"""Untrusted-side query drivers.

Code here stands in for the server software outside the trust boundary: it
never sees key material or plaintext, only ciphertext records, encrypted
tokens, and the pointers the enclave emits.  It moves bytes, batches
node positions, and accounts for boundary crossings.

Both drivers fail closed: any enclave rejection propagates and no partial
result is returned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from hsbt.codec import EncryptedIndex, SealedValues
from hsbt.enclave import EnclaveSim

CSV_HEADER = "construction,b,n,range_size,result_size,crossings,nodes,bytes_in,bytes_out,micros"


@dataclass
class QueryStats:
    """Per-query cost accounting along the boundary-cost taxonomy: mode
    switches (crossings), node transfer volume, and raw byte movement.

    `range_size` is client knowledge (the driver cannot read the token) and
    is filled in by whoever minted the query, as `Deployment.query` does;
    drivers leave it at 0.

    `micros` is driver-only: the calling thread's CPU time over the search
    call (`time.thread_time_ns`), from its first enclave call through
    fetching the value blobs.  The simulated enclave runs on that thread, so
    other processes on the host do not move it, and on an idle host it reads
    as the wall time does.  It excludes token minting and the client's
    decryption and result-tag check.
    """

    construction: int
    branching: int
    n_values: int
    range_size: int
    result_size: int
    crossings: int
    nodes_transferred: int
    bytes_in: int
    bytes_out: int
    micros: float

    def csv_row(self) -> str:
        return (
            f"{self.construction},{self.branching},{self.n_values},{self.range_size},"
            f"{self.result_size},{self.crossings},{self.nodes_transferred},"
            f"{self.bytes_in},{self.bytes_out},{self.micros:.1f}"
        )


def fetch_values(index: EncryptedIndex, pointers) -> SealedValues:
    """Dereference a sequence of value pointers into the value region, in
    pointer order: a new ``(k, width)`` uint8 matrix, one blob per row,
    gathered from `index.value_rows` by one `np.take`, for every ``k``
    including 0, with the pointers as the rows' slots and the container's
    value salt.  The client opens each row at its slot
    (`codec.decrypt_results`).  An `int64` array, as the enclave returns
    pointers, serves as the slots as it is; any other sequence is
    converted to one first.

    An out-of-range pointer means the enclave output was corrupted in
    transit, and surfacing it beats returning garbage.  One bound check
    covers all pointers before the gather: viewed as unsigned, a negative
    pointer is above every valid one, so it is named, never wrapped around.
    """
    at = np.asarray(pointers, np.intp)
    n = len(index.value_rows)
    unsigned = at.view(np.uintp)
    # `argmax` finds the largest at a fraction of `max`'s fixed cost.
    if len(at) and unsigned[unsigned.argmax()] >= n:
        bad = at[np.argmax(unsigned >= n)]
        raise ValueError(f"value pointer {bad} outside [0, {n})")
    return SealedValues(index.value_rows.take(at, axis=0), at, index.salt)


def search_resident(
    index: EncryptedIndex, enclave: EnclaveSim, token: bytes, trace=None
):
    """Resident-tree query: one trusted call, then dereference the pointers;
    returns (the `fetch_values` result, stats).

    Steady state moves nothing but the token in and the pointers out, so
    the crossing count is always two.
    """
    t0 = time.thread_time_ns()
    pointers = enclave.search_resident(token, trace=trace)
    blobs = fetch_values(index, pointers)
    micros = (time.thread_time_ns() - t0) / 1e3
    stats = QueryStats(
        construction=1,
        branching=index.branching,
        n_values=index.n_values,
        range_size=0,
        result_size=len(blobs.rows),
        crossings=2,
        nodes_transferred=0,
        bytes_in=len(token),
        bytes_out=4 * len(pointers),
        micros=micros,
    )
    return blobs, stats


def search_streamed(
    index: EncryptedIndex, enclave: EnclaveSim, token: bytes, trace=None
):
    """Streamed query: FIFO node queue, batched trusted calls, pointer
    routing; returns (the `fetch_values` result, result tag or None,
    stats).

    The queue is one `int64` array, seeded with the root position.  Each
    crossing sends its first slice of up to the enclave's batch ceiling,
    which the enclave copies before it reads it, and appends the node
    pointers that come back; the value pointer arrays are collected and
    joined once for the fetch.  Every batch carries the token, which names
    the query's integrity session; in integrity mode the session is
    finalized under the token afterwards (one more crossing) and the result
    tag returned for the client to check.
    """
    t0 = time.thread_time_ns()
    max_batch = enclave.max_batch_nodes(index.node_record_size)
    queue = np.array([enclave.root_slot()], np.int64)
    value_pointers: list[np.ndarray] = []
    crossings = 0
    nodes_moved = 0
    bytes_in = 0
    bytes_out = 0

    while len(queue):
        batch, queue = queue[:max_batch], queue[max_batch:]
        values, nodes = enclave.search_batch(token, batch, trace=trace)
        crossings += 1
        nodes_moved += len(batch)
        # Records move by reference out of shared memory, but their bytes are
        # still charged as boundary input alongside the token.
        bytes_in += len(token) + len(batch) * index.node_record_size
        bytes_out += 4 * (len(values) + len(nodes))
        value_pointers.append(values)
        queue = np.concatenate((queue, nodes)) if len(queue) else nodes

    mac: bytes | None = None
    if index.integrity:
        mac = enclave.finalize_session(token)
        crossings += 1
        bytes_in += len(token)
        bytes_out += len(mac)

    blobs = fetch_values(index, np.concatenate(value_pointers))
    micros = (time.thread_time_ns() - t0) / 1e3
    stats = QueryStats(
        construction=2,
        branching=index.branching,
        n_values=index.n_values,
        range_size=0,
        result_size=len(blobs.rows),
        crossings=crossings,
        nodes_transferred=nodes_moved,
        bytes_in=bytes_in,
        bytes_out=bytes_out,
        micros=micros,
    )
    return blobs, mac, stats
