"""Client-side plaintext B+-tree.

The tree is bulk-loaded bottom-up from the pairs sorted by key and is static
afterwards: no inserts or deletes, no sibling links between leaves (an
unchained tree, so following links can never betray key order at query
time).  It is held as arrays with one row per node id, every row padded to
the same shape before it leaves this module: `branching - 1` key slots and
`branching` pointer slots, unused key slots holding the infinity pad and
unused pointer slots a recognizable dummy.

Node ids follow creation order: the leaves left to right from id 0, then each
inner level left to right, the root last.  Inner-node pointer slots hold child
*ids* at this layer; the codec rewrites them to permuted storage positions
when the tree is encrypted.  The tree carries no value commitments: the
codec seals each value blob at its slot, so a leaf pointer alone names its
blob.

Separator invariant: every key in subtree ``i`` is >= separator ``i`` and
strictly below separator ``i + 1``; each separator is the smallest key under
its child.  Leaves are cut at ``branching - 1`` keys, except that a cut which
would split a run of equal keys moves back to the start of that run, so
every leaf is full but the last and those cut before a run, and duplicate
runs never straddle a separator.  A run of more than ``branching - 1`` equal
keys cannot satisfy the invariant in a fixed-fanout unchained tree and is
rejected at build time.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np

KEY_MIN = 1
KEY_MAX = 2**32 - 2
KEY_INFINITY = 2**32 - 1  # pads unused key slots; upper sentinel in tokens
KEY_NEG_INFINITY = 0  # lower sentinel in tokens, below every stored key
DUMMY_POINTER = 0xFFFFFFFF
MIN_BRANCHING = 3

Pair = tuple[int, bytes]


class BuildError(ValueError):
    """Input cannot be arranged into a valid tree."""


@dataclass(frozen=True, eq=False)
class PlainTree:
    """Build output: the padded nodes as arrays indexed by node id, the root
    id, and the random storage order assigned to the values, one numpy
    permutation.

    Row ``x`` of `keys` (``uint32``, ``(m, branching - 1)``) is node ``x``'s
    keys, nondecreasing, exactly ``key_count[x]`` of them real and the rest
    KEY_INFINITY.  Row ``x`` of `ptrs` (``uint32``, ``(m, branching)``) is its
    pointers: for an inner node, slots ``0..key_count[x]`` hold child ids; for
    a leaf (``leaf[x]``), slots ``1..key_count[x]`` hold value-region slots
    and slot 0 is always the dummy.  ``value_positions[i]`` (``uint32``,
    ``(n_values,)``, a permutation of ``range(n_values)``) is the
    value-region slot of input pair ``i``.
    """

    branching: int
    n_values: int
    keys: np.ndarray
    ptrs: np.ndarray
    key_count: np.ndarray
    leaf: np.ndarray
    root_id: int
    value_positions: np.ndarray

    @property
    def node_count(self) -> int:
        return len(self.leaf)

    @property
    def height(self) -> int:
        levels, node = 1, self.root_id
        while not self.leaf[node]:
            node = self.ptrs[node, 0]
            levels += 1
        return levels


def _rows(sizes: np.ndarray, values: np.ndarray, width: int, pad: int, first: int = 0) -> np.ndarray:
    """`values` cut into consecutive runs of `sizes`, run ``i`` written into
    row ``i`` from column `first` on, of ``len(sizes)`` rows of `width`
    slots that start out as `pad`."""
    row = np.repeat(np.arange(len(sizes)), sizes)
    column = np.arange(len(row)) - np.repeat(np.cumsum(sizes) - sizes, sizes) + first
    out = np.full((len(sizes), width), pad, np.uint32)
    out[row, column] = values
    return out


def build_tree(pairs: Sequence[Pair], branching: int, *, rng: random.Random | None = None) -> PlainTree:
    """Bulk-load `pairs` bottom-up into full nodes and pad the result.

    The shape depends only on the multiset of keys and the branching factor,
    not on the pair order; `rng` only decides the random storage order of the
    values: one numpy permutation of ``range(len(pairs))``, seeded by one
    128-bit draw from `rng`.
    """
    if branching < MIN_BRANCHING:
        raise BuildError(f"branching factor must be at least {MIN_BRANCHING}")
    if not pairs:
        raise BuildError("cannot build an index over zero pairs")
    for key, _value in pairs:
        if not KEY_MIN <= key <= KEY_MAX:
            raise BuildError(f"key {key} outside [{KEY_MIN}, {KEY_MAX}]")

    rng = rng or random.Random()
    n, max_keys = len(pairs), branching - 1
    value_positions = np.random.default_rng(rng.getrandbits(128)).permutation(n).astype(np.uint32)
    keys = np.fromiter((key for key, _ in pairs), np.uint32, n)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]

    # Leaves, left to right: the index of each one's first key in `keys`.
    starts, start = [], 0
    while start < n:
        end = min(start + max_keys, n)
        if end < n and keys[end - 1] == keys[end]:
            end = bisect_left(keys, keys[end], start, end)
            if end == start:
                raise BuildError(
                    f"more than {max_keys} equal copies of key {keys[start]}: duplicate run "
                    "cannot keep separators strict in an unchained tree"
                )
        starts.append(start)
        start = end
    counts = np.diff(starts, append=n)
    key_rows = [_rows(counts, keys, max_keys, KEY_INFINITY)]
    ptr_rows = [_rows(counts, value_positions[order], branching, DUMMY_POINTER, 1)]
    key_count = [counts]

    # Inner levels: ceil(m / branching) groups whose sizes differ by at most
    # one, so every inner node has at least two children.  `low` is the
    # smallest key beneath each node of the level below, whose first id is
    # `first`.
    low, first = keys[starts], 0
    while len(low) > 1:
        groups = -(-len(low) // branching)
        size, extra = divmod(len(low), groups)
        fanout = np.repeat([size + 1, size], [extra, groups - extra])
        heads = np.cumsum(fanout) - fanout
        key_rows.append(_rows(fanout - 1, np.delete(low, heads), max_keys, KEY_INFINITY))
        ptr_rows.append(_rows(fanout, np.arange(first, first + len(low)), branching, DUMMY_POINTER))
        key_count.append(fanout - 1)
        low, first = low[heads], first + len(low)

    keys, ptrs, key_count = map(np.concatenate, (key_rows, ptr_rows, key_count))
    leaf = np.arange(first + 1) < len(counts)
    return PlainTree(branching, n, keys, ptrs, key_count, leaf, first, value_positions)


def scan_oracle(pairs: Sequence[Pair], r_start: int, r_end: int) -> list[bytes]:
    """Reference answer by linear scan: every value whose key lies in
    [r_start, r_end], duplicates included."""
    if r_start > r_end:
        raise ValueError("empty range: start exceeds end")
    return [value for key, value in pairs if r_start <= key <= r_end]
