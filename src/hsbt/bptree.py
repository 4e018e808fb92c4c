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

import operator
import random
from bisect import bisect_right
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
    out = np.full((len(sizes), width), pad, np.uint32)
    # Value j of run i lands at flat slot i * width + first + (j - start of run i).
    shift = np.arange(len(sizes)) * width + first - (np.cumsum(sizes) - sizes)
    out.reshape(-1)[np.arange(len(values)) + np.repeat(shift, sizes)] = values
    return out


def _keys(pairs: Sequence[Pair]) -> np.ndarray:
    """The keys of `pairs` as one ``int64`` array, pulled out in one C-level
    pass and checked by one ``min`` and one ``max``.  A key outside
    [KEY_MIN, KEY_MAX] raises `BuildError` naming the first such key in
    input order, and a key that does not compare with an int (``'5'``,
    ``b'5'``) raises the comparison's `TypeError`, both found by a walk
    over the pairs that runs only when the array pass fails; a number
    inside the domain that is not an integer raises `TypeError` too."""
    try:
        keys = np.fromiter(map(operator.index, map(operator.itemgetter(0), pairs)), np.int64, len(pairs))
    except (TypeError, OverflowError):  # a key that is no integer, or one past 64 bits
        keys = None
    if keys is not None and KEY_MIN <= keys.min() and keys.max() <= KEY_MAX:
        return keys
    for key, _value in pairs:
        if not KEY_MIN <= key <= KEY_MAX:
            raise BuildError(f"key {key} outside [{KEY_MIN}, {KEY_MAX}]")
    raise TypeError("keys must be integers")


def _leaf_starts(keys: np.ndarray, max_keys: int) -> np.ndarray:
    """The index in the sorted `keys` of each leaf's first key, left to
    right.  A leaf is cut after `max_keys` keys unless that cut would split
    a run of equal keys, in which case it is cut at the start of the run.
    When no natural cut (every `max_keys` keys) falls inside a run, as with
    distinct keys, the starts are one ``arange``; otherwise the cuts are
    walked greedily over Python ints, each cut moved back by a bisection of
    the run starts."""
    n = len(keys)
    natural = np.arange(max_keys, n, max_keys)
    if not np.any(keys[natural - 1] == keys[natural]):
        return np.arange(0, n, max_keys)
    run_starts = np.flatnonzero(np.diff(keys, prepend=KEY_NEG_INFINITY)).tolist()
    starts = [0]
    while starts[-1] + max_keys < n:
        cut = run_starts[bisect_right(run_starts, starts[-1] + max_keys) - 1]
        if cut == starts[-1]:
            raise BuildError(
                f"more than {max_keys} equal copies of key {keys[cut]}: duplicate run "
                "cannot keep separators strict in an unchained tree"
            )
        starts.append(cut)
    return np.array(starts)


def build_tree(pairs: Sequence[Pair], branching: int, *, rng: random.Random | None = None) -> PlainTree:
    """Bulk-load `pairs` bottom-up into full nodes and pad the result.

    The shape depends only on the multiset of keys and the branching factor,
    not on the pair order; `rng` only decides the random storage order of the
    values: one numpy permutation of ``range(len(pairs))``, seeded by one
    128-bit draw from `rng`.

    The pairs are put in key order, equal keys in input order, by one plain
    in-place sort of distinct packed words ``key << 32 | input index``: a key
    fits in 32 bits, and so does the index of any list that fits in memory.
    The leaves are cut by `_leaf_starts`.
    """
    if branching < MIN_BRANCHING:
        raise BuildError(f"branching factor must be at least {MIN_BRANCHING}")
    if not pairs:
        raise BuildError("cannot build an index over zero pairs")

    rng = rng or random.Random()
    n, max_keys = len(pairs), branching - 1
    words = _keys(pairs).view(np.uint64)
    words <<= 32
    words |= np.arange(n, dtype=np.uint64)
    words.sort()
    keys, order = (words >> 32).astype(np.uint32), words.astype(np.uint32)
    del words
    value_positions = np.random.default_rng(rng.getrandbits(128)).permutation(n).astype(np.uint32)

    # Leaves, left to right.
    starts = _leaf_starts(keys, max_keys)
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
