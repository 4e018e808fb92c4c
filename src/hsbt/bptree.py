"""Client-side plaintext B+-tree.

The tree is bulk-loaded bottom-up from the pairs sorted by key and is static
afterwards: no inserts or deletes, no sibling links between leaves (an
unchained tree, so following links can never betray key order at query
time).  Every node is padded to the same shape before it leaves this module:
`branching - 1` key slots and `branching` pointer slots, unused key slots
holding the infinity pad and unused pointer slots a recognizable dummy.

Node ids follow creation order: the leaves left to right from id 0, then each
inner level left to right, the root last.  Inner-node pointer slots hold child
*ids* at this layer; the codec rewrites them to permuted storage positions
when the tree is encrypted.  The tree carries no value commitments: the
codec copies the value blobs' GCM tags into the leaf records as it writes
them.

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
from typing import Iterable, Sequence

KEY_MIN = 1
KEY_MAX = 2**32 - 2
KEY_INFINITY = 2**32 - 1  # pads unused key slots; upper sentinel in tokens
KEY_NEG_INFINITY = 0  # lower sentinel in tokens, below every stored key
DUMMY_POINTER = 0xFFFFFFFF
MIN_BRANCHING = 3

Pair = tuple[int, bytes]


class BuildError(ValueError):
    """Input cannot be arranged into a valid tree."""


@dataclass(frozen=True)
class PlainNode:
    """One padded node.

    `keys` has ``branching - 1`` entries, nondecreasing, exactly `key_count`
    of them real and the rest KEY_INFINITY.  `pointers` has ``branching``
    entries: for an inner node, slots ``0..key_count`` hold child ids; for a
    leaf, slots ``1..key_count`` hold value-region indices and slot 0 is
    always unused.
    """

    node_id: int
    is_leaf: bool
    key_count: int
    keys: tuple[int, ...]
    pointers: tuple[int, ...]


@dataclass(frozen=True)
class PlainTree:
    """Build output: padded nodes (indexable by id), the root id, and the
    random storage order assigned to the values.

    ``value_positions[i]`` is the value-region slot of input pair ``i``; leaf
    pointers already refer to those slots.
    """

    branching: int
    n_values: int
    nodes: tuple[PlainNode, ...]
    root_id: int
    value_positions: tuple[int, ...]

    @property
    def root(self) -> PlainNode:
        return self.nodes[self.root_id]

    @property
    def height(self) -> int:
        levels = 1
        node = self.root
        while not node.is_leaf:
            node = self.nodes[node.pointers[0]]
            levels += 1
        return levels

    def children(self, node: PlainNode) -> list[PlainNode]:
        if node.is_leaf:
            return []
        return [self.nodes[node.pointers[i]] for i in range(node.key_count + 1)]

    def iter_leaves(self) -> Iterable[PlainNode]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield node
            else:
                stack.extend(reversed(self.children(node)))


def build_tree(pairs: Sequence[Pair], branching: int, *, rng: random.Random | None = None) -> PlainTree:
    """Bulk-load `pairs` bottom-up into full nodes and pad the result.

    The shape depends only on the multiset of keys and the branching factor,
    not on the pair order; `rng` only decides the random storage order of the
    values, drawn as one shuffle of ``range(len(pairs))``.
    """
    if branching < MIN_BRANCHING:
        raise BuildError(f"branching factor must be at least {MIN_BRANCHING}")
    if not pairs:
        raise BuildError("cannot build an index over zero pairs")
    for key, _value in pairs:
        if not KEY_MIN <= key <= KEY_MAX:
            raise BuildError(f"key {key} outside [{KEY_MIN}, {KEY_MAX}]")

    rng = rng or random.Random()
    value_positions = list(range(len(pairs)))
    rng.shuffle(value_positions)

    max_keys = branching - 1
    order = sorted(range(len(pairs)), key=lambda i: pairs[i][0])
    keys = [pairs[i][0] for i in order]
    nodes: list[PlainNode] = []

    def emit(is_leaf: bool, live_keys: tuple[int, ...], pointers: tuple[int, ...]) -> int:
        count = len(live_keys)
        padded_keys = live_keys + (KEY_INFINITY,) * (max_keys - count)
        padded_pointers = pointers + (DUMMY_POINTER,) * (branching - len(pointers))
        nodes.append(PlainNode(len(nodes), is_leaf, count, padded_keys, padded_pointers))
        return len(nodes) - 1

    # Leaves, left to right: `level` holds (node id, smallest key beneath it).
    level: list[tuple[int, int]] = []
    start = 0
    while start < len(keys):
        end = min(start + max_keys, len(keys))
        if end < len(keys) and keys[end - 1] == keys[end]:
            end = bisect_left(keys, keys[end], start, end)
            if end == start:
                raise BuildError(
                    f"more than {max_keys} equal copies of key {keys[start]}: duplicate run "
                    "cannot keep separators strict in an unchained tree"
                )
        live = tuple(value_positions[i] for i in order[start:end])
        level.append((emit(True, tuple(keys[start:end]), (DUMMY_POINTER, *live)), keys[start]))
        start = end

    # Inner levels: ceil(m / branching) groups whose sizes differ by at most
    # one, so every inner node has at least two children.
    while len(level) > 1:
        groups = -(-len(level) // branching)
        size, extra = divmod(len(level), groups)
        upper: list[tuple[int, int]] = []
        at = 0
        for g in range(groups):
            children = level[at : at + size + (g < extra)]
            at += len(children)
            separators = tuple(low for _, low in children[1:])
            upper.append((emit(False, separators, tuple(child for child, _ in children)), children[0][1]))
        level = upper

    return PlainTree(branching, len(pairs), tuple(nodes), level[0][0], tuple(value_positions))


def scan_oracle(pairs: Sequence[Pair], r_start: int, r_end: int) -> list[bytes]:
    """Reference answer by linear scan: every value whose key lies in
    [r_start, r_end], duplicates included."""
    if r_start > r_end:
        raise ValueError("empty range: start exceeds end")
    return [value for key, value in pairs if r_start <= key <= r_end]
