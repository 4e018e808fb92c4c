"""Client-side plaintext B+-tree.

The tree is built by repeated textbook insertion and is static afterwards:
no deletes, no sibling links between leaves (an unchained tree, so following
links can never betray key order at query time).  Every node is padded to the
same shape before it leaves this module: `branching - 1` key slots and
`branching` pointer slots, unused key slots holding the infinity pad and
unused pointer slots a recognizable dummy.

Node ids follow creation order, starting at 0 for the very first leaf; splits
and new roots take the next free id.  Inner-node pointer slots hold child
*ids* at this layer; the codec rewrites them to permuted storage positions
when the tree is encrypted.  The tree carries no value commitments: the
codec copies the value blobs' GCM tags into the leaf records as it writes
them.

Separator invariant: every key in subtree ``i`` is >= separator ``i`` and
strictly below separator ``i + 1``.  Splits shift their split point to the
nearest boundary between distinct keys so duplicate runs never straddle a
separator; a run of more than ``branching - 1`` equal keys cannot satisfy the
invariant in a fixed-fanout unchained tree and is rejected at build time.
"""

from __future__ import annotations

import random
from bisect import bisect_right
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


class _Leaf:
    __slots__ = ("node_id", "keys", "pair_indices")

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.keys: list[int] = []
        self.pair_indices: list[int] = []


class _Inner:
    __slots__ = ("node_id", "keys", "children")

    def __init__(self, node_id: int, keys: list[int], children: list):
        self.node_id = node_id
        self.keys = keys
        self.children = children


def _split_point(keys: Sequence[int]) -> int | None:
    # Nearest index to the middle where the neighbouring keys differ.
    mid = len(keys) // 2
    for offset in range(len(keys)):
        for s in (mid - offset, mid + offset):
            if 1 <= s <= len(keys) - 1 and keys[s - 1] < keys[s]:
                return s
    return None


def build_tree(pairs: Sequence[Pair], branching: int, *, rng: random.Random | None = None) -> PlainTree:
    """Insert `pairs` one by one into a fresh tree and pad the result.

    Deterministic given the pair order, the branching factor, and the state
    of `rng`, which only decides the random storage order of the values.
    """
    if branching < MIN_BRANCHING:
        raise BuildError(f"branching factor must be at least {MIN_BRANCHING}")
    if not pairs:
        raise BuildError("cannot build an index over zero pairs")
    for key, _value in pairs:
        if not KEY_MIN <= key <= KEY_MAX:
            raise BuildError(f"key {key} outside [{KEY_MIN}, {KEY_MAX}]")

    rng = rng or random.Random()
    next_id = 0

    def take_id() -> int:
        nonlocal next_id
        next_id += 1
        return next_id - 1

    root: _Leaf | _Inner = _Leaf(take_id())
    max_keys = branching - 1

    def insert(key: int, pair_index: int) -> None:
        nonlocal root
        path: list[_Inner] = []
        node = root
        while isinstance(node, _Inner):
            path.append(node)
            node = node.children[bisect_right(node.keys, key)]

        pos = bisect_right(node.keys, key)
        node.keys.insert(pos, key)
        node.pair_indices.insert(pos, pair_index)
        if len(node.keys) <= max_keys:
            return

        # Leaf split: left keeps keys strictly below the new separator.
        s = _split_point(node.keys)
        if s is None:
            raise BuildError(
                f"more than {max_keys} equal copies of key {key}: duplicate run "
                "cannot keep separators strict in an unchained tree"
            )
        sibling = _Leaf(take_id())
        sibling.keys = node.keys[s:]
        sibling.pair_indices = node.pair_indices[s:]
        del node.keys[s:], node.pair_indices[s:]
        separator = sibling.keys[0]
        child: _Leaf | _Inner = node
        new_child: _Leaf | _Inner = sibling

        while True:
            if not path:
                root = _Inner(take_id(), [separator], [child, new_child])
                return
            parent = path.pop()
            # Separators are strictly increasing and the new one falls strictly
            # inside the split child's span, so bisect lands exactly at the
            # split child's key window.
            at = bisect_right(parent.keys, separator)
            assert parent.children[at] is child
            parent.keys.insert(at, separator)
            parent.children.insert(at + 1, new_child)
            if len(parent.keys) <= max_keys:
                return
            mid = len(parent.keys) // 2
            up = parent.keys[mid]
            sibling_inner = _Inner(take_id(), parent.keys[mid + 1 :], parent.children[mid + 1 :])
            del parent.keys[mid:], parent.children[mid + 1 :]
            separator, child, new_child = up, parent, sibling_inner

    for pair_index, (key, _value) in enumerate(pairs):
        insert(key, pair_index)

    value_positions = list(range(len(pairs)))
    rng.shuffle(value_positions)

    padded: dict[int, PlainNode] = {}

    def pad(node: _Leaf | _Inner) -> None:
        count = len(node.keys)
        keys = tuple(node.keys) + (KEY_INFINITY,) * (max_keys - count)
        if isinstance(node, _Leaf):
            live = tuple(value_positions[i] for i in node.pair_indices)
            pointers = (DUMMY_POINTER,) + live + (DUMMY_POINTER,) * (max_keys - count)
            padded[node.node_id] = PlainNode(node.node_id, True, count, keys, pointers)
        else:
            live = tuple(child.node_id for child in node.children)
            pointers = live + (DUMMY_POINTER,) * (branching - len(live))
            padded[node.node_id] = PlainNode(node.node_id, False, count, keys, pointers)
            for child in node.children:
                pad(child)

    pad(root)
    nodes = tuple(padded[i] for i in range(next_id))
    return PlainTree(branching, len(pairs), nodes, root.node_id, tuple(value_positions))


def scan_oracle(pairs: Sequence[Pair], r_start: int, r_end: int) -> list[bytes]:
    """Reference answer by linear scan: every value whose key lies in
    [r_start, r_end], duplicates included."""
    if r_start > r_end:
        raise ValueError("empty range: start exceeds end")
    return [value for key, value in pairs if r_start <= key <= r_end]
