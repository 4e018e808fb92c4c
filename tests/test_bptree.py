"""Tree construction contracts, cross-checked against an independent
reference bulk load written here (sorted-list leaves, `numpy.array_split`
grouping, no shared code)."""

import dataclasses
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsbt.bptree import (
    DUMMY_POINTER,
    KEY_INFINITY,
    KEY_MAX,
    BuildError,
    PlainTree,
    build_tree,
    scan_oracle,
)


# --- independent reference: node count, height and leaves of a bulk load ---


def _ref_bulk_load(keys, b):
    """Return (node count, height, leaf key lists) of the bulk-loaded tree."""
    ordered = sorted(keys)
    leaves = []
    while ordered:
        cut = min(b - 1, len(ordered))
        # Step back over the run that the cut would split.
        while cut < len(ordered) and ordered[cut] == ordered[cut - 1]:
            cut -= 1
            if cut == 0:
                raise AssertionError("reference: run longer than a leaf")
        leaves.append(ordered[:cut])
        ordered = ordered[cut:]
    count, height, width = len(leaves), 1, len(leaves)
    while width > 1:
        groups = np.array_split(np.arange(width), math.ceil(width / b))
        assert all(2 <= len(g) <= b for g in groups)
        count, height, width = count + len(groups), height + 1, len(groups)
    return count, height, leaves


def _pairs(keys):
    return [(k, b"v%d" % i) for i, k in enumerate(keys)]


def _walk_check(tree):
    """Full traversal: padding shape, separator bounds, leaf key collection."""
    assert tree.keys.shape == (tree.node_count, tree.branching - 1)
    assert tree.ptrs.shape == (tree.node_count, tree.branching)
    collected = []
    stack = [(tree.root_id, 0, 2**32)]
    while stack:
        node, lo, hi = stack.pop()
        keys, pointers, count = tree.keys[node].tolist(), tree.ptrs[node].tolist(), int(tree.key_count[node])
        live = keys[:count]
        assert live == sorted(live)
        assert all(k == KEY_INFINITY for k in keys[count:])
        assert all(lo <= k < hi for k in live)
        if tree.leaf[node]:
            assert pointers[0] == DUMMY_POINTER
            assert all(p == DUMMY_POINTER for p in pointers[count + 1 :])
            collected.extend(live)
        else:
            assert all(p == DUMMY_POINTER for p in pointers[count + 1 :])
            bounds = [lo] + live + [hi]
            for i in reversed(range(count + 1)):
                stack.append((pointers[i], bounds[i], bounds[i + 1]))
    return collected


def _leaves(tree):
    """Leaf ids left to right, by a walk down from the root."""
    stack = [tree.root_id]
    while stack:
        node = stack.pop()
        if tree.leaf[node]:
            yield node
        else:
            stack.extend(reversed(tree.ptrs[node, : tree.key_count[node] + 1].tolist()))


def _leaf_keys(tree):
    return [tree.keys[leaf, : tree.key_count[leaf]].tolist() for leaf in _leaves(tree)]


def test_singleton_pair_builds_single_root_leaf():
    tree = build_tree([(5, b"v")], 4)
    assert tree.node_count == 1
    assert tree.leaf[0] and tree.root_id == 0
    assert tree.keys[0].tolist() == [5, KEY_INFINITY, KEY_INFINITY]
    assert tree.ptrs[0, 1] == 0 and tree.ptrs[0, 0] == DUMMY_POINTER


def test_nine_keys_b4_fill_three_leaves():
    tree = build_tree(_pairs(range(1, 10)), 4)
    assert tree.node_count == 4 and tree.height == 2
    assert _leaf_keys(tree) == [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    # Leaves take ids 0..2 left to right, the root comes last.
    assert tree.root_id == 3 and tree.keys[3].tolist() == [4, 7, KEY_INFINITY]
    assert tree.ptrs[3].tolist() == [0, 1, 2, DUMMY_POINTER]


def _reference_inputs(n, b, rng):
    """Shuffled key lists of about `n` keys: random keys; runs of 1 to
    b - 1 copies at both ends of the key domain around random keys; and one
    key once, then every key twice, so that natural cuts (every b - 1 keys)
    split runs and the build walks its cuts: at b=3 every natural cut, at
    b=10 and b=100 every other one."""
    random_keys = [rng.randrange(1, KEY_MAX) for _ in range(n)]
    ends = [k for k in (1, 2, KEY_MAX - 1, KEY_MAX) for _ in range(rng.randint(1, b - 1))]
    ends += [rng.randrange(3, KEY_MAX - 1) for _ in range(n)]
    doubled = [1] + [k for k in range(2, n // 2 + 2) for _ in range(2)]
    for keys in (random_keys, ends, doubled):
        rng.shuffle(keys)
    return random_keys, ends, doubled


@pytest.mark.parametrize(
    "b,n,seed", [(3, 600, 4), (4, 200, 1), (7, 999, 2), (10, 3000, 3), (100, 3000, 5)]
)
def test_random_trees_match_reference_structure(b, n, seed):
    rng = random.Random(seed)
    for keys in _reference_inputs(n, b, rng):
        tree = build_tree(_pairs(keys), b, rng=random.Random(0))
        count, height, leaves = _ref_bulk_load(keys, b)
        assert tree.node_count == count
        assert tree.height == height
        assert _walk_check(tree) == sorted(keys)
        assert _leaf_keys(tree) == leaves
        # Left to right, the leaves point at the value slots of the pairs in
        # key order, each run of equal keys at its pairs' slots in input order.
        order = sorted(range(len(keys)), key=keys.__getitem__)
        pointers = [tree.ptrs[leaf, 1 : tree.key_count[leaf] + 1].tolist() for leaf in _leaves(tree)]
        assert sum(pointers, []) == tree.value_positions[order].tolist()


def test_ten_thousand_random_keys_all_reachable():
    rng = random.Random(42)
    keys = [rng.randrange(1, KEY_MAX) for _ in range(10_000)]
    tree = build_tree(_pairs(keys), 10, rng=random.Random(7))
    assert Counter(_walk_check(tree)) == Counter(keys)
    # Value pointers form a permutation of the value region.
    ptrs = [p for leaf in _leaves(tree) for p in tree.ptrs[leaf, 1 : tree.key_count[leaf] + 1].tolist()]
    assert sorted(ptrs) == list(range(10_000))


def test_height_bound():
    rng = random.Random(9)
    for b, n in ((4, 500), (10, 10_000)):
        keys = rng.sample(range(1, KEY_MAX), n)
        tree = build_tree(_pairs(keys), b, rng=random.Random(0))
        assert tree.height <= math.ceil(math.log(n, math.ceil(b / 2))) + 1


def test_build_deterministic_given_seed():
    key_rng = random.Random(5)
    pairs = _pairs([key_rng.randrange(1, KEY_MAX) for _ in range(500)])
    t1 = build_tree(pairs, 6, rng=random.Random(99))
    t2 = build_tree(pairs, 6, rng=random.Random(99))
    for field in dataclasses.fields(PlainTree):
        assert np.array_equal(getattr(t1, field.name), getattr(t2, field.name)), field.name
    t3 = build_tree(pairs, 6, rng=random.Random(100))
    assert not np.array_equal(t1.value_positions, t3.value_positions)


def test_duplicate_keys_all_stored_and_returned():
    pairs = [(50, b"a"), (50, b"b"), (7, b"c"), (50, b"d"), (99, b"e")]
    tree = build_tree(pairs, 5, rng=random.Random(1))
    assert Counter(_walk_check(tree)) == Counter([50, 50, 7, 50, 99])
    assert Counter(scan_oracle(pairs, 50, 50)) == Counter([b"a", b"b", b"d"])


def test_duplicate_run_beyond_node_capacity_rejected():
    pairs = [(5, b"x")] * 6 + [(1, b"y"), (9, b"z")]
    with pytest.raises(BuildError):
        build_tree(pairs, 4)


def test_domain_validation():
    # Keys outside the 64-bit range too, and after a valid key: the range
    # check comes before any conversion to a fixed-width integer.
    for key in (0, KEY_MAX + 1, 2**64, -(2**70)):
        with pytest.raises(BuildError, match="outside"):
            build_tree([(key, b"v")], 4)
        with pytest.raises(BuildError, match="outside"):
            build_tree([(1, b"v"), (key, b"w")], 4)
    # A key that is not a number fails its comparison with the domain,
    # though numpy would parse it; a number in the domain that is not an
    # integer is refused too.  A key outside the domain before it is named.
    for key in ("5", b"5", 5.5):
        with pytest.raises(TypeError):
            build_tree([(key, b"v")], 4)
        with pytest.raises(TypeError):
            build_tree([(1, b"v"), (key, b"w")], 4)
        with pytest.raises(BuildError, match="key 0 outside"):
            build_tree([(0, b"v"), (key, b"w")], 4)
    with pytest.raises(BuildError):
        build_tree([], 4)
    with pytest.raises(BuildError):
        build_tree([(1, b"v")], 2)


def test_scan_oracle_direct_cases():
    pairs = _pairs(range(1, 10))
    assert scan_oracle(pairs, 3, 5) == [pairs[2][1], pairs[3][1], pairs[4][1]]
    assert scan_oracle(pairs, 100, KEY_MAX) == []
    with pytest.raises(ValueError):
        scan_oracle(pairs, 5, 3)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=300),
    st.integers(min_value=3, max_value=12),
)
def test_property_leaf_multiset_equals_input(keys, b):
    capped = Counter(keys)
    if any(c > b - 1 for c in capped.values()):
        keys = [k for k in keys if capped[k] <= b - 1]
        if not keys:
            return
    tree = build_tree(_pairs(keys), b, rng=random.Random(0))
    assert Counter(_walk_check(tree)) == Counter(keys)


def _subtree_min(tree, node):
    while not tree.leaf[node]:
        node = tree.ptrs[node, 0]
    return int(tree.keys[node, 0])


@st.composite
def _keys_with_runs(draw):
    """A branching factor and a shuffled key multiset whose runs of equal keys
    hold 1 to b - 1 copies each."""
    b = draw(st.integers(min_value=3, max_value=12))
    distinct = draw(st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=120, unique=True))
    copies = draw(st.lists(st.integers(1, b - 1), min_size=len(distinct), max_size=len(distinct)))
    keys = [k for k, c in zip(distinct, copies) for _ in range(c)]
    draw(st.randoms(use_true_random=False)).shuffle(keys)
    return b, keys


def _check_bulk_load_shape(tree, keys):
    b = tree.branching
    for node in range(tree.node_count):
        if not tree.leaf[node]:
            separators = tree.keys[node, : tree.key_count[node]].tolist()
            assert all(x < y for x, y in zip(separators, separators[1:]))
            children = tree.ptrs[node, : tree.key_count[node] + 1].tolist()
            assert separators == [_subtree_min(tree, child) for child in children[1:]]
            assert len(children) >= 2
    copies = Counter(keys)
    leaves = _leaf_keys(tree)
    for leaf, after in zip(leaves, leaves[1:]):
        # Short only when the next leaf's run would not have fit behind it.
        assert len(leaf) == b - 1 or len(leaf) + copies[after[0]] > b - 1
    assert sum(leaves, []) == sorted(keys)


@settings(max_examples=60, deadline=None)
@given(_keys_with_runs())
def test_property_bulk_load_fills_leaves_and_keeps_separators_minimal(drawn):
    b, keys = drawn
    tree = build_tree(_pairs(keys), b, rng=random.Random(0))
    _check_bulk_load_shape(tree, keys)
    # A run of exactly b - 1 copies builds wherever it falls; one of b does not.
    run_key = keys[0]
    at_capacity = [k for k in keys if k != run_key] + [run_key] * (b - 1)
    _check_bulk_load_shape(build_tree(_pairs(at_capacity), b, rng=random.Random(0)), at_capacity)
    with pytest.raises(BuildError):
        build_tree(_pairs(at_capacity + [run_key]), b)


def test_permuting_the_pairs_leaves_the_shape_unchanged():
    rng = random.Random(17)
    keys = [k for k in rng.sample(range(1, 10_000), 700) for _ in range(rng.randint(1, 5))]
    pairs = _pairs(keys)
    base = build_tree(pairs, 6, rng=random.Random(0))
    for _ in range(5):
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        tree = build_tree(shuffled, 6, rng=random.Random(0))
        assert tree.node_count == base.node_count and tree.height == base.height
        assert np.array_equal(tree.keys, base.keys)


def test_value_positions_are_one_shuffle_of_the_region():
    # One numpy permutation of the value region, seeded by one 128-bit draw
    # from the caller's rng.
    for n in (1, 2, 300):
        want = np.random.default_rng(random.Random(3).getrandbits(128)).permutation(n)
        got = build_tree(_pairs(range(1, n + 1)), 5, rng=random.Random(3)).value_positions
        assert got.dtype == np.uint32
        assert np.array_equal(got, want)
        assert sorted(got.tolist()) == list(range(n))
