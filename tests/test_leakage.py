"""Leakage-function contracts and trace audits: hand-enumerated desk example,
page collapse, monotonicity, and PASS/FAIL behaviour of the auditor against
the real pipeline."""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsbt.bptree import DUMMY_POINTER as D
from hsbt.bptree import KEY_INFINITY as INF
from hsbt.bptree import KEY_MAX, MIN_BRANCHING, PlainTree, build_tree
from hsbt.codec import encrypt_index, make_token, node_plain_size
from hsbt.crypto import TAG_BYTES, SecretKey, prp_permutation
from hsbt.deploy import Deployment
from hsbt.enclave import EnclaveSim
from hsbt.leakage import (
    AccessTrace,
    AccessTree,
    PageLayout,
    audit_query,
    formal_vertex_ids,
    leak_enc,
    leak_hw_nodes,
    leak_hw_pages,
)
from hsbt.server import search_resident, search_streamed


@pytest.fixture
def desk_tree():
    """Three levels, branching 4: root{40} over A{20}->(L1{5,10}, L2{20,30})
    and B{60}->(L3{40,50}, L4{60,70}); value pointers 0..7 left to right."""
    rows = [  # one per node id: leaf, live keys, live pointers
        (True, [5, 10], [D, 0, 1]),
        (True, [20, 30], [D, 2, 3]),
        (False, [20], [0, 1]),
        (True, [40, 50], [D, 4, 5]),
        (True, [60, 70], [D, 6, 7]),
        (False, [60], [3, 4]),
        (False, [40], [2, 5]),
    ]
    return PlainTree(
        branching=4,
        n_values=8,
        keys=np.array([keys + [INF] * (3 - len(keys)) for _, keys, _ in rows], np.uint32),
        ptrs=np.array([ptrs + [D] * (4 - len(ptrs)) for _, _, ptrs in rows], np.uint32),
        key_count=np.array([len(keys) for _, keys, _ in rows]),
        leaf=np.array([leaf for leaf, _, _ in rows]),
        root_id=6,
        value_positions=np.arange(8, dtype=np.uint32),
    )


def test_leak_enc_fields():
    pairs = [(5, b"abc")]
    tree = build_tree(pairs, 4, rng=random.Random(0))
    static = leak_enc(pairs, tree)
    overhead = TAG_BYTES  # a value blob is its body and a tag, at an implied nonce
    assert (static.n_values, static.value_width, static.node_count) == (1, 3 + overhead, 1)

    rng = random.Random(1)
    pairs = [(k, b"x%06d" % k) for k in rng.sample(range(1, 10_000), 9)]
    tree = build_tree(pairs, 4, rng=rng)
    static = leak_enc(pairs, tree)
    assert static.node_count == tree.node_count
    assert static.value_width == 7 + overhead
    with pytest.raises(ValueError, match=r"one length, got lengths \[3, 7\]"):
        leak_enc(pairs + [(10_001, b"abc")], tree)

    # The encrypted container echoes exactly these facts: every blob has the
    # one value width, counts match the header.
    index = encrypt_index(SecretKey.generate(), tree, [v for _, v in pairs])
    assert (index.n_values, index.node_count) == (static.n_values, static.node_count)
    assert index.value_width == static.value_width
    assert index.value_rows.shape == (static.n_values, static.value_width)


def test_desk_example_mid_range_enumerated(desk_tree):
    access, pattern = leak_hw_nodes(desk_tree, 20, 45)
    assert access.vertices == frozenset({6, 2, 5, 1, 3})
    assert access.edges == frozenset({(6, 2), (6, 5), (2, 1), (5, 3)})
    assert access.root == 6
    assert dict(pattern.entries) == {1: (2, 3), 3: (4,)}
    # Both endpoints resolve inside matched leaves, so the textbook set agrees.
    assert formal_vertex_ids(desk_tree, 20, 45) == access.vertices


def test_desk_example_full_range_is_entire_tree(desk_tree):
    access, pattern = leak_hw_nodes(desk_tree, 0, 2**32 - 1)
    assert access.vertices == frozenset(range(7))
    assert sorted(pattern.pointer_union()) == list(range(8))


def test_desk_example_no_result_probe_path(desk_tree):
    # No key inside [12, 18]; the traversal still probes root -> A -> L1.
    access, pattern = leak_hw_nodes(desk_tree, 12, 18)
    assert access.vertices == frozenset({6, 2, 0})
    assert access.edges == frozenset({(6, 2), (2, 0)})
    assert pattern.entries == ()
    # The textbook set-builder leaves X empty here: the definitional gap.
    assert formal_vertex_ids(desk_tree, 12, 18) == frozenset()


def test_boundary_probe_extends_formal_set(desk_tree):
    # [35, 45]: only L3 matches, but the start endpoint routes through A/L2.
    access, _ = leak_hw_nodes(desk_tree, 35, 45)
    formal = formal_vertex_ids(desk_tree, 35, 45)
    assert formal == frozenset({6, 5, 3})
    assert access.vertices == frozenset({6, 5, 3, 2, 1})
    assert formal < access.vertices


def test_formal_set_is_always_contained(desk_tree):
    rng = random.Random(2)
    for _ in range(200):
        a, b = sorted((rng.randrange(0, 90), rng.randrange(0, 90)))
        access, _ = leak_hw_nodes(desk_tree, a, b)
        assert formal_vertex_ids(desk_tree, a, b) <= access.vertices


def test_monotonicity_of_access_tree():
    rng = random.Random(3)
    keys = rng.sample(range(1, KEY_MAX), 600)
    pairs = [(k, b"v") for k in keys]
    tree = build_tree(pairs, 5, rng=rng)
    for _ in range(60):
        a, b = sorted((rng.randrange(1, KEY_MAX), rng.randrange(1, KEY_MAX)))
        wider_a, wider_b = max(1, a - rng.randrange(0, 2**28)), min(KEY_MAX, b + rng.randrange(0, 2**28))
        inner_tree, _ = leak_hw_nodes(tree, a, b)
        outer_tree, _ = leak_hw_nodes(tree, wider_a, wider_b)
        assert inner_tree.vertices <= outer_tree.vertices


@st.composite
def _built_with_runs(draw):
    """Pairs with runs of 1 to b-1 equal keys in a drawn order, b from 3 to
    12, the seed of the value shuffle, and a range whose ends are stored
    keys, keys between them, or the open sentinels."""
    branching = draw(st.integers(MIN_BRANCHING, 12))
    runs = draw(
        st.lists(
            st.tuples(st.integers(1, 3000), st.integers(1, branching - 1)),
            min_size=1,
            max_size=60,
            unique_by=lambda run: run[0],
        )
    )
    keys = draw(st.permutations([key for key, count in runs for _ in range(count)]))
    ends = st.one_of(st.sampled_from(keys), st.integers(1, 3001), st.sampled_from([0, INF]))
    r_start, r_end = sorted((draw(ends), draw(ends)))
    return branching, [(key, b"v") for key in keys], draw(st.integers(0, 2**32)), r_start, r_end


@settings(max_examples=150, deadline=None)
@given(_built_with_runs())
def test_declared_value_pointers_are_the_pairs_in_range(drawn):
    # The expected pointers come from the pairs and the value shuffle alone,
    # never from a walk of the tree.
    branching, pairs, seed, r_start, r_end = drawn
    tree = build_tree(pairs, branching, rng=random.Random(seed))
    access, pattern = leak_hw_nodes(tree, r_start, r_end)
    want = [tree.value_positions[i] for i, (key, _) in enumerate(pairs) if r_start <= key <= r_end]
    assert Counter(pattern.pointer_union()) == Counter(want)
    assert formal_vertex_ids(tree, r_start, r_end) <= access.vertices


def test_page_tree_is_image_of_node_tree():
    rng = random.Random(4)
    keys = rng.sample(range(1, KEY_MAX), 500)
    tree = build_tree([(k, b"v") for k in keys], 6, rng=rng)
    layout = PageLayout(record_size=node_plain_size(6))
    for _ in range(30):
        a, b = sorted((rng.randrange(1, KEY_MAX), rng.randrange(1, KEY_MAX)))
        node_tree, _ = leak_hw_nodes(tree, a, b)
        page_tree, _ = leak_hw_pages(tree, a, b, layout)
        assert page_tree.vertices == frozenset(layout.page_of(v) for v in node_tree.vertices)
        for pa, pb in page_tree.edges:
            assert pa != pb


def test_single_page_layout_collapses_to_one_vertex(desk_tree):
    layout = PageLayout(record_size=64)  # seven nodes well inside one page
    page_tree, _ = leak_hw_pages(desk_tree, 0, 2**32 - 1, layout)
    assert page_tree.vertices == frozenset({0})
    assert page_tree.edges == frozenset()


def test_two_page_layout_split_at_level_boundary(desk_tree):
    # Place the two top levels on page 0 and all leaves on page 1.
    placement = {6: 0, 2: 1, 5: 2, 0: 4, 1: 5, 3: 6, 4: 7}
    layout = PageLayout(record_size=1024)  # four records per 4 KiB page
    page_tree, _ = leak_hw_pages(
        desk_tree, 0, 2**32 - 1, layout, position_map=placement.__getitem__
    )
    assert page_tree.vertices == frozenset({0, 1})
    assert page_tree.edges == frozenset({(0, 1)})
    assert page_tree.root == 0


# -- audits against the real pipeline -----------------------------------------


def _pipeline(n=500, b=5, seed=5, integrity=False):
    rng = random.Random(seed)
    keys = rng.sample(range(1, KEY_MAX), n)
    pairs = [(k, b"v%06d" % i) for i, k in enumerate(keys)]
    seed_rng = random.Random(seed)
    dep = Deployment.build(
        pairs,
        b,
        integrity=integrity,
        rng=rng,
        enclave=EnclaveSim(order_seed_source=lambda: seed_rng.getrandbits(64)),
    )
    perm = prp_permutation(dep.sk.tree_key, dep.index.node_count)
    position_map = lambda nid: int(perm[nid])
    return pairs, dep.tree, dep.sk, dep.index, dep.enclave, position_map


def test_streamed_queries_audit_pass():
    pairs, tree, sk, index, enclave, pm = _pipeline(seed=6)
    rng = random.Random(7)
    for _ in range(30):
        a, b = sorted((rng.randrange(1, KEY_MAX), rng.randrange(1, KEY_MAX)))
        trace = AccessTrace()
        search_streamed(index, enclave, make_token(sk.tree_key, a, b), trace=trace)
        access, pattern = leak_hw_nodes(tree, a, b, position_map=pm)
        verdict = audit_query(trace, access, pattern)
        assert verdict.passed, verdict.detail
        assert trace.order_seeds  # replayable order snapshot was recorded


def test_resident_queries_audit_pass_at_page_level():
    pairs, tree, sk, index, enclave, pm = _pipeline(seed=8)
    enclave.load_tree(index)
    layout = PageLayout(record_size=node_plain_size(index.branching))
    rng = random.Random(9)
    for _ in range(30):
        a, b = sorted((rng.randrange(1, KEY_MAX), rng.randrange(1, KEY_MAX)))
        trace = AccessTrace()
        search_resident(index, enclave, make_token(sk.tree_key, a, b), trace=trace)
        access, pattern = leak_hw_pages(tree, a, b, layout, position_map=pm)
        verdict = audit_query(trace, access, pattern)
        assert verdict.passed, verdict.detail


def test_injected_extra_fetch_flips_verdict():
    pairs, tree, sk, index, enclave, pm = _pipeline(seed=10)
    keys = sorted(k for k, _ in pairs)
    a, b = keys[10], keys[80]
    trace = AccessTrace()
    search_streamed(index, enclave, make_token(sk.tree_key, a, b), trace=trace)
    access, pattern = leak_hw_nodes(tree, a, b, position_map=pm)
    assert audit_query(trace, access, pattern).passed

    outside = next(s for s in range(index.node_count) if s not in access.vertices)
    trace.node_fetches([outside])
    verdict = audit_query(trace, access, pattern)
    assert not verdict.passed
    assert verdict.failed_event == len(trace.events) - 1
    assert str(outside) in verdict.detail


def test_trace_of_one_range_fails_leakage_of_another():
    pairs, tree, sk, index, enclave, pm = _pipeline(seed=11)
    keys = sorted(k for k, _ in pairs)
    r1 = (keys[5], keys[30])
    r2 = (keys[300], keys[330])  # disjoint result sets
    trace = AccessTrace()
    search_streamed(index, enclave, make_token(sk.tree_key, *r1), trace=trace)
    access2, pattern2 = leak_hw_nodes(tree, *r2, position_map=pm)
    assert not audit_query(trace, access2, pattern2).passed


def test_duplicate_fetch_fails_node_audit():
    pairs, tree, sk, index, enclave, pm = _pipeline(seed=12)
    keys = sorted(k for k, _ in pairs)
    trace = AccessTrace()
    search_streamed(index, enclave, make_token(sk.tree_key, keys[0], keys[50]), trace=trace)
    access, pattern = leak_hw_nodes(tree, keys[0], keys[50], position_map=pm)
    trace.events.append(("node", trace.touched("node")[0]))  # re-fetch the root
    assert not audit_query(trace, access, pattern).passed


def test_missing_pointer_fails_audit(desk_tree):
    access, pattern = leak_hw_nodes(desk_tree, 20, 45)
    trace = AccessTrace()
    trace.node_fetches((6, 2, 5, 1, 3))
    trace.pointers_out((2, 3))  # L3's pointer 4 withheld
    assert not audit_query(trace, access, pattern).passed


def test_child_before_parent_fails_audit(desk_tree):
    access, pattern = leak_hw_nodes(desk_tree, 20, 45)
    trace = AccessTrace()
    trace.node_fetches((2, 6, 5, 1, 3))  # A fetched before the root
    trace.pointers_out((2, 3, 4))
    verdict = audit_query(trace, access, pattern)
    assert not verdict.passed and verdict.failed_event == 0


def test_node_without_a_declared_parent_fails_audit(desk_tree):
    access, pattern = leak_hw_nodes(desk_tree, 20, 45)
    orphaned = AccessTree(access.vertices, access.edges - {(6, 5)}, access.root, "node")
    trace = AccessTrace()
    trace.node_fetches((6, 2, 5, 1, 3))
    trace.pointers_out((2, 3, 4))
    assert audit_query(trace, access, pattern).passed
    verdict = audit_query(trace, orphaned, pattern)
    assert not verdict.passed and verdict.failed_event == 2
    assert verdict.detail == "node 5 has no parent in declared leakage"


def test_declared_page_never_touched_fails_page_audit(desk_tree):
    # The two-page layout: inner nodes on page 0, leaves on page 1.
    placement = {6: 0, 2: 1, 5: 2, 0: 4, 1: 5, 3: 6, 4: 7}
    layout = PageLayout(record_size=1024)
    access, pattern = leak_hw_pages(
        desk_tree, 0, 2**32 - 1, layout, position_map=placement.__getitem__
    )
    trace = AccessTrace()
    trace.page_touch(0)
    trace.pointers_out(range(8))
    verdict = audit_query(trace, access, pattern)
    assert not verdict.passed
    assert verdict.detail == "declared pages never touched: [1]"


def test_trace_line_format():
    trace = AccessTrace()
    trace.order_seeds.append(12345)
    trace.node_fetches([7, 8])
    trace.page_touch(3)
    trace.pointers_out((9, 1, 4))
    trace.pointers_out(())
    assert trace.to_lines() == ["seed 12345", "node 7", "node 8", "page 3", "ptrs 9,1,4", "ptrs "]

