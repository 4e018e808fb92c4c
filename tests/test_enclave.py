"""Trusted-side contracts: provisioning, resident load, both search paths
against the scan oracle, the integrity session machine, oblivious scanning."""

import functools
import random
import struct
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsbt import crypto
from hsbt.bptree import (
    KEY_INFINITY,
    KEY_MAX,
    KEY_MIN,
    KEY_NEG_INFINITY,
    MIN_BRANCHING,
    scan_oracle,
)
from hsbt.codec import (
    FLAG_LEAF,
    deserialize_node,
    leaf_mask,
    make_token,
    node_dtype,
    node_struct,
    token_key,
)
from hsbt.crypto import SecretKey, encrypt_wire
from hsbt.deploy import Deployment
from hsbt.enclave import (
    DEFAULT_CLIENT,
    MAX_OPEN_SESSIONS,
    CapacityExceededError,
    EnclaveAbort,
    EnclaveError,
    EnclaveSim,
    NoKeyError,
    _expand,
    _scan_record,
    oblivious_match_slots,
)
from hsbt.leakage import AccessTrace
from hsbt.server import search_streamed


def _fixture(n=500, b=5, seed=0, integrity=False, values=None):
    rng = random.Random(seed)
    keys = rng.sample(range(1, KEY_MAX), n)
    pairs = [(k, values[i] if values else b"v%06d" % i) for i, k in enumerate(keys)]
    dep = Deployment.build(pairs, b, integrity=integrity, rng=rng)
    return pairs, dep.tree, dep.sk, dep.index, dep.enclave


def _oracle_pointer_set(pairs, tree, rs, re):
    return {tree.value_positions[i] for i, (k, _) in enumerate(pairs) if rs <= k <= re}


def _drive_batches(index, enclave, token, max_batch=None):
    """Minimal honest driver used for enclave-level tests, sending int
    lists; returns the value pointers as an int list.  An integrity session
    stays open for the caller to finalize under `token`."""
    from collections import deque

    max_batch = max_batch or enclave.max_batch_nodes(index.node_record_size)
    queue = deque([enclave.root_slot()])
    values = []
    while queue:
        batch = [queue.popleft() for _ in range(min(len(queue), max_batch))]
        found, children = enclave.search_batch(token, batch)
        assert found.dtype == children.dtype == np.int64
        values += found.tolist()
        queue.extend(children.tolist())
    return values


# -- provisioning -------------------------------------------------------------


def test_search_before_provision_rejected():
    pairs, tree, sk, index, _ = _fixture(50)
    bare = EnclaveSim()
    bare.attach_container(index)
    with pytest.raises(NoKeyError):
        bare.search_batch(make_token(sk.tree_key, 1, 2), [0])
    with pytest.raises(NoKeyError):
        bare.root_slot()
    # The root slot's domain is the attached container's node count.
    detached = EnclaveSim()
    detached.provision(DEFAULT_CLIENT, sk.tree_key, root_id=tree.root_id)
    with pytest.raises(EnclaveError, match="no container attached"):
        detached.root_slot()


def test_calls_before_their_set_up_step_fail_closed():
    pairs, tree, sk, index, _ = _fixture(50)
    token = make_token(sk.tree_key, 1, KEY_MAX)
    with pytest.raises(NoKeyError, match="enclave not provisioned"):
        EnclaveSim().load_tree(index)
    provisioned = EnclaveSim()
    provisioned.provision(DEFAULT_CLIENT, sk.tree_key, root_id=tree.root_id)
    with pytest.raises(EnclaveError, match="no container attached"):
        provisioned.search_batch(token, [0])
    provisioned.attach_container(index)
    with pytest.raises(EnclaveError, match="no resident tree loaded"):
        provisioned.search_resident(token)


def test_token_naming_an_empty_range_aborts():
    # `make_token` refuses to mint an inverted range, so seal one directly.
    pairs, tree, sk, index, enclave = _fixture(50)
    enclave.load_tree(index)
    token = encrypt_wire(token_key(sk.tree_key), struct.pack("<II", 9, 3))
    with pytest.raises(EnclaveAbort, match="token names an empty range"):
        enclave.search_batch(token, [enclave.root_slot()])
    with pytest.raises(EnclaveAbort, match="token names an empty range"):
        enclave.search_resident(token)


def test_token_sealed_under_the_raw_tree_key_aborts():
    # The old form of a token: the range sealed under the tree key itself.
    pairs, tree, sk, index, enclave = _fixture(50)
    enclave.load_tree(index)
    old = encrypt_wire(sk.tree_key, struct.pack("<II", 1, KEY_MAX))
    with pytest.raises(EnclaveAbort, match="^token failed authentication$"):
        enclave.search_batch(old, [enclave.root_slot()])
    with pytest.raises(EnclaveAbort, match="^token failed authentication$"):
        enclave.search_resident(old)


def test_no_aes_context_runs_under_the_raw_tree_key(monkeypatch):
    # A build, one streamed integrity query and one resident query fill this
    # thread's cipher-state table with the tree key's subkeys, never the key.
    monkeypatch.setattr(crypto._states, "by_key", {}, raising=False)
    rng = random.Random(3)
    pairs = [(k, b"v%010d" % k) for k in rng.sample(range(1, KEY_MAX), 300)]
    dep = Deployment.build(pairs, 5, integrity=True, rng=rng)
    lo, hi = sorted(k for k, _ in pairs)[10:12]
    for construction in (2, 1):
        values, _ = dep.query(lo, hi, construction=construction)
        assert sorted(values) == sorted(v for k, v in pairs if lo <= k <= hi)
    tree_key = dep.sk.tree_key
    in_use = crypto._states.by_key
    assert tree_key not in in_use
    for label in (b"hsbt-tokens", b"hsbt-mset-prf", b"hsbt-node-placement"):
        assert crypto.subkey(tree_key, label) in in_use
    assert dep.index.record_key(tree_key) in in_use and dep.sk.value_key in in_use


@pytest.mark.parametrize("bit", [0, 12 * 8 + 3, 36 * 8 - 1])
def test_token_with_a_flipped_bit_aborts_and_leaves_sessions_alone(bit):
    # One bit flipped in the nonce, the sealed range or the tag of an open
    # session's token: both entry points refuse it before any session is
    # looked up, and the open session stays as it was.
    pairs, tree, sk, index, enclave = _integrity_fixture()
    enclave.load_tree(index)
    token = make_token(sk.tree_key, None, None)
    enclave.search_batch(token, [enclave.root_slot()])
    before = {t: (s.outstanding, s.balance, s.result_hash) for t, s in enclave._sessions.items()}
    wire = bytearray(token)
    wire[bit // 8] ^= 1 << bit % 8
    forged = bytes(wire)
    with pytest.raises(EnclaveAbort, match="^token failed authentication$"):
        enclave.search_batch(forged, [enclave.root_slot()])
    with pytest.raises(EnclaveAbort, match="^token failed authentication$"):
        enclave.search_resident(forged)
    after = {t: (s.outstanding, s.balance, s.result_hash) for t, s in enclave._sessions.items()}
    assert after == before and list(after) == [token]


def test_provision_then_search_succeeds():
    pairs, tree, sk, index, enclave = _fixture(50)
    values = _drive_batches(index, enclave, make_token(sk.tree_key, None, None))
    assert len(values) == 50


@pytest.mark.parametrize(
    "retype",
    [bytearray, memoryview, lambda wire: wire.decode("latin-1"), lambda wire: None],
    ids=["bytearray", "memoryview", "str", "None"],
)
def test_a_token_that_is_not_bytes_fails_closed(retype):
    # A minted token is `bytes`; the same wire in any other type, or no wire
    # at all, is refused by all three entry points that take a token before
    # any session is looked up, and the open session stays as it was.
    pairs, tree, sk, index, enclave = _integrity_fixture()
    enclave.load_tree(index)
    token = make_token(sk.tree_key, None, None)
    root = enclave.root_slot()
    enclave.search_batch(token, [root])
    opened = enclave.node_decryptions
    other = retype(token)
    calls = (
        lambda: enclave.search_batch(other, [root]),
        lambda: enclave.search_resident(other),
        lambda: enclave.finalize_session(other),
    )
    for call in calls:
        with pytest.raises(EnclaveAbort, match="^token failed authentication$"):
            call()
    assert list(enclave._sessions) == [token] and enclave._sessions[token].outstanding > 0
    assert enclave.node_decryptions == opened


def test_provision_serves_one_client_and_needs_the_root_id():
    # `provision` takes the client name first, and only `DEFAULT_CLIENT`; the
    # root id is a required keyword.  A refused call changes nothing.
    pairs, tree, sk, index, enclave = _fixture(50)
    enclave.load_tree(index)
    other = SecretKey.generate().tree_key
    for client in ("client-1", "", None):
        with pytest.raises(ValueError, match="serves one client"):
            enclave.provision(client, other, root_id=tree.root_id)
    with pytest.raises(TypeError):
        enclave.provision(DEFAULT_CLIENT, other)
    with pytest.raises(TypeError):
        enclave.provision(DEFAULT_CLIENT, other, tree.root_id)
    assert enclave.tree_loaded
    assert len(enclave.search_resident(make_token(sk.tree_key, None, None))) == 50


def test_reprovision_replaces_key():
    # The new key opens tokens and records alike: a token of the old key
    # fails, and so does the old key's container under the new key.
    pairs, tree, sk, index, enclave = _fixture(30)
    fresh = SecretKey.generate()
    enclave.provision(DEFAULT_CLIENT, fresh.tree_key, root_id=tree.root_id)
    with pytest.raises(EnclaveAbort, match="^token failed authentication$"):
        enclave.search_batch(make_token(sk.tree_key, 1, 9), [enclave.root_slot()])
    with pytest.raises(EnclaveAbort, match="^node record failed authentication$"):
        enclave.search_batch(make_token(fresh.tree_key, 1, 9), [enclave.root_slot()])


def test_reprovisioning_drops_the_resident_tree_and_open_sessions():
    # The resident tree and the open sessions were opened under the old key,
    # so a new key must not reach them: a token of the new key gets no
    # pointer from the old tree, and an old session cannot be continued.
    pairs, tree, sk, index, enclave = _fixture(500, b=8, seed=11, integrity=True)
    keys = sorted(k for k, _ in pairs)
    old = make_token(sk.tree_key, keys[10], keys[40])
    root = enclave.root_slot()
    _, children = enclave.search_batch(old, [root])
    enclave.load_tree(index)
    assert len(enclave.search_resident(old)) == 31 and enclave._sessions
    fresh = SecretKey.generate().tree_key
    enclave.provision(DEFAULT_CLIENT, fresh, root_id=tree.root_id)
    assert not enclave.tree_loaded and not enclave._sessions
    token = make_token(fresh, keys[10], keys[40])
    with pytest.raises(EnclaveError, match="^no resident tree loaded$"):
        enclave.search_resident(token)
    for call in (lambda: enclave.load_tree(index), lambda: enclave.search_batch(token, [root])):
        with pytest.raises(EnclaveAbort, match="^node record failed authentication$"):
            call()
    assert not enclave.tree_loaded
    # Back under the old key, the old token's session is gone: a batch that
    # continues it opens a new one, which must start at the root.
    enclave.provision(DEFAULT_CLIENT, sk.tree_key, root_id=tree.root_id)
    with pytest.raises(EnclaveAbort, match="first node is not the root"):
        enclave.search_batch(old, children[:1])


# -- construction 1: resident tree ---------------------------------------------


def test_load_then_queries_never_decrypt_again():
    pairs, tree, sk, index, enclave = _fixture(300, b=6, seed=1)
    enclave.load_tree(index)
    after_load = enclave.node_decryptions
    assert after_load == index.node_count
    rng = random.Random(3)
    for _ in range(1000):
        a, b_ = sorted((rng.randrange(1, KEY_MAX), rng.randrange(1, KEY_MAX)))
        enclave.search_resident(make_token(sk.tree_key, a, b_))
    assert enclave.node_decryptions == after_load


def test_tampered_node_aborts_load():
    pairs, tree, sk, index, enclave = _fixture(100, seed=2)
    region = bytearray(index.node_region)
    region[len(region) // 2] ^= 0x01
    import dataclasses

    broken = dataclasses.replace(index, node_region=bytes(region))
    with pytest.raises(EnclaveAbort):
        enclave.load_tree(broken)


def test_load_aborts_when_root_slot_holds_another_node():
    # The root is the container's last node, `node_count - 1`, which the
    # header states and every record binds; a provisioned root id naming any
    # other node, or none, aborts before a walk starts, on both paths.  The
    # provisioning itself drops the resident tree, and no load under a wrong
    # root id brings it back.
    import dataclasses

    pairs, tree, sk, index, enclave = _fixture(300, b=4, seed=2, integrity=True)
    assert tree.root_id == index.node_count - 1
    fewer = 16
    shrunk = dataclasses.replace(
        index, node_count=fewer, node_region=index.node_region[: fewer * index.node_record_size]
    )
    # The records are bound to the header, so a host's shrink fails at once.
    before = enclave.node_decryptions
    with pytest.raises(EnclaveAbort, match="^node record failed authentication$"):
        enclave.load_tree(shrunk)
    assert enclave.node_decryptions == before and not enclave.tree_loaded
    enclave.load_tree(index)
    token = make_token(sk.tree_key, 1, KEY_MAX)
    root_slot = index.root_slot
    smaller = _fixture(40, b=4, seed=3)[1].root_id
    for root in (index.node_count - 2, index.node_count, smaller):
        enclave.provision(DEFAULT_CLIENT, sk.tree_key, root_id=root)
        calls = (
            enclave.root_slot,
            lambda: enclave.load_tree(index),
            lambda: enclave.search_batch(token, [root_slot]),
        )
        for call in calls:
            with pytest.raises(EnclaveAbort, match="provisioned root id is not the container's root"):
                call()
        assert not enclave.tree_loaded
        with pytest.raises(EnclaveError, match="^no resident tree loaded$"):
            enclave.search_resident(token)


def test_attaching_another_container_drops_the_resident_tree():
    pairs, tree, sk, index, enclave = _fixture(100, seed=2)
    enclave.load_tree(index)
    enclave.attach_container(index)
    assert enclave.tree_loaded
    assert sorted(enclave.search_resident(make_token(sk.tree_key, None, None))) == list(range(100))
    import dataclasses

    enclave.attach_container(dataclasses.replace(index))
    assert not enclave.tree_loaded


def test_capacity_budget_enforced():
    pairs, tree, sk, index, _ = _fixture(2000, b=4, seed=3)
    small = EnclaveSim(capacity=10_000)
    small.provision(DEFAULT_CLIENT, sk.tree_key, root_id=tree.root_id)
    with pytest.raises(CapacityExceededError):
        small.load_tree(index)


def test_resident_search_matches_oracle():
    pairs, tree, sk, index, enclave = _fixture(800, b=7, seed=4)
    enclave.load_tree(index)
    rng = random.Random(5)
    for _ in range(50):
        a, b_ = sorted((rng.randrange(1, KEY_MAX), rng.randrange(1, KEY_MAX)))
        got = enclave.search_resident(make_token(sk.tree_key, a, b_))
        assert set(got) == _oracle_pointer_set(pairs, tree, a, b_)
        assert len(got) == len(set(got))


def test_resident_search_empty_and_full_ranges():
    pairs, tree, sk, index, enclave = _fixture(200, seed=6)
    enclave.load_tree(index)
    keys = sorted(k for k, _ in pairs)
    gap = next(k for k in range(keys[0] + 1, KEY_MAX) if k not in set(keys))
    empty = enclave.search_resident(make_token(sk.tree_key, gap, gap))
    full = enclave.search_resident(make_token(sk.tree_key, None, None))
    for got in (empty, full):
        assert isinstance(got, np.ndarray) and got.dtype == np.int64
    assert len(empty) == 0
    assert sorted(full.tolist()) == list(range(200))


def test_repeated_query_same_set_fresh_orders():
    pairs, tree, sk, index, enclave = _fixture(400, seed=7)
    enclave.load_tree(index)
    keys = sorted(k for k, _ in pairs)
    rs, re = keys[10], keys[40]  # >= 5 results
    runs = [tuple(enclave.search_resident(make_token(sk.tree_key, rs, re))) for _ in range(20)]
    assert len({frozenset(r) for r in runs}) == 1
    assert len(runs[0]) >= 5
    assert len(set(runs)) > 1, "orders never varied across 20 runs"


# -- construction 2: streamed batches ------------------------------------------


def test_two_level_tree_root_batch_emits_all_children():
    # 12 sequential keys at b=4 give one root over four full leaves.
    pairs = [(k, b"v%02d" % k) for k in range(1, 13)]
    dep = Deployment.build(pairs, 4, rng=random.Random(0))
    assert dep.tree.height == 2
    sk, index, enclave = dep.sk, dep.index, dep.enclave

    token = make_token(sk.tree_key, None, None)
    root_slot = enclave.root_slot()
    values, children = enclave.search_batch(token, [root_slot])
    # The root is inner: every emitted pointer names a child node still to
    # traverse, none is a value pointer yet.
    assert isinstance(values, np.ndarray) and values.dtype == np.int64 and len(values) == 0
    assert isinstance(children, np.ndarray) and children.dtype == np.int64
    child_slots = set(children.tolist())
    assert len(children) == len(child_slots) == 4 and root_slot not in child_slots

    # Feeding those children (the leaves) emits exactly the value pointers.
    values2, children2 = enclave.search_batch(token, sorted(child_slots))
    assert children2.dtype == np.int64 and len(children2) == 0
    assert isinstance(values2, np.ndarray) and values2.dtype == np.int64
    assert sorted(values2.tolist()) == list(range(12))


def test_batch_search_matches_oracle():
    pairs, tree, sk, index, enclave = _fixture(900, b=6, seed=8)
    rng = random.Random(9)
    for _ in range(40):
        a, b_ = sorted((rng.randrange(1, KEY_MAX), rng.randrange(1, KEY_MAX)))
        got = _drive_batches(index, enclave, make_token(sk.tree_key, a, b_))
        assert set(got) == _oracle_pointer_set(pairs, tree, a, b_)


def test_empty_intersection_at_root_gives_empty_result():
    pairs = [(k, b"x") for k in range(100, 200)]
    dep = Deployment.build(pairs, 4, integrity=True, rng=random.Random(0))
    sk, index, enclave = dep.sk, dep.index, dep.enclave
    token = make_token(sk.tree_key, 500, 900)
    assert _drive_batches(index, enclave, token) == []
    # Session still closes cleanly over the empty result.
    assert enclave.finalize_session(token)


@functools.cache
def _batch_deployment():
    """One shared plain deployment (b=5, 400 keys) for the property test."""
    return _fixture(400, b=5, seed=40)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_batch_pointer_lists_are_the_matched_slots(data):
    pairs, tree, sk, index, enclave = _batch_deployment()
    keys = sorted(k for k, _ in pairs)
    ends = st.one_of(st.integers(KEY_MIN, KEY_MAX), st.sampled_from(keys))
    r_start, r_end = sorted((data.draw(ends), data.draw(ends)))
    positions = data.draw(
        st.lists(st.integers(0, index.node_count - 1), min_size=0, max_size=20)
    )
    values, children = enclave.search_batch(make_token(sk.tree_key, r_start, r_end), positions)
    want_values, want_children = _expand(_decoded(sk, index, positions), r_start, r_end)
    assert values.dtype == children.dtype == np.int64
    assert Counter(values.tolist()) == Counter(want_values.tolist())
    assert Counter(children.tolist()) == Counter(want_children.tolist())


def _seeded_outputs(index, sk, root_id, tokens):
    """Every batch answer of a streamed walk per token, on a fresh enclave
    whose shuffle seeds come from a fixed stream."""
    seeds = random.Random(41)
    enclave = EnclaveSim(order_seed_source=lambda: seeds.getrandbits(64))
    dep = Deployment.attach(index, sk, root_id, integrity=index.integrity, enclave=enclave)
    answers = []
    for token in tokens:
        queue = [dep.enclave.root_slot()]
        while queue:
            values, children = dep.enclave.search_batch(token, queue)
            answers.append((values.tolist(), children.tolist()))
            queue = children.tolist()
    return answers


def test_same_seed_source_gives_identical_orders_across_instances_and_threads():
    import threading

    pairs, tree, sk, index, _ = _fixture(600, b=5, seed=42)
    keys = sorted(k for k, _ in pairs)
    tokens = [make_token(sk.tree_key, keys[i], keys[i + 150]) for i in (0, 200, 400)]
    reference = _seeded_outputs(index, sk, tree.root_id, tokens)
    assert any(len(values) > 1 for values, _ in reference)
    assert any(len(children) > 1 for _, children in reference)
    assert _seeded_outputs(index, sk, tree.root_id, tokens) == reference

    results = {}

    def worker(name):
        results[name] = _seeded_outputs(index, sk, tree.root_id, tokens)

    threads = [threading.Thread(target=worker, args=(name,)) for name in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert results == {0: reference, 1: reference}


# -- integrity session machine -------------------------------------------------


def _integrity_fixture(seed=10, n=400, b=5):
    return _fixture(n=n, b=b, seed=seed, integrity=True)


def test_honest_run_finalizes_with_verifiable_mac():
    pairs, tree, sk, index, enclave = _integrity_fixture()
    keys = sorted(k for k, _ in pairs)
    token = make_token(sk.tree_key, keys[5], keys[60])
    values_ptrs = _drive_batches(index, enclave, token)
    mac = enclave.finalize_session(token)
    from hsbt.codec import decrypt_results, verify_result_mac
    from hsbt.server import fetch_values

    values = decrypt_results(sk.value_key, fetch_values(index, values_ptrs))
    assert verify_result_mac(sk.tree_key, values, mac)
    assert Counter(values) == Counter(scan_oracle(pairs, keys[5], keys[60]))


def test_non_root_first_node_aborts():
    pairs, tree, sk, index, enclave = _integrity_fixture(seed=11)
    root_slot = enclave.root_slot()
    wrong = (root_slot + 1) % index.node_count
    with pytest.raises(EnclaveAbort):
        enclave.search_batch(make_token(sk.tree_key, 1, 5), [wrong])


def test_finalize_without_an_open_session_aborts():
    pairs, tree, sk, index, enclave = _integrity_fixture(seed=12)
    token = make_token(sk.tree_key, 1, 5)
    with pytest.raises(EnclaveAbort, match="^no open session for this token$"):
        enclave.finalize_session(token)
    # A batch refused at the root check opens no session.
    wrong = (enclave.root_slot() + 1) % index.node_count
    with pytest.raises(EnclaveAbort, match="first node is not the root"):
        enclave.search_batch(token, [wrong])
    with pytest.raises(EnclaveAbort, match="^no open session for this token$"):
        enclave.finalize_session(token)


def test_withheld_node_blocks_finalize():
    pairs, tree, sk, index, enclave = _integrity_fixture(seed=13)
    token = make_token(sk.tree_key, None, None)
    from collections import deque

    queue = deque([enclave.root_slot()])
    dropped = False
    while queue:
        batch = [queue.popleft() for _ in range(len(queue))]
        children = enclave.search_batch(token, batch)[1].tolist()
        if children and not dropped:
            dropped = True  # withhold exactly one requested node
            children = children[1:]
        queue.extend(children)
    assert dropped
    with pytest.raises(EnclaveAbort):
        enclave.finalize_session(token)


def test_substituted_node_fails_hash_check():
    pairs, tree, sk, index, enclave = _integrity_fixture(seed=14, n=600)
    token = make_token(sk.tree_key, None, None)
    from collections import deque

    root_slot = enclave.root_slot()
    queue = deque([root_slot])
    requested = {root_slot}
    swapped = False
    while queue:
        batch = [queue.popleft() for _ in range(len(queue))]
        if not swapped and batch != [root_slot]:
            # Swap one requested node for a valid but unrequested record.
            outsider = next(s for s in range(index.node_count) if s not in requested)
            batch[0] = outsider
            swapped = True
        _, children = enclave.search_batch(token, batch)
        queue.extend(children)
        requested.update(children)
    assert swapped
    with pytest.raises(EnclaveAbort):
        enclave.finalize_session(token)


def test_extra_node_beyond_outstanding_requests_aborts_immediately():
    # Root-only tree: nothing is ever requested, so any follow-up node drives
    # the outstanding-request counter negative at once.
    pairs = [(7, b"only")]
    dep = Deployment.build(pairs, 4, integrity=True, rng=random.Random(0))
    sk, enclave = dep.sk, dep.enclave
    token = make_token(sk.tree_key, None, None)
    values, children = enclave.search_batch(token, [enclave.root_slot()])
    assert values.tolist() == [0] and children.tolist() == []
    with pytest.raises(EnclaveAbort):
        enclave.search_batch(token, [0])


def test_extra_node_mid_query_caught_at_finalize():
    pairs, tree, sk, index, enclave = _integrity_fixture(seed=15)
    token = make_token(sk.tree_key, None, None)
    from collections import deque

    root_slot = enclave.root_slot()
    queue = deque([root_slot])
    requested = {root_slot}
    injected = False
    # Detection may fire mid-run (outstanding counter dips negative) or at
    # finalize (multiset mismatch); either way the query must abort.
    with pytest.raises(EnclaveAbort):
        while queue:
            batch = [queue.popleft() for _ in range(len(queue))]
            if not injected and batch != [root_slot]:
                outsider = next(s for s in range(index.node_count) if s not in requested)
                batch.append(outsider)  # deliver one node that was never asked for
                injected = True
            _, children = enclave.search_batch(token, batch)
            queue.extend(children)
            requested.update(children)
        assert injected
        enclave.finalize_session(token)


def test_node_delivered_with_a_child_it_requests_aborts():
    pairs, tree, sk, index, enclave = _integrity_fixture(seed=18)
    probe, token = (make_token(sk.tree_key, None, None) for _ in range(2))
    root = enclave.root_slot()
    children = enclave.search_batch(probe, [root])[1].tolist()
    grandchildren = enclave.search_batch(probe, children[:1])[1].tolist()
    # The root and one of its children in the opening batch: one node was
    # outstanding, two arrive.
    with pytest.raises(EnclaveAbort, match="^protocol violation: more nodes than requested$"):
        enclave.search_batch(token, [root, children[0]])
    # The abort closed the session, so the root opens a new one.  A
    # continuing batch: a child of the node, delivered with it.
    children = enclave.search_batch(token, [root])[1].tolist()
    with pytest.raises(EnclaveAbort, match="more nodes than requested"):
        enclave.search_batch(token, children + grandchildren[:1])
    with pytest.raises(EnclaveAbort, match="^no open session for this token$"):
        enclave.finalize_session(token)


def test_tripled_node_with_a_thinned_child_fails_the_balance():
    # Deliver one inner node three times, then only one of the three copies
    # of one of its children.  The tripled node is two deliveries over and
    # the child two under, so the outstanding count ends at zero and no batch
    # holds more nodes than were outstanding; every multiplicity is off by an
    # even number, which a balance kept mod 2 (XOR) would miss.
    pairs, tree, sk, index, enclave = _integrity_fixture(seed=19)
    token = make_token(sk.tree_key, None, None)
    children = enclave.search_batch(token, [enclave.root_slot()])[1].tolist()
    assert len(children) >= 3
    target, rest = children[0], children[1:]
    tripled = enclave.search_batch(token, [target] * 3)[1].tolist()
    thinned = tripled[0]
    assert tripled.count(thinned) == 3
    queue = rest + [p for p in tripled if p != thinned] + [thinned]
    while queue:
        queue = enclave.search_batch(token, queue)[1].tolist()
    with pytest.raises(EnclaveAbort, match="^protocol violation: received nodes differ from"):
        enclave.finalize_session(token)


def test_two_opening_batches_of_one_token_share_one_session():
    # The second delivery of the root joins the session the first opened,
    # where the root was never requested.  The driver queues the children of
    # both, one more node than the session counts outstanding; drained to
    # the last queued node, nothing is outstanding, and the balance is one
    # root over and that node short.
    pairs, tree, sk, index, enclave = _integrity_fixture(seed=20)
    token = make_token(sk.tree_key, None, None)
    root = enclave.root_slot()
    queue = []
    for _ in range(2):
        queue += enclave.search_batch(token, [root])[1].tolist()
    assert len(enclave._sessions) == 1
    while len(queue) > 1:
        queue = queue[1:] + enclave.search_batch(token, queue[:1])[1].tolist()
    with pytest.raises(
        EnclaveAbort, match="^protocol violation: received nodes differ from requested nodes$"
    ):
        enclave.finalize_session(token)


def test_finalize_closes_the_session():
    pairs, tree, sk, index, enclave = _integrity_fixture(seed=16)
    token = make_token(sk.tree_key, None, None)
    _drive_batches(index, enclave, token)
    mac = enclave.finalize_session(token)
    with pytest.raises(EnclaveAbort, match="^no open session for this token$"):
        enclave.finalize_session(token)
    # A replayed token opens a fresh session and earns the same tag.
    _drive_batches(index, enclave, token)
    assert enclave.finalize_session(token) == mac


def test_batch_under_another_token_aborts_and_leaves_the_session_open():
    from hsbt.codec import decrypt_results, verify_result_mac
    from hsbt.server import fetch_values

    pairs, tree, sk, index, enclave = _integrity_fixture(seed=17)
    keys = sorted(k for k, _ in pairs)
    token = make_token(sk.tree_key, keys[5], keys[60])
    others = [
        make_token(sk.tree_key, keys[100], keys[160]),  # another range
        make_token(sk.tree_key, keys[5], keys[60]),  # the same range, minted again
    ]
    found, children = enclave.search_batch(token, [enclave.root_slot()])
    assert len(children)
    for other in others:
        # `other` has no session, so its batch must open one at the root.
        with pytest.raises(EnclaveAbort, match="^protocol violation: first node is not the root$"):
            enclave.search_batch(other, children)
    assert len(enclave._sessions) == 1
    # The opening token's session carries the query through.
    pointers, queue = found.tolist(), children
    while len(queue):
        found, queue = enclave.search_batch(token, queue)
        pointers += found.tolist()
    mac = enclave.finalize_session(token)
    values = decrypt_results(sk.value_key, fetch_values(index, pointers))
    assert verify_result_mac(sk.tree_key, values, mac)
    assert Counter(values) == Counter(scan_oracle(pairs, keys[5], keys[60]))


def test_open_session_table_is_capped_oldest_first():
    # Root-only tree: every session opens with nothing outstanding; one
    # token per session.
    dep = Deployment.build([(7, b"only")], 4, integrity=True, rng=random.Random(0))
    enclave = dep.enclave
    tokens = [make_token(dep.sk.tree_key, None, None) for _ in range(MAX_OPEN_SESSIONS + 5)]
    for token in tokens:
        enclave.search_batch(token, [0])
    assert len(enclave._sessions) == MAX_OPEN_SESSIONS
    assert enclave.sessions_evicted == 5
    assert list(enclave._sessions) == tokens[5:]
    with pytest.raises(EnclaveAbort, match="^no open session for this token$"):
        enclave.finalize_session(tokens[4])
    assert enclave.finalize_session(tokens[5])
    assert enclave.finalize_session(tokens[-1])
    assert enclave.sessions_evicted == 5


def test_concurrent_batches_of_one_token_share_one_session_and_lose_no_update():
    import threading

    pairs, tree, sk, index, enclave = _integrity_fixture(seed=22, n=600, b=4)
    keys = sorted(k for k, _ in pairs)
    root = enclave.root_slot()
    workers = 4

    def run(tasks):
        """Each task in its own thread, all started at once."""
        start = threading.Barrier(len(tasks))
        failures = []

        def work(task):
            start.wait()
            try:
                task()
            except Exception as exc:  # pragma: no cover - surfaced via failures
                failures.append(exc)

        threads = [threading.Thread(target=work, args=(task,)) for task in tasks]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so a lost update shows
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not failures

    # Opening batches of one token, sent at once, open one session.
    token = make_token(sk.tree_key, None, None)
    run([lambda: enclave.search_batch(token, [root])] * workers)
    assert len(enclave._sessions) == 1
    children = tree.key_count[tree.root_id] + 1
    assert enclave._sessions[token].outstanding == workers * (children - 1) + 1

    # An honest query whose every level is sent one node per batch, the
    # nodes split among the threads, earns a tag that verifies.
    from hsbt.codec import decrypt_results, verify_result_mac
    from hsbt.server import fetch_values

    for lo in range(0, 400, 50):
        token = make_token(sk.tree_key, keys[lo], keys[lo + 200])
        found, level = enclave.search_batch(token, [root])
        pointers, level = found.tolist(), level.tolist()
        while level:
            below = []

            def send(share):
                for slot in share:
                    values, nodes = enclave.search_batch(token, [slot])
                    pointers.extend(values.tolist())
                    below.extend(nodes.tolist())

            run([functools.partial(send, level[t::workers]) for t in range(workers)])
            level = below
        values = decrypt_results(sk.value_key, fetch_values(index, pointers))
        assert verify_result_mac(sk.tree_key, values, enclave.finalize_session(token))
        assert Counter(values) == Counter(scan_oracle(pairs, keys[lo], keys[lo + 200]))


# -- oblivious in-node scan ------------------------------------------------------


def _decoded(sk, index, slots):
    """Record array of the nodes at `slots`, in that order."""
    from hsbt.crypto import open_wires

    rows = index.node_rows[list(slots)]
    plains = open_wires(index.record_key(sk.tree_key), rows, index.salt, slots)
    return deserialize_node(plains, index.branching)


def _scalar_match_slots(keys, key_count, is_leaf, r_start, r_end):
    """Reference: the per-slot bit formula, one node and one slot at a time."""
    branching = len(keys) + 1
    kc = key_count
    if is_leaf:
        bits = [False]
        bits += [(r_start <= k) & (k <= r_end) & (j <= kc) for j, k in enumerate(keys, start=1)]
    else:
        bits = [r_start < keys[0]]
        bits += [
            (
                ((keys[j - 1] <= r_start) & (r_start < keys[j]))
                | ((keys[j - 1] <= r_end) & (r_end < keys[j]))
                | ((r_start <= keys[j - 1]) & (keys[j] <= r_end))
            )
            & (j <= kc)
            for j in range(1, branching - 1)
        ]
        bits.append((keys[branching - 2] <= r_end) & (branching - 1 <= kc))
    return [j for j, bit in enumerate(bits) if bit]


def test_touch_counts_constant_over_sweep():
    # The enclave counts the slots its scan examines, read here around
    # one-node batches: the same count whatever the node and the range.
    pairs, tree, sk, index, enclave = _fixture(300, b=8, seed=17)
    slots = list(range(min(20, index.node_count)))
    rng = random.Random(18)
    cases = 0
    counter = enclave.touch_counter
    for i in slots:
        for _ in range(50):
            a, b_ = sorted((rng.randrange(0, 2**32), rng.randrange(0, 2**32)))
            before = (counter.key_slots, counter.pointer_slots)
            enclave.search_batch(make_token(sk.tree_key, a, b_), [i])
            assert counter.key_slots - before[0] == index.branching - 1
            assert counter.pointer_slots - before[1] == index.branching
            cases += 1
    assert cases == len(slots) * 50
    # A batch counts every slot of every node in it.
    before = (counter.key_slots, counter.pointer_slots)
    enclave.search_batch(make_token(sk.tree_key, 0, 2**32 - 1), slots)
    assert counter.key_slots - before[0] == len(slots) * (index.branching - 1)
    assert counter.pointer_slots - before[1] == len(slots) * index.branching


def test_empty_match_still_touches_every_slot():
    pairs, tree, sk, index, enclave = _fixture(50, b=6, seed=19)
    nodes = _decoded(sk, index, range(index.node_count))
    leaf = int(np.flatnonzero(leaf_mask(nodes))[0])
    dead_key = next(k for k in range(1, KEY_MAX) if k not in {k_ for k_, _ in pairs})
    bits = oblivious_match_slots(nodes[leaf : leaf + 1], dead_key, dead_key)
    assert bits.shape == (1, 6) and not bits.any()
    counter = enclave.touch_counter
    values, children = enclave.search_batch(make_token(sk.tree_key, dead_key, dead_key), [leaf])
    assert len(values) == len(children) == 0
    assert (counter.key_slots, counter.pointer_slots) == (5, 6)


def test_full_match_returns_exactly_live_slots():
    pairs, tree, sk, index, enclave = _fixture(50, b=6, seed=20)
    nodes = _decoded(sk, index, range(index.node_count))
    bits = oblivious_match_slots(nodes, 0, 2**32 - 1)
    for node, is_leaf, row in zip(nodes, leaf_mask(nodes), bits):
        lo = 1 if is_leaf else 0
        assert np.flatnonzero(row).tolist() == list(range(lo, int(node["key_count"]) + 1))


def test_scan_agrees_with_naive_reference():
    pairs, tree, sk, index, enclave = _fixture(400, b=7, seed=21)
    nodes = _decoded(sk, index, range(index.node_count))
    leaves = leaf_mask(nodes)
    rng = random.Random(22)
    for _ in range(20):
        a, b_ = sorted((rng.randrange(1, 2**32 - 1), rng.randrange(1, 2**32 - 1)))
        bits = oblivious_match_slots(nodes, a, b_)
        for slot, node in enumerate(nodes):
            keys = node["keys"].tolist()
            key_count = int(node["key_count"])
            got = set(np.flatnonzero(bits[slot]).tolist())
            want = set()
            if leaves[slot]:
                for j in range(key_count):
                    if a <= keys[j] <= b_:
                        want.add(j + 1)
            else:
                if a < keys[0]:
                    want.add(0)
                for i in range(1, index.branching - 1):
                    ki, kj = keys[i - 1], keys[i]
                    if (ki <= a < kj) or (ki <= b_ < kj) or (a <= ki and kj <= b_):
                        want.add(i)
                if keys[-1] <= b_:
                    want.add(index.branching - 1)
                want = {w for w in want if w <= key_count}
            assert got == want, (slot, a, b_)


_KEY_EDGES = st.sampled_from([KEY_MIN, KEY_MIN + 1, KEY_MAX - 1, KEY_MAX])
_RANGE_EDGES = st.sampled_from([KEY_NEG_INFINITY, KEY_MIN, KEY_MAX, KEY_INFINITY])


@st.composite
def _node_batches(draw):
    """A batch of padded nodes of one branching factor, each a (leaf, key
    count, keys, pointers) tuple (leaves and inner nodes, every key count
    from 0 to b-1), plus a range over their keys, the key-space edges and
    the open sentinels.  Inner keys are distinct, as a built tree's
    separators are; leaf keys may repeat."""
    branching = draw(st.integers(MIN_BRANCHING, 12))
    keys_st = st.one_of(st.integers(KEY_MIN, KEY_MAX), _KEY_EDGES)
    nodes = []
    for node_id in range(draw(st.integers(1, 6))):
        key_count = draw(st.integers(0, branching - 1))
        is_leaf = draw(st.booleans())
        keys = draw(st.lists(keys_st, min_size=key_count, max_size=key_count, unique=not is_leaf))
        keys = sorted(keys) + [KEY_INFINITY] * (branching - 1 - key_count)
        pointers = tuple(range(100 * node_id, 100 * node_id + branching))
        nodes.append((is_leaf, key_count, tuple(keys), pointers))
    ends = st.one_of(st.integers(0, KEY_INFINITY), _RANGE_EDGES, st.sampled_from(
        [k for _, _, keys, _ in nodes for k in keys] or [KEY_MIN]
    ))
    r_start, r_end = sorted((draw(ends), draw(ends)))
    return branching, nodes, r_start, r_end


@settings(max_examples=300, deadline=None)
@given(_node_batches())
def test_vectorised_match_agrees_with_scalar_formula(batch):
    branching, plain_nodes, r_start, r_end = batch
    nodes = np.zeros(len(plain_nodes), dtype=node_dtype(branching))
    leaf, nodes["key_count"], nodes["keys"], nodes["ptrs"] = zip(*plain_nodes)
    nodes["flags"] = [FLAG_LEAF if is_leaf else 0 for is_leaf in leaf]
    bits = oblivious_match_slots(nodes, r_start, r_end)
    assert bits.shape == (len(plain_nodes), branching)
    unpack = node_struct(branching).unpack_from
    for i, (node, row) in enumerate(zip(plain_nodes, bits)):
        is_leaf, key_count, keys, pointers = node
        want = _scalar_match_slots(keys, key_count, is_leaf, r_start, r_end)
        assert np.flatnonzero(row).tolist() == want, (node, r_start, r_end)
        # The node-by-node scan of small levels and batches agrees too: it
        # returns the pointers of those slots.
        record = unpack(nodes, i * nodes.itemsize)
        assert _scan_record(record, branching, r_start, r_end) == [pointers[j] for j in want]


class _LoggedKey(int):
    """A stored key that logs every order comparison made on it, as
    ``(key slot, operator)``, and answers as the int it is."""

    def __new__(cls, value, slot, log):
        key = super().__new__(cls, value)
        key.slot, key.log = slot, log
        return key

    def _logged(name):
        def compare(self, other):
            self.log.append((self.slot, name))
            return getattr(int, name)(self, other)

        return compare

    __lt__, __le__, __gt__, __ge__ = map(_logged, ("__lt__", "__le__", "__gt__", "__ge__"))


def _scan_comparisons(branching, is_leaf):
    """The comparisons `_scan_record` makes on the keys of one record, in
    order: each key slot is compared twice, live or padded."""
    if is_leaf:
        # Pointer slot j + 1: rs <= keys[j] and keys[j] <= re.
        return [(j, op) for j in range(branching - 1) for op in ("__ge__", "__le__")]
    # Pointer slot j: keys[j-1] <= re and rs < keys[j], the infinite ends
    # plain ints.
    inner = [(0, "__gt__")]
    for j in range(1, branching - 1):
        inner += [(j - 1, "__le__"), (j, "__gt__")]
    return inner + [(branching - 2, "__le__")]


def test_scan_record_compares_every_key_slot_alike():
    # The node-by-node scan of small resident levels and of small streamed
    # batches, fed keys that log each comparison made on them, makes the
    # same comparisons in the same order on every record of one kind and
    # size: on padded slots as on live ones, whatever the fill and the
    # range, and whether a slot matches or not.
    rng = random.Random(34)
    for branching in (MIN_BRANCHING, 5, 10, 100):
        for is_leaf in (True, False):
            want = _scan_comparisons(branching, is_leaf)
            for key_count in sorted({0, 1, branching // 2, branching - 1}):
                stored = sorted(rng.sample(range(KEY_MIN, KEY_MAX), key_count))
                padded = stored + [KEY_INFINITY] * (branching - 1 - key_count)
                ranges = {
                    "empty": (KEY_MAX, KEY_MAX),
                    "covering": (KEY_NEG_INFINITY, KEY_INFINITY),
                    "below": (KEY_NEG_INFINITY, KEY_NEG_INFINITY),
                }
                if stored:
                    ranges["partial"] = (stored[len(stored) // 2], stored[-1])
                    ranges["one-key"] = (stored[0], stored[0])
                for r_start, r_end in ranges.values():
                    log: list = []
                    keys = [_LoggedKey(k, j, log) for j, k in enumerate(padded)]
                    # Pointer j is j, so the pointers returned are the slots.
                    record = (FLAG_LEAF if is_leaf else 0, key_count, *keys, *range(branching))
                    got = _scan_record(record, branching, r_start, r_end)
                    assert got == _scalar_match_slots(padded, key_count, is_leaf, r_start, r_end)
                    assert log == want, (branching, is_leaf, key_count, r_start, r_end)


def _code_objects(function):
    """The code of `function` and of every function, comprehension or
    generator nested in it."""
    found, todo = [], [function.__code__]
    while todo:
        code = todo.pop()
        found.append(code)
        todo += [const for const in code.co_consts if hasattr(const, "co_code")]
    return found


def _executed_lines(functions, call):
    """Run `call()` under `sys.settrace`: the ``(name, line)`` sequence of
    every line executed in the code of `functions`, nested code included."""
    codes = {code for function in functions for code in _code_objects(function)}
    lines = []

    def local(frame, event, arg):
        if event == "line":
            lines.append((frame.f_code.co_name, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code in codes else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(previous)
    return lines


def test_vector_match_runs_the_same_lines_for_every_batch_of_one_size():
    # The vectorised match of large streamed batches and resident levels,
    # `oblivious_match_slots` and the pointer selection of `_expand`, runs
    # one executed-line sequence for every batch of one size and branching
    # factor: leaves and inner nodes, full, partly filled and empty nodes,
    # and empty, partial and covering ranges.  Any control flow that depends
    # on the node kind, the fill or the range, a loop over live slots say,
    # changes the sequence.
    import hsbt.enclave as enclave_mod

    functions = (enclave_mod.oblivious_match_slots, enclave_mod._expand)
    rng = random.Random(45)
    for branching in (MIN_BRANCHING, 5, 10):
        fills = sorted({0, 1, branching // 2, branching - 1})
        for size in (1, 2, 5):
            sequences = set()
            for _ in range(12):
                nodes = np.zeros(size, dtype=node_dtype(branching))
                for node in nodes:
                    key_count = rng.choice(fills)
                    stored = sorted(rng.sample(range(KEY_MIN, KEY_MAX), key_count))
                    node["flags"] = rng.choice((0, FLAG_LEAF))
                    node["key_count"] = key_count
                    node["keys"] = stored + [KEY_INFINITY] * (branching - 1 - key_count)
                    node["ptrs"] = rng.sample(range(1000), branching)
                stored = sorted(k for node in nodes for k in node["keys"][: node["key_count"]])
                ranges = [(KEY_MAX, KEY_MAX), (KEY_NEG_INFINITY, KEY_INFINITY)]
                if stored:
                    ranges += [(stored[0], stored[len(stored) // 2]), (stored[-1], KEY_MAX)]
                for r_start, r_end in ranges:
                    call = functools.partial(enclave_mod._expand, nodes, r_start, r_end)
                    sequences.add(tuple(_executed_lines(functions, call)))
            (sequence,) = sequences
            assert {name for name, _ in sequence} == {"oblivious_match_slots", "_expand"}


@pytest.mark.parametrize("branching", [5, 10, 100])
def test_scanned_and_matched_batches_answer_alike(monkeypatch, branching):
    # Forced to scan every streamed batch node by node, or to match every
    # one at once, the enclave gives the same answers: the same value
    # pointers and children, in the same seeded order, batch by batch, and
    # the same result tag.
    import hsbt.enclave as enclave_mod

    pairs, tree, sk, index, _ = _fixture(3000, b=branching, seed=35, integrity=True)
    keys = sorted(k for k, _ in pairs)
    rng = random.Random(36)
    ranges = [(None, None), (keys[5], keys[5]), (KEY_MAX, KEY_MAX)]
    ranges += [sorted(rng.sample(keys, 2)) for _ in range(6)]
    answers = []
    for cut in (0, 1 << 30):
        monkeypatch.setattr(enclave_mod, "_VECTOR_MIN_SLOTS", cut)
        seeds = random.Random(37)
        enclave = EnclaveSim(order_seed_source=lambda: seeds.getrandbits(64))
        Deployment.attach(index, sk, tree.root_id, integrity=True, enclave=enclave)
        ceiling = enclave.max_batch_nodes(index.node_record_size)
        run = []
        for r_start, r_end in ranges:
            token = make_token(sk.tree_key, r_start, r_end)
            queue = [enclave.root_slot()]
            while queue:
                values, children = enclave.search_batch(token, queue[:ceiling])
                assert values.dtype == children.dtype == np.int64
                run.append((values.tolist(), children.tolist()))
                queue = queue[ceiling:] + children.tolist()
            run.append(enclave.finalize_session(token))
        answers.append(run)
    scanned, matched = answers
    assert scanned == matched
    batches = [answer for answer in scanned if isinstance(answer, tuple)]
    assert any(len(values) > 64 for values, _ in batches)
    assert any(len(children) > 1 for _, children in batches)


# -- instrumentation and cached set-up ------------------------------------------


def test_the_enclave_evaluates_no_permutation(monkeypatch):
    # The header names the root's slot: once a container is built, no
    # enclave path, resident load and finalize included, places a node.
    import hsbt
    import hsbt.enclave as enclave_mod
    from hsbt import crypto

    assert not [name for name in vars(enclave_mod) if "prp" in name.lower()]
    deps = []
    for flag in (False, True):
        pairs, tree, sk, index, enclave = _fixture(300, b=5, seed=30, integrity=flag)
        deps.append(Deployment(sk, tree, index, enclave, integrity=flag))
    keys = sorted(k for k, _ in pairs)

    def refuse(*args, **kwargs):
        raise AssertionError("the node placement ran after the build")

    placing = [name for name in vars(crypto) if "prp" in name or "feistel" in name.lower()]
    assert placing == ["prp_permutation"]
    original = crypto.prp_permutation
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "hsbt"]:
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, refuse)
    assert hsbt.codec.prp_permutation is refuse
    for dep in deps:
        dep.enclave.load_tree(dep.index)
        for construction in (1, 2):
            for i in range(3):
                values, stats = dep.query(keys[i], keys[i + 20], construction)
                assert len(values) == 21
        assert dep.enclave.root_slot() == dep.index.root_slot


def test_counters_under_concurrency_equal_sequential_totals():
    import threading

    pairs, tree, sk, index, enclave = _fixture(600, b=5, seed=31, integrity=True)
    dep = Deployment(sk, tree, index, enclave, integrity=True)
    dep.enclave.load_tree(index)
    keys = sorted(k for k, _ in pairs)
    rng = random.Random(32)
    queries = []
    for i in range(40):
        lo = rng.randrange(0, len(keys) - 60)
        queries.append((keys[lo], keys[lo + rng.randrange(0, 60)], 1 + i % 2))

    def totals():
        counter = enclave.touch_counter
        return (enclave.node_decryptions, counter.key_slots, counter.pointer_slots)

    before = totals()
    for rs, re_, construction in queries:
        dep.query(rs, re_, construction)
    sequential = [after - start for after, start in zip(totals(), before)]

    before = totals()
    start = threading.Barrier(4)
    failures = []

    def worker(share):
        start.wait()
        try:
            for rs, re_, construction in share:
                dep.query(rs, re_, construction)
        except Exception as exc:  # pragma: no cover - surfaced via failures
            failures.append(exc)

    threads = [threading.Thread(target=worker, args=(queries[t::4],)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a lost update shows
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not failures
    assert [after - start for after, start in zip(totals(), before)] == sequential
    assert sequential[0] > 0 and sequential[1] > 0


def test_a_batch_aborts_whole_at_any_bad_record(monkeypatch):
    # Root over three leaves: the root batch requests exactly three nodes.
    pairs = [(k, b"v%d" % k) for k in range(1, 10)]
    dep = Deployment.build(pairs, 4, integrity=True, rng=random.Random(0))
    index, enclave = dep.index, dep.enclave
    token = make_token(dep.sk.tree_key, None, None)
    root = enclave.root_slot()
    nowhere = index.node_count + 5
    opened = _decrypt_wire_spy(monkeypatch)

    # Each abort ends the token's session, so the root opens a new one.  A
    # position outside the region fails the batch before anything else is
    # checked, wherever it sits, and nothing of the batch is fetched.
    batches = (
        lambda c: c + c[:1] + [nowhere],
        lambda c: [nowhere] + c + c[:1],
        lambda c: c[:1] + [nowhere],
    )
    for make in batches:
        children = enclave.search_batch(token, [root])[1].tolist()
        trace = AccessTrace()
        del opened[:]
        with pytest.raises(EnclaveAbort, match=f"^no node record at position {nowhere}$"):
            enclave.search_batch(token, make(children), trace=trace)
        assert opened == [] and trace.touched("node") == []
        assert token not in enclave._sessions
    # Inside the region, a fourth node overflows the three requests.
    children = enclave.search_batch(token, [root])[1].tolist()
    del opened[:]
    with pytest.raises(EnclaveAbort, match="^protocol violation: more nodes than requested$"):
        enclave.search_batch(token, children + children[:1])
    assert opened == [] and token not in enclave._sessions

    # A requested batch with one record corrupted, first, in the middle or
    # last, aborts whole, both when it opens one AEAD call per record (8
    # records) and when it opens in array passes (64 records of 39 bytes at
    # b=5): the abort names no record, every position is fetched once, no
    # record is counted as decrypted, and the session is gone.
    passes = _bulk_open_spy(monkeypatch)
    pairs = [(k, b"v%04d" % k) for k in range(1, 3001)]
    dep = Deployment.build(pairs, 5, integrity=True, rng=random.Random(1))
    enclave = dep.enclave
    for size, bulk in ((8, []), (64, [64])):
        for k in (0, size // 2, size - 1):
            token = make_token(dep.sk.tree_key, None, None)
            level = [enclave.root_slot()]
            while len(level) < size:
                level = enclave.search_batch(token, level)[1].tolist()
            positions = level[:size]
            enclave.attach_container(_broken_at(dep.index, positions[k]))
            trace = AccessTrace()
            before = enclave.node_decryptions, enclave.touch_counter.pointer_slots
            del passes[:], opened[:]
            with pytest.raises(EnclaveAbort, match="^node record failed authentication$"):
                enclave.search_batch(token, positions, trace=trace)
            assert passes == bulk and opened == [positions]
            assert trace.touched("node") == positions
            assert (enclave.node_decryptions, enclave.touch_counter.pointer_slots) == before
            assert token not in enclave._sessions
            enclave.attach_container(dep.index)


def test_a_batch_that_outgrows_its_session_while_its_records_open_aborts(monkeypatch):
    # Batch B, the root's four children, passes the unlocked budget check.
    # While B's first record opens, batch A, one of those children, runs
    # whole: the session then has three nodes outstanding, and B's four
    # must fail the locked re-check, which drops the session.
    import hsbt.enclave as enclave_mod

    pairs = [(k, b"v%02d" % k) for k in range(1, 13)]
    dep = Deployment.build(pairs, 4, integrity=True, rng=random.Random(0))
    enclave = dep.enclave
    token = make_token(dep.sk.tree_key, None, None)
    _, children = enclave.search_batch(token, [enclave.root_slot()])
    assert len(children) == 4
    real = enclave_mod.decrypt_wire
    raced = []

    def open_after_batch_a(*args):
        if not raced:
            raced.append(None)
            raced[0] = enclave.search_batch(token, children[:1])
        return real(*args)

    monkeypatch.setattr(enclave_mod, "decrypt_wire", open_after_batch_a)
    with pytest.raises(EnclaveAbort, match="^protocol violation: more nodes than requested$"):
        enclave.search_batch(token, children)
    assert len(raced) == 1 and len(raced[0][0]) > 0
    with pytest.raises(EnclaveAbort, match="no open session for this token"):
        enclave.finalize_session(token)


def test_a_copy_attached_mid_call_cannot_move_the_root(monkeypatch):
    # The host attaches a copy of the container whose header names a child's
    # slot as the root's while a call runs.  None of the copy's records
    # opens, so its root slot is never authenticated: a batch whose records
    # opened under the genuine header must still start at the genuine root,
    # and a resident walk at the root of the tree it loaded.
    import dataclasses

    import hsbt.enclave as enclave_mod

    pairs = [(k, b"v%03d" % k) for k in range(1, 301)]
    dep = Deployment.build(pairs, 4, integrity=True, rng=random.Random(0))
    enclave, index = dep.enclave, dep.index
    token = make_token(dep.sk.tree_key, None, None)
    _, children = enclave.search_batch(token, [enclave.root_slot()])
    forged = dataclasses.replace(index, root_slot=int(children[0]))

    def attaching_first(real):
        def call(*args):
            if enclave._container is index:
                enclave.attach_container(forged)
            return real(*args)

        return call

    fresh = make_token(dep.sk.tree_key, None, None)
    monkeypatch.setattr(enclave_mod, "decrypt_wire", attaching_first(enclave_mod.decrypt_wire))
    with pytest.raises(EnclaveAbort, match="first node is not the root"):
        enclave.search_batch(fresh, [children[0]])
    monkeypatch.undo()

    enclave.attach_container(index)
    enclave.load_tree(index)
    monkeypatch.setattr(enclave_mod, "decrypt", attaching_first(enclave_mod.decrypt))
    assert sorted(enclave.search_resident(token).tolist()) == list(range(len(pairs)))
    assert enclave._container is forged


def _broken_at(index, slot):
    """A copy of the container whose record at `slot` fails authentication."""
    import dataclasses

    region = bytearray(index.node_region)
    region[slot * index.node_record_size + index.node_record_size // 2] ^= 0x01
    return dataclasses.replace(index, node_region=bytes(region))


def _bulk_open_spy(monkeypatch) -> list[int]:
    """The row counts `crypto.open_wires` hands to its array pass, in order."""
    from hsbt import crypto

    passes = []
    real = crypto._open_pass

    def spy(state, rows, salt, slots):
        passes.append(len(rows))
        return real(state, rows, salt, slots)

    monkeypatch.setattr(crypto, "_open_pass", spy)
    return passes


def _decrypt_wire_spy(monkeypatch) -> list[list[int]]:
    """The slots of every `hsbt.enclave.decrypt_wire` call, in order."""
    import hsbt.enclave

    calls = []
    real = hsbt.enclave.decrypt_wire

    def spy(key, rows, salt, slots):
        calls.append(list(slots))
        return real(key, rows, salt, slots)

    monkeypatch.setattr(hsbt.enclave, "decrypt_wire", spy)
    return calls


# Batches of 8 records open one AEAD call per record, batches of 64 records
# of 39 bytes (b=5) in one array pass; the per-call ids are the bare k.
_FIRST_FAILING = [pytest.param(8, k, id=str(k)) for k in (0, 1, 4, 7)] + [
    pytest.param(64, k, id=f"array-{k}") for k in (0, 1, 37, 63)
]


@pytest.mark.parametrize("size, k", _FIRST_FAILING)
def test_traced_batch_records_exactly_the_records_opened(monkeypatch, size, k):
    # Integrity off: a batch may name any slots, so the bad record, or the
    # position outside the region, can sit anywhere in it.  The trace
    # records what the gather reads: every position of an admitted batch,
    # once, whether its records open or not, and nothing of a batch that
    # names a position with no record.
    pairs, tree, sk, index, enclave = _fixture(300, seed=21)
    token = make_token(sk.tree_key, None, None)
    positions = random.Random(k).sample(range(index.node_count), size)
    passes = _bulk_open_spy(monkeypatch)
    opened = _decrypt_wire_spy(monkeypatch)

    enclave.attach_container(_broken_at(index, positions[k]))
    trace = AccessTrace()
    before = enclave.node_decryptions, enclave.touch_counter.key_slots
    with pytest.raises(EnclaveAbort, match="^node record failed authentication$"):
        enclave.search_batch(token, positions, trace=trace)
    assert trace.touched("node") == positions and opened == [positions]
    assert (enclave.node_decryptions, enclave.touch_counter.key_slots) == before
    assert passes == ([size] if size >= 64 else [])

    # A position outside the region stops the batch before any row is read,
    # on the bad copy and the genuine container alike.
    for container in (enclave._container, index):
        enclave.attach_container(container)
        for outside in (index.node_count, index.node_count + 9, -1):
            batch = positions[:k] + [outside] + positions[k:]
            trace = AccessTrace()
            del opened[:]
            with pytest.raises(EnclaveAbort, match=f"^no node record at position {outside}$"):
                enclave.search_batch(token, batch, trace=trace)
            assert trace.touched("node") == [] and opened == []
    assert enclave.node_decryptions == before[0]
    # And an intact batch records every fetch, in order, and counts it.
    trace = AccessTrace()
    del passes[:], opened[:]
    enclave.search_batch(token, positions, trace=trace)
    assert trace.touched("node") == positions and opened == [positions]
    assert enclave.node_decryptions == before[0] + size
    assert passes == ([size] if size >= 64 else [])


@pytest.mark.parametrize("reserved_space", [64 * 1024, 2048])
def test_streamed_query_calls_decrypt_wire_once_per_batch(monkeypatch, reserved_space):
    # `crypto.node_decrypt` is timed by wrapping `hsbt.enclave.decrypt_wire`:
    # every batch must open its records through that name, in one call.
    calls = _decrypt_wire_spy(monkeypatch)
    rng = random.Random(22)
    pairs = [(k, b"v%010d" % k) for k in rng.sample(range(1, KEY_MAX), 2000)]
    dep = Deployment.build(
        pairs, 6, integrity=True, rng=rng, enclave=EnclaveSim(reserved_space=reserved_space)
    )
    keys = sorted(k for k, _ in pairs)
    before = dep.enclave.node_decryptions
    blobs, mac, stats = search_streamed(
        dep.index, dep.enclave, make_token(dep.sk.tree_key, keys[100], keys[900])
    )
    assert len(blobs.rows) == 801 and stats.crossings > 2
    # One call per batch, the finalizing crossing aside.
    assert len(calls) == stats.crossings - 1
    opened = [slot for batch in calls for slot in batch]
    assert len(opened) == dep.enclave.node_decryptions - before == stats.nodes_transferred
    assert len(set(opened)) == len(opened)


@pytest.mark.parametrize("construction", [1, 2])
def test_a_header_that_does_not_fit_its_region_aborts(construction):
    # Only memory reaches these copies: each header field is rewritten
    # through `dataclasses.replace`, and the region stays as it is, so its
    # rows no longer match the header.  Each ends in `EnclaveAbort`.
    import dataclasses

    pairs, tree, sk, index, enclave = _fixture(300, b=5, seed=4, integrity=True)
    token = make_token(sk.tree_key, None, None)
    count = index.node_count
    changes = [
        {"branching": 4},
        {"branching": 6},
        {"branching": 40},
        {"node_count": count + 7},
        {"node_count": count - 7},
        {"root_slot": count + 3},
        {"node_region": index.node_region[:-1]},
        {"node_region": index.node_region[: -index.node_record_size]},
    ]
    for change in changes:
        copy = dataclasses.replace(index, **change)
        with pytest.raises(EnclaveAbort):
            if construction == 1:
                enclave.load_tree(copy)
            else:
                enclave.attach_container(copy)
                search_streamed(copy, enclave, token)
        enclave.attach_container(index)
    assert sorted(search_streamed(index, enclave, token)[0].slots.tolist()) == list(range(300))


@pytest.mark.parametrize("integrity", [False, True])
@pytest.mark.parametrize("n", [300, 3000])
def test_oversize_batch_aborts_before_it_opens_a_record(monkeypatch, integrity, n):
    # The batch ceiling bounds the records one call opens, whatever the tree
    # size, and in integrity mode so does the session's outstanding count.
    opened = _decrypt_wire_spy(monkeypatch)
    rng = random.Random(n)
    pairs = [(k, b"v%010d" % k) for k in rng.sample(range(1, KEY_MAX), n)]
    enclave = EnclaveSim(reserved_space=4096)
    dep = Deployment.build(pairs, 5, integrity=integrity, rng=rng, enclave=enclave)
    index = dep.index
    ceiling = enclave.max_batch_nodes(index.node_record_size)
    root = enclave.root_slot()
    assert index.node_count > ceiling
    every_slot = [root] + [s for s in range(index.node_count) if s != root]
    token = make_token(dep.sk.tree_key, None, None)
    before = enclave.node_decryptions
    for batch in (every_slot, [root] * (ceiling + 1)):
        message = f"^protocol violation: batch of {len(batch)} nodes exceeds the ceiling of"
        with pytest.raises(EnclaveAbort, match=message):
            enclave.search_batch(token, batch)
    if integrity:
        # A fresh session has the root alone outstanding.
        with pytest.raises(EnclaveAbort, match="^protocol violation: more nodes than requested$"):
            enclave.search_batch(token, every_slot[:ceiling])
        assert token not in enclave._sessions
    assert enclave.node_decryptions == before and opened == []
    # The enclave still serves an honest query.
    keys = sorted(k for k, _ in pairs)
    values, _ = dep.query(keys[10], keys[60])
    assert Counter(values) == Counter(scan_oracle(pairs, keys[10], keys[60]))


_NOT_AN_INTEGER = "^protocol violation: a node position is not an integer$"
_MORE_THAN_REQUESTED = "^protocol violation: more nodes than requested$"

# Every refusal `_admit` makes, by the abort's message.
_ADMIT_REFUSALS = {
    "over-ceiling": "^protocol violation: batch of .* nodes exceeds the ceiling of",
    "outside-region": "^no node record at position",
    "more-than-outstanding-at-open": _MORE_THAN_REQUESTED,
    "more-than-outstanding": _MORE_THAN_REQUESTED,
    "first-not-root": "^protocol violation: first node is not the root$",
    "string": _NOT_AN_INTEGER,
    "none-after-root": _NOT_AN_INTEGER,
    "float-root": _NOT_AN_INTEGER,
    "float-mid-session": _NOT_AN_INTEGER,
}


@pytest.mark.parametrize("case", list(_ADMIT_REFUSALS))
def test_every_admit_refusal_precedes_the_gather(monkeypatch, case):
    # Every refusal `_admit` makes comes before any row is read: no record
    # opens or is counted, no slot is scanned or fetched, and the token's
    # session is gone.  `more-than-outstanding` and `float-mid-session`
    # refuse a batch of a session the root's batch opened; the others refuse
    # an opening batch, and take the root's children from another token.
    pairs, tree, sk, index, enclave = _integrity_fixture(seed=31)
    token = make_token(sk.tree_key, None, None)
    root, count = enclave.root_slot(), index.node_count
    if case in ("more-than-outstanding", "float-mid-session"):
        children = enclave.search_batch(token, [root])[1].tolist()
        assert len(children) > 1 and token in enclave._sessions
    else:
        children = enclave.search_batch(make_token(sk.tree_key, None, None), [root])[1].tolist()
    batch = {
        "over-ceiling": [root] * (enclave.max_batch_nodes(index.node_record_size) + 1),
        "outside-region": [count],
        "more-than-outstanding-at-open": [root, root],
        "more-than-outstanding": children + children[:1],
        "first-not-root": [(root + 1) % count],
        "string": ["x"],
        "none-after-root": [root, None],
        "float-root": [float(root)],
        "float-mid-session": [float(children[0])],
    }[case]
    opened = _decrypt_wire_spy(monkeypatch)
    counter = enclave.touch_counter
    before = enclave.node_decryptions, counter.key_slots, counter.pointer_slots
    trace = AccessTrace()
    with pytest.raises(EnclaveAbort, match=_ADMIT_REFUSALS[case]):
        enclave.search_batch(token, batch, trace=trace)
    assert opened == [] and trace.touched("node") == []
    assert (enclave.node_decryptions, counter.key_slots, counter.pointer_slots) == before
    assert token not in enclave._sessions


# Host values for `positions` that are neither a list, a tuple nor a numpy
# array, by name.
_NOT_POSITIONS = {
    "none": lambda root, *_: None,
    "bare-int": lambda root, *_: root,
    "set": lambda root, *_: {root},
    "generator": lambda root, *_: (p for p in [root]),
    "string": lambda root, *_: "ab",
    "dict": lambda root, *_: {root: root},
}

_NOT_POSITIONS_MESSAGE = "^protocol violation: node positions are not a list, a tuple or an int64"


def _refuses_and_recovers(monkeypatch, positions_of, mid_session, match):
    """Send `positions_of(root, count, ceiling)` as a batch, opening or
    mid-session: it must fail closed with an `EnclaveError` matching
    `match`, before a record is opened or counted, leaving no session for
    its token, and the client's next honest query must still verify."""
    from hsbt.codec import decrypt_results, verify_result_mac
    from hsbt.server import fetch_values

    pairs, tree, sk, index, enclave = _integrity_fixture(seed=32)
    token = make_token(sk.tree_key, None, None)
    root = enclave.root_slot()
    if mid_session:
        enclave.search_batch(token, [root])
        assert token in enclave._sessions
    ceiling = enclave.max_batch_nodes(index.node_record_size)
    positions = positions_of(root, index.node_count, ceiling)
    opened = _decrypt_wire_spy(monkeypatch)
    before = enclave.node_decryptions
    with pytest.raises(EnclaveError, match=match):
        enclave.search_batch(token, positions)
    assert opened == [] and enclave.node_decryptions == before
    assert token not in enclave._sessions
    keys = sorted(k for k, _ in pairs)
    token = make_token(sk.tree_key, keys[3], keys[40])
    pointers = _drive_batches(index, enclave, token)
    values = decrypt_results(sk.value_key, fetch_values(index, pointers))
    assert verify_result_mac(sk.tree_key, values, enclave.finalize_session(token))
    assert Counter(values) == Counter(scan_oracle(pairs, keys[3], keys[40]))


@pytest.mark.parametrize("mid_session", [False, True], ids=["opening", "mid-session"])
@pytest.mark.parametrize("case", list(_NOT_POSITIONS))
def test_positions_that_are_not_a_list_fail_closed(monkeypatch, case, mid_session):
    # `_admit` takes a list or a tuple of integers, or a 1-D `int64` array.
    # Any other host value fails closed.
    _refuses_and_recovers(monkeypatch, _NOT_POSITIONS[case], mid_session, _NOT_POSITIONS_MESSAGE)


_OUTSIDE = "^no node record at position"

# Numpy arrays `_admit` refuses, by name: every shape and dtype but a 1-D
# `int64` array, and `int64` arrays that name no record or overflow the
# ceiling; each with the abort message it gets.
_NOT_INT64_POSITIONS = {
    "zero-d": (lambda root, count, ceiling: np.array(root), _NOT_POSITIONS_MESSAGE),
    "two-d": (lambda root, count, ceiling: np.array([[root]]), _NOT_POSITIONS_MESSAGE),
    "bool": (lambda root, count, ceiling: np.array([True]), _NOT_POSITIONS_MESSAGE),
    "uint64": (lambda root, count, ceiling: np.array([root], np.uint64), _NOT_POSITIONS_MESSAGE),
    "int32": (lambda root, count, ceiling: np.array([root], np.int32), _NOT_POSITIONS_MESSAGE),
    "float": (lambda root, count, ceiling: np.array([root], float), _NOT_POSITIONS_MESSAGE),
    "object": (lambda root, count, ceiling: np.array([root], object), _NOT_POSITIONS_MESSAGE),
    "big-endian": (lambda root, count, ceiling: np.array([root], ">i8"), _NOT_POSITIONS_MESSAGE),
    "negative": (lambda root, count, ceiling: np.array([root, -1], np.int64), f"{_OUTSIDE} -1$"),
    "int64-min": (
        lambda root, count, ceiling: np.array([-(2**63)], np.int64),
        f"{_OUTSIDE} {-(2**63)}$",
    ),
    "out-of-range": (
        lambda root, count, ceiling: np.array([root, count], np.int64),
        f"{_OUTSIDE} \\d+$",
    ),
    "over-ceiling": (
        lambda root, count, ceiling: np.full(ceiling + 1, root, np.int64),
        "^protocol violation: batch of .* nodes exceeds the ceiling of",
    ),
}


@pytest.mark.parametrize("mid_session", [False, True], ids=["opening", "mid-session"])
@pytest.mark.parametrize("case", list(_NOT_INT64_POSITIONS))
def test_positions_that_are_not_an_int64_array_in_bounds_fail_closed(
    monkeypatch, case, mid_session
):
    make, match = _NOT_INT64_POSITIONS[case]
    _refuses_and_recovers(monkeypatch, make, mid_session, match)


def _walk_fed(index, sk, root_id, token, width, feed):
    """One streamed integrity query on a fresh enclave whose shuffle seeds
    come from a fixed stream, batches of up to `width` nodes, each batch
    passed through `feed(at, positions)` (`at` counts the batches from 0):
    every batch answer as int lists, the trace events and the result tag."""
    seeds = random.Random(44)
    enclave = EnclaveSim(order_seed_source=lambda: seeds.getrandbits(64))
    Deployment.attach(index, sk, root_id, integrity=True, enclave=enclave)
    trace = AccessTrace()
    answers, queue = [], [enclave.root_slot()]
    while queue:
        batch, queue = queue[:width], queue[width:]
        values, children = enclave.search_batch(token, feed(len(answers), batch), trace=trace)
        answers.append((values.tolist(), children.tolist()))
        queue += children.tolist()
    return answers, trace.events, enclave.finalize_session(token)


@pytest.mark.parametrize("mid_session", [False, True], ids=["opening", "mid-session"])
@pytest.mark.parametrize("width", [1, 2], ids=["one", "two"])
def test_int64_positions_are_served_as_the_equal_list(width, mid_session):
    # A 1-D `int64` array is served as the list of its positions is: the same
    # answers, in the same seeded order, the same trace and the same result
    # tag.  "opening" feeds every batch as an array, the session's opening
    # one included; "mid-session" opens with a list and feeds arrays after.
    pairs, tree, sk, index, _ = _integrity_fixture(seed=32)
    keys = sorted(k for k, _ in pairs)
    token = make_token(sk.tree_key, keys[3], keys[90])
    first_array = 1 if mid_session else 0

    def as_array(at, batch):
        return np.array(batch, np.int64) if at >= first_array else batch

    listed = _walk_fed(index, sk, tree.root_id, token, width, lambda at, batch: batch)
    arrayed = _walk_fed(index, sk, tree.root_id, token, width, as_array)
    assert arrayed == listed
    answers, events, _ = listed
    assert len(answers) > 2 and any(len(values) > 1 for values, _ in answers)
    assert all(type(slot) is int for kind, slot in events if kind == "node")


def test_an_array_batch_is_copied_before_it_is_read(monkeypatch):
    # `_admit` copies an array batch into trusted memory: the records open at
    # the copy, which shares no memory with the caller's array, and a host
    # write to that array while the call runs, or after it, reaches neither
    # the trace nor the session.
    import hsbt.enclave as enclave_mod
    from hsbt.codec import decrypt_results, verify_result_mac
    from hsbt.server import fetch_values

    pairs, tree, sk, index, enclave = _integrity_fixture(seed=33)
    keys = sorted(k for k, _ in pairs)
    token = make_token(sk.tree_key, keys[3], keys[300])
    root = enclave.root_slot()
    found, children = enclave.search_batch(token, np.array([root], np.int64))
    assert len(children) > 1
    sent = children.copy()
    outsider = next(s for s in range(index.node_count) if s not in set(children.tolist()))
    real = enclave_mod.decrypt_wire
    seen = []

    def host_writes_mid_call(key, rows, salt, slots):
        seen.append(slots)
        children[:] = outsider
        return real(key, rows, salt, slots)

    monkeypatch.setattr(enclave_mod, "decrypt_wire", host_writes_mid_call)
    trace = AccessTrace()
    values, below = enclave.search_batch(token, children, trace=trace)
    monkeypatch.undo()
    (slots,) = seen
    assert isinstance(slots, np.ndarray) and not np.shares_memory(slots, children)
    assert slots.tolist() == sent.tolist() == trace.touched("node")
    session = enclave._sessions[token]
    state = session.outstanding, session.balance.digest, session.result_hash.digest
    children[:] = root
    assert trace.touched("node") == sent.tolist()
    assert (session.outstanding, session.balance.digest, session.result_hash.digest) == state
    # The query the host wrote over still runs to a tag that verifies.
    pointers, queue = found.tolist() + values.tolist(), below
    while len(queue):
        values, queue = enclave.search_batch(token, queue)
        pointers += values.tolist()
    values = decrypt_results(sk.value_key, fetch_values(index, pointers))
    assert verify_result_mac(sk.tree_key, values, enclave.finalize_session(token))
    assert Counter(values) == Counter(scan_oracle(pairs, keys[3], keys[300]))


def test_bool_positions_pass_as_the_integers_they_are():
    # `operator.index` takes `False` and `True` as 0 and 1, and so does
    # `_admit`: a bool names the record at that slot.
    pairs, tree, sk, index, enclave = _fixture(300, b=5, seed=33)
    token = make_token(sk.tree_key, None, None)
    for flag in (False, True):
        values, children = enclave.search_batch(token, [flag])
        want_values, want_children = enclave.search_batch(token, [int(flag)])
        assert Counter(values.tolist()) == Counter(want_values.tolist())
        assert Counter(children.tolist()) == Counter(want_children.tolist())
