"""Deployment factory: build and attach stand up the same working system, and
the client path demands a result tag whenever its own record says integrity."""

import dataclasses
import random
from collections import Counter

import pytest

from hsbt.bptree import KEY_MAX, scan_oracle
from hsbt.crypto import AuthenticationError
from hsbt.deploy import Deployment
from hsbt.enclave import EnclaveSim


def _pairs(n=300, seed=0):
    rng = random.Random(seed)
    return [(k, b"v%05d" % i) for i, k in enumerate(rng.sample(range(1, KEY_MAX), n))], rng


def test_build_and_attach_answer_both_constructions():
    pairs, rng = _pairs()
    built = Deployment.build(pairs, 5, integrity=True, rng=rng)
    enclave = EnclaveSim(reserved_space=1)
    attached = Deployment.attach(
        built.index, built.sk, built.tree.root_id, integrity=True, enclave=enclave
    )
    assert attached.enclave.max_batch_nodes(built.index.node_record_size) == 1
    keys = sorted(k for k, _ in pairs)
    for dep in (built, attached):
        for construction in (1, 2):
            values, stats = dep.query(keys[20], keys[90], construction)
            assert Counter(values) == Counter(scan_oracle(pairs, keys[20], keys[90]))
            assert stats.construction == construction


def test_client_requires_tag_when_header_flag_is_cleared():
    pairs, rng = _pairs(seed=1)
    dep = Deployment.build(pairs, 5, integrity=True, rng=rng)
    # The host clears the header flag: the enclave then runs no session and
    # issues no tag.  The client's own record still says integrity.
    downgraded = dataclasses.replace(dep.index, integrity=False)
    hosted = Deployment.attach(downgraded, dep.sk, dep.tree.root_id, integrity=True)
    with pytest.raises(AuthenticationError):
        hosted.query(None, None, construction=2)
    # Construction 1 issues no tag by design.
    values, _ = hosted.query(None, None, construction=1)
    assert len(values) == len(pairs)


def test_wrong_tag_rejected():
    pairs, rng = _pairs(seed=2)
    dep = Deployment.build(pairs, 5, integrity=True, rng=rng)
    real = dep.enclave.finalize_session
    dep.enclave.finalize_session = lambda nonce: bytes(len(real(nonce)))
    with pytest.raises(AuthenticationError):
        dep.query(None, None)
