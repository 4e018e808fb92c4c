"""Host-supplied batch positions fail closed.

`EnclaveSim.search_batch` takes its positions from the untrusted driver.
Whatever value the host sends there, opening a session or in the middle of
one, the call either serves a batch the protocol allows or refuses it with
an `EnclaveError` before a record is opened or counted, and leaves no
session for its token; the client's next honest query still verifies.
"""

import functools
import random
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hsbt.bench import make_dataset
from hsbt.bptree import scan_oracle
from hsbt.codec import make_token
from hsbt.deploy import Deployment
from hsbt.enclave import EnclaveError, EnclaveSim

_INTEGER_DTYPES = [np.dtype(f"{kind}{size}") for kind in "iu" for size in (1, 2, 4, 8)]
_OTHER_DTYPES = [np.dtype(t) for t in ("f4", "f8", "?", "O", ">i8")]


@functools.cache
def _deployment():
    """One small integrity deployment whose batch ceiling is a few dozen
    nodes, so that lists over the ceiling stay short, and its pairs."""
    rng = random.Random(50)
    pairs = make_dataset(400, rng)
    enclave = EnclaveSim(reserved_space=1024)
    return Deployment.build(pairs, 5, integrity=True, rng=rng, enclave=enclave), pairs


def _array(dtype: np.dtype, count: int, ceiling: int):
    """Arrays of `dtype`, 0-d to 2-D and up to a few over the ceiling long,
    whose entries lean towards positions that name records."""
    sides = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=ceiling + 2)
    if dtype.kind in "iu":
        top = min(count - 1, int(np.iinfo(dtype).max))
        elements = st.one_of(st.integers(0, top), hnp.from_dtype(dtype))
    elif dtype.kind == "O":
        loose = (st.none(), st.floats(), st.text(max_size=2))
        elements = st.one_of(st.integers(-3, count + 3), *loose)
    else:
        elements = hnp.from_dtype(dtype)
    return hnp.arrays(dtype, sides, elements=elements)


def _host_positions(count: int, ceiling: int, honest: list[int]):
    """Every kind of value a host could send as a batch's positions, half
    of the draws numpy arrays.  Some 1-D `int64` arrays, the form the
    driver sends, are drawn from `honest`, slots an honest batch may hold."""
    slot = st.integers(-3, count + 3)
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(),
        st.text(max_size=4),
        st.binary(max_size=4),
        st.integers(0, count - 1).map(np.int64),
    )
    loose = st.one_of(slot, st.floats(), st.none(), st.text(max_size=2))
    arrays = st.one_of(
        st.lists(st.sampled_from(honest), max_size=3).map(lambda items: np.array(items, np.int64)),
        hnp.arrays(np.int64, st.integers(0, ceiling + 2), elements=slot),
        st.sampled_from(_INTEGER_DTYPES).flatmap(lambda dtype: _array(dtype, count, ceiling)),
        st.sampled_from(_OTHER_DTYPES).flatmap(lambda dtype: _array(dtype, count, ceiling)),
    )
    others = st.one_of(
        scalars,
        st.sets(slot, max_size=4),
        st.dictionaries(slot, slot, max_size=3),
        st.lists(slot, max_size=6).map(lambda items: (p for p in items)),
        st.lists(st.lists(slot, max_size=3), max_size=3),
        st.lists(slot, max_size=ceiling + 3),
        st.lists(slot, max_size=6).map(tuple),
        st.lists(loose, max_size=4),
        st.lists(st.integers(0, count - 1), min_size=ceiling + 1, max_size=ceiling + 4),
    )
    return st.one_of(others, arrays)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_any_host_positions_fail_closed_or_are_served(data):
    dep, pairs = _deployment()
    enclave, index = dep.enclave, dep.index
    count, ceiling = index.node_count, enclave.max_batch_nodes(index.node_record_size)
    token = make_token(dep.sk.tree_key, None, None)
    root = enclave.root_slot()
    honest = [root]
    if data.draw(st.booleans(), label="mid_session"):
        honest += enclave.search_batch(token, [root])[1].tolist()
        assert token in enclave._sessions
    positions = data.draw(_host_positions(count, ceiling, honest), label="positions")
    before = enclave.node_decryptions
    try:
        values, children = enclave.search_batch(token, positions)
    except EnclaveError:
        assert enclave.node_decryptions == before
        assert token not in enclave._sessions
    else:
        assert values.dtype == children.dtype == np.int64
        enclave._sessions.pop(token, None)
    # The client's next query verifies (`Deployment.query` checks its tag).
    keys = sorted(k for k, _ in pairs)
    values, _ = dep.query(keys[20], keys[80])
    assert Counter(values) == Counter(scan_oracle(pairs, keys[20], keys[80]))
