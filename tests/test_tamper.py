"""Active-attacker scripts: every deviation must be detected, replays must be
harmless and consistent."""

import random

import numpy as np
import pytest

from hsbt import crypto
from hsbt.bptree import KEY_MAX
from hsbt.codec import SealedValues, make_token
from hsbt.deploy import Deployment
from hsbt.enclave import EnclaveSim
from hsbt.tamper import KINDS, Outcome, run_with_tamper


@pytest.fixture(scope="module")
def setup():
    rng = random.Random(0)
    keys = rng.sample(range(1, KEY_MAX), 600)
    pairs = [(k, b"doc-%06d" % i) for i, k in enumerate(keys)]
    dep = Deployment.build(pairs, 5, integrity=True, rng=rng)
    return pairs, sorted(keys), dep


def _token(sk, sorted_keys, rng):
    i = rng.randrange(0, len(sorted_keys) - 25)
    return make_token(sk.tree_key, sorted_keys[i], sorted_keys[i + 20])


@pytest.mark.parametrize(
    "kind,expected",
    [
        ("modify-node", Outcome.ENCLAVE_ABORT),
        ("swap-nodes", Outcome.ENCLAVE_ABORT),
        ("drop-requested-node", Outcome.ENCLAVE_ABORT),
        ("wrong-first-node", Outcome.ENCLAVE_ABORT),
        ("modify-value", Outcome.CLIENT_REJECT),
        ("withhold-results", Outcome.CLIENT_REJECT),
        ("mix-tokens", Outcome.ENCLAVE_ABORT),
        ("substitute-value", Outcome.CLIENT_REJECT),
        ("reshape-header", Outcome.ENCLAVE_ABORT),
        ("duplicate-node", Outcome.ENCLAVE_ABORT),
        ("oversize-batch", Outcome.ENCLAVE_ABORT),
        ("swap-value-slots", Outcome.CLIENT_REJECT),
    ],
)
def test_each_deviation_detected(setup, kind, expected):
    pairs, sorted_keys, dep = setup
    rng = random.Random(hash(kind) & 0xFFFF)
    for _ in range(5):
        report = run_with_tamper(dep, _token(dep.sk, sorted_keys, rng), kind, rng)
        assert report.outcome == expected, (kind, report.detail)


@pytest.mark.parametrize(
    "kind", ["modify-value", "withhold-results", "substitute-value", "swap-value-slots"]
)
def test_value_deviations_over_a_bulk_sized_result_rejected_by_the_bulk_open(
    setup, monkeypatch, kind
):
    # A window of more than _BULK_MIN_WIRES values: the driver gathers the
    # blobs as one matrix, the script edits that matrix, and the client's
    # bulk AES-GCM open reads it (one value fewer still reaches the cut-over).
    pairs, sorted_keys, dep = setup
    size = crypto._BULK_MIN_WIRES + 16
    received, bulk_rows = [], []
    real_open, real_receive = crypto._open_pass, dep.receive

    def open_spy(state, rows, salt, slots):
        bulk_rows.append(len(rows))
        return real_open(state, rows, salt, slots)

    def receive_spy(blobs, mac):
        received.append(blobs)
        return real_receive(blobs, mac)

    monkeypatch.setattr(crypto, "_open_pass", open_spy)
    monkeypatch.setattr(dep, "receive", receive_spy)
    rng = random.Random(hash(kind) & 0xFFFF)
    for _ in range(3):
        i = rng.randrange(0, len(sorted_keys) - size)
        token = make_token(dep.sk.tree_key, sorted_keys[i], sorted_keys[i + size - 1])
        del received[:], bulk_rows[:]
        report = run_with_tamper(dep, token, kind, rng)
        assert report.outcome == Outcome.CLIENT_REJECT, report.detail
        (blobs,) = received
        assert isinstance(blobs, SealedValues)
        want = size - 1 if kind == "withhold-results" else size
        assert len(blobs.rows) == len(blobs.slots) == want and bulk_rows == [want]


@pytest.mark.parametrize(
    "kind,reason",
    [
        # Every row opens at the slot it is labelled with: only the result
        # tag's fold of the slots can catch the outsider.
        ("substitute-value", "result tag verification failed"),
        # The slot multiset, and so the fold, is unchanged: only the blobs'
        # binding to their slots can catch the swap.
        ("swap-value-slots", "ciphertext rejected"),
    ],
)
def test_value_slot_deviations_are_caught_by_the_check_meant_for_them(setup, kind, reason):
    pairs, sorted_keys, dep = setup
    rng = random.Random(9)
    for _ in range(5):
        report = run_with_tamper(dep, _token(dep.sk, sorted_keys, rng), kind, rng)
        assert report.outcome == Outcome.CLIENT_REJECT
        assert report.detail.endswith(reason), report.detail


class _PickField(random.Random):
    """A generator whose `choice` among header rewrites takes the rewrite of
    `field`; every other draw is its seeded own."""

    def __init__(self, seed, field):
        super().__init__(seed)
        self.field = field

    def choice(self, seq):
        named = [item for item in seq if isinstance(item, tuple) and item[0] == self.field]
        return named[0] if named else super().choice(seq)


_HEADER_REWRITES = ("integrity", "branching", "n_values", "value_width", "salt", "root_slot")


def test_reshape_header_aborts_at_the_first_record(setup, monkeypatch):
    # Every record's key is derived from the header, so the first batch
    # fetched, the root's record alone, already fails to open, or, with the
    # root slot rewritten, the record at the slot the header now names.  The
    # abort names no record; no key cached from the genuine header may let
    # the record through.  A larger branching factor means longer records,
    # so the region holds fewer of them; the root's slot, drawn with the
    # key, may then lie past the last, and that batch aborts before it opens.
    import dataclasses

    import hsbt.enclave

    pairs, sorted_keys, dep = setup
    root = dep.enclave.root_slot()
    wider = len(dataclasses.replace(dep.index, branching=dep.index.branching + 1).node_rows)
    opened = []
    real = hsbt.enclave.decrypt_wire

    def recording(key, rows, salt, slots):
        opened.append(list(slots))
        return real(key, rows, salt, slots)

    monkeypatch.setattr(hsbt.enclave, "decrypt_wire", recording)
    for field in _HEADER_REWRITES:
        first = (root + 1) % dep.index.node_count if field == "root_slot" else root
        rng = _PickField(4, field)
        for _ in range(3):
            del opened[:]
            report = run_with_tamper(dep, _token(dep.sk, sorted_keys, rng), "reshape-header", rng)
            assert report.outcome == Outcome.ENCLAVE_ABORT
            if field == "branching" and first >= wider:
                reason, opens = f"no node record at position {first}", []
            else:
                reason, opens = "node record failed authentication", [[first]]
            assert report.detail == f"reshape-header of {field}: {reason}"
            assert opened == opens
    monkeypatch.undo()
    # Unforced, the script draws among the same rewrites.
    rng = random.Random(4)
    rewritten = set()
    for _ in range(24):
        report = run_with_tamper(dep, _token(dep.sk, sorted_keys, rng), "reshape-header", rng)
        assert report.outcome == Outcome.ENCLAVE_ABORT
        rewritten.add(report.detail.split(":")[0])
    assert rewritten == {f"reshape-header of {field}" for field in _HEADER_REWRITES}
    # The genuine container is attached again afterwards.
    assert dep.enclave.root_slot() == root
    report = run_with_tamper(dep, _token(dep.sk, sorted_keys, rng), "replay-token", rng)
    assert report.outcome == Outcome.ACCEPTED


class _OneNodeBatches:
    """The enclave as seen by a driver that sends one node per batch, below
    the enclave's own batch ceiling; every other attribute is the enclave's."""

    def __init__(self, enclave: EnclaveSim):
        self._enclave = enclave

    def __getattr__(self, name):
        return getattr(self._enclave, name)

    def max_batch_nodes(self, record_size: int) -> int:
        return 1


def test_duplicate_node_is_caught_by_the_session_count_or_balance(setup):
    # Every record is genuine, and the tripled node and the thinned child
    # cancel in the count, so only the per-batch count or the balance can
    # catch it; a parity-only balance would not.  One node per batch leaves
    # some tripled batches within the outstanding count, so the balance gets
    # its turn; the enclave admits three records a batch, so a tripled node
    # fits its ceiling.
    pairs, sorted_keys, dep = setup
    three = EnclaveSim(reserved_space=3 * dep.index.node_record_size)
    dep = Deployment.build(
        pairs, 5, sk=dep.sk, integrity=True, rng=random.Random(3), enclave=_OneNodeBatches(three)
    )
    rng = random.Random(6)
    reasons = set()
    for _ in range(30):
        report = run_with_tamper(dep, _token(dep.sk, sorted_keys, rng), "duplicate-node", rng)
        assert report.outcome == Outcome.ENCLAVE_ABORT, report.detail
        reasons.add(report.detail)
    assert reasons == {
        "protocol violation: more nodes than requested",
        "protocol violation: received nodes differ from requested nodes",
    }


def test_replay_token_accepted_with_identical_sets(setup):
    pairs, sorted_keys, dep = setup
    rng = random.Random(1)
    token = _token(dep.sk, sorted_keys, rng)
    report = run_with_tamper(dep, token, "replay-token", rng)
    assert report.outcome == Outcome.ACCEPTED
    assert "True" in report.detail


def test_unknown_script_rejected(setup):
    pairs, sorted_keys, dep = setup
    rng = random.Random(5)
    with pytest.raises(ValueError, match="unknown tamper script"):
        run_with_tamper(dep, _token(dep.sk, sorted_keys, rng), "refuse-to-answer", rng)


def test_non_replay_scripts_need_integrity_container(setup):
    pairs, sorted_keys, dep = setup
    rng = random.Random(2)
    plain = Deployment.build(pairs[:50], 5, sk=dep.sk, rng=random.Random(0))
    with pytest.raises(ValueError):
        run_with_tamper(plain, _token(dep.sk, sorted_keys, rng), "modify-node", rng)


def test_all_kinds_enumerated():
    assert set(KINDS) == {
        "modify-node",
        "modify-value",
        "swap-nodes",
        "drop-requested-node",
        "wrong-first-node",
        "withhold-results",
        "replay-token",
        "mix-tokens",
        "substitute-value",
        "reshape-header",
        "duplicate-node",
        "oversize-batch",
        "swap-value-slots",
    }


@pytest.mark.parametrize("kind", KINDS)
def test_every_script_sends_batches_as_the_honest_driver_does(setup, monkeypatch, kind):
    # Every script's batches, the interposer's rewritten ones and the dry
    # run's included, reach the enclave as 1-D `int64` arrays, as
    # `server.search_streamed` sends them, so each meets the same `_admit`.
    pairs, sorted_keys, dep = setup
    sent = []
    real = EnclaveSim.search_batch

    def spy(self, token, positions, trace=None):
        sent.append(positions)
        return real(self, token, positions, trace=trace)

    monkeypatch.setattr(EnclaveSim, "search_batch", spy)
    rng = random.Random(7)
    report = run_with_tamper(dep, _token(dep.sk, sorted_keys, rng), kind, rng)
    assert report.outcome != Outcome.ACCEPTED or kind == "replay-token"
    assert sent and all(type(p) is np.ndarray and p.ndim == 1 and p.dtype == np.int64 for p in sent)
