"""Scripted active-attacker runs for the integrity protocol.

Each script perturbs exactly one aspect of an otherwise honest streamed
query and reports how the pipeline reacted:

* ``modify-node``   - flip one bit of a node record the query will fetch
* ``modify-value``  - flip one bit of a result blob before the client sees it
* ``swap-nodes``    - answer one node request with a different valid record
* ``drop-requested-node`` - never deliver one requested node
* ``wrong-first-node``    - open the query with a non-root node
* ``withhold-results``    - drop one encrypted value from the response
* ``replay-token``  - replay an old token unmodified (harmless: the tree is
  static, a replay reveals nothing new and must yield the same result set)
* ``mix-tokens``    - present a second valid token, for another range, with
  the query's second batch: it names no open session, so the batch must
  open one at the root
* ``substitute-value`` - replace one result blob with a genuine blob from
  outside the result, labelled with that blob's own slot (it opens there:
  only the result tag's fold of the slots catches it)
* ``reshape-header`` - serve a copy of the container with one header field
  rewritten (the integrity flag, the branching factor, the value count, the
  value width, the value salt or the root slot); every record's key is
  derived from the header, so the first batch fails: the root's record, or
  the record at the rewritten root slot
* ``duplicate-node`` - deliver one fetched inner node three times, and of the
  three copies of one of its children the enclave then asks for, deliver
  only the first: the tripled node and the thinned child are each off by
  two, which a parity-only (XOR) balance would not see
* ``oversize-batch`` - open the query with a batch of the root and as many
  genuine records again as the enclave's batch ceiling: the enclave must
  refuse it before it opens a single record
* ``swap-value-slots`` - swap the slot labels of two result blobs: the slot
  multiset, and so the result tag's fold, is unchanged, so only each blob's
  binding to its slot (its nonce) can catch it

Denial-of-service behaviours (just refusing to answer) are out of scope: the
driver can always stall, and no response is its own signal.

Every script runs the production driver, `hsbt.server.search_streamed`.  The
node-level deviations put an interposer between the driver and the enclave
that rewrites batch positions, or the token, on their way in, so the driver
itself carries no injection hooks.
"""

from __future__ import annotations

import dataclasses
import enum
import random
from dataclasses import dataclass

import numpy as np

from hsbt.bptree import KEY_MAX, KEY_MIN
from hsbt.codec import make_token
from hsbt.crypto import AuthenticationError
from hsbt.deploy import Deployment
from hsbt.enclave import EnclaveError, EnclaveSim
from hsbt.server import search_streamed

KINDS = (
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
)


class Outcome(enum.Enum):
    ENCLAVE_ABORT = "enclave-abort"
    CLIENT_REJECT = "client-reject"
    ACCEPTED = "accepted"


@dataclass
class TamperReport:
    outcome: Outcome
    detail: str


class _BatchRewriter:
    """Interposer between the driver and the enclave: forwards everything,
    but rewrites positions in each batch.  A position maps to the slots
    delivered in its place at each of its next deliveries in turn, none to
    drop it; later deliveries pass unchanged.  With `second_token`, the
    second batch carries that token instead of the driver's."""

    def __init__(
        self,
        enclave: EnclaveSim,
        rewrites: dict[int, list[tuple[int, ...]]],
        second_token: bytes | None = None,
    ):
        self._enclave = enclave
        self._rewrites = rewrites
        self._second_token = second_token
        self._batches = 0

    def __getattr__(self, name):
        return getattr(self._enclave, name)

    def search_batch(self, token, positions, trace=None):
        self._batches += 1
        if self._batches == 2 and self._second_token is not None:
            token = self._second_token
        batch = [q for p in positions.tolist() for q in self._rewrite(p)]
        # Forwarded as the honest driver sends it, so it meets the same `_admit`.
        return self._enclave.search_batch(token, np.array(batch, np.int64), trace=trace)

    def _rewrite(self, position: int) -> tuple[int, ...]:
        turns = self._rewrites.get(position)
        return turns.pop(0) if turns else (position,)


def _client_receive(dep: Deployment, blobs, mac) -> TamperReport:
    try:
        dep.receive(blobs, mac)
    except AuthenticationError as exc:
        return TamperReport(Outcome.CLIENT_REJECT, str(exc))
    return TamperReport(Outcome.ACCEPTED, "result verified")


def _serve_copy(dep: Deployment, copy, token: bytes, what: str) -> TamperReport:
    """Run the query against `copy`, a doctored container, in place of the
    genuine one, which is attached again afterwards; `what` names the change."""
    dep.enclave.attach_container(copy)
    try:
        search_streamed(copy, dep.enclave, token)
        return TamperReport(Outcome.ACCEPTED, f"{what} went unnoticed")
    except EnclaveError as exc:
        return TamperReport(Outcome.ENCLAVE_ABORT, f"{what}: {exc}")
    finally:
        dep.enclave.attach_container(dep.index)


def run_with_tamper(
    dep: Deployment, token: bytes, kind: str, rng: random.Random
) -> TamperReport:
    """Execute the deviation `kind`, one of `KINDS`, against one query and
    classify the result; targets are drawn from `rng`.

    Raises `ValueError` for an unknown kind.  Requires an integrity-mode
    deployment for every script except ``replay-token``; the caller supplies
    a query whose traversal reaches below the root, returns at least two
    values and leaves some node unfetched, so every script has a target.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown tamper script {kind!r}")
    if kind != "replay-token" and not dep.integrity:
        raise ValueError(f"script {kind!r} needs an integrity-mode deployment")
    index, enclave = dep.index, dep.enclave

    if kind == "replay-token":
        first, _, _ = search_streamed(index, enclave, token)
        second, _, _ = search_streamed(index, enclave, token)
        same = set(map(bytes, first.rows)) == set(map(bytes, second.rows))
        outcome = Outcome.ACCEPTED if same else Outcome.CLIENT_REJECT
        return TamperReport(outcome, f"replay result sets identical: {same}")

    if kind == "reshape-header":
        rewritten, value = rng.choice(
            [
                ("integrity", not index.integrity),
                ("branching", index.branching + 1),
                ("n_values", index.n_values - 1),
                ("value_width", index.value_width + 1),
                ("salt", bytes([index.salt[0] ^ 1]) + index.salt[1:]),
                ("root_slot", (index.root_slot + 1) % index.node_count),
            ]
        )
        # `replace` packs the header afresh, so the record key changes.
        reshaped = dataclasses.replace(index, **{rewritten: value})
        return _serve_copy(dep, reshaped, token, f"{kind} of {rewritten}")

    if kind in ("modify-value", "withhold-results", "substitute-value", "swap-value-slots"):
        # The traversal itself stays honest, and the blobs are edited in the
        # form the driver returns them (`server.fetch_values`).
        blobs, mac, _ = search_streamed(index, enclave, token)
        at = rng.randrange(len(blobs.rows))
        rows, slots = blobs.rows.copy(), blobs.slots.copy()
        prefix = ""
        if kind == "modify-value":
            rows[at, rng.randrange(rows.shape[1])] ^= 1 << rng.randrange(8)
        elif kind == "withhold-results":
            rows, slots = np.delete(rows, at, axis=0), np.delete(slots, at)
        elif kind == "swap-value-slots":
            other = rng.choice([i for i in range(len(slots)) if i != at])
            slots[[at, other]] = slots[[other, at]]
            prefix = f"{kind} of rows {at} and {other}: "
        else:
            target = rng.choice(sorted(set(range(len(index.value_rows))) - set(slots.tolist())))
            rows[at], slots[at] = index.value_rows[target], target
            prefix = f"{kind} with value {target}: "
        report = _client_receive(dep, dataclasses.replace(blobs, rows=rows, slots=slots), mac)
        report.detail = prefix + report.detail
        return report

    # Honest dry run, one node per batch, to learn the node pointers each
    # slot the query fetches returns.  Past the root, fetches follow the
    # enclave's shuffles, so targets come from sorted slots.
    root_slot = enclave.root_slot()
    children: dict[int, list[int]] = {}
    queue = [root_slot]
    while queue:
        slot = queue.pop(0)
        children[slot] = enclave.search_batch(token, np.array([slot], np.int64))[1].tolist()
        queue += children[slot]
    enclave.finalize_session(token)

    if kind == "modify-node":
        target = rng.choice(sorted(children))
        region = bytearray(index.node_region)
        offset = target * index.node_record_size + rng.randrange(index.node_record_size)
        region[offset] ^= 1 << rng.randrange(8)
        broken = dataclasses.replace(index, node_region=bytes(region))
        return _serve_copy(dep, broken, token, f"{kind} on {target}")

    # The rest run the driver behind an interposer.
    rewrites: dict[int, list[tuple[int, ...]]] = {}
    second_token = None
    if kind == "mix-tokens":
        # A valid token for another range, as a host sees when it serves
        # the client's other queries.
        r_start, r_end = sorted(rng.randrange(KEY_MIN, KEY_MAX + 1) for _ in range(2))
        second_token = make_token(dep.sk.tree_key, r_start, r_end)
        target = f"[{r_start}, {r_end}]"
    elif kind == "duplicate-node":
        target = rng.choice([s for s in sorted(children) if children[s]])
        thinned = rng.choice(sorted(children[target]))
        rewrites = {target: [(target,) * 3], thinned: [(thinned,), (), ()]}
    elif kind == "oversize-batch":
        target = root_slot
        ceiling = enclave.max_batch_nodes(index.node_record_size)
        rewrites[target] = [(target, *(s % index.node_count for s in range(ceiling)))]
    elif kind == "wrong-first-node":
        target = root_slot
        rewrites[target] = [(rng.choice([s for s in range(index.node_count) if s != root_slot]),)]
    else:
        target = rng.choice([s for s in sorted(children) if s != root_slot])
        if kind == "swap-nodes":
            outside = [s for s in range(index.node_count) if s not in children]
            rewrites[target] = [(rng.choice(outside),)]
        else:
            rewrites[target] = [()]
    try:
        interposed = _BatchRewriter(enclave, rewrites, second_token)
        blobs, mac, _ = search_streamed(index, interposed, token)
    except EnclaveError as exc:
        return TamperReport(Outcome.ENCLAVE_ABORT, str(exc))
    report = _client_receive(dep, blobs, mac)
    report.detail = f"{kind} on {target}: " + report.detail
    return report
