"""An actively malicious server against the integrity protocol.

In integrity mode the enclave tracks, per query, the token that opened the
query, how many requested nodes are outstanding (no batch may deliver more,
nor more than the reserved space holds: ``oversize-batch``),
one balance multiset hash that adds the storage slots it asked for and
subtracts the slots it received (it must end at zero; a record opens only at
the slot it was sealed for, so a slot names its node), and a result digest of
the matched value slots (each value blob is sealed under the nonce
``salt || slot``, so it opens only at its own slot in its own container); the
client opens each blob at the slot it is handed with, folds those slots, and
checks the enclave's tag.  A query must open at the root, the container's last
node.  The hash is a sum mod 2^128 (MSet-Add-Hash), so ``duplicate-node`` -
one node delivered three times, one of its children once in three - does
not balance, as it would under an XOR fold.  This script runs every scripted deviation and shows where each one
gets caught.
"""

import random

from hsbt.bench import make_dataset
from hsbt.codec import make_token
from hsbt.deploy import Deployment
from hsbt.tamper import KINDS, run_with_tamper

rng = random.Random(23)
pairs = make_dataset(3_000, rng)
dep = Deployment.build(pairs, 8, integrity=True, rng=rng)

sorted_keys = sorted(k for k, _ in pairs)

print(f"{'script':<22} {'outcome':<15} detail")
print("-" * 76)
for kind in KINDS:
    start = rng.randrange(0, len(sorted_keys) - 40)
    token = make_token(dep.sk.tree_key, sorted_keys[start], sorted_keys[start + 30])
    report = run_with_tamper(dep, token, kind, rng)
    print(f"{kind:<22} {report.outcome.value:<15} {report.detail[:60]}")

print(
    "\nEverything except the replay is detected: static tampering dies at\n"
    "authenticated decryption, protocol deviations at the session checks,\n"
    "withheld or substituted results at the client's tag verification, and\n"
    "blobs relabelled to other slots at the client's decryption.\n"
    "Replaying a token is harmless by design - the tree is static, so a\n"
    "replay repeats exactly the old answer and the old leakage."
)
