"""Build an encrypted index and search it both ways.

Walks the full client/server/enclave flow on a small dataset: build the
plaintext tree, encrypt it into a container, provision the (simulated)
enclave, and answer range queries with each construction — the resident-tree
variant that decrypts everything once, and the streamed variant that fetches
encrypted nodes batch by batch.  Every answer is checked against a plain
linear scan.
"""

import random

from hsbt.bptree import scan_oracle
from hsbt.codec import make_token
from hsbt.deploy import Deployment
from hsbt.server import CSV_HEADER

rng = random.Random(7)

# -- client side: data preparation -------------------------------------------

print("== client: building and encrypting the index ==")
keys = rng.sample(range(1, 2**32 - 1), 5_000)
pairs = [(k, f"record-{i:05d}".encode()) for i, k in enumerate(keys)]
# Builds the plaintext tree, encrypts it under a fresh key, and stands up a
# provisioned enclave with the container attached.
dep = Deployment.build(pairs, 10, integrity=True, rng=rng)
index = dep.index
print(f"plaintext tree: {dep.tree.node_count} nodes, height {dep.tree.height}")
print(
    f"container: {index.node_count} fixed-size node records of "
    f"{index.node_record_size} bytes + {index.n_values} value blobs\n"
)

# -- queries -------------------------------------------------------------------

sorted_keys = sorted(keys)
lo, hi = sorted_keys[1000], sorted_keys[1040]
print(f"== range [{lo}, {hi}] (41 matching keys) ==")
print(CSV_HEADER)

# Construction 1 loads the tree into trusted memory on first use.
values_c1, stats = dep.query(lo, hi, construction=1)
print(stats.csv_row())

# Construction 2 streams nodes; the query raises unless the result tag verifies.
values_c2, stats = dep.query(lo, hi, construction=2)
print(stats.csv_row())
print("result tag verified")

oracle = scan_oracle(pairs, lo, hi)
assert sorted(values_c1) == sorted(oracle) == sorted(values_c2)
print(f"both constructions agree with the linear-scan oracle ({len(oracle)} values)")

# Open-ended ranges use sentinel endpoints.
below, _ = dep.query(None, sorted_keys[9])
print(f"\nopen query 'everything below {sorted_keys[9]}': {len(below)} values")

# Equal queries produce different tokens and differently ordered answers.
t1, t2 = make_token(dep.sk.tree_key, lo, hi), make_token(dep.sk.tree_key, lo, hi)
assert t1 != t2 and len(t1) == len(t2) == 36
print("two tokens for the same range are distinct ciphertexts")
