"""What the server sees, and why that is all it sees.

Records the boundary events of real queries (node fetches, page touches,
emitted pointers), computes the formally declared leakage for the same
queries, and runs the auditor: the trace must be exactly reconstructible
from the leakage.  Injecting a single out-of-leakage fetch flips the verdict.
"""

import random

from hsbt.codec import node_plain_size
from hsbt.crypto import prp_permutation
from hsbt.deploy import Deployment
from hsbt.enclave import EnclaveSim
from hsbt.leakage import (
    AccessTrace,
    PageLayout,
    audit_query,
    formal_vertex_ids,
    leak_enc,
    leak_hw_nodes,
    leak_hw_pages,
)

rng = random.Random(11)
keys = rng.sample(range(1, 2**32 - 1), 2_000)
pairs = [(k, b"v%05d" % i) for i, k in enumerate(keys)]
# Replayable shuffle seeds, recorded on each trace for the auditor.
seed_rng = random.Random(12)
dep = Deployment.build(
    pairs, 8, rng=rng, enclave=EnclaveSim(order_seed_source=lambda: seed_rng.getrandbits(64))
)
tree, index = dep.tree, dep.index

static = leak_enc(pairs, tree)
print(
    f"static leakage: n={static.n_values}, node count={static.node_count}, "
    f"one value width of {static.value_width} bytes\n"
)

perm = prp_permutation(dep.sk.tree_key, index.node_count)
position_map = lambda nid: int(perm[nid])

sorted_keys = sorted(keys)
lo, hi = sorted_keys[400], sorted_keys[424]

# -- streamed construction: node-granular channel ------------------------------

print(f"== streamed query [{lo}, {hi}]: node-granular trace ==")
trace = AccessTrace()
dep.query(lo, hi, trace=trace)
for line in trace.to_lines()[:8]:
    print("  trace:", line)
print(f"  ... {len(trace.events)} events total")

access, pattern = leak_hw_nodes(tree, lo, hi, position_map=position_map)
print(f"declared leakage: {len(access.vertices)} positions, {len(access.edges)} edges")
verdict = audit_query(trace, access, pattern)
print(f"audit: {'PASS' if verdict.passed else 'FAIL'} - {verdict.detail}\n")

# -- resident construction: page-granular channel -------------------------------

print("== same range, resident tree: page-granular trace ==")
layout = PageLayout(record_size=node_plain_size(index.branching))
trace = AccessTrace()
dep.query(lo, hi, construction=1, trace=trace)
access_p, pattern_p = leak_hw_pages(tree, lo, hi, layout, position_map=position_map)
verdict = audit_query(trace, access_p, pattern_p)
print(f"pages touched: {sorted(set(trace.touched('page')))}")
print(f"audit: {'PASS' if verdict.passed else 'FAIL'} - {verdict.detail}\n")

# -- the definitional gap: boundary probes ---------------------------------------

gap_lo = sorted_keys[100] + 1
gap_hi = sorted_keys[101] - 1
access_g, _ = leak_hw_nodes(tree, gap_lo, gap_hi)
print(f"no-result range [{gap_lo}, {gap_hi}]:")
print(f"  textbook leaf-plus-ancestors set: {sorted(formal_vertex_ids(tree, gap_lo, gap_hi))}")
print(f"  probe path actually walked:       {sorted(access_g.vertices)}")

# -- a dishonest server is caught -------------------------------------------------

print("\n== injecting one fetch outside the declared leakage ==")
trace = AccessTrace()
dep.query(lo, hi, trace=trace)
access, pattern = leak_hw_nodes(tree, lo, hi, position_map=position_map)
outsider = next(s for s in range(index.node_count) if s not in access.vertices)
trace.node_fetches([outsider])
verdict = audit_query(trace, access, pattern)
print(f"audit: {'PASS' if verdict.passed else 'FAIL'} - {verdict.detail}")
assert not verdict.passed
