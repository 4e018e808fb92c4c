"""Formal leakage computation and trace auditing.

The auditor is omniscient: it sees the plaintext tree and the queried range,
computes what a query is *allowed* to reveal, and checks that a recorded
boundary trace reveals nothing more.  Three leakage objects exist:

* static leakage: value count, the one value width, node count (container
  header facts; every value of a container has one length, so no value's
  own length shows);
* the access tree: storage positions (node granularity) or 4 KiB page ids
  (page granularity) of every node the traversal touches, with parent->child
  edges;
* the value-pointer pattern: per matched leaf, the pointers to result
  values.

The access tree is computed structurally from routing intervals: a node is
reachable by the query iff the key window routed to it intersects the range.
On ranges whose endpoints fall between stored keys this is a strict superset
of the textbook set "matched leaves plus ancestors" - the traversal must
probe the boundary leaf for each endpoint even when it holds no matching
key, and a no-result query still walks one root-to-leaf probe path.
`formal_vertex_ids` exposes the narrower textbook set for comparison.

A trace passes the audit when (a) its touched positions are exactly the
access-tree vertices, (b) every touch is preceded by a touch of its leakage
parent, and (c) the value pointers it emitted are exactly the declared
pointer pattern.  Output orders are not compared: they are freshly shuffled
per query by design, with the recorded shuffle seeds standing in for the
order-snapshot parameter of the leakage definition.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from hsbt.bptree import PlainTree
from hsbt.codec import value_width
from hsbt.enclave import PAGE_SIZE

_KEY_SPACE_END = 2**32  # exclusive upper routing bound


@dataclass(frozen=True)
class LeakEnc:
    """Static leakage of the encrypted container: the header's value count,
    value blob width (one value length plus a tag) and node count."""

    n_values: int
    value_width: int
    node_count: int


def leak_enc(pairs, tree: PlainTree) -> LeakEnc:
    """Raises `ValueError` when the values have several lengths, which no
    container holds.

    The node count follows from `n`, the branching factor and where the
    duplicate runs of keys fall in sorted order (`build_tree` bulk-loads),
    not from the order of the input pairs."""
    return LeakEnc(len(pairs), value_width([v for _, v in pairs]), tree.node_count)


@dataclass
class AccessTrace:
    """Ordered boundary events recorded during one query, append-only.

    `order_seeds` collects the enclave's output-order shuffle seed of every
    traced call (the frozen-randomness snapshot of the leakage definition);
    they are replayable when the enclave draws them from its
    `order_seed_source`.
    """

    events: list[tuple[str, object]] = field(default_factory=list)
    order_seeds: list[int] = field(default_factory=list)

    def node_fetches(self, positions) -> None:
        """Record a fetch of each node position, in order, in one `extend`."""
        self.events.extend(zip(repeat("node"), positions))

    def page_touch(self, page_id: int) -> None:
        self.events.append(("page", page_id))

    def pointers_out(self, pointers) -> None:
        self.events.append(("ptrs", tuple(pointers)))

    def touched(self, kind: str) -> list[int]:
        return [payload for k, payload in self.events if k == kind]

    def emitted_pointers(self) -> list[int]:
        out = []
        for kind, payload in self.events:
            if kind == "ptrs":
                out.extend(payload)
        return out

    def to_lines(self) -> list[str]:
        lines = [f"seed {s}" for s in self.order_seeds]
        for kind, payload in self.events:
            if kind == "ptrs":
                lines.append("ptrs " + ",".join(str(p) for p in payload))
            else:
                lines.append(f"{kind} {payload}")
        return lines


@dataclass(frozen=True)
class AccessTree:
    """Access pattern of one query: touched locators and parent->child edges.

    `granularity` is ``"node"`` (storage positions, fetch-order edges) or
    ``"page"`` (4 KiB page ids, node edges collapsed through the page map).
    """

    vertices: frozenset[int]
    edges: frozenset[tuple[int, int]]
    root: int
    granularity: str


@dataclass(frozen=True)
class ValueAccessPattern:
    """Per matched leaf (by locator: position or page), the matched value pointers."""

    entries: tuple[tuple[int, tuple[int, ...]], ...]

    def pointer_union(self) -> list[int]:
        return [p for _, ptrs in self.entries for p in ptrs]


@dataclass(frozen=True)
class PageLayout:
    """Byte layout of the resident node array, for the page-granular channel:
    records of `record_size` bytes back to back in slot order, observed in
    pages of the enclave's `PAGE_SIZE`, the granule its page touches use."""

    record_size: int

    def page_of(self, slot: int) -> int:
        return slot * self.record_size // PAGE_SIZE


def _walk_reachable(tree: PlainTree, r_start: int, r_end: int):
    """Yield (node id, parent id or None) for every node whose routing
    interval intersects [r_start, r_end].  Routing intervals are half-open
    [lo, hi) windows induced by the separators on the path from the root."""
    stack = [(tree.root_id, None, 0, _KEY_SPACE_END)]
    while stack:
        node, parent, lo, hi = stack.pop()
        yield node, parent
        if tree.leaf[node]:
            continue
        count = tree.key_count[node]
        bounds = [lo, *tree.keys[node, :count].tolist(), hi]
        for i, child in enumerate(tree.ptrs[node, : count + 1].tolist()):
            a, b = bounds[i], bounds[i + 1]
            if a <= r_end and r_start < b:  # [a, b) meets [r_start, r_end]
                stack.append((child, node, a, b))


def matched_leaf_pointers(tree: PlainTree, r_start: int, r_end: int):
    """Per leaf with keys in range: the value pointers of the matching keys.
    Computed from plaintext key membership, independent of the search path."""
    live = np.arange(tree.branching - 1) < tree.key_count[:, None]
    hit = live & tree.leaf[:, None] & (tree.keys >= r_start) & (tree.keys <= r_end)
    return [
        (leaf, tuple(tree.ptrs[leaf, 1:][hit[leaf]].tolist()))
        for leaf in np.flatnonzero(hit.any(axis=1)).tolist()
    ]


def formal_vertex_ids(tree: PlainTree, r_start: int, r_end: int) -> frozenset[int]:
    """The textbook access set: leaves holding keys in range plus all their
    ancestors.  Subset of the reachable set; equal when both range endpoints
    are stored keys."""
    live = np.arange(tree.branching) <= tree.key_count[:, None]
    rows, cols = np.nonzero(live & ~tree.leaf[:, None])
    parent = dict(zip(tree.ptrs[rows, cols].tolist(), rows.tolist()))
    matched = {leaf_id for leaf_id, _ in matched_leaf_pointers(tree, r_start, r_end)}
    out = set(matched)
    for leaf_id in matched:
        walk = leaf_id
        while walk in parent:
            walk = parent[walk]
            out.add(walk)
    return frozenset(out)


def leak_hw_nodes(
    tree: PlainTree, r_start: int, r_end: int, position_map=None
) -> tuple[AccessTree, ValueAccessPattern]:
    """Node-granular runtime leakage of one range query.

    `position_map` translates node ids to storage positions (the identity
    when auditing at id granularity)."""
    pm = position_map if position_map is not None else (lambda node_id: node_id)
    vertices = set()
    edges = set()
    for node, parent in _walk_reachable(tree, r_start, r_end):
        vertices.add(pm(node))
        if parent is not None:
            edges.add((pm(parent), pm(node)))
    pattern = ValueAccessPattern(
        tuple((pm(leaf_id), ptrs) for leaf_id, ptrs in matched_leaf_pointers(tree, r_start, r_end))
    )
    return AccessTree(frozenset(vertices), frozenset(edges), pm(tree.root_id), "node"), pattern


def leak_hw_pages(
    tree: PlainTree, r_start: int, r_end: int, layout: PageLayout, position_map=None
) -> tuple[AccessTree, ValueAccessPattern]:
    """Page-granular runtime leakage: the node tree pushed through the page
    map, with intra-page edges collapsed."""
    node_tree, node_pattern = leak_hw_nodes(tree, r_start, r_end, position_map)
    page = layout.page_of
    vertices = frozenset(page(v) for v in node_tree.vertices)
    edges = frozenset(
        (page(a), page(b)) for a, b in node_tree.edges if page(a) != page(b)
    )
    pattern = ValueAccessPattern(
        tuple((page(loc), ptrs) for loc, ptrs in node_pattern.entries)
    )
    return AccessTree(vertices, edges, page(node_tree.root), "page"), pattern


@dataclass(frozen=True)
class AuditVerdict:
    passed: bool
    detail: str = ""
    failed_event: int | None = None


def audit_query(
    trace: AccessTrace,
    access_tree: AccessTree,
    value_pattern: ValueAccessPattern,
) -> AuditVerdict:
    """Check that a recorded trace is reconstructible from declared leakage.

    Node traces must touch each vertex exactly once; page traces may repeat a
    page (several nodes share it) but their touched set must equal the vertex
    set.  Every first touch must be explainable by an already-touched leakage
    parent, and the emitted value pointers must equal the declared pattern.
    """
    kind = access_tree.granularity
    page_level = kind == "page"
    # The node tree has a unique parent per vertex; the page image can give a
    # page several parent pages (slots are permuted, so one page mixes tree
    # levels).  A first touch is justified by any already-touched parent.
    parents: dict[int, set[int]] = {}
    for a, b in access_tree.edges:
        parents.setdefault(b, set()).add(a)

    seen: set[int] = set()
    touch_count = 0
    for idx, (event_kind, payload) in enumerate(trace.events):
        if event_kind != kind:
            continue
        touch_count += 1
        where = payload
        if where not in access_tree.vertices:
            return AuditVerdict(
                False, f"{kind} {where} touched but not in declared leakage", idx
            )
        if where not in seen:
            if where != access_tree.root:
                justification = parents.get(where)
                if justification is None:
                    if not page_level:
                        return AuditVerdict(
                            False, f"{kind} {where} has no parent in declared leakage", idx
                        )
                    # A page whose only leakage edges collapsed onto itself is
                    # self-justifying once reached.
                elif not justification & seen:
                    return AuditVerdict(
                        False,
                        f"{kind} {where} touched before any parent in {sorted(justification)}",
                        idx,
                    )
            seen.add(where)

    if page_level:
        if seen != access_tree.vertices:
            missing = sorted(access_tree.vertices - seen)
            return AuditVerdict(False, f"declared pages never touched: {missing}")
    else:
        counts = Counter(trace.touched("node"))
        if set(counts) != set(access_tree.vertices) or any(c != 1 for c in counts.values()):
            missing = sorted(access_tree.vertices - set(counts))
            dupes = sorted(p for p, c in counts.items() if c > 1)
            return AuditVerdict(
                False, f"node touch multiset mismatch (missing={missing}, repeated={dupes})"
            )

    if Counter(trace.emitted_pointers()) != Counter(value_pattern.pointer_union()):
        return AuditVerdict(False, "emitted value pointers differ from declared pattern")

    return AuditVerdict(True, f"{touch_count} touches within declared leakage")
