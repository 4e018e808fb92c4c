"""Closed-loop query benchmark for the encrypted B+-tree index.

Run from the repository root:

    python3 perfbench/run.py --workload short-stream-integrity --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One process, one client thread, closed loop: each query is minted, served,
decrypted and verified before the next one is sent.  A query's latency runs
from token mint to the verified plaintext (`make_token` -> search ->
`decrypt_results` -> `verify_result_mac`).  The value check against the
dataset and the leakage audit run outside the timed region.

Everything is derived from ``--seed``: the dataset, the key material, the
build order and the query ranges.  The program under test only receives the
generated pairs and tokens.

Every time reported is scaled to a reference host speed (see `hostspeed`):
the reference task is timed between windows of queries and around each
set-up, and a time is scaled by how much slower than its reference time the
task ran next to it.  The unscaled figures are in the provenance line.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
prints the per-layer metrics: it runs a traced phase (spans from
`spans.Tracer`, every query audited for leakage afterwards) and then an
untraced reference phase, and writes the raw spans to
``.perfbench/spans-<workload>.tsv``.  The last line of standard output is
always the JSON result.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

if not (SRC / "hsbt" / "__init__.py").is_file():
    sys.exit(f"perfbench: program source not found at {SRC / 'hsbt'}")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import cryptography  # noqa: E402
import numpy  # noqa: E402

import hostspeed  # noqa: E402
from hsbt import bench, bptree, codec, crypto, enclave, leakage, server  # noqa: E402
from spans import Tracer  # noqa: E402

N_PAIRS = 100_000
# A --trace 1 run spends at most this share of its measuring time (and this
# many queries) traced; the rest is untraced, the reference for the tracing
# overhead.  Every traced query is audited afterwards, at tens of ms each.
TRACED_SHARE = 0.5
TRACED_QUERIES = 200
SPAN_DIR = ROOT / ".perfbench"
# The host's speed is measured between windows of queries.  A window closes
# once it spans WINDOW_NS, short against the seconds a host-speed regime
# lasts.  Log-uniform sizes are drawn in blocks of SIZE_BLOCK (see
# QueryStream).
WINDOW_NS = 250_000_000
SIZE_BLOCK = 16


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.  `result_size` is the exact size of every
    query, or with `log_uniform` the upper end of a log-uniform draw on
    [1, result_size].  `warmup` queries run before timing; they are also the
    fixed probe set the exact counters come from.  A run sets up
    `deployments` indexes, each under its own key, and splits its measuring
    time over them."""

    name: str
    construction: int  # 1 = resident tree, 2 = streamed batches
    integrity: bool
    branching: int
    result_size: int
    warmup: int
    log_uniform: bool = False
    deployments: int = 5
    n: int = N_PAIRS


# Each workload is built so that a ROADMAP optimisation does most of its work
# in one workload and little or none in another: per-query fixed costs
# (token open, root-slot PRP, per-call RNG, session bookkeeping) dominate the
# short streamed query; per-node decrypt/decode/match and the multiset folds
# dominate the long one; the resident workload moves node decryption into
# set-up and has no sessions, batching or root-slot PRP at all.  The key
# decides node placement and so the cost of the root-slot PRP, 0.1 to 0.6 ms
# a query on a 2-core Xeon VM, a large share of the short query: that
# workload averages more keys.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("short-stream-integrity", 2, True, 100, 100, warmup=200, deployments=10),
        Workload("long-stream-integrity", 2, True, 10, 4096, warmup=20),
        Workload("mixed-resident", 1, False, 10, 4096, warmup=200, log_uniform=True),
    )
}

END_TO_END_UNITS = {
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "throughput_qps": "1/s",
    "setup_s": "s",
    "bytes_per_user_byte": "ratio",
    "peak_rss_mb": "MB",
}

# Per-query layer times from the traced phase: metric, span name, and which
# sum to take (inclusive time, self time, or inclusive time under a parent).
LAYER_TIMES = (
    ("codec.make_token_us", "total", "codec.make_token"),
    ("crypto.token_open_us", "total", "crypto.token_open"),
    ("enclave.root_slot_us", "total", "enclave.root_slot"),
    ("enclave.search_batch_self_us", "self", "enclave.search_batch"),
    ("enclave.search_resident_self_us", "self", "enclave.search_resident"),
    ("crypto.node_decrypt_us", "total", "crypto.node_decrypt"),
    ("codec.deserialize_node_us", "total", "codec.deserialize_node"),
    ("enclave.match_us", "total", "enclave.match"),
    ("crypto.mset_fold_us", "under:enclave.search_batch", "crypto.mset_fold"),
    ("enclave.finalize_session_us", "total", "enclave.finalize_session"),
    ("server.search_streamed_self_us", "self", "server.search_streamed"),
    ("server.fetch_values_us", "total", "server.fetch_values"),
    ("codec.decrypt_results_us", "total", "codec.decrypt_results"),
    ("codec.verify_result_mac_us", "total", "codec.verify_result_mac"),
    ("bench.unattributed_us", "self", "bench.query"),
)

# Counters from the fixed probe set; with the same seed they repeat exactly.
EXACT_COUNTERS = (
    "enclave.node_decryptions",
    "enclave.key_slots",
    "enclave.pointer_slots",
    "enclave.nodes_visited",
    "enclave.search_batch_calls",
    "server.crossings",
    "server.nodes_transferred",
    "server.bytes_in",
    "server.bytes_out",
)
PROBE_RATIOS = ("server.batch_fill", "enclave.values_per_node")
SETUP_STEPS = (
    "bptree.build_tree_s",
    "codec.encrypt_index_s",
    "codec.to_bytes_s",
    "codec.from_bytes_s",
    "enclave.load_tree_s",
)


def span_targets():
    """Every call the traced phase wraps, at the name its caller looks up."""
    sim = enclave.EnclaveSim
    mset = crypto.MultisetHash
    return (
        (codec, "make_token", "codec.make_token"),
        (codec, "decrypt_results", "codec.decrypt_results"),
        (codec, "verify_result_mac", "codec.verify_result_mac"),
        (server, "search_streamed", "server.search_streamed"),
        (server, "search_resident", "server.search_resident"),
        (server, "fetch_values", "server.fetch_values"),
        (sim, "root_slot", "enclave.root_slot"),
        (sim, "search_batch", "enclave.search_batch"),
        (sim, "search_resident", "enclave.search_resident"),
        (sim, "finalize_session", "enclave.finalize_session"),
        (enclave, "decrypt", "crypto.token_open"),
        (enclave, "decrypt_wire", "crypto.node_decrypt"),
        (enclave, "deserialize_node", "codec.deserialize_node"),
        (enclave, "oblivious_match_slots", "enclave.match"),
        (mset, "add", "crypto.mset_fold"),
        (mset, "add_all", "crypto.mset_fold"),
    )


# -- inputs --------------------------------------------------------------------


def secret_key(seed: int, deployment: int) -> crypto.SecretKey:
    """Key material derived from the seed, so node placement repeats."""

    def derive(label: str) -> bytes:
        material = f"perfbench/{seed}/{deployment}/{label}".encode()
        return hashlib.blake2b(material, digest_size=16).digest()

    return crypto.SecretKey(derive("tree"), derive("value"))


@dataclass
class Dataset:
    pairs: list
    sorted_keys: list
    sorted_values: list

    @classmethod
    def generate(cls, w: Workload, seed: int) -> "Dataset":
        pairs = bench.make_dataset(w.n, random.Random(f"{seed}/data"))
        ordered = sorted(pairs)
        return cls(pairs, [k for k, _ in ordered], [v for _, v in ordered])

    def matches(self, values, r_start: int, size: int) -> bool:
        first = bisect.bisect_left(self.sorted_keys, r_start)
        return Counter(values) == Counter(self.sorted_values[first : first + size])


class QueryStream:
    """Seed-derived queries.  Log-uniform sizes are stratified: each block of
    SIZE_BLOCK queries holds one size from each 1/SIZE_BLOCK band of the log
    scale, in random order, so that the mix of sizes varies little from one
    run, or one stretch of a run, to the next."""

    def __init__(self, w: Workload, data: Dataset, rng: random.Random):
        self.w = w
        self.data = data
        self.rng = rng
        self._bands: list[int] = []

    def next(self) -> tuple[int, int, int]:
        """One query: (range start, range end, exact result size)."""
        size = self.w.result_size
        if self.w.log_uniform:
            if not self._bands:
                self._bands = list(range(SIZE_BLOCK))
                self.rng.shuffle(self._bands)
            band = self._bands.pop()
            size = min(size, int((size + 1) ** ((band + self.rng.random()) / SIZE_BLOCK)))
        r_start, r_end = bench.sample_result_window(self.data.sorted_keys, size, self.rng)
        return r_start, r_end, size


# -- set-up --------------------------------------------------------------------


@dataclass
class Deployment:
    tree: object
    index: codec.EncryptedIndex
    enclave: enclave.EnclaveSim
    container_bytes: int
    steps: dict


def deploy(w: Workload, pairs, sk: crypto.SecretKey, seed: int) -> Deployment:
    """Generated pairs -> ready to query: build, encrypt, serialize, parse
    (the deployment round trip, in memory), provision and attach, and for
    the resident construction the one-time tree load.  Step times are
    scaled to the reference host speed measured before and after."""
    clock = time.perf_counter
    before = hostspeed.settled_ms()
    t0 = clock()
    tree = bptree.build_tree(pairs, w.branching, rng=random.Random(f"{seed}/build"))
    t1 = clock()
    index = codec.encrypt_index(sk, tree, [v for _, v in pairs], integrity=w.integrity)
    t2 = clock()
    blob = index.to_bytes()
    t3 = clock()
    index = codec.EncryptedIndex.from_bytes(blob)
    t4 = clock()
    sim = enclave.EnclaveSim()
    sim.provision(enclave.DEFAULT_CLIENT, sk.tree_key, root_id=tree.root_id)
    sim.attach_container(index)
    t5 = clock()
    if w.construction == 1:
        sim.load_tree(index)
    t6 = clock()
    factor = hostspeed.scale(before, hostspeed.settled_ms())
    steps = {
        "bptree.build_tree_s": t1 - t0,
        "codec.encrypt_index_s": t2 - t1,
        "codec.to_bytes_s": t3 - t2,
        "codec.from_bytes_s": t4 - t3,
        "enclave.load_tree_s": t6 - t5,
        "setup_s": t6 - t0,
    }
    steps = {name: seconds * factor for name, seconds in steps.items()}
    steps["bench.wall_setup_s"] = t6 - t0
    return Deployment(tree, index, sim, len(blob), steps)


# -- queries -------------------------------------------------------------------


def serve(dep: Deployment, sk: crypto.SecretKey, w: Workload, r_start, r_end, trace=None):
    """One client query, token mint to verified plaintext.  Calls go through
    the module attributes so the traced phase sees them."""
    token = codec.make_token(sk.tree_key, r_start, r_end)
    if w.construction == 1:
        blobs, stats = server.search_resident(dep.index, dep.enclave, token, trace=trace)
        mac = None
    else:
        blobs, mac, stats = server.search_streamed(dep.index, dep.enclave, token, trace=trace)
    values = codec.decrypt_results(sk.value_key, blobs)
    # The client knows it asked for integrity: a missing tag is a failure.
    verified = not w.integrity or (
        mac is not None and codec.verify_result_mac(sk.tree_key, values, mac)
    )
    return values, verified, stats


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    reported: int = 0

    def fail(self, why: str) -> None:
        self.failed += 1
        if self.reported < 3:
            self.reported += 1
            print(f"perfbench: query failed: {why}", file=sys.stderr)


@dataclass
class Phase:
    """Timed queries of one phase, (query id, window, elapsed ns, passed),
    and per window the factor that scales its times to the reference host
    speed."""

    queries: list = field(default_factory=list)
    factors: list = field(default_factory=list)

    def factor_of(self) -> dict:
        """Host-speed factor per query id."""
        return {query: self.factors[window] for query, window, _, _ in self.queries}

    @property
    def busy_s(self) -> float:
        """Scaled time spent in queries, failed ones included."""
        return sum(ns * self.factors[window] for _, window, ns, _ in self.queries) / 1e9

    @property
    def latencies_ms(self) -> list:
        """Scaled latency of every passed query."""
        return [ns * self.factors[window] / 1e6 for _, window, ns, ok in self.queries if ok]

    @property
    def wall_latencies_ms(self) -> list:
        return [ns / 1e6 for _, _, ns, ok in self.queries if ok]


def run_phase(dep, sk, stream, seconds, tally, *, serve_fn=serve, tracer=None, traces=None, max_queries=None):
    """Closed loop for `seconds` (or `max_queries`): draw a range, time the
    query, then check its values outside the timed region.  With `traces`
    set, each query records an AccessTrace; those of passed queries are kept
    with their ranges for an audit after the loop, so that the audit's own
    work does not disturb the timed queries.  The host's speed is measured
    before the first window, between windows and after the last one."""
    phase = Phase()
    clock = time.perf_counter_ns
    deadline = clock() + int(seconds * 1e9)
    start = tally.attempted
    window = 0
    speeds = [hostspeed.measure_ms()]
    window_start = clock()
    while tally.attempted == start or (
        clock() < deadline and (max_queries is None or tally.attempted - start < max_queries)
    ):
        if clock() - window_start >= WINDOW_NS:
            speeds.append(hostspeed.measure_ms())
            window, window_start = window + 1, clock()
        r_start, r_end, size = stream.next()
        trace = leakage.AccessTrace() if traces is not None else None
        query = tally.attempted
        if tracer is not None:
            tracer.query = query
        tally.attempted += 1
        t0 = clock()
        try:
            values, verified, _ = serve_fn(dep, sk, stream.w, r_start, r_end, trace)
        except Exception:
            phase.queries.append((query, window, clock() - t0, False))
            tally.fail(traceback.format_exc())
            continue
        elapsed = clock() - t0
        passed = verified and stream.data.matches(values, r_start, size)
        phase.queries.append((query, window, elapsed, passed))
        if not verified:
            tally.fail("result tag missing or invalid")
        elif not passed:
            tally.fail(f"wrong values for [{r_start}, {r_end}]")
        elif trace is not None:
            traces.append((trace, r_start, r_end))
    speeds.append(hostspeed.measure_ms())
    phase.factors = [hostspeed.scale(a, b) for a, b in zip(speeds, speeds[1:])]
    if not phase.latencies_ms:
        sys.exit("perfbench: no query passed, so there is nothing to report")
    if tracer is not None:
        tracer.query = None
    return phase


def probe(dep, sk, w, data, seed, tally) -> dict:
    """Warm-up over a fixed seed-derived query set, recording the counters
    the program exposes.  Returns per-query medians."""
    stream = QueryStream(w, data, random.Random(f"{seed}/probe"))
    sim = dep.enclave
    counter = sim.touch_counter
    max_batch = sim.max_batch_nodes(dep.index.node_record_size)
    rows = []
    for _ in range(w.warmup):
        r_start, r_end, size = stream.next()
        before = (sim.node_decryptions, counter.key_slots, counter.pointer_slots)
        tally.attempted += 1
        try:
            values, verified, stats = serve(dep, sk, w, r_start, r_end)
        except Exception:
            tally.fail(traceback.format_exc())
            continue
        if not (verified and data.matches(values, r_start, size)):
            tally.fail(f"warm-up query [{r_start}, {r_end}] not verified")
            continue
        decrypted = sim.node_decryptions - before[0]
        key_slots = counter.key_slots - before[1]
        visited = key_slots // (w.branching - 1)
        batches = stats.crossings - int(w.integrity) if w.construction == 2 else 0
        rows.append(
            {
                "enclave.node_decryptions": decrypted,
                "enclave.key_slots": key_slots,
                "enclave.pointer_slots": counter.pointer_slots - before[2],
                "enclave.nodes_visited": visited,
                "enclave.search_batch_calls": batches,
                "server.crossings": stats.crossings,
                "server.nodes_transferred": stats.nodes_transferred,
                "server.bytes_in": stats.bytes_in,
                "server.bytes_out": stats.bytes_out,
                "server.batch_fill": (
                    stats.nodes_transferred / (batches * max_batch) if batches else 0.0
                ),
                "enclave.values_per_node": size / (decrypted if w.construction == 2 else visited),
            }
        )
    if not rows:
        return {name: 0 for name in EXACT_COUNTERS + PROBE_RATIOS}
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


def audit_failures(dep, sk, w, traces) -> int:
    """Audit each recorded query trace against its declared leakage, as
    `hsbt audit` does; returns the number of traces that fail."""
    perm = crypto.prp_permutation(sk.tree_key, dep.index.node_count)

    def position(node_id):
        return int(perm[node_id])

    if w.construction == 1:
        layout = leakage.PageLayout(record_size=codec.node_plain_size(w.branching, w.integrity))

        def declared(r_start, r_end):
            return leakage.leak_hw_pages(dep.tree, r_start, r_end, layout, position_map=position)

    else:

        def declared(r_start, r_end):
            return leakage.leak_hw_nodes(dep.tree, r_start, r_end, position_map=position)

    return sum(
        not leakage.audit_query(trace, *declared(r_start, r_end)).passed
        for trace, r_start, r_end in traces
    )


# -- metrics -------------------------------------------------------------------


def p90(values) -> float:
    """The 90th percentile; a single sample is its own percentile."""
    values = list(values)
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=10)[8]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(phases, setups, dep, user_bytes: int) -> dict:
    """Latency and throughput over every timed query of the run, each scaled
    to the reference host speed; every deployment gets the same time."""
    lat = [ms for phase in phases for ms in phase.latencies_ms]
    return {
        "query_p50_ms": statistics.median(lat),
        "query_p90_ms": p90(lat),
        "throughput_qps": len(lat) / sum(phase.busy_s for phase in phases),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "bytes_per_user_byte": dep.container_bytes / user_bytes,
        "peak_rss_mb": peak_rss_mb(),
    }


def layer_times(tracer: Tracer, phase: Phase) -> dict:
    """Median and p90 per traced query of every entry in LAYER_TIMES, scaled
    by the host-speed factor of the query's window in `phase`."""
    factor = phase.factor_of()
    queries = [(factor[query] / 1e3, q) for query, q in tracer.per_query().items()]
    out = {}
    for metric, kind, name in LAYER_TIMES:
        if kind == "total":
            per_query = [us * q.total_ns.get(name, 0) for us, q in queries]
        elif kind == "self":
            per_query = [us * q.self_ns.get(name, 0) for us, q in queries]
        else:
            parent = kind.partition(":")[2]
            per_query = [us * q.under_ns.get((name, parent), 0) for us, q in queries]
        out[metric] = statistics.median(per_query)
        out[metric + ".p90"] = p90(per_query)
    return out


# -- entry point --------------------------------------------------------------------


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(w, args, extra: dict) -> dict:
    return {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cryptography": cryptography.__version__,
        "git_revision": git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
        "pairs": w.n,
        "deployments": w.deployments,
        "warmup_queries": w.warmup,
        **extra,
    }


def measured(phases, setups) -> dict:
    """What a run measured besides its metrics: the timed query count, the
    host's speed against the reference (1 is the reference speed, 0.5 half
    of it) and the unscaled latency and set-up time."""
    factors = [f for phase in phases for f in phase.factors]
    return {
        "timed_queries": sum(len(phase.latencies_ms) for phase in phases),
        "host_speed": statistics.median(factors),
        "wall_query_p50_ms": statistics.median(
            ms for phase in phases for ms in phase.wall_latencies_ms
        ),
        "wall_setup_s": statistics.median(s["bench.wall_setup_s"] for s in setups),
    }


def run_workload(w: Workload, seed: int, seconds: float, traced: bool, span_path=None):
    """One benchmark run.  Returns the result dict and what `measured`
    gives; a traced run writes its spans to `span_path` when given.

    The run sets up `w.deployments` deployments, one after another, each with
    its own seed-derived key (the key decides node placement, and so the cost of
    the root-slot PRP).  An untraced run splits its measuring time evenly
    over them; a traced run measures the last one."""
    data = Dataset.generate(w, seed)
    stream = QueryStream(w, data, random.Random(f"{seed}/queries"))
    tally = Tally()
    setups, phases = [], []
    dep = None
    for k in range(w.deployments):
        dep = None
        gc.collect()
        sk = secret_key(seed, k)
        dep = deploy(w, data.pairs, sk, seed)
        setups.append(dep.steps)
        probed = probe(dep, sk, w, data, seed, tally)
        if k == 0:
            counters = probed
        if not traced:
            phases.append(run_phase(dep, sk, stream, seconds / w.deployments, tally))
    if not traced:
        user_bytes = sum(4 + len(v) for _, v in data.pairs)
        metrics = end_to_end(phases, setups, dep, user_bytes)
        return result(tally, metrics), measured(phases, setups)

    # Traced phase first, capped so that the audit after it stays short.  Its
    # spans and traces are folded, audited and released before the untraced
    # reference phase, which fills the rest of the measuring time, so they
    # cost that phase no garbage-collector work.
    tracer = Tracer()
    traces = []
    started = time.perf_counter()
    with tracer.patched(span_targets()):
        traced_phase = run_phase(
            dep,
            sk,
            stream,
            seconds * TRACED_SHARE,
            tally,
            serve_fn=tracer.wrap("bench.query", serve),
            tracer=tracer,
            traces=traces,
            max_queries=TRACED_QUERIES,
        )
    remaining = seconds - (time.perf_counter() - started)
    metrics = layer_times(tracer, traced_phase)
    if span_path is not None:
        tracer.dump(span_path)
    leaks = audit_failures(dep, sk, w, traces)
    del tracer, traces
    gc.collect()
    base = run_phase(dep, sk, stream, remaining, tally)
    metrics.update(counters)
    metrics.update({name: statistics.median(s[name] for s in setups) for name in SETUP_STEPS})
    metrics.update(
        {
            "bptree.node_count": dep.index.node_count,
            "bptree.height": dep.tree.height,
            "codec.container_bytes": dep.container_bytes,
            "leakage.audit_failures": leaks,
            "bench.error_rate": tally.failed / tally.attempted,
            "bench.traced_queries": len(traced_phase.latencies_ms),
            "bench.tracing_overhead_pct": (
                statistics.median(traced_phase.latencies_ms) / statistics.median(base.latencies_ms)
                - 1
            )
            * 100,
        }
    )
    phases = [traced_phase, base]
    metrics["bench.host_speed"] = statistics.median(f for phase in phases for f in phase.factors)
    return result(tally, metrics, leaks), measured(phases, setups)


def result(tally: Tally, metrics: dict, leaks: int = 0) -> dict:
    return {
        "correct": tally.failed == 0 and leaks == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    base = metric.removesuffix(".p90")
    if base.endswith("_us"):
        return "us"
    if base.endswith("_s"):
        return "s"
    if base.endswith("_pct"):
        return "%"
    if "bytes" in base:
        return "B"
    if base in PROBE_RATIOS or base in ("bench.error_rate", "bench.host_speed"):
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a process of its own
    (so peak RSS is that workload's); prints one table."""
    status = 0
    print(f"{'workload':24} {'metric':36} {'value':>14} unit")
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
            cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{name}: run failed (exit {done.returncode})\n{done.stderr}", file=sys.stderr)
                status = 1
                continue
            outcome = json.loads(lines[-1])
            if not outcome["correct"]:
                status = 1
            print(f"{name:24} {'correct':36} {str(outcome['correct']):>14}")
            print(f"{name:24} {'attempted/failed':36} {outcome['attempted']:>8}/{outcome['failed']:<5}")
            for metric, entry in outcome["metrics"].items():
                print(f"{name:24} {metric:36} {entry['value']:>14.6g} {entry['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    w = WORKLOADS[args.workload]
    span_path = None
    if args.trace:
        SPAN_DIR.mkdir(exist_ok=True)
        span_path = SPAN_DIR / f"spans-{w.name}.tsv"
    result, extra = run_workload(w, args.seed, args.seconds, bool(args.trace), span_path)
    result["metrics"] = {
        name: {"value": value, "unit": unit_of(name)} for name, value in result["metrics"].items()
    }
    print("provenance " + json.dumps(provenance(w, args, extra)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
