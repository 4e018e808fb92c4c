"""Checks of the benchmark itself: run with ``python -m pytest -q perfbench``."""

import json
import random
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from spans import Tracer  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMALL = 5000


def small(name):
    return replace(run.WORKLOADS[name], n=SMALL)


def probe_once(w, seed):
    data = run.Dataset.generate(w, seed)
    sk = run.secret_key(seed, 0)
    dep = run.deploy(w, data.pairs, sk, seed)
    tally = run.Tally()
    counters = run.probe(dep, sk, w, data, seed, tally)
    assert tally.failed == 0
    return counters, dep.container_bytes


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_declared_counters_repeat_exactly_with_the_same_seed(name):
    """Same seed, same counters, at the benchmark's own scale: these are the
    counters a later change may be compared on exactly."""
    w = run.WORKLOADS[name]
    first, first_bytes = probe_once(w, 7)
    second, second_bytes = probe_once(w, 7)
    assert first_bytes == second_bytes
    for counter in run.EXACT_COUNTERS:
        assert first[counter] == second[counter], counter


def test_units_are_the_declared_ones():
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert run.unit_of(metric["name"]) == metric["unit"], metric["name"]


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_reported_metrics_are_the_declared_ones(name):
    w = small(name)
    untraced, _ = run.run_workload(w, 3, 0.3, traced=False)
    traced, _ = run.run_workload(w, 3, 0.3, traced=True)
    assert set(untraced["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for result in (untraced, traced):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    layers = traced["metrics"]
    assert layers["leakage.audit_failures"] == 0
    if w.construction == 1:
        assert layers["crypto.node_decrypt_us"] == 0
        assert layers["crypto.mset_fold_us"] == 0
        assert layers["enclave.root_slot_us"] == 0
    else:
        assert layers["enclave.root_slot_us"] > 0
        assert layers["crypto.mset_fold_us"] > 0


def _drop_tag(search):
    def search_without_tag(*args, **kwargs):
        blobs, _mac, stats = search(*args, **kwargs)
        return blobs, None, stats

    return search_without_tag


def _drop_value(decrypt):
    return lambda key, blobs: decrypt(key, blobs)[1:]


def _raise(_search):
    def fail(*args, **kwargs):
        raise RuntimeError("injected")

    return fail


def _every_other_call(faulty, good):
    calls = []

    def alternate(*args, **kwargs):
        calls.append(None)
        return (faulty if len(calls) % 2 else good)(*args, **kwargs)

    return alternate


@pytest.fixture(scope="module")
def short_deployment():
    w = small("short-stream-integrity")
    data = run.Dataset.generate(w, 1)
    sk = run.secret_key(1, 0)
    return w, data, sk, run.deploy(w, data.pairs, sk, 1)


@pytest.mark.parametrize(
    "module, attr, fault",
    [
        (run.server, "search_streamed", _drop_tag),
        (run.codec, "decrypt_results", _drop_value),
        (run.server, "search_streamed", _raise),
    ],
)
def test_a_failed_query_is_counted_and_the_run_goes_on(monkeypatch, short_deployment, module, attr, fault):
    w, data, sk, dep = short_deployment
    good = getattr(module, attr)
    monkeypatch.setattr(module, attr, _every_other_call(fault(good), good))
    tally = run.Tally()
    traces = []
    stream = run.QueryStream(w, data, random.Random(2))
    phase = run.run_phase(dep, sk, stream, 60, tally, traces=traces, max_queries=6)
    assert (tally.attempted, tally.failed) == (6, 3)
    assert len(phase.latencies_ms) == len(traces) == 3
    assert len(phase.factors) == phase.queries[-1][1] + 1
    assert run.audit_failures(dep, sk, w, traces) == 0


def test_times_are_scaled_by_their_windows_host_speed():
    phase = run.Phase(
        [(0, 0, 2_000_000, True), (1, 1, 4_000_000, True), (2, 1, 1_000_000, False)],
        [1.0, 0.5],
    )
    assert phase.latencies_ms == [2.0, 2.0]
    assert phase.wall_latencies_ms == [2.0, 4.0]
    assert phase.busy_s == pytest.approx(0.0045)
    assert phase.factor_of() == {0: 1.0, 1: 0.5, 2: 0.5}
    ref = run.hostspeed.REFERENCE_MS
    assert run.hostspeed.scale(ref, ref) == 1.0
    assert run.hostspeed.scale(ref, 3 * ref) == 0.5


def test_a_run_where_no_query_passes_reports_nothing(monkeypatch, short_deployment):
    w, data, sk, dep = short_deployment
    monkeypatch.setattr(run.server, "search_streamed", _raise(None))
    with pytest.raises(SystemExit):
        run.run_phase(dep, sk, run.QueryStream(w, data, random.Random(2)), 0, run.Tally())


def test_self_time_excludes_children_and_patches_are_undone():
    class Box:
        def outer(self):
            time.sleep(0.002)
            return self.inner() + 1

        def inner(self):
            time.sleep(0.004)
            return 1

    original = vars(Box)["outer"]
    tracer = Tracer()
    with tracer.patched([(Box, "outer", "outer"), (Box, "inner", "inner")]):
        tracer.query = 0
        assert Box().outer() == 2
    assert vars(Box)["outer"] is original
    q = tracer.per_query()[0]
    assert set(q.total_ns) == {"outer", "inner"}
    assert q.self_ns["outer"] == q.total_ns["outer"] - q.total_ns["inner"]
    assert q.self_ns["inner"] == q.total_ns["inner"] >= 4_000_000
    assert q.under_ns[("inner", "outer")] == q.total_ns["inner"]


def test_log_uniform_sizes_are_stratified_per_block():
    w = small("mixed-resident")
    stream = run.QueryStream(w, run.Dataset.generate(w, 1), random.Random(4))
    for _ in range(3):
        sizes = sorted(stream.next()[2] for _ in range(run.SIZE_BLOCK))
        for band, size in enumerate(sizes):
            low = int((w.result_size + 1) ** (band / run.SIZE_BLOCK))
            high = int((w.result_size + 1) ** ((band + 1) / run.SIZE_BLOCK))
            assert low <= size <= min(high, w.result_size)
