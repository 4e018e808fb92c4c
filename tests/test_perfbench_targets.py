"""The traced benchmark wraps program functions by name; every name it wraps
must still exist, or ``perfbench/run.py --trace 1`` stops with a KeyError."""

import importlib.util
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    run = _load_run()
    targets = run.span_targets()
    assert targets
    for owner, attr, _name in targets:
        assert attr in vars(owner), f"{owner.__name__}.{attr} is gone"
    # The tracer can wrap every target and puts each original back.
    originals = [vars(owner)[attr] for owner, attr, _ in targets]
    with run.Tracer().patched(targets):
        pass
    assert [vars(owner)[attr] for owner, attr, _ in targets] == originals


def test_streamed_integrity_query_records_every_layer():
    # A refactor that inlines a wrapped call, or calls it under another name,
    # would silently zero that layer in the traced benchmark.
    run = _load_run()
    from hsbt.deploy import Deployment

    rng = random.Random(3)
    pairs = run.bench.make_dataset(3000, rng)
    dep = Deployment.build(pairs, 10, integrity=True, rng=rng)
    keys = sorted(k for k, _ in pairs)
    workload = run.WORKLOADS["long-stream-integrity"]
    assert workload.construction == 2 and workload.integrity

    tracer = run.Tracer()
    tracer.query = 0
    with tracer.patched(run.span_targets()):
        values, verified, _ = run.serve(dep, dep.sk, workload, keys[100], keys[1100])
    assert verified and len(values) == 1001
    recorded = {span[0] for span in tracer.spans if span is not None}
    resident_only = {"server.search_resident", "enclave.search_resident"}
    expected = {name for _, _, name in run.span_targets()} - resident_only
    assert expected <= recorded, f"layers with no span: {sorted(expected - recorded)}"
