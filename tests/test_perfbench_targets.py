"""The traced benchmark wraps program functions by name; every name it wraps
must still exist, or ``perfbench/run.py --trace 1`` stops with a KeyError."""

import importlib.util
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
