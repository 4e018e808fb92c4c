"""The paired A/B tool's report logic, on canned harness outputs."""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_ab():
    spec = importlib.util.spec_from_file_location("hsbt_ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


ab = _load_ab()
METRICS = ab.end_to_end(json.loads((ROOT / "BENCHMARK.json").read_text()))


def _stdout(p50, wall, *, p90=None, qps=400.0, setup=0.08, rss=88.0, failed=0):
    """What `perfbench/run.py --trace 0` prints: stderr aside, a provenance
    line and the JSON result last."""
    provenance = {"workload": "long-stream-integrity", "seed": 1, "wall_query_p50_ms": wall}
    metrics = {
        "query_p50_ms": p50,
        "query_p90_ms": p90 if p90 is not None else p50 * 1.1,
        "throughput_qps": qps,
        "setup_s": setup,
        "bytes_per_user_byte": 2.187,
        "peak_rss_mb": rss,
    }
    result = {
        "correct": True,
        "attempted": 1000,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "-"} for name, value in metrics.items()},
    }
    return f"perfbench: warming up\nprovenance {json.dumps(provenance)}\n{json.dumps(result)}\n"


def _rows(base, change):
    base = [ab.parse_run(_stdout(**kw)) for kw in base]
    change = [ab.parse_run(_stdout(**kw)) for kw in change]
    return {row.metric.name: row for row in ab.compare(METRICS, base, change)}, base, change


def test_parse_run_reads_the_metrics_the_provenance_and_the_counts():
    run = ab.parse_run(_stdout(2.3, 1.5, failed=2))
    assert run.metrics["query_p50_ms"] == 2.3 and run.provenance["wall_query_p50_ms"] == 1.5
    assert (run.attempted, run.failed) == (1000, 2)
    assert set(run.metrics) == {m.name for m in METRICS}


def test_a_gain_in_nine_pairs_of_ten_beyond_the_iqr_reads_better():
    base = [dict(p50=2.30 + i / 1000, wall=1.50 + i / 1000) for i in range(10)]
    change = [dict(p50=2.10 + i / 1000, wall=1.40 + i / 1000) for i in range(10)]
    change[3] = dict(p50=2.40, wall=1.60)  # one pair lost
    rows, base_runs, change_runs = _rows(base, change)
    p50 = rows["query_p50_ms"]
    assert p50.pairs_better == 9 and p50.verdict == "better"
    assert round(p50.base_iqr, 6) == 0.0045
    assert rows["wall_query_p50_ms"].verdict == "better"
    assert rows["bytes_per_user_byte"].verdict == "same"
    assert not ab.disagreement(list(rows.values()))
    text = ab.report(list(rows.values()), base_runs, change_runs)
    assert "9/10" in text and "!" not in text
    assert "base: 0 of 10000 queries failed" in text


def test_eight_pairs_or_a_gain_inside_the_iqr_is_not_better():
    base = [dict(p50=2.0, wall=1.5) for _ in range(10)]
    change = [dict(p50=1.9, wall=1.4) for _ in range(8)] + [dict(p50=2.1, wall=1.6)] * 2
    rows, _, _ = _rows(base, change)
    assert rows["query_p50_ms"].pairs_better == 8 and rows["query_p50_ms"].verdict == "same"
    spread = [dict(p50=2.0 + (i % 2) * 0.4, wall=1.5) for i in range(10)]
    rows, _, _ = _rows(spread, [dict(p50=2.05 + (i % 2) * 0.4 - 0.1, wall=1.5) for i in range(10)])
    assert rows["query_p50_ms"].pairs_better == 10 and rows["query_p50_ms"].verdict == "same"


def test_a_metric_worse_than_its_bound_reads_worse_in_its_own_direction():
    base = [dict(p50=1.0, wall=1.0, qps=400.0, rss=88.0) for _ in range(4)]
    change = [dict(p50=1.2, wall=1.2, qps=290.0, rss=98.0) for _ in range(4)]
    rows, _, _ = _rows(base, change)
    # p50 +20 % is inside its 25 % bound, throughput -27.5 % and RSS +11 % are not.
    assert rows["query_p50_ms"].verdict == "same"
    assert rows["throughput_qps"].verdict == "WORSE"
    assert rows["peak_rss_mb"].verdict == "WORSE"
    # A higher throughput is better, never worse.
    rows, _, _ = _rows(change, base)
    assert rows["throughput_qps"].verdict == "better"


def test_a_base_spread_wider_than_the_bound_reads_unresolved():
    # The base's wall p50 spreads 0.34 to 0.48 ms: IQR 0.14 on a median of
    # 0.41, 34 % against query_p50_ms's 25 % bound.
    walls = [0.34, 0.48, 0.41, 0.34, 0.48, 0.41, 0.34, 0.48, 0.41, 0.41]
    base = [dict(p50=0.46, wall=w) for w in walls]
    change = [dict(p50=0.46, wall=w - 0.01) for w in walls]
    rows, base_runs, change_runs = _rows(base, change)
    wall = rows["wall_query_p50_ms"]
    assert wall.base_iqr / 0.41 > 0.25 and wall.verdict == "unresolved"
    assert rows["query_p50_ms"].verdict == "same"
    text = ab.report(list(rows.values()), base_runs, change_runs).splitlines()
    assert [line.split()[0] for line in text if line.endswith(" !")] == [
        "query_p50_ms",
        "wall_query_p50_ms",
    ]
    # A change worse than the bound is unresolved too when the base spreads so.
    rows, _, _ = _rows(base, [dict(p50=0.46, wall=w * 1.3) for w in walls])
    assert rows["wall_query_p50_ms"].verdict == "unresolved"
    # Unless every change run beats every base run: then the usual rules judge.
    rows, _, _ = _rows(base, [dict(p50=0.46, wall=0.30) for _ in walls])
    assert rows["wall_query_p50_ms"].dominates
    assert rows["wall_query_p50_ms"].verdict == "better"


def test_a_wall_verdict_that_differs_from_the_scaled_one_is_marked():
    base = [dict(p50=2.0, wall=1.50) for _ in range(10)]
    change = [dict(p50=2.1, wall=1.30) for _ in range(10)]
    rows, base_runs, change_runs = _rows(base, change)
    assert rows["query_p50_ms"].verdict == "same" and rows["wall_query_p50_ms"].verdict == "better"
    assert ab.disagreement(list(rows.values()))
    text = ab.report(list(rows.values()), base_runs, change_runs).splitlines()
    marked = [line.split()[0] for line in text if line.endswith(" !")]
    assert marked == ["query_p50_ms", "wall_query_p50_ms"]


def test_pairs_alternate_which_side_runs_first():
    order = []

    def run_side(side):
        order.append(side)
        return ab.parse_run(_stdout(1.0, 1.0))

    base, change = ab.run_pairs(3, run_side)
    assert order == ["base", "change", "change", "base", "base", "change"]
    assert len(base) == len(change) == 3
