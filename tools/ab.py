"""Paired A/B of the benchmark: a base revision against the working tree.

Run from the repository root:

    python tools/ab.py --base HEAD --pairs 10 --workload long-stream-integrity --seed 1

The base side is ``git archive <rev> src perfbench BENCHMARK.json``,
unpacked into a temporary directory; `perfbench/run.py` takes its program
from its own checkout, so each side runs its own copy of both.  The change
side is this working tree.  Each pair runs both sides once, untraced, each
in its own process, and alternates which side runs first.

For every end-to-end metric of BENCHMARK.json the report gives both medians
and quartiles over the pairs, the pairs in which the change read better,
the base's interquartile range and a verdict:

* ``unresolved``: the base's IQR, as a share of its median, exceeds the
  metric's bound, so its runs spread too widely to tell a change within
  the bound from noise, and not every change run reads better than every
  base run;
* ``better``: the change read better in at least 9 pairs of 10 and its
  median beats the base's by more than the base's IQR;
* ``WORSE``: the change's median is worse than the base's by more than
  the metric's bound;
* ``same``: anything else.

The same goes for ``wall_query_p50_ms``, the unscaled median from the
provenance line, judged against the bound of ``query_p50_ms``; a ``!``
marks the pair of rows when its verdict and that of the scaled
``query_p50_ms`` disagree.  The failed share of queries is reported per
side.  Each run takes the harness's own run length.  Exit status: 0, or
1 if any verdict is ``WORSE`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WALL = "wall_query_p50_ms"
# The scaled metric whose bound and verdict the wall figure shares.
WALL_OF = "query_p50_ms"
# Share of pairs the change must read better in for a ``better`` verdict.
BETTER_SHARE = 0.9


@dataclass(frozen=True)
class Metric:
    name: str
    better: str  # "lower" or "higher"
    bound: float


@dataclass
class Run:
    """One harness run: its end-to-end metrics, its provenance line's wall
    figures and its query counts."""

    metrics: dict
    provenance: dict
    attempted: int
    failed: int


def parse_run(stdout: str) -> Run:
    """A `perfbench/run.py --trace 0` run from its standard output: the
    ``provenance {...}`` line and the JSON result on the last line."""
    lines = stdout.strip().splitlines()
    provenance = next(
        json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("provenance ")
    )
    result = json.loads(lines[-1])
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    return Run(metrics, provenance, result["attempted"], result["failed"])


def end_to_end(benchmark: dict) -> list[Metric]:
    """BENCHMARK.json's end-to-end metrics."""
    return [Metric(m["name"], m["better"], m["bound"]) for m in benchmark["end_to_end"]]


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


@dataclass
class Row:
    metric: Metric
    base: list[float]
    change: list[float]

    @property
    def sign(self) -> int:
        """+1 when higher is better, -1 when lower is."""
        return 1 if self.metric.better == "higher" else -1

    @property
    def pairs_better(self) -> int:
        return sum(self.sign * (c - b) > 0 for b, c in zip(self.base, self.change))

    @property
    def base_iqr(self) -> float:
        q1, q3 = quartiles(self.base)
        return q3 - q1

    @property
    def relative(self) -> float:
        """The change's median against the base's, as a signed fraction."""
        base = statistics.median(self.base)
        return (statistics.median(self.change) - base) / base if base else 0.0

    @property
    def dominates(self) -> bool:
        """Whether every change run reads better than every base run."""
        return all(self.sign * (c - b) > 0 for b in self.base for c in self.change)

    @property
    def verdict(self) -> str:
        base = statistics.median(self.base)
        spread = self.base_iqr / abs(base) if base else 0.0
        if spread > self.metric.bound and not self.dominates:
            return "unresolved"
        gain = self.sign * (statistics.median(self.change) - statistics.median(self.base))
        if self.pairs_better >= BETTER_SHARE * len(self.base) and gain > self.base_iqr:
            return "better"
        if -self.sign * self.relative > self.metric.bound:
            return "WORSE"
        return "same"


def compare(metrics: list[Metric], base: list[Run], change: list[Run]) -> list[Row]:
    """One row per end-to-end metric, then the wall figure's row."""
    rows = [
        Row(m, [r.metrics[m.name] for r in base], [r.metrics[m.name] for r in change])
        for m in metrics
    ]
    scaled = next(m for m in metrics if m.name == WALL_OF)
    wall = Metric(WALL, scaled.better, scaled.bound)
    rows.append(Row(wall, [r.provenance[WALL] for r in base], [r.provenance[WALL] for r in change]))
    return rows


def disagreement(rows: list[Row]) -> bool:
    """Whether the wall figure's verdict differs from its scaled metric's."""
    verdict = {row.metric.name: row.verdict for row in rows}
    return verdict[WALL] != verdict[WALL_OF]


def report(rows: list[Row], base: list[Run], change: list[Run]) -> str:
    """The comparison as text, one line per metric."""
    flag = disagreement(rows)
    out = [
        f"{'metric':22} {'base median [q1, q3]':>30} {'change median [q1, q3]':>30}"
        f" {'delta':>8} {'better':>7} {'base IQR':>10}  verdict"
    ]
    for row in rows:
        cells = []
        for values in (row.base, row.change):
            q1, q3 = quartiles(values)
            cells.append(f"{statistics.median(values):.5g} [{q1:.5g}, {q3:.5g}]")
        mark = " !" if flag and row.metric.name in (WALL, WALL_OF) else ""
        out.append(
            f"{row.metric.name:22} {cells[0]:>30} {cells[1]:>30} {row.relative:>+8.1%}"
            f" {row.pairs_better:>3}/{len(row.base):<3} {row.base_iqr:>10.3g}  {row.verdict}{mark}"
        )
    if flag:
        out.append(f"! the wall and scaled verdicts of {WALL_OF} disagree")
    for side, runs in (("base", base), ("change", change)):
        attempted = sum(r.attempted for r in runs)
        failed = sum(r.failed for r in runs)
        out.append(f"{side}: {failed} of {attempted} queries failed")
    return "\n".join(out)


def unpack(rev: str, dest: Path) -> Path:
    """``git archive <rev> src perfbench BENCHMARK.json`` unpacked in `dest`."""
    archive = subprocess.run(
        ["git", "archive", rev, "src", "perfbench", "BENCHMARK.json"],
        cwd=ROOT,
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def run_pairs(pairs: int, run_side) -> tuple[list[Run], list[Run]]:
    """`pairs` pairs of ``run_side("base")`` and ``run_side("change")``; the
    base runs first in even pairs, the change in odd ones."""
    runs: dict[str, list[Run]] = {"base": [], "change": []}
    for i in range(pairs):
        for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
            runs[side].append(run_side(side))
    return runs["base"], runs["change"]


def harness(root: Path, workload: str, seed: int) -> Run:
    """One untraced run of the harness in the checkout at `root`, at the
    harness's own run length."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=root,
        check=True,
        capture_output=True,
        text=True,
    )
    return parse_run(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    metrics = end_to_end(json.loads((ROOT / "BENCHMARK.json").read_text()))
    with tempfile.TemporaryDirectory(prefix="hsbt-ab-") as tmp:
        roots = {"base": unpack(args.base, Path(tmp)), "change": ROOT}

        def run_side(side: str) -> Run:
            run = harness(roots[side], args.workload, args.seed)
            print(f"{side}: {WALL_OF} {run.metrics[WALL_OF]:.4f}", file=sys.stderr, flush=True)
            return run

        base, change = run_pairs(args.pairs, run_side)
    rows = compare(metrics, base, change)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs, base {args.base}")
    print(report(rows, base, change))
    return 1 if any(row.verdict in ("WORSE", "unresolved") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
