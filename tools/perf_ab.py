#!/usr/bin/env python
"""Interleaved A/B of the scenario benchmark: a base revision vs this tree.

Usage (from the repository root)::

    python tools/perf_ab.py --base HEAD~1 --workload ecmp-chaos --pairs 10

``--base`` (A) is any git revision.  Its committed files are exported
with ``git archive`` into a temporary directory, so nothing is checked
out in this repository and no worktree state is left behind.  The
working tree this script lives in, uncommitted edits included, is B.

For each workload, pair ``i`` runs ``perfbench/run.py --seed <seed+i>``
for the ``run_seconds`` that ``BENCHMARK.json`` sets on both sides back
to back, alternating which side goes first (A B,
B A, A B, ...), so slow drift of the host hits both sides alike.  Each
run's last output line is its JSON result; a run that fails its checks
aborts the comparison.

Per metric the report gives both medians, the base's interquartile
range, how many pairs B won (by the metric's ``better`` direction in
``BENCHMARK.json``), the median of the per-pair ratios B/A with a
seeded bootstrap 95% confidence interval, and a verdict:

* ``gain`` -- B won at least 9 pairs in 10 and the medians differ, in
  B's favour, by more than A's interquartile range;
* ``worse`` -- B's median is worse than A's by more than the metric's
  ``bound`` in ``BENCHMARK.json``, a fraction of A's median (only
  metrics that declare a bound, the end-to-end ones, can get it);
* ``noise`` -- anything else.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Bootstrap resamples per confidence interval.
RESAMPLES = 2000

#: Share of pairs B must win for a ``gain`` verdict.
GAIN_WIN_SHARE = 0.9


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile (inclusive method; needs two values)."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def pair_ratios(base: Sequence[float], head: Sequence[float]) -> List[float]:
    """``head[i] / base[i]`` per pair (pairs with a zero base are skipped)."""
    if len(base) != len(head):
        raise ValueError("A and B need the same number of samples")
    return [b / a for a, b in zip(base, head) if a != 0]


def wins(base: Sequence[float], head: Sequence[float], better: str) -> int:
    """Pairs in which B is strictly better than A."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if better == "lower":
        return sum(1 for a, b in zip(base, head) if b < a)
    return sum(1 for a, b in zip(base, head) if b > a)


def bootstrap_ratio_ci(
    base: Sequence[float],
    head: Sequence[float],
    seed: int = 0,
    resamples: int = RESAMPLES,
    level: float = 0.95,
) -> Tuple[float, float]:
    """Percentile bootstrap CI of the median per-pair ratio B/A.

    Pairs are resampled whole (with replacement), so the interval keeps
    the pairing that interleaving bought.  The same ``seed`` always
    gives the same interval.
    """
    ratios = pair_ratios(base, head)
    if not ratios:
        raise ValueError("no pairs with a non-zero base value")
    rng = random.Random(seed)
    count = len(ratios)
    medians = sorted(
        statistics.median(rng.choices(ratios, k=count)) for _ in range(resamples)
    )
    tail = (1.0 - level) / 2.0
    low = medians[int(tail * resamples)]
    high = medians[min(resamples - 1, int((1.0 - tail) * resamples))]
    return low, high


def verdict(summary: Dict[str, Any], bound: Optional[float] = None) -> str:
    """``gain``, ``worse`` or ``noise`` for one :func:`summarize` row.

    ``bound`` is the metric's relative bound from ``BENCHMARK.json``
    (``0.2`` = B's median may be up to 20% of A's median worse); without
    one the verdict is never ``worse``.
    """
    median_a = summary["median_a"]
    # Positive when B's median is better than A's.
    advantage = summary["median_b"] - median_a
    if summary["better"] == "lower":
        advantage = -advantage
    if (
        "iqr_a" in summary
        and summary["wins_b"] >= GAIN_WIN_SHARE * summary["pairs"]
        and advantage > summary["iqr_a"]
    ):
        return "gain"
    if bound is not None and -advantage > bound * abs(median_a):
        return "worse"
    return "noise"


def summarize(
    base: Sequence[float],
    head: Sequence[float],
    better: str,
    seed: int = 0,
    bound: Optional[float] = None,
) -> Dict[str, Any]:
    """Medians, base IQR, wins, the ratio with its bootstrap CI, a verdict."""
    summary: Dict[str, Any] = {
        "pairs": len(base),
        "median_a": statistics.median(base),
        "median_b": statistics.median(head),
        "wins_b": wins(base, head, better),
        "better": better,
    }
    if len(base) >= 2:
        summary["quartiles_a"] = quartiles(base)
        summary["quartiles_b"] = quartiles(head)
        q1, q3 = summary["quartiles_a"]
        summary["iqr_a"] = q3 - q1
    ratios = pair_ratios(base, head)
    if ratios:
        summary["ratio"] = statistics.median(ratios)
        summary["ratio_ci95"] = bootstrap_ratio_ci(base, head, seed)
    summary["verdict"] = verdict(summary, bound)
    return summary


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------


def export_revision(revision: str, target: Path) -> None:
    """Write the committed files of ``revision`` under ``target``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", revision],
        cwd=REPO_ROOT, capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target, filter="data")


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int) -> Dict[str, float]:
    """One ``perfbench/run.py`` invocation; returns metric values."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} failed in {checkout} "
            f"(exit {done.returncode}):\n{done.stderr.strip()}"
        )
    result = json.loads(lines[-1])
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def declared_metrics(spec: Dict[str, Any], trace: int) -> List[Dict[str, Any]]:
    """The ``BENCHMARK.json`` metric entries a run of this kind reports."""
    return spec["per_layer"] if trace else spec["end_to_end"]


def compare(spec: Dict[str, Any], base_dir: Path, workload: str, pairs: int,
            seed: int, trace: int) -> Dict[str, Dict[str, Any]]:
    """Run the ABAB sequence for one workload; returns per-metric summaries."""
    seconds = spec["run_seconds"]
    samples_a: List[Dict[str, float]] = []
    samples_b: List[Dict[str, float]] = []
    for index in range(pairs):
        sides = [(base_dir, samples_a), (REPO_ROOT, samples_b)]
        for checkout, samples in sides if index % 2 == 0 else sides[::-1]:
            samples.append(run_once(checkout, workload, seed + index, seconds, trace))
        print(f"  {workload}: pair {index + 1}/{pairs} done", file=sys.stderr)
    summaries = {}
    for metric in declared_metrics(spec, trace):
        name = metric["name"]
        if name not in samples_a[0]:
            continue
        a = [sample[name] for sample in samples_a]
        b = [sample[name] for sample in samples_b]
        summaries[name] = summarize(
            a, b, metric["better"], seed, metric.get("bound"))
    return summaries


def render(workload: str, summaries: Dict[str, Dict[str, Any]]) -> str:
    lines = [
        f"== {workload}",
        f"{'metric':34s} {'median A':>11s} {'median B':>11s} {'IQR A':>9s} "
        f"{'B wins':>7s} {'B/A':>7s}  {'95% CI':16s} verdict",
    ]
    for name, row in summaries.items():
        ci = row.get("ratio_ci95")
        ci_text = f"[{ci[0]:.3f}, {ci[1]:.3f}]" if ci else "-"
        ratio = f"{row['ratio']:.3f}" if "ratio" in row else "-"
        iqr = f"{row['iqr_a']:.4g}" if "iqr_a" in row else "-"
        lines.append(
            f"{name:34s} {row['median_a']:11.5g} {row['median_b']:11.5g} "
            f"{iqr:>9s} {row['wins_b']:>3d}/{row['pairs']:<3d} {ratio:>7s}  "
            f"{ci_text:16s} {row['verdict']}"
        )
    return "\n".join(lines)


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [entry["name"] for entry in spec["workloads"]]
    with tempfile.TemporaryDirectory(prefix="perf-ab-") as scratch:
        base_dir = Path(scratch) / "base"
        export_revision(args.base, base_dir)
        for workload in workloads:
            summaries = compare(spec, base_dir, workload, args.pairs,
                                args.seed, args.trace)
            print(render(workload, summaries), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
