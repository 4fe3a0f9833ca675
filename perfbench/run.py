"""Scenario benchmark: end-to-end and per-layer metrics of one workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-poisson --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats the workload, config to rendered table, until
``--seconds`` have passed (at least three times) and reports the
end-to-end metrics; ``--trace 1`` alternates untraced runs with runs
traced by :mod:`tracer` and reports the per-layer metrics.  Every run's
outputs are checked (:mod:`checks`); a failed check exits with status 1
and prints no result.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The result,
with the machine context, is also written under ``.perfbench-out/``,
together with the last traced run's spans.

The benchmark measures the configuration users run: it clears
``REPRO_PACKET_POOLING``, ``REPRO_COMPILED`` and the ``REPRO_TELEMETRY*``
variables before importing the package, and turns telemetry on only for
the workload that streams it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
PINNED_ENV = (
    "REPRO_PACKET_POOLING",
    "REPRO_COMPILED",
    "REPRO_TELEMETRY",
    "REPRO_TELEMETRY_INTERVAL",
    "REPRO_TELEMETRY_CAPACITY",
)
MIN_RUNS = 3
SETUP_SAMPLES = 5

#: For each per-layer metric: the end-to-end metric and workload it is
#: expected to move.
MOVES: Dict[str, str] = {
    "experiments.trace_s": "setup_s on all workloads",
    "experiments.build_s": "setup_s on all workloads",
    "experiments.replay_s": "wall_s on all workloads",
    "experiments.aggregate_s": "wall_s on all workloads",
    "experiments.render_s": "wall_s on all workloads",
    "sim.engine.events": "wall_s on all workloads",
    "sim.engine.events_per_s": "wall_s on all workloads",
    "sim.engine.self_s": "wall_s on all workloads",
    "sim.partition.busy_s": "wall_s and peak_rss_mb on scale-pods; zero elsewhere",
    "sim.partition.cores_used": "wall_s on scale-pods; zero elsewhere",
    "sim.partition.merge_s": "wall_s on scale-pods; zero elsewhere",
    "net.fabric.sends": "wall_s on all workloads",
    "net.fabric.self_s": "wall_s on all workloads",
    "net.fabric.drops": "completed_frac on ecmp-chaos",
    "net.ecmp.packets": "wall_s on ecmp-chaos; zero on paper-poisson and scale-pods",
    "net.ecmp.self_s": "wall_s on ecmp-chaos; zero on paper-poisson and scale-pods",
    "net.faults.self_s": "wall_s on ecmp-chaos; zero elsewhere",
    "net.faults.drops": "completed_frac and sim_p95_rt_ms on ecmp-chaos",
    "net.faults.delays": "sim_mean_rt_ms on ecmp-chaos",
    "core.loadbalancer.packets": "wall_s on all workloads",
    "core.loadbalancer.self_s": "wall_s on all workloads",
    "core.loadbalancer.first_accept_ratio": "sim_mean_rt_ms on all workloads",
    "core.loadbalancer.steering_misses": "sim_mean_rt_ms and completed_frac on ecmp-chaos",
    "server.virtual_router.self_s": "wall_s on all workloads",
    "server.virtual_router.calls": "wall_s on all workloads",
    "server.http_server.self_s": "wall_s on all workloads",
    "server.http_server.calls": "wall_s on all workloads",
    "server.http_server.requests": "completed_frac on all workloads",
    "server.http_server.resets": "completed_frac on all workloads",
    "server.cpu.self_s": "wall_s on all workloads",
    "server.cpu.calls": "wall_s on all workloads",
    "workload.client.self_s": "wall_s on all workloads",
    "workload.client.packets": "wall_s on all workloads",
    "workload.client.syn_retransmits": "sim_p95_rt_ms and completed_frac on ecmp-chaos",
    "workload.client.retries": "sim_p95_rt_ms and completed_frac on ecmp-chaos",
    "telemetry.samples": "wall_s on ecmp-chaos; zero elsewhere",
    "telemetry.self_s": "wall_s on ecmp-chaos; zero elsewhere",
    "trace_overhead_frac": "none: the cost of tracing itself",
}


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: metric names, units and workloads."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv: Optional[Sequence[str]], workloads: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def machine_context(code: str) -> Dict[str, Any]:
    """What ran where: CPUs, interpreter, platform and revision."""
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        revision = "unknown (not a git checkout)"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_revision": revision,
        "source_sha256": code,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


@contextmanager
def timed_global(module: Any, name: str, durations: List[float]) -> Iterator[None]:
    """Time every call of ``module.name`` (a module-level function)."""
    original = getattr(module, name)

    def timed(*args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            durations.append(time.perf_counter() - start)

    setattr(module, name, timed)
    try:
        yield
    finally:
        setattr(module, name, original)


def simulated_metrics(cells: Sequence[Any]) -> Dict[str, float]:
    """The model's outputs: completion share and the median cell's response times.

    Response times are each cell's mean and p95, then the median across
    cells.  A statistic pooled over cells follows the most volatile one:
    over ten seeds the pooled paper-poisson p99 moved by 11-19%
    (interquartile range over median), driven by RR at rho=0.88, and a
    per-cell p99 jumps by half a second whenever about 1% of a chaos
    cell's queries retry.  The median cell's mean and p95 moved by at
    most 5% on every workload.
    """
    import numpy as np

    times = [cell.response_times * 1e3 for cell in cells if cell.response_times.size]
    return {
        "completed_frac": sum(c.completed for c in cells) / sum(c.attempted for c in cells),
        "sim_mean_rt_ms": float(np.median([np.mean(t) for t in times])),
        "sim_p95_rt_ms": float(np.median([np.percentile(t, 95) for t in times])),
    }


class Bench:
    """One invocation: a workload at a seed, its runs and their checks."""

    def __init__(self, workload: Any, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.signatures: List[Dict[str, Any]] = []
        self.cells: List[Any] = []
        #: Every timed sample, by metric (written to the result file).
        self.samples: Dict[str, List[float]] = {}

    def run_once(self, **overrides: Any) -> Tuple[float, Any]:
        """Config to rendered table, timed and checked; returns (wall, result)."""
        import checks
        import workloads

        workloads.clear_process_caches()
        gc.collect()
        start = time.perf_counter()
        config = self.workload.make_config(self.seed)
        result, text = self.workload.run(config, **overrides)
        wall = time.perf_counter() - start
        if not text.strip():
            raise checks.CheckFailure("the rendered table is empty")
        cells = self.workload.outcomes(config, result)
        checks.check_accounting(cells)
        self.signatures.append(checks.signature(cells))
        checks.check_identical("per-cell counts and fingerprints", self.signatures)
        self.attempted += sum(cell.attempted for cell in cells)
        self.failed += sum(cell.failed for cell in cells)
        self.cells = cells
        return wall, result

    def measure_setup(self) -> float:
        """Import, registry lookup, traces and platform builds, in seconds.

        The import is timed in a fresh interpreter, as a CLI user pays it;
        the rest in this process, with per-process memos cleared.
        """
        import workloads

        env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
        env["PYTHONPATH"] = str(SRC)
        snippet = (
            "import repro.cli\n"
            "from repro.experiments import registry\n"
            f"registry.get({self.workload.scenario!r})\n"
        )
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", snippet], env=env, check=True, timeout=120)
        imported = time.perf_counter() - start
        workloads.clear_process_caches()
        gc.collect()
        start = time.perf_counter()
        self.workload.setup(self.workload.make_config(self.seed), self.workload.options)
        return imported + time.perf_counter() - start

    # -- the two modes ----------------------------------------------------
    def end_to_end(self, seconds: float) -> Dict[str, float]:
        walls: List[float] = []
        start = time.perf_counter()
        while len(walls) < MIN_RUNS or time.perf_counter() - start < seconds:
            wall, result = self.run_once()
            del result
            walls.append(wall)
        rss = peak_rss_mb()
        setups = [self.measure_setup() for _ in range(SETUP_SAMPLES)]
        self.samples = {"wall_s": walls, "setup_s": setups}
        return {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
            **simulated_metrics(self.cells),
        }

    def per_layer(self, seconds: float) -> Tuple[Dict[str, float], Any]:
        import checks
        import tracer
        from repro.sim import partition

        # A workload that fans out over partitions is traced in-process.
        in_process = {"partitions": 1} if "partitions" in dict(self.workload.options) else {}
        user_walls: List[float] = []
        untraced: List[float] = []
        traced: List[float] = []
        layers: List[Dict[str, float]] = []
        busy: List[float] = []
        cores: List[float] = []
        merge: List[float] = []
        recorder = None
        start = time.perf_counter()
        while not layers or time.perf_counter() - start < seconds:
            if in_process:
                merges: List[float] = []
                with timed_global(partition, "merge_frames", merges):
                    wall, result = self.run_once()
                run = result.run
                busy.append(run.busy_seconds)
                cores.append(run.busy_seconds / run.wall_seconds)
                merge.append(sum(merges))
                user_walls.append(wall)
                del result, run
                # Compare the traced run with an untraced in-process run.
                wall, _ = self.run_once(**in_process)
            else:
                wall, _ = self.run_once()
                user_walls.append(wall)
            untraced.append(wall)
            recorder = tracer.SpanRecorder()
            with recorder.installed():
                wall, _ = self.run_once(**in_process)
            traced.append(wall)
            layers.append(tracer.layer_metrics(recorder))
        exact = [
            {k: v for k, v in m.items() if isinstance(v, int)} for m in layers
        ]
        checks.check_identical("traced-run counts", exact)
        metrics = {
            name: value if isinstance(value, int)
            else statistics.median(m[name] for m in layers)
            for name, value in layers[0].items()
        }
        metrics["sim.engine.events_per_s"] = (
            metrics["sim.engine.events"] / statistics.median(user_walls))
        metrics["sim.partition.busy_s"] = statistics.median(busy) if busy else 0.0
        metrics["sim.partition.cores_used"] = statistics.median(cores) if cores else 0.0
        metrics["sim.partition.merge_s"] = statistics.median(merge) if merge else 0.0
        metrics["trace_overhead_frac"] = (
            statistics.median(traced) / statistics.median(untraced) - 1.0)
        self.samples = {"untraced_wall_s": untraced, "traced_wall_s": traced}
        return metrics, recorder


def main(argv: Optional[Sequence[str]] = None) -> int:
    if not (SRC / "repro").is_dir():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))
    import checks
    import workloads

    spec = load_spec()
    args = parse_args(argv, sorted(workloads.WORKLOADS))
    workload = workloads.WORKLOADS[args.workload]
    code = checks.source_digest([SRC, Path(__file__).resolve().parent])

    from repro.telemetry import runtime as telemetry_runtime

    if workload.telemetry:
        telemetry_runtime.enable()
    bench = Bench(workload, args.seed)
    recorder = None
    try:
        if args.trace:
            values, recorder = bench.per_layer(args.seconds)
            declared = spec["per_layer"]
        else:
            values = bench.end_to_end(args.seconds)
            declared = spec["end_to_end"]
        entry: Dict[str, Any] = {"cells": bench.signatures[0]}
        if args.trace:
            entry["layer_counts"] = {
                k: v for k, v in values.items() if isinstance(v, int)}
        checks.check_against_record(
            OUT / "record.json", code, workload.name, args.seed, entry)
    except checks.CheckFailure as failure:
        print(f"check failed: {failure}", file=sys.stderr)
        return 1
    finally:
        telemetry_runtime.disable()

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
    }
    # Read after the measurement: ``git`` is a child process, and children
    # count towards peak_rss_mb.
    context = machine_context(code)
    print("context " + json.dumps(context, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": True,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"context": context, "seconds": args.seconds, "samples": bench.samples, **result},
        indent=2))
    if recorder is not None:
        recorder.save(str(OUT / f"{workload.name}-spans.npz"))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
