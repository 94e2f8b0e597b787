"""Repository benchmark: one seeded workload per invocation.

Usage, from the repository root::

    python3 perfbench/run.py --workload stream-lanes --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json;
``--trace 1`` runs the workload untraced for half the seconds, then with
the layer wrappers of :mod:`tracer` installed for the other half, and
prints the per-layer metrics plus the tracing overhead.  The untraced
seconds are split into ``SETUPS`` slices, each after a fresh set-up, so
the set-ups meet the same host speed phases as the timed calls.  The
last stdout line is the result object ``{"correct", "attempted",
"failed", "metrics"}``; the line before it is the run record (seed,
``nproc``, input size, sample counts, error rate, reference check).

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench-work"
OUTDIR = ROOT / ".perfbench-out"

#: Set-ups per run, one before each equal slice of the untraced
#: seconds; ``setup_s`` is their median.
SETUPS = 5


def load_spec() -> dict:
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as handle:
        return json.load(handle)


def peak_rss_mb() -> float:
    """Process-lifetime peak resident set size, MiB (Linux ru_maxrss)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class GcPauses:
    """Collections and pause times via ``gc.callbacks`` (traced run only)."""

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.max_s = 0.0
        self._t0 = 0.0

    def __call__(self, phase, info) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            pause = time.perf_counter() - self._t0
            self.count += 1
            self.total_s += pause
            self.max_s = max(self.max_s, pause)


def measure(workload, seed: int, seconds: float, setups=None, traced=False) -> tuple:
    """Repeat the workload's timed call for ``seconds``; returns the calls
    and their pooled caller-side latencies.

    With a ``setups`` list, the seconds are split into ``SETUPS`` equal
    slices and each slice starts with a fresh set-up, whose timings are
    appended to the list.  Without one, the inputs of the last set-up are
    reused.  Every slice makes at least one call."""
    from workloads import LatencyHistogram

    iterations = []
    latencies = LatencyHistogram()
    slices = SETUPS if setups is not None else 1
    measured = 0.0
    for done in range(slices):
        if setups is not None:
            gc.collect()
            setups.append(workload.setup(seed))
        start = time.perf_counter()
        deadline = start + (seconds - measured) / (slices - done)
        first = True
        while first or time.perf_counter() < deadline:
            gc.collect()
            iterations.append(workload.iterate(latencies, traced=traced))
            first = False
        measured += time.perf_counter() - start
    return iterations, latencies


def throughput(iterations) -> float:
    """Work units over the wall time of every timed call in the run."""
    return sum(it.units for it in iterations) / sum(it.wall_s for it in iterations)


def nine_in_ten(values, higher_is_better: bool) -> float:
    """The level nine timed calls in ten reach (nearest rank): the 10th
    percentile of a rate, the 90th of a latency.

    The host's CPU speed swings up to 2x in phases of seconds to minutes.
    Every run catches some slow phase, but fast bursts come and go, so
    this level repeats from run to run where a median or mean follows
    the share of fast bursts."""
    ordered = sorted(values, reverse=not higher_is_better)
    return ordered[int(0.1 * len(ordered))]


def call_rate(iterations) -> float:
    """Work units per second that nine timed calls in ten reach."""
    return nine_in_ten((it.units / it.wall_s for it in iterations), True)


def end_to_end(iterations, setups) -> dict:
    return {
        "throughput": call_rate(iterations),
        "latency_p50_ms": nine_in_ten((it.latency_s for it in iterations), False) * 1e3,
        "setup_s": statistics.median(sum(s.values()) for s in setups),
        "peak_rss_mb": peak_rss_mb(),
    }


def traced_metrics(workload, seconds: float, setups, untraced, names) -> tuple:
    """Per-layer metrics from a traced pass, plus its iterations.

    Every name in ``names`` (BENCHMARK.json's per-layer list) is
    reported; a layer the workload does not exercise reads 0."""
    from tracer import Tracer

    tracer = Tracer()
    pauses = GcPauses()
    workload.reset_trace()
    workload.install(tracer)
    gc.callbacks.append(pauses)
    try:
        iterations, _ = measure(workload, None, seconds, traced=True)
    finally:
        gc.callbacks.remove(pauses)
        tracer.uninstall()
    setup = {
        key: statistics.median(s[key] for s in setups) for key in setups[0]
    }
    metrics = dict.fromkeys(names, 0.0)
    metrics.update(workload.layer_metrics(tracer, iterations, setup))
    for lane in (0, 1):
        busy = tracer.lane_busy.get(lane)
        if busy is not None:
            metrics[f"runtime.lane{lane}.busy_cpu_s"] = busy[1] / len(iterations)
    n = len(iterations)
    metrics["python.gc_collections"] = pauses.count / n
    metrics["python.gc_pause_total_ms"] = pauses.total_s * 1e3 / n
    metrics["python.gc_pause_max_ms"] = pauses.max_s * 1e3
    metrics["trace.overhead_ratio"] = throughput(untraced) / throughput(iterations)
    unknown = set(metrics) - set(names)
    if unknown:
        raise KeyError(f"unlisted layer metrics: {sorted(unknown)}")
    return metrics, iterations, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input size (tiny: the smoke test)",
    )
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import_t0 = time.perf_counter()
    import workloads

    import_s = time.perf_counter() - import_t0
    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}"
        )
    spec = load_spec()
    workdir = WORKDIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workload = workloads.make_workload(args.workload, args.size, workdir)
    try:
        setups = []
        seconds = args.seconds / 2 if args.trace else args.seconds
        untraced, latencies = measure(workload, args.seed, seconds, setups)
        iterations = list(untraced)
        tracer = None
        if args.trace:
            wanted = spec["per_layer"]
            metrics, traced, tracer = traced_metrics(
                workload, seconds, setups, untraced, [m["name"] for m in wanted]
            )
            iterations += traced
        else:
            metrics = end_to_end(untraced, setups)
            wanted = spec["end_to_end"]
        rss = peak_rss_mb()
        check = workload.check(iterations)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "size": args.size,
            "trace": args.trace,
            "nproc": workloads.NPROC,
            "input": workload.input_record(),
            "import_s": import_s,
            "setup_runs_s": [sum(s.values()) for s in setups],
            "iterations": len(untraced),
            "iteration_wall_s": [it.wall_s for it in untraced],
            "work_units": workload.unit,
            "latency_samples": latencies.n,
            "peak_rss_mb_before_check": rss,
            "check": check,
        }
        if tracer is not None:
            spans = OUTDIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write_spans(spans)
            record["spans"] = {"file": str(spans.relative_to(ROOT)), "count": len(tracer.spans)}
            record["traced_iterations"] = len(iterations) - len(untraced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass

    attempted = sum(it.ops for it in iterations)
    correct = check["mismatches"] == 0
    failed = 0 if correct else attempted
    tail_s, beyond = latencies.tail()
    record["attempted"] = attempted
    record["failed"] = failed
    record[workload.unit + "_per_s"] = call_rate(untraced)
    record["mean_" + workload.unit + "_per_s"] = throughput(untraced)
    record["latency_samples_beyond_p999"] = beyond
    # Printed every run, but outside BENCHMARK.json: error_rate is 0 on
    # a correct run, and the p99.9 spreads wider than any allowed bound.
    record["ungated"] = {
        "error_rate": {"value": failed / attempted, "unit": "ratio"},
        "latency_p999_ms": {"value": tail_s * 1e3, "unit": "ms"},
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps({"run": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
