"""The benchmark's workloads, driven through the program's public APIs.

Every workload follows the same shape, which :mod:`run` drives:

* ``setup(seed)`` generates and materialises the inputs (timed as
  ``setup_s``; run several times, the median is reported);
* ``iterate()`` is one closed-loop call with one caller and no think
  time — a full replay, one ``validate_store`` or one
  ``run_three_models`` — repeated until the run's seconds are used up;
* ``check(iterations)`` compares every iteration's output with the
  program's own reference path, outside the timed region;
* ``layer_metrics(...)`` turns a traced run's wrapper totals into the
  per-layer metrics.

Sizes are fixed per ``--size``; the seed only changes the generated data.
Lane and worker counts follow the CPUs this process may run on.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics
import time
from array import array
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

import repro.core.pipeline as pipeline_module
import repro.manet.engine as manet_engine_module
import repro.manet.runner as manet_runner_module
import repro.runtime.ingest as ingest_module
import repro.serve.engine as serve_engine_module
import repro.serve.service as serve_service_module
import repro.serve.snapshot as serve_snapshot_module
import repro.store.checkpoint as checkpoint_module
import repro.store.study as study_module
from repro.core import validate, validate_store
from repro.levy import LevyWalkModel
from repro.manet import paper_config, run_three_models
from repro.obs import ObsContext, activate, dataset_fingerprint
from repro.serve import ServeConfig, ServeStateStore, ValidationService
from repro.stats import ParetoFit
from repro.synth import (
    generate_dataset,
    generate_scale_store,
    primary_config,
    replay_events,
)

#: Lanes / workers: the CPUs this process may use (``nproc``).
NPROC = len(os.sched_getaffinity(0))

#: Workload sizes.  ``full`` is what BENCHMARK.json runs; ``tiny`` keeps
#: the smoke test fast.
SIZES: Dict[str, Dict[str, Any]] = {
    "full": {
        "stream_scale": 0.05,
        "snapshot_every": 25_000,
        "store_users": 2000,
        "store_segment_users": 250,
        "manet_nodes": 1000,
        "manet_duration_s": 600.0,
        "manet_warmup_s": 120.0,
        "manet_check_s": 30.0,
    },
    "tiny": {
        "stream_scale": 0.01,
        "snapshot_every": 2_000,
        "store_users": 120,
        "store_segment_users": 40,
        "manet_nodes": 60,
        "manet_duration_s": 60.0,
        "manet_warmup_s": 5.0,
        "manet_check_s": 10.0,
    },
}

#: One in this many ingest-path calls gets a span in a traced run
#: (kernel, snapshot, segment and simulator calls always do).
INGEST_SPAN_SAMPLE = 64
#: Lane queue depth is sampled once per this many ingested events.
DEPTH_SAMPLE_EVERY = 256


class LatencyHistogram:
    """Caller-side latencies pooled over a run.

    Log-spaced bins 0.05 % wide from 100 ns to 100 s keep memory fixed
    however many calls a run makes (so ``peak_rss_mb`` does not grow
    with throughput); a quantile interpolates inside its bin.
    """

    EDGES = np.geomspace(1e-7, 100.0, 41_448)

    def __init__(self) -> None:
        self.counts = np.zeros(len(self.EDGES) - 1, dtype=np.int64)

    def add(self, seconds) -> None:
        index = np.searchsorted(self.EDGES, seconds, side="right") - 1
        np.clip(index, 0, len(self.counts) - 1, out=index)
        self.counts += np.bincount(index, minlength=len(self.counts))

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    def at_rank(self, rank: int) -> float:
        """The ``rank``-th smallest sample (1-based), in seconds."""
        cumulative = np.cumsum(self.counts)
        i = int(np.searchsorted(cumulative, rank))
        before = cumulative[i] - self.counts[i]
        position = (rank - before - 0.5) / self.counts[i]
        lo, hi = self.EDGES[i], self.EDGES[i + 1]
        return float(lo * (hi / lo) ** position)

    def tail(self, q: float = 0.999, beyond: int = 10) -> Tuple[float, int]:
        """The ``q`` quantile, or — when fewer than ``beyond`` samples lie
        above it — the highest quantile that has ``beyond`` above it, but
        never below the median.  Returns (value, samples above it)."""
        n = self.n
        rank = max(1, math.ceil(q * n))
        if n - rank < beyond:
            rank = max(n - beyond, math.ceil(0.5 * n), 1)
        return self.at_rank(rank), n - rank


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


@dataclass
class Iteration:
    """One timed call and what the reference check needs from it."""

    wall_s: float
    #: The caller's median latency in this call: of its ``ingest()``
    #: calls for a replay, else the call itself.
    latency_s: float
    #: Work units done: events, users, or simulated ticks.
    units: int
    #: Operations attempted: events, segments, or model runs.
    ops: int
    #: Output the reference check compares.
    output: Any
    #: Extra per-iteration figures for the traced run.
    extra: Dict[str, Any] = field(default_factory=dict)


class Workload:
    """Base: a named workload over a fixed size and a scratch directory."""

    name = ""
    unit = ""

    def __init__(self, size: Dict[str, Any], workdir: Path) -> None:
        self.size = size
        self.workdir = workdir

    def input_record(self) -> Dict[str, Any]:
        raise NotImplementedError


# -- streaming ----------------------------------------------------------------


class StreamWorkload(Workload):
    """A Primary-persona study replayed through ``ValidationService`` on
    ``nproc`` lanes, with a state snapshot every ``snapshot_every`` events."""

    unit = "events"

    def __init__(self, size, workdir) -> None:
        super().__init__(size, workdir)
        self.lanes = NPROC
        self.snapshot_every = size["snapshot_every"]
        self.dataset = None
        self.events: List[Any] = []
        self._latencies = array("d")
        #: Filled by the traced run's hooks.
        self.depth_samples: List[int] = []
        self.snapshot_bytes = 0

    def setup(self, seed: int) -> Dict[str, float]:
        self.dataset = None
        self.events = []
        config = primary_config(seed=seed).scaled(self.size["stream_scale"])
        t0 = time.perf_counter()
        dataset = generate_dataset(config)
        t1 = time.perf_counter()
        events = list(replay_events(dataset))
        t2 = time.perf_counter()
        self.dataset, self.events = dataset, events
        self._latencies = array("d", bytes(8 * len(events)))
        return {
            "synth.generate_dataset_s": t1 - t0,
            "synth.replay_events_s": t2 - t1,
        }

    def input_record(self) -> Dict[str, Any]:
        kinds = {"register": 0, "gps": 0, "checkin": 0}
        for event in self.events:
            kinds[event.kind] += 1
        return {
            "scale": self.size["stream_scale"],
            "users": len(self.dataset.users),
            "events": len(self.events),
            "gps": kinds["gps"],
            "checkins": kinds["checkin"],
            "lanes": self.lanes,
            "snapshot_every": self.snapshot_every,
        }

    def _service(self) -> ValidationService:
        return ValidationService(
            self.dataset.pois,
            ServeConfig(),
            name=self.dataset.name,
            workers=self.lanes,
            state_store=ServeStateStore(fresh_dir(self.workdir / "snapshots")),
            checkpoint_every=self.snapshot_every,
        )

    def iterate(self, latencies: LatencyHistogram, traced: bool = False) -> Iteration:
        service = self._service()
        events = self.events
        lat = self._latencies
        clock = time.perf_counter
        ingest = service.ingest
        ctx = ObsContext()
        with activate(ctx):
            if not traced:
                start = clock()
                i = 0
                for event in events:
                    t0 = clock()
                    ingest(event)
                    lat[i] = clock() - t0
                    i += 1
                summary = service.finish()
                wall = clock() - start
            else:
                depths = self.depth_samples
                sample_every = DEPTH_SAMPLE_EVERY
                start = clock()
                i = 0
                for event in events:
                    t0 = clock()
                    ingest(event)
                    lat[i] = clock() - t0
                    i += 1
                    if i % sample_every == 0 and self.lanes > 1:
                        depths.extend(service.queue_depths())
                summary = service.finish()
                wall = clock() - start
        replay_latencies = np.frombuffer(lat, dtype=np.float64)
        latencies.add(replay_latencies)
        return Iteration(
            wall_s=wall,
            latency_s=float(np.median(replay_latencies)),
            units=summary.n_events,
            ops=summary.n_events,
            output=(summary.summary(), summary.fingerprint, summary.n_events),
            extra={"chunks": summary.n_chunks, "verdicts": summary.n_verdicts},
        )

    def check(self, iterations: List[Iteration]) -> Dict[str, Any]:
        """Every replay equals batch ``validate()`` on the same dataset."""
        report = validate(self.dataset)
        expected = (
            report.summary(),
            dataset_fingerprint(report.dataset),
            len(self.events),
        )
        mismatches = sum(1 for it in iterations if it.output != expected)
        return {"reference": "validate(dataset)", "mismatches": mismatches}

    def install(self, tracer) -> None:
        service_cls = serve_service_module.ValidationService
        engine_mod = serve_engine_module
        tracer.install(
            service_cls, "ingest", "svc.ingest", INGEST_SPAN_SAMPLE, cpu=False
        )
        tracer.install(service_cls, "finish", "svc.finish")
        tracer.install(service_cls, "snapshot", "svc.snapshot")
        tracer.install(
            engine_mod.StreamEngine, "ingest", "eng.ingest", INGEST_SPAN_SAMPLE
        )
        tracer.install(
            engine_mod.StreamEngine, "finalize", "eng.finalize", INGEST_SPAN_SAMPLE
        )
        for kernel in ("extract_visits", "match_user", "classify_user_extraneous"):
            tracer.install(engine_mod, kernel, f"core.{kernel}")
        tracer.install_lane_post(
            ingest_module.IngestPool, "pool.post", INGEST_SPAN_SAMPLE
        )

        def saved(path, args):
            self.snapshot_bytes += os.path.getsize(path)

        store_cls = serve_snapshot_module.ServeStateStore
        tracer.install(store_cls, "save_user", "snap.save_user", on_result=saved)
        tracer.install(store_cls, "save_cursor", "snap.save_cursor", on_result=saved)

    def reset_trace(self) -> None:
        self.depth_samples = []
        self.snapshot_bytes = 0

    def layer_metrics(self, tracer, iterations, setup) -> Dict[str, float]:
        totals = tracer.totals()
        n = len(iterations)

        def row(name):
            return totals.get(
                name, {"calls": 0, "wall_s": 0.0, "cpu_s": 0.0, "self_s": 0.0}
            )

        svc_ingest, svc_finish = row("svc.ingest"), row("svc.finish")
        eng_ingest, eng_finalize = row("eng.ingest"), row("eng.finalize")
        snapshot = row("snap.save_user"), row("snap.save_cursor")
        save_s = sum(r["wall_s"] for r in snapshot)
        snap = row("svc.snapshot")
        out = {
            "synth.generate_dataset_s": setup["synth.generate_dataset_s"],
            "synth.replay_events_s": setup["synth.replay_events_s"],
            "serve.service_ingest_s": svc_ingest["wall_s"] / n,
            "serve.service_self_s": (svc_ingest["self_s"] + svc_finish["self_s"]) / n,
            "serve.engine_ingest_calls": eng_ingest["calls"] / n,
            "serve.engine_ingest_s": eng_ingest["wall_s"] / n,
            "serve.engine_ingest_cpu_s": eng_ingest["cpu_s"] / n,
            "serve.engine_self_s": (eng_ingest["self_s"] + eng_finalize["self_s"]) / n,
            "serve.engine_finalize_s": eng_finalize["wall_s"] / n,
            "serve.chunks": statistics.median(it.extra["chunks"] for it in iterations),
            "serve.verdicts": statistics.median(
                it.extra["verdicts"] for it in iterations
            ),
            "serve.snapshot_calls": snap["calls"] / n,
            "serve.snapshot_s": snap["wall_s"] / n,
            "serve.snapshot_save_s": save_s / n,
            "serve.snapshot_drain_s": (snap["wall_s"] - save_s) / n,
            "serve.snapshot_bytes": self.snapshot_bytes / n,
            "runtime.ingest_post_s": row("pool.post")["wall_s"] / n,
        }
        extract = row("core.extract_visits")
        out["core.extract_visits_calls"] = extract["calls"] / n
        for kernel in ("extract_visits", "match_user", "classify_user_extraneous"):
            r = row(f"core.{kernel}")
            out[f"core.{kernel}_s"] = r["wall_s"] / n
            out[f"core.{kernel}_cpu_s"] = r["cpu_s"] / n
        if self.depth_samples:
            out["runtime.lane_queue_depth_p50"] = statistics.median(self.depth_samples)
            out["runtime.lane_queue_depth_max"] = max(self.depth_samples)
        return out


# -- out-of-core store validation ---------------------------------------------


class StoreWorkload(Workload):
    """``validate_store`` over a generated scale store, fresh checkpoints."""

    unit = "users"

    def __init__(self, size, workdir) -> None:
        super().__init__(size, workdir)
        self.store = None
        self.bytes_mapped = 0
        self.checkpoint_bytes = 0
        self.schedule: List[Dict[str, Any]] = []

    def setup(self, seed: int) -> Dict[str, float]:
        self.store = None
        directory = fresh_dir(self.workdir / "store")
        t0 = time.perf_counter()
        self.store = generate_scale_store(
            directory,
            n_users=self.size["store_users"],
            segment_users=self.size["store_segment_users"],
            seed=seed,
        )
        return {"synth.generate_scale_store_s": time.perf_counter() - t0}

    def input_record(self) -> Dict[str, Any]:
        return {
            "users": self.store.n_users,
            "segments": len(self.store.segments),
            "segment_users": self.size["store_segment_users"],
            "gps_points": self.store.n_gps_points,
            "checkins": self.store.n_checkins,
            "workers": NPROC,
        }

    def iterate(self, latencies: LatencyHistogram, traced: bool = False) -> Iteration:
        checkpoints = fresh_dir(self.workdir / "checkpoints")
        ctx = ObsContext()
        with activate(ctx):
            start = time.perf_counter()
            summary = validate_store(
                self.store, workers=NPROC, checkpoints=checkpoints
            )
            wall = time.perf_counter() - start
        latencies.add([wall])
        return Iteration(
            wall_s=wall,
            latency_s=wall,
            units=summary.n_users,
            ops=summary.n_segments,
            output=(summary.summary(), dict(summary.visit_counts)),
            extra={
                "timings": summary.timings,
                "retries": summary.health.retries,
            },
        )

    def check(self, iterations: List[Iteration]) -> Dict[str, Any]:
        """Every call equals batch ``validate(store.load_dataset())``."""
        report = validate(self.store.load_dataset())
        expected = (
            report.summary(),
            {user_id: len(data.visits) for user_id, data in report.dataset.users.items()},
        )
        mismatches = sum(1 for it in iterations if it.output != expected)
        return {"reference": "validate(store.load_dataset())", "mismatches": mismatches}

    def install(self, tracer) -> None:
        def loaded(dataset, args):
            store, entry = args[0], args[1]
            if isinstance(entry, int):
                entry = store.segments[entry]
            self.bytes_mapped += entry.nbytes

        def saved(path, args):
            self.checkpoint_bytes += os.path.getsize(path)

        def scheduled(stats, args):
            self.schedule.append(dict(stats))

        tracer.install(
            study_module.StudyStore, "load_segment", "store.load_segment",
            on_result=loaded,
        )
        tracer.install(
            checkpoint_module.CheckpointStore, "save", "store.checkpoint_save",
            on_result=saved,
        )
        tracer.install(
            pipeline_module, "run_pipelined", "runtime.run_pipelined",
            on_result=scheduled,
        )

    def reset_trace(self) -> None:
        self.bytes_mapped = 0
        self.checkpoint_bytes = 0
        self.schedule = []

    def layer_metrics(self, tracer, iterations, setup) -> Dict[str, float]:
        totals = tracer.totals()
        n = len(iterations)
        out = {
            "synth.generate_scale_store_s": setup["synth.generate_scale_store_s"],
            "runtime.shard_retries": sum(it.extra["retries"] for it in iterations) / n,
        }
        for stage in ("extract", "match", "classify"):
            timings = [
                s
                for it in iterations
                for s in it.extra["timings"].stages
                if s.stage == stage
            ]
            out[f"core.{stage}.busy_s"] = sum(s.busy_s for s in timings) / n
            out[f"runtime.{stage}.wall_s"] = sum(s.wall_s for s in timings) / n
            out[f"runtime.{stage}.critical_path_s"] = (
                sum(s.critical_path_s for s in timings) / n
            )
            if timings:
                out[f"runtime.{stage}.imbalance"] = statistics.mean(
                    s.imbalance() for s in timings
                )
        for key in ("overlap", "stalls", "reduce_wait_s", "prefetch_stall_s"):
            values = [stats[key] for stats in self.schedule]
            if values:
                out[f"runtime.schedule.{key}"] = sum(values) / len(values)
        load = totals.get("store.load_segment")
        if load:
            out["store.load_segment_calls"] = load["calls"] / n
            out["store.load_segment_s"] = load["wall_s"] / n
        save = totals.get("store.checkpoint_save")
        if save:
            out["store.checkpoint_save_s"] = save["wall_s"] / n
        out["store.bytes_mapped"] = self.bytes_mapped / n
        out["store.checkpoint_bytes"] = self.checkpoint_bytes / n
        return out


# -- MANET --------------------------------------------------------------------

#: Fixed Levy-walk parameters shaped like the three fits of Figure 7
#: (EXPERIMENTS.md): GPS-like, all-checkin-like and honest-checkin-like
#: flights and movement-time laws.  Checkin models borrow the GPS pause
#: law, as the paper does.
_PAUSE = ParetoFit(xm=120.0, alpha=0.9, n=100)
MODELS = (
    LevyWalkModel("GPS", ParetoFit(192.0, 0.42, 100), _PAUSE, 2.2, 0.27, 100),
    LevyWalkModel("All-Checkin", ParetoFit(52.0, 0.26, 100), _PAUSE, 31.2, 0.66, 100),
    LevyWalkModel(
        "Honest-Checkin", ParetoFit(82.0, 0.33, 100), _PAUSE, 1310.0, 0.78, 100
    ),
)


def _manet_signature(results) -> tuple:
    return tuple(
        (
            r.name,
            tuple(tuple(sorted(asdict(f).items())) for f in r.flows),
            r.total_control,
            r.unattributed_control,
        )
        for r in results
    )


class ManetWorkload(Workload):
    """Figure 8's three-model comparison at 1000 nodes in the paper arena."""

    unit = "ticks"

    def __init__(self, size, workdir) -> None:
        super().__init__(size, workdir)
        self.config = None
        self.models = MODELS

    def setup(self, seed: int) -> Dict[str, float]:
        t0 = time.perf_counter()
        config = replace(
            paper_config(seed=seed),
            n_nodes=self.size["manet_nodes"],
            duration_s=self.size["manet_duration_s"],
            engine="vectorized",
        )
        # Warm-up: the first simulation in a process pays lazy imports
        # and allocator growth that no later call pays.  A fifth of the
        # timed duration, so the set-up is long enough to time steadily.
        run_three_models(
            list(self.models),
            replace(config, duration_s=self.size["manet_warmup_s"]),
        )
        self.config = config
        return {"manet.warmup_s": time.perf_counter() - t0}

    def input_record(self) -> Dict[str, Any]:
        c = self.config
        return {
            "nodes": c.n_nodes,
            "arena_km": c.arena_m / 1000.0,
            "radio_range_km": c.radio_range_m / 1000.0,
            "pairs": c.n_pairs,
            "ticks_per_model": c.n_ticks,
            "models": [m.name for m in self.models],
            "engine": c.engine,
        }

    def iterate(self, latencies: LatencyHistogram, traced: bool = False) -> Iteration:
        ctx = ObsContext()
        with activate(ctx):
            start = time.perf_counter()
            results = run_three_models(list(self.models), self.config)
            wall = time.perf_counter() - start
        latencies.add([wall])
        return Iteration(
            wall_s=wall,
            latency_s=wall,
            units=len(results) * self.config.n_ticks,
            ops=len(results),
            output=_manet_signature(results),
            extra={
                "control": sum(r.total_control for r in results),
                "delivered": sum(f.data_delivered for r in results for f in r.flows),
            },
        )

    def check(self, iterations: List[Iteration]) -> Dict[str, Any]:
        """Vectorized equals scalar on a shortened run of the same seed,
        and every timed call returned the same results."""
        short = replace(self.config, duration_s=self.size["manet_check_s"])
        vector = run_three_models(list(self.models), short, engine="vectorized")
        scalar = run_three_models(list(self.models), short, engine="scalar")
        mismatches = sum(1 for it in iterations if it.output != iterations[0].output)
        if _manet_signature(vector) != _manet_signature(scalar):
            mismatches = len(iterations)
        if any(len(r.flows) != self.config.n_pairs for r in vector):
            mismatches = len(iterations)
        return {
            "reference": f"scalar engine, {short.n_ticks} ticks",
            "mismatches": mismatches,
        }

    def install(self, tracer) -> None:
        tracer.install(manet_runner_module, "generate_fleet", "levy.generate_fleet")
        simulator = manet_engine_module.Simulator
        tracer.install(simulator, "__init__", "manet.simulator_init")
        tracer.install(simulator, "run", "manet.run")

    def reset_trace(self) -> None:
        pass

    def layer_metrics(self, tracer, iterations, setup) -> Dict[str, float]:
        totals = tracer.totals()
        n = len(iterations)
        empty = {"calls": 0, "wall_s": 0.0, "cpu_s": 0.0, "self_s": 0.0}
        run = totals.get("manet.run", empty)
        return {
            "levy.generate_fleet_s": totals.get("levy.generate_fleet", empty)["wall_s"] / n,
            "manet.simulator_init_s": (
                totals.get("manet.simulator_init", empty)["wall_s"] / n
            ),
            "manet.run_s": run["wall_s"] / n,
            "manet.run_cpu_s": run["cpu_s"] / n,
            "manet.control_packets": statistics.median(
                it.extra["control"] for it in iterations
            ),
            "manet.data_delivered": statistics.median(
                it.extra["delivered"] for it in iterations
            ),
        }


def make_workload(name: str, size: str, workdir: Path) -> Workload:
    """The workload called ``name`` at the given size."""
    sizes = SIZES[size]
    if name == "stream-lanes":
        workload = StreamWorkload(sizes, workdir)
    elif name == "store-validate":
        workload = StoreWorkload(sizes, workdir)
    elif name == "manet-fig8":
        workload = ManetWorkload(sizes, workdir)
    else:
        raise KeyError(name)
    workload.name = name
    return workload


WORKLOADS = ("stream-lanes", "store-validate", "manet-fig8")
