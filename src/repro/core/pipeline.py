"""End-to-end validation pipeline: the paper's Sections 4–5 in one call.

``validate(dataset)`` runs visit extraction, checkin-to-visit matching,
and extraneous classification, and bundles the results with the headline
numbers (Figure 1's Venn regions, the class breakdown) into a single
:class:`ValidationReport`.

``validate_store(store)`` is the out-of-core twin: it streams a
:class:`repro.store.StudyStore` segment by segment through the same
three stages on one scheduler (:func:`repro.runtime.run_pipelined`) —
a window of one segment by default, a few segments in flight for
parallel runs — so peak memory is bounded by the segments in flight
while counters, gauges, summaries and fingerprints stay byte-identical
to the in-memory path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, TextIO, Tuple, Union

from ..model import CheckinType, Dataset, UserData
from ..obs import ObsContext, activate, config_hash, format_eta, thread_activate
from ..obs import current as obs_current
from ..runtime import (
    DegradedResult,
    ResilienceConfig,
    RunHealth,
    RuntimeTimings,
    StreamMerger,
    resolve_executor,
    run_pipelined,
    shard_count,
    shard_segment,
    window_size,
)
from ..runtime.errors import RuntimeConfigError
from ..runtime.faults import inject
from ..store import CheckpointStore, SegmentEntry, StudyStore
from .classify import ClassificationResult, ClassifyConfig, classify_dataset
from .matching import MatchConfig, MatchingResult, match_dataset
from .visits import VisitConfig, extract_dataset_visits


def format_summary(
    name: str,
    n_checkins: int,
    n_visits: int,
    n_honest: int,
    n_extraneous: int,
    n_missing: int,
    type_counts: Mapping[CheckinType, int],
    skipped: Sequence[str] = (),
) -> str:
    """The pipeline's human-readable summary, from plain aggregates.

    Single formatter behind :meth:`ValidationReport.summary` and
    :meth:`ValidationSummary.summary` — the streaming path accumulates
    the same integers the in-memory result derives, so both render the
    exact same text.
    """
    extraneous_fraction = n_extraneous / n_checkins if n_checkins else 0.0
    coverage_fraction = n_honest / n_visits if n_visits else 0.0
    lines = [
        f"Dataset: {name}",
        f"  checkins: {n_checkins}   visits: {n_visits}",
        f"  honest checkins:     {n_honest}"
        f" ({100 * (1 - extraneous_fraction):.0f}% of checkins)",
        f"  extraneous checkins: {n_extraneous}"
        f" ({100 * extraneous_fraction:.0f}% of checkins)",
        f"  missing checkins:    {n_missing}"
        f" ({100 * (1 - coverage_fraction):.0f}% of visits)",
        "  extraneous breakdown:",
    ]
    for kind in (
        CheckinType.SUPERFLUOUS,
        CheckinType.REMOTE,
        CheckinType.DRIVEBY,
        CheckinType.OTHER,
    ):
        share = type_counts[kind] / n_extraneous if n_extraneous else 0.0
        lines.append(
            f"    {kind.value:<12} {type_counts[kind]:>7}  ({100 * share:.0f}% of extraneous)"
        )
    if skipped:
        lines.append(
            f"  DEGRADED RUN: {len(skipped)} user(s) skipped after repeated"
            f" shard failures [{', '.join(skipped)}]"
        )
    return "\n".join(lines)


@dataclass
class ValidationReport:
    """Everything the paper's core analysis produces for one dataset."""

    dataset: Dataset
    matching: MatchingResult
    classification: ClassificationResult
    #: Per-stage/shard timings of the run that produced this report.
    timings: RuntimeTimings = field(default_factory=RuntimeTimings)
    #: What the resilience layer had to do (retries, rebuilds, skips);
    #: empty/clean when resilience was off or nothing failed.
    health: RunHealth = field(default_factory=RunHealth)

    @property
    def n_honest(self) -> int:
        """Checkins matching a GPS visit (Figure 1 intersection)."""
        return self.matching.n_honest

    @property
    def n_extraneous(self) -> int:
        """Checkins without a matching visit (Figure 1 left region)."""
        return self.matching.n_extraneous

    @property
    def n_missing(self) -> int:
        """Visits without a matching checkin (Figure 1 right region)."""
        return self.matching.n_missing

    def type_counts(self) -> Dict[CheckinType, int]:
        """Checkin count per class (honest + the extraneous taxonomy)."""
        return self.classification.counts()

    def summary(self) -> str:
        """Human-readable report mirroring the paper's headline numbers."""
        return format_summary(
            self.dataset.name,
            self.matching.n_checkins,
            self.matching.n_visits,
            self.n_honest,
            self.n_extraneous,
            self.n_missing,
            self.type_counts(),
            self.health.skipped_user_ids(),
        )


def validate(
    dataset: Dataset,
    visit_config: Optional[VisitConfig] = None,
    match_config: Optional[MatchConfig] = None,
    classify_config: Optional[ClassifyConfig] = None,
    workers: Optional[int] = None,
    executor=None,
    obs=None,
    resilience=None,
    fault_plan=None,
    health: Optional[RunHealth] = None,
) -> ValidationReport:
    """Run the full checkin-validity pipeline on a dataset.

    Visit extraction runs only for users whose visits are not yet
    populated, so pre-extracted datasets are not recomputed.

    ``workers`` > 1 shards every stage over a process pool (``0`` means
    all CPUs); alternatively pass a prebuilt ``executor`` (for pool
    reuse across datasets).  Any worker count produces a report
    identical to the serial run; ``report.timings`` records how the
    wall time split across stages and shards.

    ``resilience`` (a :class:`repro.runtime.ResilienceConfig`) arms
    shard-level fault tolerance: failed shards are retried with
    deterministic backoff, crashed pools are rebuilt and only the
    unfinished shards re-run, and poison shards fall back to the serial
    path — a recovered run is byte-identical to a clean one.  Under the
    ``skip_and_report`` policy, users whose shard kept failing are
    excluded from downstream stages and surfaced on ``report.health``
    (and in the summary), never silently missing.  ``fault_plan`` (a
    :class:`repro.runtime.FaultPlan`) deterministically injects faults
    for drills; ``health`` lets callers share one
    :class:`repro.runtime.RunHealth` accumulator across runs.

    ``obs`` is an optional :class:`repro.obs.ObsContext`; when given (or
    when one is already ambient via :func:`repro.obs.activate`), the run
    records spans and metrics into it.  Observation never changes the
    report — output is byte-identical with obs on or off.
    """
    ctx = obs if obs is not None else obs_current()
    exec_, owned = resolve_executor(executor, workers)
    timings = RuntimeTimings()
    if health is None:
        health = RunHealth()
    try:
        with activate(ctx), ctx.span(
            "pipeline.validate",
            dataset=dataset.name,
            users=len(dataset.users),
            workers=exec_.workers,
        ):
            extract_dataset_visits(
                dataset, visit_config, executor=exec_, timings=timings,
                resilience=resilience, fault_plan=fault_plan, health=health,
            )
            # Users skipped during extraction have no visits; keep the
            # degraded run going on the users that do.
            skipped = set(health.skipped_user_ids("extract"))
            working = (
                dataset
                if not skipped
                else dataset.subset(
                    [u for u in dataset.users if u not in skipped],
                    name=dataset.name,
                )
            )
            matching = match_dataset(
                working, match_config, executor=exec_, timings=timings,
                resilience=resilience, fault_plan=fault_plan, health=health,
            )
            classification = classify_dataset(
                working, matching, classify_config, executor=exec_,
                timings=timings, resilience=resilience, fault_plan=fault_plan,
                health=health,
            )
            ctx.count("pipeline.runs_total", 1)
            # Headline fractions as parent-side gauges: deterministic at
            # any worker count (set once, after aggregation) and the
            # direct inputs of the fidelity scorecard.
            ctx.set_gauge(
                "matching.extraneous_fraction", matching.extraneous_fraction()
            )
            ctx.set_gauge(
                "matching.missing_fraction", 1.0 - matching.coverage_fraction()
            )
            if health.degraded:
                ctx.set_gauge("pipeline.degraded", 1.0)
    finally:
        if owned:
            exec_.close()
    return ValidationReport(
        dataset=dataset,
        matching=matching,
        classification=classification,
        timings=timings,
        health=health,
    )


@dataclass
class ValidationSummary:
    """Aggregates of a streamed (out-of-core) validation run.

    Carries everything the report-level consumers need — headline
    counts, the class breakdown, per-user visit counts for the dataset
    fingerprint — without holding any per-checkin results, so its size
    is O(users), not O(records).
    """

    name: str
    n_users: int
    n_segments: int
    n_honest: int
    n_extraneous: int
    n_missing: int
    type_counts: Dict[CheckinType, int]
    #: Per-user extracted-visit count (``-1`` = extraction skipped), the
    #: input of :meth:`repro.store.StudyStore.fingerprint`.
    visit_counts: Dict[str, int]
    timings: RuntimeTimings = field(default_factory=RuntimeTimings)
    health: RunHealth = field(default_factory=RunHealth)
    #: Segments replayed from checkpoints instead of recomputed.
    segments_reused: int = 0

    @property
    def n_checkins(self) -> int:
        return self.n_honest + self.n_extraneous

    @property
    def n_visits(self) -> int:
        return self.n_honest + self.n_missing

    def extraneous_fraction(self) -> float:
        return self.n_extraneous / self.n_checkins if self.n_checkins else 0.0

    def coverage_fraction(self) -> float:
        return self.n_honest / self.n_visits if self.n_visits else 0.0

    def summary(self) -> str:
        """Identical text to :meth:`ValidationReport.summary`."""
        return format_summary(
            self.name,
            self.n_checkins,
            self.n_visits,
            self.n_honest,
            self.n_extraneous,
            self.n_missing,
            self.type_counts,
            self.health.skipped_user_ids(),
        )


def _segment_results(
    entry: SegmentEntry,
    seg_dataset: Dataset,
    visit_config: VisitConfig,
    match_config: MatchConfig,
    classify_config: ClassifyConfig,
    exec_,
    timings: RuntimeTimings,
    resilience,
    fault_plan,
    health: RunHealth,
):
    """Run the three stages on one loaded segment.

    Shards come from the segment's manifest counts
    (:func:`repro.runtime.shard_segment`), so segment size — not study
    size — bounds the sharding work too.  ``health`` is the segment's
    own accumulator; the reducer merges it into the run's.
    """
    shards = shard_segment(
        entry.user_ids,
        entry.gps_counts,
        entry.checkin_counts,
        shard_count(exec_, entry.n_users),
    )
    extract_dataset_visits(
        seg_dataset, visit_config, executor=exec_, timings=timings,
        resilience=resilience, fault_plan=fault_plan, health=health,
        shards=shards,
    )
    skipped = set(health.skipped_user_ids("extract"))
    working = (
        seg_dataset
        if not skipped
        else seg_dataset.subset(
            [u for u in seg_dataset.users if u not in skipped],
            name=seg_dataset.name,
        )
    )
    matching = match_dataset(
        working, match_config, executor=exec_, timings=timings,
        resilience=resilience, fault_plan=fault_plan, health=health,
    )
    classification = classify_dataset(
        working, matching, classify_config, executor=exec_,
        timings=timings, resilience=resilience, fault_plan=fault_plan,
        health=health,
    )
    return matching, classification


class _SegmentProgress:
    """Rate-limited segment progress line for long out-of-core runs.

    Rendered with a carriage return so the line updates in place;
    :meth:`close` finishes it with a newline.  Purely cosmetic — it
    writes to the given stream (normally stderr) and never touches the
    run's results or metrics.
    """

    #: Minimum seconds between renders (the last segment always renders).
    INTERVAL_S = 0.5

    def __init__(self, stream: TextIO, n_segments: int, n_users: int) -> None:
        self.stream = stream
        self.n_segments = n_segments
        self.n_users = n_users
        self.done_segments = 0
        self.done_users = 0
        self.reused = 0
        self._t0 = time.monotonic()
        self._last_render = 0.0
        self._wrote = False

    def update(self, n_users: int, reused: bool) -> None:
        """Record one finished segment; render when the interval elapsed."""
        self.done_segments += 1
        self.done_users += n_users
        if reused:
            self.reused += 1
        now = time.monotonic()
        if (
            now - self._last_render >= self.INTERVAL_S
            or self.done_segments == self.n_segments
        ):
            self._last_render = now
            self._render(now)

    def _render(self, now: float) -> None:
        elapsed = max(now - self._t0, 1e-9)
        rate = self.done_users / elapsed
        remaining = max(self.n_users - self.done_users, 0)
        eta_s = remaining / rate if rate > 0 else 0.0
        line = (
            f"segments {self.done_segments}/{self.n_segments}"
            f"  users {self.done_users}/{self.n_users}"
            f"  {rate:,.0f} users/s"
            f"  ETA {format_eta(eta_s)}"
            f"  reused {self.reused}"
        )
        self.stream.write("\r" + line.ljust(79))
        self.stream.flush()
        self._wrote = True

    def close(self) -> None:
        """Terminate the in-place line (no-op if nothing was rendered)."""
        if self._wrote:
            self.stream.write("\n")
            self.stream.flush()


def _resolve_inflight(
    inflight_segments: Optional[int],
    workers: Optional[int],
    executor,
    n_segments: int,
) -> int:
    """How many segments may be in flight (loaded or computing) at once.

    ``1`` walks the segments one at a time.  The default is ``1`` for
    serial runs and otherwise :func:`repro.runtime.window_size` of the
    worker count.  An explicit ``executor`` cannot be shared across
    concurrent segments (the resilience layer rebuilds pools on crash,
    which would cancel sibling segments' shards), so it keeps the
    window at ``1`` and rejects an explicit request for more.
    """
    if inflight_segments is None and (executor is not None or workers in (None, 1)):
        return 1
    inflight = window_size(inflight_segments, workers, n_segments)
    if executor is not None and inflight_segments > 1:
        raise RuntimeConfigError(
            "an explicit executor cannot be shared across in-flight "
            "segments; pass workers= instead"
        )
    return inflight


def _load_segment_resilient(
    store: StudyStore,
    entry: SegmentEntry,
    pois,
    resilience: Optional[ResilienceConfig],
    fault_plan,
) -> Tuple[Optional[Dataset], int, Optional[DegradedResult]]:
    """Load one segment as a segment-granular resilient work unit.

    Faults scripted at stage ``"segment.load"`` (with ``shard_id`` as
    the segment id) fire here, before the actual read.  With
    ``resilience`` armed, failed loads retry with the same deterministic
    backoff as shards; a load that keeps failing follows the policy —
    ``skip_and_report`` returns a :class:`DegradedResult` covering the
    whole segment instead of raising.  Returns
    ``(dataset_or_None, retries, degraded_or_None)``.
    """
    attempt = 1
    max_attempts = resilience.max_attempts if resilience is not None else 1
    while True:
        try:
            fault = (
                fault_plan.lookup("segment.load", entry.segment_id, attempt)
                if fault_plan is not None
                else None
            )
            if fault is not None:
                inject(fault, allow_exit=False)
            return store.load_segment(entry, pois=pois), attempt - 1, None
        except Exception as exc:
            if resilience is None or resilience.on_failure == "fail_fast":
                raise
            if attempt < max_attempts:
                backoff = resilience.backoff_s(attempt)
                if backoff:
                    time.sleep(backoff)
                attempt += 1
                continue
            if resilience.on_failure == "skip_and_report":
                return None, attempt - 1, DegradedResult(
                    stage="segment.load",
                    shard_id=entry.segment_id,
                    user_ids=entry.user_ids,
                    attempts=attempt,
                    error=f"{type(exc).__name__}: {exc}",
                )
            raise


class _StoreAggregate:
    """Reduce-side accumulator of :func:`validate_store`.

    Segments are always folded in manifest order, so every in-flight
    window builds identical aggregates — and the summary, fingerprint,
    and report derived from them are byte-identical.
    """

    def __init__(self, keep_results: bool) -> None:
        self.keep_results = keep_results
        self.n_honest = 0
        self.n_extraneous = 0
        self.n_missing = 0
        self.segments_reused = 0
        self.type_counts: Dict[CheckinType, int] = {kind: 0 for kind in CheckinType}
        self.visit_counts: Dict[str, int] = {}
        self.merger: StreamMerger = StreamMerger()
        self.labels: Dict[str, CheckinType] = {}
        self.checkins: Dict = {}
        self.users: Dict[str, UserData] = {}

    def add_segment(
        self,
        entry: SegmentEntry,
        per_user_matching: Dict,
        seg_labels: Dict,
        seg_checkins: Dict,
        seg_visits: Dict,
        seg_users: Optional[Dict[str, UserData]],
    ) -> None:
        for user_matching in per_user_matching.values():
            self.n_honest += len(user_matching.matches)
            self.n_extraneous += len(user_matching.extraneous)
            self.n_missing += len(user_matching.missing)
        for label in seg_labels.values():
            self.type_counts[label] += 1
        for user_id in entry.user_ids:
            visits = seg_visits.get(user_id)
            self.visit_counts[user_id] = -1 if visits is None else len(visits)
        if self.keep_results:
            self.merger.absorb(per_user_matching)
            self.labels.update(seg_labels)
            self.checkins.update(seg_checkins)
            if seg_users is not None:
                self.users.update(seg_users)

    @property
    def n_checkins(self) -> int:
        return self.n_honest + self.n_extraneous

    @property
    def n_visits(self) -> int:
        return self.n_honest + self.n_missing

    def set_headline_gauges(self, ctx, health: RunHealth) -> None:
        """Same gauges as `validate`, from the same integers: the
        divisions see identical operands, so the floats match."""
        ctx.set_gauge(
            "matching.extraneous_fraction",
            self.n_extraneous / self.n_checkins if self.n_checkins else 0.0,
        )
        ctx.set_gauge(
            "matching.missing_fraction",
            1.0 - (self.n_honest / self.n_visits if self.n_visits else 0.0),
        )
        if health.degraded:
            ctx.set_gauge("pipeline.degraded", 1.0)


def _checkpoint_payload(
    per_user_matching: Dict,
    seg_labels: Dict,
    seg_checkins: Dict,
    seg_visits: Dict,
    deltas: Dict[str, int],
) -> Dict[str, Any]:
    return {
        "matching": per_user_matching,
        "labels": seg_labels,
        "checkins": seg_checkins,
        "visits": seg_visits,
        "counters": deltas,
    }


def validate_store(
    store: StudyStore,
    visit_config: Optional[VisitConfig] = None,
    match_config: Optional[MatchConfig] = None,
    classify_config: Optional[ClassifyConfig] = None,
    workers: Optional[int] = None,
    executor=None,
    obs=None,
    resilience=None,
    fault_plan=None,
    health: Optional[RunHealth] = None,
    checkpoints: Optional[Union[CheckpointStore, str, Path]] = None,
    keep_results: bool = False,
    inflight_segments: Optional[int] = None,
    progress: Optional[TextIO] = None,
    telemetry=None,
) -> Union[ValidationSummary, ValidationReport]:
    """Run the validation pipeline over a study store, segment by segment.

    Each segment is loaded (GPS traces as mmap-backed views), pushed
    through extraction → matching → classification with the usual
    executor/resilience machinery, reduced into running aggregates, and
    dropped — peak memory is bounded by segments in flight, not study
    size.

    Every run goes through the segment scheduler
    (:func:`repro.runtime.run_pipelined`): a prefetch thread loads and
    checkpoint-probes up to ``inflight_segments`` segments ahead, lane
    threads run the three stages, each lane on its own executor, and
    the reducer folds results strictly in manifest order.  A window of
    ``1`` — the default for serial runs — walks the segments one at a
    time: segment *i+1* loads only after segment *i* is reduced.
    Parallel runs size the window from ``workers``.  Peak RSS is bounded
    by ``baseline + inflight × largest segment``.  A prebuilt
    ``executor`` runs every segment on a single lane at window ``1``
    and is left open for the caller.

    Per-user computation is deterministic, segments partition the user
    set in dataset order, and reduction happens in manifest order at any
    ``inflight_segments``/worker count — so the summary text, semantic
    counters and gauges, dataset fingerprint, and checkpoint files are
    byte-identical to ``validate(store.load_dataset())`` and across
    windows.

    ``checkpoints`` (a :class:`repro.store.CheckpointStore` or a
    directory path) arms per-segment crash recovery: finished segments
    persist their results keyed by the pipeline config hash and the
    segment's content fingerprints, and a restarted run replays them
    (including their counter deltas, when observability was on) instead
    of recomputing.  Segments with skipped users are never checkpointed,
    so a resumed run recomputes them rather than replaying a degraded
    result as a clean one.  Checkpoint writes stay atomic under
    concurrency.

    ``resilience`` additionally covers the segment *load* as its own
    work unit: failed loads retry with deterministic backoff, and under
    ``skip_and_report`` a segment whose load keeps failing is recorded
    on ``health`` (its users surface as skipped) instead of aborting.
    :class:`repro.runtime.FaultSpec` entries may target stage
    ``"segment.load"`` (``shard_id`` = segment id) and may scope any
    fault to one segment via their ``segment`` field.

    ``progress`` (a text stream, normally stderr) renders a rate-limited
    segments/users/ETA line after each reduced segment.

    ``telemetry`` (a :class:`repro.obs.TelemetrySampler`) publishes live
    progress — ``store.segments_done``, ``store.users_done`` (+ the
    ``store.users_done_total`` counter the monitor rates), the planned
    totals, and the scheduler's in-flight/overlap/stall figures — into
    the sampler's own :class:`~repro.obs.LiveMetrics` bag.  The run's
    :class:`~repro.obs.MetricsRegistry` is never touched, so manifests
    and parity suites stay byte-identical with telemetry on or off.

    ``keep_results=False`` (the default, the out-of-core mode) returns a
    :class:`ValidationSummary`; ``keep_results=True`` materialises every
    segment's users and per-checkin results into a full
    :class:`ValidationReport` — only sensible for studies that fit in
    RAM (parity tests, small runs).
    """
    visit_config = visit_config or VisitConfig()
    match_config = match_config or MatchConfig()
    classify_config = classify_config or ClassifyConfig()
    ctx = obs if obs is not None else obs_current()
    if health is None:
        health = RunHealth()
    if checkpoints is not None and not isinstance(checkpoints, CheckpointStore):
        checkpoints = CheckpointStore(checkpoints)
    checkpoint_key = config_hash(visit_config, match_config, classify_config)
    inflight = _resolve_inflight(
        inflight_segments, workers, executor, len(store.segments)
    )
    # With a fault plan but no explicit resilience config, segment loads
    # run under the default policy — mirroring run_stage's convention.
    load_resilience = resilience
    if load_resilience is None and fault_plan is not None:
        load_resilience = ResilienceConfig()
    # Two lanes hide one segment's stage-boundary pool idling behind the
    # other's compute; more lanes add process pressure, not throughput.
    # Every lane runs at the full requested width, so the shard layout —
    # and therefore every per-segment counter — is the same at any window.
    lanes = min(2, inflight)
    lane_execs = [resolve_executor(executor, workers) for _ in range(lanes)]

    agg = _StoreAggregate(keep_results)
    timings = RuntimeTimings()
    prog = (
        _SegmentProgress(progress, len(store.segments), store.n_users)
        if progress is not None
        else None
    )
    live = telemetry.live if telemetry is not None else None
    if live is not None:
        live.set_gauge("store.segments_planned", float(len(store.segments)))
        live.set_gauge("store.users_planned", float(store.n_users))
        live.set_gauge("store.segments_done", 0.0)
        live.set_gauge("store.users_done", 0.0)
        live.set_gauge("store.inflight_segments", float(inflight))

    def seg_plan_for(entry: SegmentEntry):
        return (
            fault_plan.for_segment(entry.segment_id)
            if fault_plan is not None
            else None
        )

    def load(index: int, entry: SegmentEntry):
        """Prefetch thread: checkpoint probe, then the (resilient) load."""
        payload = (
            checkpoints.load(entry, checkpoint_key)
            if checkpoints is not None
            else None
        )
        if payload is not None:
            seg_dataset = None
            if keep_results:
                seg_dataset = store.load_segment(entry, pois=pois)
                for user_id, data in seg_dataset.users.items():
                    data.visits = payload["visits"][user_id]
            return ("reused", payload, seg_dataset)
        seg_dataset, load_retries, degraded = _load_segment_resilient(
            store, entry, pois, load_resilience, seg_plan_for(entry)
        )
        return ("fresh", seg_dataset, load_retries, degraded)

    def compute(index: int, entry: SegmentEntry, loaded, lane_id: int):
        """Lane thread: the three stages on the lane's own executor."""
        if loaded[0] == "reused":
            return {"reused": True, "payload": loaded[1], "dataset": loaded[2]}
        _, seg_dataset, load_retries, degraded = loaded
        outcome: Dict[str, Any] = {
            "reused": False,
            "load_retries": load_retries,
            "degraded_load": degraded,
            "delta": None,
            "base_s": 0.0,
        }
        if degraded is not None:
            outcome.update(
                matching={}, labels={}, checkins={}, visits={}, users=None,
                timings=RuntimeTimings(), health=RunHealth(),
            )
            return outcome
        seg_timings = RuntimeTimings()
        seg_health = RunHealth()
        outcome["timings"] = seg_timings
        outcome["health"] = seg_health
        exec_ = lane_execs[lane_id][0]
        seg_plan = seg_plan_for(entry)

        def run_stages():
            return _segment_results(
                entry, seg_dataset, visit_config, match_config,
                classify_config, exec_, seg_timings, resilience,
                seg_plan, seg_health,
            )

        if ctx.enabled:
            # A private context per segment: the parent context is not
            # thread-safe, and a fresh one gives the reducer a clean
            # per-segment counter delta for the checkpoint.
            seg_ctx = ObsContext(profile=ctx.profile_enabled)
            outcome["base_s"] = ctx.clock()
            with thread_activate(seg_ctx), seg_ctx.span(
                "store.segment",
                segment=entry.segment_id,
                users=entry.n_users,
                reused=False,
            ):
                matching, classification = run_stages()
            outcome["delta"] = seg_ctx.delta()
        else:
            matching, classification = run_stages()
        outcome["matching"] = matching.per_user
        outcome["labels"] = classification.labels
        outcome["checkins"] = classification.checkins
        outcome["visits"] = {
            user_id: data.visits for user_id, data in seg_dataset.users.items()
        }
        outcome["users"] = seg_dataset.users if keep_results else None
        return outcome

    done_users = 0

    def reduce(index: int, entry: SegmentEntry, outcome) -> None:
        """Caller thread, manifest order: every ordered side effect."""
        nonlocal done_users
        if outcome["reused"]:
            payload = outcome["payload"]
            with ctx.span(
                "store.segment",
                segment=entry.segment_id,
                users=entry.n_users,
                reused=True,
            ):
                agg.segments_reused += 1
                ctx.count("store.segments_reused", 1)
                for name, delta in payload["counters"].items():
                    ctx.count(name, delta)
                ctx.count("store.segments_total", 1)
            seg_users = (
                outcome["dataset"].users
                if outcome["dataset"] is not None
                else None
            )
            agg.add_segment(
                entry, payload["matching"], payload["labels"],
                payload["checkins"], payload["visits"], seg_users,
            )
        else:
            # Load-level recovery lands before the checkpoint snapshot so
            # recovery noise never pollutes checkpoint bytes.
            if outcome["load_retries"]:
                health.retries += outcome["load_retries"]
                ctx.count("runtime.shard_retries", outcome["load_retries"])
            degraded = outcome["degraded_load"]
            if degraded is not None:
                health.skipped.append(degraded)
                ctx.count("runtime.shards_skipped", 1)
            seg_health = outcome["health"]
            health.retries += seg_health.retries
            health.timeouts += seg_health.timeouts
            health.pool_rebuilds += seg_health.pool_rebuilds
            health.serial_fallbacks += seg_health.serial_fallbacks
            health.skipped.extend(seg_health.skipped)
            timings.stages.extend(outcome["timings"].stages)
            # A segment with skipped users (failed load or skipped shard)
            # is not checkpointed: its health is not in the payload, so a
            # replay would pass it off as clean.  It recomputes instead.
            save = (
                checkpoints is not None
                and degraded is None
                and not seg_health.skipped
            )
            if save:
                before = (
                    ctx.metrics.snapshot()["counters"] if ctx.enabled else {}
                )
                seg_counters = (
                    outcome["delta"]["metrics"]["counters"]
                    if outcome["delta"] is not None
                    else {}
                )
                # A segment counter survives if it is new to the run or
                # moves the cumulative value — the key set a replay must
                # recreate, and independent of the window.
                deltas = {
                    name: value
                    for name, value in seg_counters.items()
                    if name not in before or value != 0
                }
                checkpoints.save(
                    entry,
                    checkpoint_key,
                    _checkpoint_payload(
                        outcome["matching"], outcome["labels"],
                        outcome["checkins"], outcome["visits"], deltas,
                    ),
                )
            if outcome["delta"] is not None:
                ctx.absorb(
                    outcome["delta"],
                    parent_id=pipeline_span.span_id,
                    base_s=outcome["base_s"],
                )
            ctx.count("store.segments_total", 1)
            agg.add_segment(
                entry, outcome["matching"], outcome["labels"],
                outcome["checkins"], outcome["visits"], outcome["users"],
            )
        if prog is not None:
            prog.update(entry.n_users, reused=outcome["reused"])
        if live is not None:
            done_users += entry.n_users
            live.set_gauge("store.segments_done", float(index + 1))
            live.set_gauge("store.users_done", float(done_users))
            live.inc("store.users_done_total", entry.n_users)

    def on_progress(snap: Dict[str, Any]) -> None:
        # Reducer-thread callback from run_pipelined: publish the
        # scheduler's live efficiency figures to the sampler bag.
        live.set_gauge("store.inflight_segments", float(snap["inflight"]))
        live.set_gauge("store.prefetch_overlap", float(snap["overlap"]))
        live.set_gauge("store.prefetch_stalls", float(snap["stalls"]))
        live.set_gauge("store.reduce_wait_s", snap["reduce_wait_s"])

    try:
        with activate(ctx), ctx.span(
            "pipeline.validate",
            dataset=store.name,
            users=store.n_users,
            workers=lane_execs[0][0].workers,
            segments=len(store.segments),
        ) as pipeline_span:
            ctx.set_gauge("store.inflight_segments", float(inflight))
            pois = store.load_pois()
            stats = run_pipelined(
                store.segments, load, compute, reduce,
                inflight=inflight, lanes=lanes,
                on_progress=on_progress if live is not None else None,
            )
            ctx.count("store.prefetch_overlap_total", stats["overlap"])
            ctx.count("store.prefetch_stalls_total", stats["stalls"])
            ctx.count("pipeline.runs_total", 1)
            agg.set_headline_gauges(ctx, health)
    finally:
        for exec_, owned in lane_execs:
            if owned:
                exec_.close()
        if prog is not None:
            prog.close()
    return _store_result(
        store, agg, match_config, classify_config, timings, health,
        keep_results,
    )


def _store_result(
    store: StudyStore,
    agg: _StoreAggregate,
    match_config: MatchConfig,
    classify_config: ClassifyConfig,
    timings: RuntimeTimings,
    health: RunHealth,
    keep_results: bool,
) -> Union[ValidationSummary, ValidationReport]:
    """Materialise the run's return value from the reduce-side state."""
    if keep_results:
        return ValidationReport(
            dataset=Dataset(
                name=store.name, pois=store.load_pois(), users=agg.users
            ),
            matching=MatchingResult(
                config=match_config, per_user=agg.merger.merged
            ),
            classification=ClassificationResult(
                config=classify_config, labels=agg.labels, checkins=agg.checkins
            ),
            timings=timings,
            health=health,
        )
    return ValidationSummary(
        name=store.name,
        n_users=store.n_users,
        n_segments=len(store.segments),
        n_honest=agg.n_honest,
        n_extraneous=agg.n_extraneous,
        n_missing=agg.n_missing,
        type_counts=agg.type_counts,
        visit_counts=agg.visit_counts,
        timings=timings,
        health=health,
        segments_reused=agg.segments_reused,
    )
