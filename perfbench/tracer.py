"""Outside-in layer tracing: wrappers installed from the benchmark's files.

The program has no spans of its own at its layer boundaries, so the
traced run replaces each public entry point at the name its caller looks
up (a class attribute or a module global) with a wrapper that records:

* an aggregate per name and thread — calls, wall seconds,
  ``time.thread_time()`` seconds, and the wall time of child calls (so
  self time = wall - child);
* a span — id, parent id, name, thread, start, end, CPU — for every call
  of a name installed with ``sample=1``, and for a fixed 1-in-``sample``
  subset of the hot per-event names.

A wrapper costs about a microsecond, as much as a whole ``ingest()``.
The tracer measures that cost on a wrapped no-op when it is created and
subtracts it: from each call's own wall and CPU time, and from every
ancestor whose window contains the call, so self times hold program work
only.  The traced run is still slower than an untraced one; ``run.py``
reports the ratio as the tracing overhead.

Spans are kept in memory and written out once, at the end of the run.
Work posted to an ingest lane carries the posting call's nearest span as
its parent, so engine spans on a lane thread link back to the ingest that
caused them.  Wrappers are removed by :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

_MISSING = object()


def _zero() -> float:
    return 0.0


class _Agg:
    __slots__ = ("calls", "wall", "cpu", "child")

    def __init__(self) -> None:
        self.calls = 0
        self.wall = 0.0
        self.cpu = 0.0
        self.child = 0.0


class Tracer:
    """Aggregates and spans for wrapped calls; see the module docstring."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._thread_aggs: List[Dict[str, _Agg]] = []
        self._thread_aggs_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []
        self.spans: List[tuple] = []
        self.t0 = time.perf_counter()
        #: Busy (wall, cpu) seconds per ingest lane, from posted thunks.
        self.lane_busy: Dict[int, List[float]] = {}
        #: Wrapper cost per call, keyed by whether it reads CPU time:
        #: (inside the recorded wall window, inside the recorded CPU
        #: window, outside both) in seconds.  Zero while calibrating.
        self.bias: Dict[bool, Tuple[float, float, float]] = {
            True: (0.0, 0.0, 0.0),
            False: (0.0, 0.0, 0.0),
        }
        self.bias = {cpu: self._calibrate(cpu) for cpu in (True, False)}

    # -- per-thread state ---------------------------------------------------

    def _state(self):
        local = self._local
        try:
            return local.stack, local.aggs
        except AttributeError:
            local.stack = []
            local.aggs = {}
            with self._thread_aggs_lock:
                self._thread_aggs.append(local.aggs)
            return local.stack, local.aggs

    @staticmethod
    def _parent_id(stack: list) -> Optional[int]:
        for frame in reversed(stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def _calibrate(self, cpu: bool, calls: int = 20_000, rounds: int = 5):
        """Per-call wrapper cost (see :attr:`bias`): the lowest of a few
        rounds, so a slow moment does not inflate it."""

        def noop():
            return None

        wrapped = self.wrap(noop, "calibrate", cpu=cpu)
        _, aggs = self._state()
        inner = inner_cpu = outer = float("inf")
        for _ in range(rounds):
            aggs.pop("calibrate", None)
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            base = time.perf_counter() - t0
            t0 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            total = time.perf_counter() - t0
            agg = aggs.pop("calibrate")
            inner = min(inner, agg.wall / calls)
            inner_cpu = min(inner_cpu, agg.cpu / calls)
            outer = min(outer, (total - base - agg.wall) / calls)
        self.spans.clear()
        return inner, inner_cpu, max(outer, 0.0)

    # -- wrapping -----------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        name: str,
        sample: int = 1,
        on_result: Optional[Callable[[Any, tuple], None]] = None,
        cpu: bool = True,
    ) -> Callable:
        """``fn`` wrapped to record under ``name``.

        ``on_result(result, args)`` runs after the call is recorded, on
        the calling thread, to derive counts (bytes written, stats).
        ``cpu=False`` skips the two ``thread_time()`` reads (a system
        call each) on hot names whose CPU time no metric uses.
        """
        counter = itertools.count()
        tracer = self
        clock = time.perf_counter
        cpu_clock = time.thread_time if cpu else _zero
        inner, inner_cpu, outer = self.bias[cpu]

        def wrapper(*args, **kwargs):
            stack, aggs = tracer._state()
            span_id = next(tracer._ids) if next(counter) % sample == 0 else None
            # [child wall, span id, wrapper cost inside this window]
            frame = [0.0, span_id, 0.0]
            stack.append(frame)
            c0 = cpu_clock()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                c1 = cpu_clock()
                stack.pop()
                cost = inner + frame[2]
                wall = t1 - t0 - cost
                if stack:
                    parent = stack[-1]
                    parent[0] += wall
                    parent[2] += cost + outer
                agg = aggs.get(name)
                if agg is None:
                    agg = aggs[name] = _Agg()
                agg.calls += 1
                agg.wall += wall
                agg.cpu += c1 - c0 - inner_cpu - frame[2] if cpu else 0.0
                agg.child += frame[0]
                if span_id is not None:
                    tracer.spans.append(
                        (
                            span_id,
                            tracer._parent_id(stack),
                            name,
                            threading.get_ident(),
                            t0 - tracer.t0,
                            t1 - tracer.t0,
                            c1 - c0,
                        )
                    )
            if on_result is not None:
                on_result(result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(
        self,
        owner: Any,
        attr: str,
        name: str,
        sample: int = 1,
        on_result: Optional[Callable[[Any, tuple], None]] = None,
        cpu: bool = True,
    ) -> None:
        """Replace ``owner.attr`` (class attribute or module global)."""
        original = getattr(owner, attr)
        self._replace(owner, attr, self.wrap(original, name, sample, on_result, cpu))

    def install_lane_post(self, pool_cls: Any, name: str, sample: int) -> None:
        """Wrap ``IngestPool.post`` and every thunk it enqueues.

        The thunk wrapper charges the thunk's wall and CPU time to its
        lane and makes the posting call's nearest span the parent of
        whatever the thunk calls on the lane thread.
        """
        tracer = self
        post = self.wrap(pool_cls.post, name, sample, cpu=False)
        inner, inner_cpu, _ = self.bias[True]

        def traced_post(pool, lane, fn):
            stack, _ = tracer._state()
            link = tracer._parent_id(stack)
            index = lane % pool.lanes

            def thunk():
                lane_stack, _ = tracer._state()
                frame = [0.0, link, 0.0]
                lane_stack.append(frame)
                c0 = time.thread_time()
                t0 = time.perf_counter()
                try:
                    fn()
                finally:
                    t1 = time.perf_counter()
                    c1 = time.thread_time()
                    lane_stack.pop()
                    busy = tracer.lane_busy.get(index)
                    if busy is None:
                        busy = tracer.lane_busy.setdefault(index, [0.0, 0.0])
                    busy[0] += t1 - t0 - inner - frame[2]
                    busy[1] += c1 - c0 - inner_cpu - frame[2]

            return post(pool, lane, thunk)

        self._replace(pool_cls, "post", traced_post)

    def _replace(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every wrapped name, newest first."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    # -- results ------------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per-name sums over threads: calls, wall_s, cpu_s, self_s."""
        out: Dict[str, Dict[str, float]] = {}
        with self._thread_aggs_lock:
            aggs = list(self._thread_aggs)
        for per_thread in aggs:
            for name, agg in per_thread.items():
                row = out.setdefault(
                    name, {"calls": 0, "wall_s": 0.0, "cpu_s": 0.0, "self_s": 0.0}
                )
                row["calls"] += agg.calls
                row["wall_s"] += agg.wall
                row["cpu_s"] += agg.cpu
                row["self_s"] += agg.wall - agg.child
        return out

    def write_spans(self, path: Path) -> None:
        """Dump the in-memory spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "name", "thread", "start_s", "end_s", "cpu_s")
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
