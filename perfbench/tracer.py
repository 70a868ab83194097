"""Outside-in span tracer: wraps layer entry points from the benchmark's side.

The program under test carries no instrumentation.  For a traced run the
benchmark replaces each layer's public entry point, at the attribute callers
look it up through (``repro.engine.parse_select``, ``QueryPlanner.plan``,
...), with a wrapper that records one span per call, and puts the originals
back afterwards.  A span is ``[name, start, end, parent index, trace id]``;
the trace id is whatever the workload set on the shared context (the query
id on the submit path, the round id on drain paths).  Spans stay in memory,
one column list per field so that millions of them add no objects for the
garbage collector to walk, and are written out when the run ends.

Wrappers only observe: they pass arguments and results through unchanged,
so a traced run must reproduce the untraced run's crowd counts exactly
(``run.py`` checks that on every traced run).
"""

from __future__ import annotations

import os
import time
from collections import Counter
from typing import Any, Callable

from hostspeed import HostSpeed

__all__ = ["TraceContext", "Tracer", "layer_entry_points"]


class TraceContext:
    """The trace id workloads set before calling into the engine, and the
    host-speed probe they call at pause points between timed operations."""

    def __init__(self, speed: HostSpeed) -> None:
        self.trace_id = ""
        self.speed = speed


class Tracer:
    """Records spans and counts around wrapped callables."""

    def __init__(self, context: TraceContext) -> None:
        self.context = context
        #: Span columns: name, start, end, parent index (-1 for a root), trace id.
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.trace_ids: list[str] = []
        self.counts: Counter = Counter()
        #: Distinct (task name, cache key) questions seen by the HIT compiler.
        self.questions: set = set()
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- wrapping -------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        before: Callable[..., Any] | None = None,
        after: Callable[..., None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(args, kwargs)`` runs ahead of the span and its return value
        reaches ``after(args, kwargs, result, token)``, which runs once the
        span is closed; both record counts, never change behaviour.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        names, starts, ends = self.names, self.starts, self.ends
        parents, trace_ids, stack = self.parents, self.trace_ids, self._stack
        context, clock = self.context, time.perf_counter

        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            index = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            trace_ids.append(context.trace_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result, token)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        for column in (self.names, self.starts, self.ends, self.parents, self.trace_ids):
            column.clear()
        self._stack.clear()
        self.counts.clear()
        self.questions = set()

    # -- analysis -------------------------------------------------------------

    def columns(self) -> dict[str, list]:
        """The recorded spans as JSON-ready columns."""
        return {
            "name": list(self.names),
            "start": list(self.starts),
            "end": list(self.ends),
            "parent": list(self.parents),
            "trace_id": list(self.trace_ids),
        }

    def summarize(self, window_s: float, window_end: float) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Inclusive time counts only the outermost span of a name, so a layer
        that re-enters itself (``run_next`` calling ``advance_to``) is not
        counted twice.  Self time is a span's duration minus the part its
        child spans cover; children of one parent never overlap because a
        single thread records them.  ``"_unattributed"`` holds the share of
        ``window_s`` that no root span covers.  Spans that start after
        ``window_end`` (result checks once the measured phase is over) are
        left out.
        """
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        # Spans are recorded in start order.
        count = len(starts)
        while count and starts[count - 1] >= window_end:
            count -= 1
        child_time = [0.0] * count
        summary: dict[str, dict[str, float]] = {}
        covered = 0.0
        for index in range(count):
            duration = ends[index] - starts[index]
            if parents[index] < 0:
                covered += duration
            else:
                child_time[parents[index]] += duration
        for index in range(count):
            name, duration = names[index], ends[index] - starts[index]
            entry = summary.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += duration - child_time[index]
            ancestor = parents[index]
            while ancestor >= 0 and names[ancestor] != name:
                ancestor = parents[ancestor]
            if ancestor < 0:
                entry["total_s"] += duration
        summary["_unattributed"] = {
            "calls": 0,
            "total_s": max(0.0, window_s - covered),
            "self_s": 0.0,
        }
        return summary


def layer_entry_points(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are measured at."""
    import repro.cluster.coordinator as coordinator
    import repro.cluster.messages as messages
    import repro.core.operators.aggregate as aggregate
    import repro.core.operators.crowd_filter as crowd_filter
    import repro.core.operators.join_local as join_local
    import repro.core.operators.project as project
    import repro.core.operators.sort_local as sort_local
    import repro.engine as engine
    from repro.core.exec.executor import QueryExecutor
    from repro.core.exec.scheduler import EngineScheduler
    from repro.core.optimizer.adaptive import AdaptiveReplanner
    from repro.core.plan.physical import PhysicalPlanner
    from repro.core.plan.planner import QueryPlanner
    from repro.core.tasks.hit_compiler import HITCompiler
    from repro.core.tasks.task_cache import TaskCache
    from repro.core.tasks.task_manager import TaskManager
    from repro.crowd.clock import SimulationClock
    from repro.crowd.mturk import MTurkSimulator
    from repro.storage.wal import WriteAheadLog

    counts = tracer.counts

    def count(key: str, amount: Callable[[Any], int]):
        def after(args, kwargs, result, token):
            counts[key] += amount(result)

        return after

    def note_compile(args, kwargs, result, token):
        tasks = args[1]
        counts["hit_items"] += len(tasks)
        for task in tasks:
            key = task.cache_key if task.cache_key is not None else task.task_id
            tracer.questions.add((task.spec.name, key))

    def file_size(args, kwargs):
        return os.path.getsize(args[0].path)

    def note_flush(args, kwargs, result, token):
        counts["wal_bytes"] += os.path.getsize(args[0].path) - token

    def note_snapshot(args, kwargs, result, token):
        counts["snapshot_bytes"] += os.path.getsize(result)

    def note_recovery(args, kwargs, result, token):
        floor = result.snapshot_lsn
        counts["replayed_records"] += sum(
            1 for record in result.records if floor is None or record.lsn > floor
        )

    def note_frame_out(args, kwargs, result, token):
        counts["frames"] += 1
        counts["frame_bytes"] += len(result)

    def note_frame_in(args, kwargs, result, token):
        counts["frames"] += 1
        counts["frame_bytes"] += len(args[0])

    wrap = tracer.wrap
    # Front end: engine API, parsing, planning.
    wrap(engine.QurkEngine, "query", "engine.query")
    wrap(engine.QurkEngine, "checkpoint", "engine.checkpoint")
    wrap(engine, "parse_select", "lang.parse")
    wrap(QueryPlanner, "plan", "plan.plan")
    wrap(PhysicalPlanner, "choose", "plan.choose", after=count("candidates", lambda r: len(r[1])))
    wrap(AdaptiveReplanner, "maybe_replan", "plan.replan", after=count("replans", len))
    # Kernels, looked up by name in each operator module.
    for module in (aggregate, crowd_filter, join_local, project, sort_local):
        wrap(module, "compile_batch_expression", "operators.kernel_compile")
    wrap(project, "compile_batch_predicate", "operators.kernel_compile")
    wrap(QueryExecutor, "step_local", "operators.step_local")
    # Scheduler.
    wrap(EngineScheduler, "submit", "exec.submit")
    wrap(EngineScheduler, "step", "exec.step")
    wrap(EngineScheduler, "drain", "exec.drain")
    wrap(EngineScheduler, "run_until", "exec.run_until")
    # Task Manager, HIT compiler, Task Cache.
    wrap(TaskManager, "submit", "tasks.submit")
    wrap(TaskManager, "flush", "tasks.flush")
    wrap(HITCompiler, "compile", "tasks.hit_compile", after=note_compile)
    wrap(
        TaskCache,
        "lookup",
        "tasks.cache_lookup",
        after=count("cache_hits", lambda r: r is not None),
    )
    wrap(TaskCache, "store", "tasks.cache_store")
    # Marketplace simulation and clock.
    wrap(MTurkSimulator, "create_hit", "crowd.create_hit")
    wrap(SimulationClock, "advance_to", "crowd.clock")
    wrap(SimulationClock, "run_next", "crowd.clock")
    wrap(SimulationClock, "run_until_idle", "crowd.clock")
    # Durability.
    wrap(WriteAheadLog, "append", "wal.append")
    wrap(WriteAheadLog, "flush", "wal.flush", before=file_size, after=note_flush)
    wrap(engine, "write_snapshot", "snapshot.write", after=note_snapshot)
    wrap(engine, "recover_engine", "recovery", after=note_recovery)
    # Cluster coordinator and its frame codec.
    wrap(coordinator.ShardCoordinator, "submit", "cluster.submit")
    wrap(coordinator.ShardCoordinator, "drain", "cluster.drain")
    wrap(coordinator.ShardCoordinator, "sync_answers", "cluster.sync")
    wrap(coordinator.ShardCoordinator, "results", "cluster.results")
    wrap(messages, "encode_message", "cluster.codec", after=note_frame_out)
    wrap(messages, "decode_message", "cluster.codec", after=note_frame_in)

