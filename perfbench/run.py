"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload zipf_replay --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` repeats the workload for ``--seconds`` seconds (at least
``MIN_REPS`` times) and prints the end-to-end metrics, wall-clock ones
scaled to a nominal host speed (``hostspeed.py``).  ``--trace 1``
alternates untraced and traced repetitions of the same seed for
``--seconds`` seconds and prints the per-layer metrics.  Either way the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it carry the run metadata and the details behind each number.
Any failed correctness check makes the exit code 1.
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
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Working directory for WAL directories and written-out traces.
WORKDIR = ROOT / ".perfbench_run"

#: Repetitions an untraced run makes at the least, whatever ``--seconds`` says.
MIN_REPS = 3
#: Untraced/traced repetition pairs a traced run makes at the least.
MIN_TRACE_PAIRS = 2
#: Set-ups an untraced run times at the least; when the repetitions made
#: fewer, set-up-only cycles (set up, tear down) make up the rest.
MIN_SETUPS = 9
#: Host-speed probes taken just before each timed set-up.
SETUP_PROBES = 3

#: Counters that are wall-clock readings rather than counts of work.
MEASURED_COUNTERS = {"engine.rss_growth_kb_per_query"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "submit_p50_us": "us",
    "submit_tail_us": "us",
    "answer_accuracy": "fraction",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "lang.parse_calls": "count",
    "lang.parse_s": "s",
    "plan.plan_calls": "count",
    "plan.plan_s": "s",
    "plan.choose_s": "s",
    "plan.candidates": "count",
    "plan.replans": "count",
    "operators.kernel_compiles": "count",
    "operators.kernel_compile_s": "s",
    "operators.local_s": "s",
    "operators.input_rows": "count",
    "exec.submit_s": "s",
    "exec.passes": "count",
    "exec.step_self_s": "s",
    "exec.clock_advances": "count",
    "exec.noop_clock_advances": "count",
    "tasks.submitted": "count",
    "tasks.flush_calls": "count",
    "tasks.flush_s": "s",
    "tasks.hit_compile_s": "s",
    "tasks.cache_lookups": "count",
    "tasks.cache_hit_ratio": "fraction",
    "tasks.cache_lookup_s": "s",
    "tasks.cache_store_s": "s",
    "tasks.distinct_question_ratio": "fraction",
    "crowd.usd_per_query": "USD/query",
    "crowd.hits_per_query": "HITs/query",
    "crowd.sim_latency_p50_s": "sim_s",
    "crowd.sim_latency_tail_s": "sim_s",
    "crowd.hits_created": "count",
    "crowd.create_hit_s": "s",
    "crowd.assignments": "count",
    "crowd.events_fired": "count",
    "crowd.clock_s": "s",
    "crowd.hit_latency_sim_s": "sim_s",
    "wal.records": "count",
    "wal.bytes_per_query": "B/query",
    "wal.append_s": "s",
    "wal.flushes": "count",
    "wal.flush_s": "s",
    "snapshot.count": "count",
    "snapshot.bytes": "B",
    "snapshot.write_s": "s",
    "recovery.replayed_records": "count",
    "recovery.recovery_s": "s",
    "cluster.submit_s": "s",
    "cluster.drain_s": "s",
    "cluster.sync_s": "s",
    "cluster.results_s": "s",
    "cluster.frames": "count",
    "cluster.frame_bytes": "B",
    "cluster.codec_s": "s",
    "cluster.cross_shard_hits": "count",
    "engine.retained_queries": "count",
    "engine.scheduler_events": "count",
    "engine.rss_growth_kb_per_query": "KiB/query",
    "trace.overhead_frac": "fraction",
    "trace.unattributed_frac": "fraction",
}

#: Per-layer timings read from span summaries: metric -> (span name, field).
SPAN_TIMES = {
    "lang.parse_s": ("lang.parse", "total_s"),
    "plan.plan_s": ("plan.plan", "total_s"),
    "plan.choose_s": ("plan.choose", "total_s"),
    "operators.kernel_compile_s": ("operators.kernel_compile", "total_s"),
    "operators.local_s": ("operators.step_local", "total_s"),
    "exec.submit_s": ("exec.submit", "total_s"),
    "exec.step_self_s": ("exec.step", "self_s"),
    "tasks.flush_s": ("tasks.flush", "total_s"),
    "tasks.hit_compile_s": ("tasks.hit_compile", "total_s"),
    "tasks.cache_lookup_s": ("tasks.cache_lookup", "total_s"),
    "tasks.cache_store_s": ("tasks.cache_store", "total_s"),
    "crowd.create_hit_s": ("crowd.create_hit", "total_s"),
    "crowd.clock_s": ("crowd.clock", "total_s"),
    "wal.append_s": ("wal.append", "total_s"),
    "wal.flush_s": ("wal.flush", "total_s"),
    "snapshot.write_s": ("snapshot.write", "total_s"),
    "cluster.submit_s": ("cluster.submit", "total_s"),
    "cluster.drain_s": ("cluster.drain", "total_s"),
    "cluster.sync_s": ("cluster.sync", "total_s"),
    "cluster.results_s": ("cluster.results", "total_s"),
    "cluster.codec_s": ("cluster.codec", "total_s"),
}

#: Per-layer counts read from span call counts: metric -> span name.
SPAN_CALLS = {
    "lang.parse_calls": "lang.parse",
    "plan.plan_calls": "plan.plan",
    "operators.kernel_compiles": "operators.kernel_compile",
    "tasks.flush_calls": "tasks.flush",
    "tasks.cache_lookups": "tasks.cache_lookup",
    "wal.records": "wal.append",
    "wal.flushes": "wal.flush",
    "snapshot.count": "snapshot.write",
    "tasks.submitted": "tasks.submit",
}


def run_metadata(seed: int) -> dict:
    """Where a result came from; runs that differ in ``numpy`` never compare."""
    from repro.storage import accel

    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "numpy": accel.HAVE_NUMPY,
    }


def _git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def one_rep(workload, context, tracer=None):
    """Set up, run (and recover) once, then tear down.

    Returns the repetition's result and its set-up as (wall s, host speed
    factor measured just before it).
    """
    from tracer import layer_entry_points

    # Free the previous repetition's engine first, so peak RSS never holds two.
    gc.collect()
    setup_s, factor, state = _timed_setup(workload, context.speed)
    try:
        if tracer is not None:
            tracer.reset()
            layer_entry_points(tracer)
        try:
            rep = workload.run(state, context)
            if tracer is not None:
                rep.trace = tracer.summarize(rep.wall_s, rep.phase_end)
                rep.trace_counts = dict(tracer.counts)
                rep.questions = len(tracer.questions)
                rep.spans = tracer.columns()
                tracer.reset()
            recover = getattr(workload, "recover", None)
            if recover is not None:
                recover(state, rep, context)
                if tracer is not None:
                    rep.recovery_counts = dict(tracer.counts)
        finally:
            if tracer is not None:
                tracer.restore()
    finally:
        workload.teardown(state)
    return rep, (setup_s, factor)


def _timed_setup(workload, speed) -> tuple[float, float, Any]:
    """Probe the host speed, then set up; returns (wall s, speed factor, state)."""
    speed.reset()
    for _ in range(SETUP_PROBES):
        speed.sample()
    began = time.perf_counter()
    state = workload.setup(WORKDIR)
    return time.perf_counter() - began, speed.factor(), state


def run_reps(workload, context, seconds: float, min_reps: int, tracer=None):
    """Repeat the workload for ``seconds``, at least ``min_reps`` times.

    With a ``tracer``, repetitions alternate untraced and traced in the
    order U T T U U T ..., so warm-up and drift fall on both sides evenly;
    the run always ends on a whole U T / T U pair.
    """
    reps, setups, traced = [], [], []
    deadline = time.perf_counter() + seconds
    last = 0.0
    while (
        len(reps) < min_reps
        or time.perf_counter() + last <= deadline
        or (tracer is not None and len(reps) % 2)
    ):
        began = time.perf_counter()
        use = tracer if tracer is not None and len(reps) % 4 in (1, 2) else None
        rep, setup = one_rep(workload, context, use)
        reps.append(rep)
        setups.append(setup)
        traced.append(use is not None)
        last = time.perf_counter() - began
    return reps, setups, traced


def setup_only(workload, speed, count: int) -> list[tuple[float, float]]:
    """Time ``count`` set-ups that run nothing, each torn down at once."""
    setups = []
    for _ in range(count):
        gc.collect()
        setup_s, factor, state = _timed_setup(workload, speed)
        setups.append((setup_s, factor))
        workload.teardown(state)
    return setups


def determinism_errors(reps, reference) -> list[str]:
    """Outcomes and work counts must equal the reference repetition's."""
    errors = []
    for index, rep in enumerate(reps):
        if rep.outcome != reference.outcome:
            errors.append(f"repetition {index + 1} outcome {rep.outcome} != {reference.outcome}")
        for key, value in rep.counters.items():
            if key not in MEASURED_COUNTERS and reference.counters.get(key) != value:
                errors.append(
                    f"repetition {index + 1} counter {key} = {value}, "
                    f"expected {reference.counters.get(key)}"
                )
    return errors


def end_to_end(reps, setups, baseline_kb: int) -> tuple[dict, dict]:
    """End-to-end metrics; timings are medians over repetitions.

    Every wall timing is scaled to the nominal host speed by the speed
    factor measured alongside it (``hostspeed.py``): a repetition's factor
    for its query phase, the probe just before it for a set-up.  The
    details line prints the unscaled medians and the factors.

    Peak RSS counts only what this process grew beyond ``baseline_kb``, its
    resident size once the interpreter, the engine's modules and the
    workload's generated inputs were loaded, so the harness's own share
    does not dilute the engine's; shard processes count whole.  A submit
    timing is taken per repetition and the median across repetitions is
    reported, so one repetition caught in a burst of host noise moves
    neither p50 nor the tail.  The tail is the highest ladder percentile
    with at least ten of one repetition's samples beyond it.
    """
    from workloads import percentile, tail_percentile

    per_rep = len(reps[0].submit_us)
    tail_p = tail_percentile(per_rep)
    own_peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def timings(scaled: bool) -> dict:
        def factor(value):
            return value if scaled else 1.0

        return {
            "setup_s": statistics.median(setup_s / factor(f) for setup_s, f in setups),
            "queries_per_s": statistics.median(
                (rep.queries - rep.failed) / rep.wall_s * factor(rep.speed) for rep in reps
            ),
            "submit_p50_us": statistics.median(
                percentile(rep.submit_us, 50.0) / factor(rep.speed) for rep in reps
            ),
            "submit_tail_us": statistics.median(
                percentile(rep.submit_us, tail_p) / factor(rep.speed) for rep in reps
            ),
        }

    values = timings(scaled=True)
    values["answer_accuracy"] = reps[0].outcome["answer_accuracy"]
    values["peak_rss_mb"] = (
        own_peak_kb - baseline_kb + max(rep.child_peak_rss_kb for rep in reps)
    ) / 1024.0
    attempted = sum(rep.queries for rep in reps)
    outcome = reps[0].outcome
    # The crowd-side costs and outcomes, printed with their units; they are
    # zero on crowd-free work, so they are not bounded end-to-end metrics
    # (see README.md).
    crowd = {
        "usd_per_query": (outcome["usd_per_query"], "USD"),
        "hits_per_query": (outcome["hits_per_query"], "HITs"),
        "sim_latency_p50_s": (outcome.get("sim_latency_p50_s"), "sim_s"),
        "sim_latency_tail_s": (outcome.get("sim_latency_tail_s"), "sim_s"),
        "failed_frac": (sum(rep.failed for rep in reps) / attempted, "fraction"),
        "recovery_s": (
            statistics.median(rep.recovery_s for rep in reps)
            if any(rep.recovery_s for rep in reps)
            else None,
            "s",
        ),
        "generator_lag_max_sim_s": (outcome.get("generator_lag_max_sim_s"), "sim_s"),
    }
    details = {
        "repetitions": len(reps),
        "submit_tail_percentile": tail_p,
        "submit_samples_per_rep": per_rep,
        "sim_latency_tail_percentile": tail_percentile(reps[0].queries),
        "unscaled": timings(scaled=False),
        "rep_wall_s": [round(rep.wall_s, 4) for rep in reps],
        "rep_speed_factor": [round(rep.speed, 3) for rep in reps],
        "setup_s": [round(setup_s, 4) for setup_s, _ in setups],
        "setup_speed_factor": [round(f, 3) for _, f in setups],
        "harness_baseline_rss_mb": baseline_kb / 1024.0,
        "process_peak_rss_mb": own_peak_kb / 1024.0,
        "crowd": {name: {"value": value, "unit": unit} for name, (value, unit) in crowd.items()},
    }
    return values, details


def per_layer(untraced, traced) -> dict:
    """Per-layer metrics: times are medians over traced repetitions."""
    first = traced[0]
    counts = first.trace_counts
    values = {name: 0.0 for name in PER_LAYER_UNITS}
    for metric, (span, field) in SPAN_TIMES.items():
        values[metric] = statistics.median(rep.trace.get(span, {}).get(field, 0.0) for rep in traced)
    for metric, span in SPAN_CALLS.items():
        values[metric] = first.trace.get(span, {}).get("calls", 0)
    lookups = values["tasks.cache_lookups"]
    values["plan.candidates"] = counts.get("candidates", 0)
    values["plan.replans"] = counts.get("replans", 0)
    values["tasks.cache_hit_ratio"] = counts.get("cache_hits", 0) / lookups if lookups else 0.0
    items = counts.get("hit_items", 0)
    values["tasks.distinct_question_ratio"] = first.questions / items if items else 0.0
    values["wal.bytes_per_query"] = counts.get("wal_bytes", 0) / first.queries
    values["snapshot.bytes"] = counts.get("snapshot_bytes", 0)
    values["recovery.replayed_records"] = first.recovery_counts.get("replayed_records", 0)
    values["cluster.frames"] = counts.get("frames", 0)
    values["cluster.frame_bytes"] = counts.get("frame_bytes", 0)
    for key in ("usd_per_query", "hits_per_query", "sim_latency_p50_s", "sim_latency_tail_s"):
        values[f"crowd.{key}"] = first.outcome.get(key, 0.0)
    # Counters the program keeps itself win over what the spans saw (the
    # cluster's live inside shard processes the tracer cannot reach).
    for key, value in first.counters.items():
        if key not in MEASURED_COUNTERS:
            values[key] = value
    values["engine.rss_growth_kb_per_query"] = statistics.median(
        rep.counters["engine.rss_growth_kb_per_query"] for rep in untraced
    )
    values["recovery.recovery_s"] = statistics.median(rep.recovery_s for rep in untraced)
    untraced_wall = statistics.median(rep.wall_s for rep in untraced)
    traced_wall = statistics.median(rep.wall_s for rep in traced)
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    values["trace.unattributed_frac"] = statistics.median(
        rep.trace["_unattributed"]["total_s"] / rep.wall_s for rep in traced
    )
    return values


def write_trace(workload_name: str, seed: int, meta: dict, rep) -> Path:
    """Write the last traced repetition's spans and summary out as JSON."""
    WORKDIR.mkdir(parents=True, exist_ok=True)
    path = WORKDIR / f"trace-{workload_name}-seed{seed}.json"
    document = {
        "meta": meta,
        "wall_s": rep.wall_s,
        "summary": rep.trace,
        "counts": rep.trace_counts,
        "spans": rep.spans,
    }
    path.write_text(json.dumps(document, separators=(",", ":")))
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no engine sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from hostspeed import HostSpeed
    from tracer import TraceContext, Tracer
    from workloads import WORKLOADS, rss_kb

    if args.workload == "all":
        # One fresh process per workload, so peak RSS is each workload's own.
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                check=False,
            ).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    meta = run_metadata(args.seed)
    print(json.dumps({"meta": meta, "workload": args.workload, "trace": args.trace}))
    workload = WORKLOADS[args.workload](args.seed)
    gc.collect()
    baseline_kb = rss_kb()
    # Host speed is probed in untraced runs only; the per-layer figures of a
    # traced run are not scaled.
    context = TraceContext(HostSpeed(enabled=args.trace == 0))

    if args.trace == 0:
        reps, setups, _ = run_reps(workload, context, args.seconds, MIN_REPS)
        setups += setup_only(workload, context.speed, MIN_SETUPS - len(setups))
        values, details = end_to_end(reps, setups, baseline_kb)
        units = END_TO_END_UNITS
    else:
        reps, _, flags = run_reps(
            workload, context, args.seconds, 2 * MIN_TRACE_PAIRS, Tracer(context)
        )
        traced = [rep for rep, flag in zip(reps, flags) if flag]
        untraced = [rep for rep, flag in zip(reps, flags) if not flag]
        values = per_layer(untraced, traced)
        calls = [{name: s["calls"] for name, s in rep.trace.items()} for rep in traced]
        details = {
            "untraced_repetitions": len(untraced),
            "traced_repetitions": len(traced),
            "trace_file": str(write_trace(args.workload, args.seed, meta, traced[-1])),
        }
        units = PER_LAYER_UNITS

    errors = [error for rep in reps for error in rep.errors]
    errors += determinism_errors(reps, reps[0])
    if args.trace == 1 and any(c != calls[0] for c in calls):
        errors.append("traced repetitions made different numbers of layer calls")
    details["errors"] = errors[:20]
    print(json.dumps({"details": details}))
    result = {
        "correct": not errors,
        "attempted": sum(rep.queries for rep in reps),
        "failed": sum(rep.failed for rep in reps),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
