"""The four benchmark workloads.

Each workload turns ``--seed`` into its inputs (tables and generated SQL)
when it is constructed; the engine under test only ever sees those.  A
*repetition* builds fresh engine state (``setup``), runs the whole fixed
input once (``run``) and releases it (``teardown``).  Every repetition of a
run does identical work, so the crowd outcome (dollars, HITs, accuracy,
simulated latency) is a pure function of the seed and is checked to repeat
exactly, while wall-clock figures are pooled across repetitions.

The simulated marketplace is seeded with a constant per workload: the seed
picks the data and the query stream, not the crowd's behaviour.
"""

from __future__ import annotations

import bisect
import math
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.cluster import EngineSpec, ShardCoordinator
from repro.core.exec.handle import QueryStatus
from repro.core.operators.scan import IndexScanOperator, ScanOperator
from repro.engine import QurkEngine
from repro.storage.durability import DurabilityConfig
from repro.storage.types import DataType
from repro.testing.chaos import fingerprint_engine
from repro.testing.crashpoints import recovered_fingerprint
from repro.workloads.companies import CompaniesWorkload
from repro.workloads.products import ProductsWorkload

__all__ = ["WORKLOADS", "RepResult", "rss_kb", "tail_percentile", "percentile"]

#: Submissions between host-speed probes in the point-query workloads.
PROBE_EVERY = 100

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

FINDCEO_SQL = (
    "SELECT companyName, findCEO(companyName).CEO, findCEO(companyName).Phone "
    "FROM companies WHERE companyName = '{company}'"
)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n_samples: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if n_samples * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def rss_kb() -> int:
    """Current resident set size of this process, in KiB."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") // 1024


@dataclass
class RepResult:
    """What one repetition measured."""

    queries: int
    failed: int = 0
    #: Wall seconds of the measured query phase (probe time excluded), and
    #: when it ended.
    wall_s: float = 0.0
    phase_end: float = 0.0
    #: Host speed factor over the query phase (``HostSpeed.factor``).
    speed: float = 1.0
    submit_us: list[float] = field(default_factory=list)
    #: Deterministic outcome: equal on every repetition of one seed.
    outcome: dict[str, float] = field(default_factory=dict)
    #: Program counters read after the run (per-layer metrics).
    counters: dict[str, float] = field(default_factory=dict)
    #: Wall seconds of crash recovery (``crowd_fanout`` only).
    recovery_s: float = 0.0
    #: Peak RSS of processes other than this one (shard workers), KiB.
    child_peak_rss_kb: int = 0
    errors: list[str] = field(default_factory=list)
    #: Traced repetitions only: span summary, tracer counts, distinct
    #: questions and the raw spans of the query phase, plus the tracer
    #: counts of the recovery phase.
    trace: dict[str, dict[str, float]] | None = None
    trace_counts: dict[str, int] = field(default_factory=dict)
    questions: int = 0
    spans: list = field(default_factory=list)
    recovery_counts: dict[str, int] = field(default_factory=dict)


def _crowd_outcome(
    *, usd: float, hits: int, answered: int, accuracy: float, latencies: list[float] | None
) -> dict[str, float]:
    """The crowd-side outcome; ``latencies=None`` where the run cannot see them."""
    outcome = {
        "usd_per_query": usd / answered if answered else 0.0,
        "hits_per_query": hits / answered if answered else 0.0,
        "answer_accuracy": accuracy,
    }
    if latencies:
        outcome["sim_latency_p50_s"] = percentile(latencies, 50.0)
        outcome["sim_latency_tail_s"] = percentile(latencies, tail_percentile(len(latencies)))
    return outcome


def _engine_counters(engine, handles) -> dict[str, float]:
    """Counters the engine keeps itself, read once a repetition ends."""
    metrics = engine.scheduler.metrics
    platform = engine.platform
    waits = []
    for hit in platform.list_hits():
        done = [a.submitted_at for a in hit.submitted_assignments if a.submitted_at is not None]
        if hit.is_fully_submitted and done:
            waits.append(max(done) - hit.created_at)
    input_rows = 0
    for handle in handles:
        for operator in handle.executor.operators():
            if isinstance(operator, (ScanOperator, IndexScanOperator)):
                input_rows += operator.metrics.rows_out
    return {
        "exec.passes": metrics.passes,
        "exec.clock_advances": metrics.clock_advances,
        "exec.noop_clock_advances": metrics.noop_clock_advances,
        "crowd.hits_created": platform.stats.hits_created,
        "crowd.assignments": platform.stats.assignments_submitted,
        "crowd.events_fired": engine.clock.events_fired,
        "crowd.hit_latency_sim_s": statistics.median(waits) if waits else 0.0,
        "operators.input_rows": input_rows,
        "engine.retained_queries": len(engine.queries),
        "engine.scheduler_events": len(engine.scheduler.events),
    }


def _zipf_picks(rng: random.Random, n: int, n_items: int, s: float) -> list[int]:
    """``n`` draws from a zipf(s) popularity law over shuffled item ranks."""
    weights = [1.0 / rank**s for rank in range(1, n_items + 1)]
    total = sum(weights)
    cumulative, acc = [], 0.0
    for weight in weights:
        acc += weight / total
        cumulative.append(acc)
    order = list(range(n_items))
    rng.shuffle(order)
    return [
        order[min(bisect.bisect_left(cumulative, rng.random()), n_items - 1)] for _ in range(n)
    ]


def build_companies_engine(*, n_companies: int, workload_seed: int, market_seed: int):
    """A findCEO engine with the Task Cache on (also the shard recipe)."""
    workload = CompaniesWorkload(n_companies=n_companies, seed=workload_seed)
    engine = QurkEngine(seed=market_seed, enable_cache=True, enable_task_model=False)
    workload.install(engine.database)
    engine.register_oracle("findCEO", workload.oracle())
    engine.define_task(workload.findceo_spec(assignments=3))
    return engine


def _end_phase(result: RepResult, started: float, speed) -> None:
    """Close the query phase: its wall time without probes, and its speed."""
    result.phase_end = time.perf_counter()
    result.wall_s = result.phase_end - started - speed.spent
    result.speed = speed.factor()


def _arrival() -> None:
    """Clock event marking a query's due time; the generator submits it."""


class _ZipfInputs:
    """The zipf point-query stream shared by ``zipf_replay`` and ``sharded_replay``."""

    N_QUERIES = 4000
    N_COMPANIES = 50
    ZIPF_S = 1.1
    #: Mean simulated seconds between arrivals of the open loop.  About 490
    #: queries arrive while one findCEO HIT is out (median post-to-complete
    #: wait ~245 simulated s), so duplicates of a popular question are in
    #: flight before its first answer lands.  The value reproduces the
    #: stream the benchmark was designed against (README.md, "The zipf
    #: arrival rate").
    MEAN_GAP_S = 0.5
    MARKET_SEED = 1801

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.companies = CompaniesWorkload(n_companies=self.N_COMPANIES, seed=seed)
        rng = random.Random(seed)
        picks = _zipf_picks(rng, self.N_QUERIES, self.N_COMPANIES, self.ZIPF_S)
        self.names = [self.companies.records[index].name for index in picks]
        self.sql = [FINDCEO_SQL.format(company=name) for name in self.names]
        due, self.due = 0.0, []
        for _ in picks:
            due += rng.expovariate(1.0 / self.MEAN_GAP_S)
            self.due.append(due)
        self.directory = self.companies.directory()

    def engine_kwargs(self) -> dict[str, Any]:
        return {
            "n_companies": self.N_COMPANIES,
            "workload_seed": self.seed,
            "market_seed": self.MARKET_SEED,
        }

    def check_rows(self, index: int, rows, errors: list[str]) -> int:
        """Check one query's rows; returns 1 when its CEO is right."""
        name = self.names[index]
        if len(rows) != 1 or rows[0]["companyName"] != name:
            errors.append(f"query {index + 1} for {name!r} returned {len(rows)} row(s)")
            return 0
        return int(rows[0]["findCEO.CEO"] == self.directory[name].ceo)


class ZipfReplay(_ZipfInputs):
    """Open-loop zipfian point queries on the simulated clock, one engine."""

    name = "zipf_replay"

    def setup(self, workdir: Path):
        return build_companies_engine(**self.engine_kwargs())

    def run(self, engine, context) -> RepResult:
        result = RepResult(queries=len(self.sql))
        scheduler, clock = engine.scheduler, engine.clock
        handles, lags = [], []
        speed = context.speed
        rss_before = rss_kb()
        speed.reset()
        started = time.perf_counter()
        for index, (due, sql) in enumerate(zip(self.due, self.sql)):
            if index % PROBE_EVERY == 0:
                speed.sample()
            context.trace_id = f"q{index + 1}"
            # The arrival is a clock event of its own.  Without it an idle
            # scheduler fires the next marketplace event even when that
            # lies past ``due``, and queries would arrive in bursts, late.
            clock.schedule_at(due, _arrival, label="arrival")
            scheduler.run_until(due)
            if clock.now < due:
                clock.advance_to(due)
            lags.append(clock.now - due)
            began = time.perf_counter()
            handles.append(engine.query(sql))
            result.submit_us.append((time.perf_counter() - began) * 1e6)
        context.trace_id = "drain"
        scheduler.drain()
        clock.run_until_idle()
        speed.sample()
        _end_phase(result, started, speed)
        rss_after = rss_kb()

        correct, latencies = 0, []
        for index, handle in enumerate(handles):
            if handle.status is not QueryStatus.COMPLETED:
                result.failed += 1
                result.errors.append(f"{handle.query_id} ended {handle.status.value}")
                continue
            correct += self.check_rows(index, handle.results(), result.errors)
            latencies.append(handle.stats.finished_at - self.due[index])
        answered = len(handles) - result.failed
        result.outcome = _crowd_outcome(
            usd=engine.total_crowd_cost,
            hits=engine.task_manager.stats.hits_posted,
            answered=answered,
            accuracy=correct / answered if answered else 0.0,
            latencies=latencies,
        )
        result.outcome["generator_lag_max_sim_s"] = max(lags)
        if max(lags) > 0:
            result.errors.append(f"a query arrived {max(lags)} simulated s late")
        result.counters = _engine_counters(engine, handles)
        # Count marketplace events only, not the arrivals.
        result.counters["crowd.events_fired"] -= len(handles)
        result.counters["engine.rss_growth_kb_per_query"] = (rss_after - rss_before) / len(handles)
        return result

    def teardown(self, engine) -> None:
        pass


class ShardedReplay(_ZipfInputs):
    """The zipf stream through a 2-shard coordinator sharing answers.

    The coordinator and both shard processes run pinned to one CPU.  On a
    small VM a wakeup that crosses CPUs waits on the host scheduler, and
    round-trip tails then swing several-fold with host load; on one CPU they
    measure the cluster layer's own cost (frames, round trips, answer sync).
    """

    name = "sharded_replay"
    N_SHARDS = 2
    ROUNDS = 8

    def setup(self, workdir: Path):
        spec = EngineSpec(
            factory="workloads:build_companies_engine", kwargs=self.engine_kwargs()
        )
        cpus = os.sched_getaffinity(0)
        # Shard processes inherit the affinity when they are forked.
        os.sched_setaffinity(0, {min(cpus)})
        cluster = ShardCoordinator(spec, self.N_SHARDS, share_answers=True)
        try:
            # start() returns once every shard has answered a ping.
            cluster.start()
        except BaseException:
            cluster.close()
            os.sched_setaffinity(0, cpus)
            raise
        return cluster, cpus

    def run(self, state, context) -> RepResult:
        cluster, _ = state
        result = RepResult(queries=len(self.sql))
        per_round = math.ceil(len(self.sql) / self.ROUNDS)
        handles, rows, statuses = [], [], {}
        speed = context.speed
        rss_before = rss_kb()
        speed.reset()
        started = time.perf_counter()
        for round_start in range(0, len(self.sql), per_round):
            batch = []
            for index in range(round_start, min(round_start + per_round, len(self.sql))):
                if index % PROBE_EVERY == 0:
                    speed.sample()
                context.trace_id = f"cq{index + 1}"
                began = time.perf_counter()
                batch.append(cluster.submit(self.sql[index]))
                result.submit_us.append((time.perf_counter() - began) * 1e6)
            context.trace_id = f"round{round_start // per_round + 1}"
            statuses.update(cluster.drain())
            for handle in batch:
                context.trace_id = handle.query_id
                rows.append(cluster.results(handle.query_id))
            handles.extend(batch)
        speed.sample()
        _end_phase(result, started, speed)
        rss_after = rss_kb()
        stats = cluster.stats()

        correct = 0
        for index, handle in enumerate(handles):
            status = statuses.get(handle.query_id)
            if status != QueryStatus.COMPLETED.value:
                result.failed += 1
                result.errors.append(f"{handle.query_id} ended {status}")
                continue
            correct += self.check_rows(index, rows[index], result.errors)
        answered = len(handles) - result.failed
        totals = stats.totals
        result.outcome = _crowd_outcome(
            usd=totals["total_cost"],
            hits=int(totals["hits_posted"]),
            answered=answered,
            accuracy=correct / answered if answered else 0.0,
            # Query handles live in the shard processes; the coordinator
            # API reports no per-query simulated times.
            latencies=None,
        )
        result.counters = {
            "exec.passes": totals["scheduler_passes"],
            "exec.clock_advances": totals["clock_advances"],
            "tasks.submitted": totals["tasks_submitted"],
            "tasks.cache_lookups": totals["tasks_submitted"],
            "tasks.cache_hit_ratio": totals["cache_answers"] / totals["tasks_submitted"],
            "crowd.hits_created": totals["hits_created"],
            "crowd.assignments": totals["assignments_submitted"],
            "cluster.cross_shard_hits": totals["cross_shard_hits"],
            "engine.retained_queries": totals["queries"],
            "engine.rss_growth_kb_per_query": (rss_after - rss_before) / len(handles),
        }
        result.child_peak_rss_kb = stats.peak_rss_kb_sum
        return result

    def teardown(self, state) -> None:
        cluster, cpus = state
        cluster.close()
        os.sched_setaffinity(0, cpus)


class CrowdFanout:
    """Rounds of crowd filters over disjoint price slices; durable engine."""

    name = "crowd_fanout"
    N_PRODUCTS = 10_240
    SLICE = 40
    ROUNDS = 4
    QUERIES_PER_ROUND = 16
    MARKET_SEED = 1501
    TARGET = "red"
    #: Submissions between host-speed probes (the drains run between them).
    PROBE_EVERY = 4

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.products = ProductsWorkload(n_products=self.N_PRODUCTS, seed=seed)
        by_price = sorted(self.products.records, key=lambda record: record.price)
        # Slice boundaries sit on distinct prices, so "lo <= price < hi"
        # selects exactly the products of one slice.
        starts, position = [0], self.SLICE
        while position < len(by_price):
            if by_price[position].price == by_price[position - 1].price:
                position += 1
                continue
            starts.append(position)
            position += self.SLICE
        slices = list(zip(starts, starts[1:]))
        rng = random.Random(seed)
        chosen = rng.sample(slices, self.ROUNDS * self.QUERIES_PER_ROUND)
        self.sql, self.members = [], []
        for lo, hi in chosen:
            low, high = by_price[lo].price, by_price[hi].price
            self.sql.append(
                "SELECT name, price FROM products "
                f"WHERE price >= {low!r} AND price < {high!r} AND isTargetColor(name)"
            )
            self.members.append({record.name for record in by_price[lo:hi]})
        self.colors = {record.name: record.color for record in self.products.records}

    def build_engine(self) -> QurkEngine:
        engine = QurkEngine(seed=self.MARKET_SEED, enable_cache=True, enable_task_model=False)
        table = self.products.install(engine.database)
        table.create_index("price", kind="sorted")
        engine.register_oracle("isTargetColor", self.products.oracle())
        engine.define_task(
            self.products.color_filter_spec(assignments=3, batch_size=1), learnable=False
        )
        return engine

    def setup(self, workdir: Path):
        directory = workdir / "crowd_fanout-wal"
        shutil.rmtree(directory, ignore_errors=True)
        engine = self.build_engine()
        engine.enable_durability(
            DurabilityConfig(directory=str(directory), fsync="interval", snapshot_every=None)
        )
        return {"engine": engine, "directory": directory, "live": None}

    def run(self, state, context) -> RepResult:
        engine = state["engine"]
        result = RepResult(queries=len(self.sql))
        handles, submitted_at = [], []
        speed = context.speed
        rss_before = rss_kb()
        speed.reset()
        started = time.perf_counter()
        for round_index in range(self.ROUNDS):
            first = round_index * self.QUERIES_PER_ROUND
            for index in range(first, first + self.QUERIES_PER_ROUND):
                if index % self.PROBE_EVERY == 0:
                    speed.sample()
                context.trace_id = f"q{index + 1}"
                began = time.perf_counter()
                handles.append(engine.query(self.sql[index]))
                result.submit_us.append((time.perf_counter() - began) * 1e6)
                submitted_at.append(engine.clock.now)
            context.trace_id = f"round{round_index + 1}"
            engine.scheduler.drain()
            engine.clock.run_until_idle()
            if round_index < self.ROUNDS - 1:
                # Snapshots at drain boundaries; the last round stays in the
                # log so recovery has a tail to replay.
                engine.checkpoint()
        speed.sample()
        _end_phase(result, started, speed)
        rss_after = rss_kb()

        statuses, rows = [], []
        for handle in handles:
            statuses.append(handle.status.value)
            rows.append([row.to_dict() for row in handle.results()])
        state["live"] = fingerprint_engine(engine, statuses, rows)
        result.counters = _engine_counters(engine, handles)
        result.counters["engine.rss_growth_kb_per_query"] = (rss_after - rss_before) / len(handles)

        reported, truth = set(), set()
        for index, handle in enumerate(handles):
            if handle.status is not QueryStatus.COMPLETED:
                result.failed += 1
                result.errors.append(f"{handle.query_id} ended {handle.status.value}")
                continue
            names = {row["name"] for row in rows[index]}
            if not names <= self.members[index]:
                result.errors.append(f"{handle.query_id} returned products outside its slice")
            reported |= names
            truth |= {name for name in self.members[index] if self.colors[name] == self.TARGET}
        hits = len(reported & truth)
        precision = hits / len(reported) if reported else 1.0
        recall = hits / len(truth) if truth else 1.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        result.outcome = _crowd_outcome(
            usd=engine.total_crowd_cost,
            hits=engine.task_manager.stats.hits_posted,
            answered=len(handles) - result.failed,
            accuracy=f1,
            latencies=[
                handle.stats.finished_at - due
                for handle, due in zip(handles, submitted_at)
                if handle.status is QueryStatus.COMPLETED
            ],
        )
        return result

    def recover(self, state, result: RepResult, context) -> None:
        """Crash the live engine's WAL and recover it from disk."""
        context.trace_id = "recovery"
        state["engine"].journal.wal.simulate_crash()
        began = time.perf_counter()
        recovered = QurkEngine.recover(
            state["directory"], snapshot_every=None, factory=self.build_engine
        )
        result.recovery_s = time.perf_counter() - began
        recovered.engine.journal.close()
        if recovered_fingerprint(recovered) != state["live"]:
            result.errors.append("recovered engine's fingerprint differs from the live engine's")

    def teardown(self, state) -> None:
        shutil.rmtree(state["directory"], ignore_errors=True)


class LocalAnalytics:
    """Rounds of concurrent crowd-free SQL over a 100k-row table."""

    name = "local_analytics"
    N_ITEMS = 100_000
    N_CATEGORIES = 100
    ROUNDS = 2
    JOINS_PER_ROUND = 4
    TOPK_PER_ROUND = 28
    TOPK = 20
    #: Submissions between host-speed probes (the drains run between them).
    PROBE_EVERY = 4

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = random.Random(seed)
        self.items = [
            (i, f"c{rng.randrange(self.N_CATEGORIES)}", rng.randrange(1000) / 1000.0)
            for i in range(self.N_ITEMS)
        ]
        self.categories = [
            (f"c{i}", round(1.0 + rng.random(), 3)) for i in range(self.N_CATEGORIES)
        ]
        # Thresholds come from fixed grids (shuffled by the seed), so every
        # seed asks for the same amount of work: the seed changes which rows
        # qualify, not how many.
        weights = sorted(weight for _, weight in self.categories)
        join_params = [
            (score, weights[rank])
            for score, rank in zip((0.2, 0.3, 0.4, 0.5) * self.ROUNDS, (19, 39, 59, 79) * self.ROUNDS)
        ]
        topk_thresholds = [0.5 + 0.015 * step for step in range(self.TOPK_PER_ROUND)] * self.ROUNDS
        rng.shuffle(join_params)
        rng.shuffle(topk_thresholds)
        self.queries: list[tuple[str, str, tuple]] = []
        for round_index in range(self.ROUNDS):
            for threshold, weight in join_params[round_index * self.JOINS_PER_ROUND:][
                : self.JOINS_PER_ROUND
            ]:
                self.queries.append(
                    (
                        "join",
                        "SELECT items.category, count(items.id) AS n, "
                        "sum(items.score) AS total, avg(items.score) AS mean "
                        "FROM items, categories "
                        "WHERE items.category = categories.name "
                        f"AND items.score > {threshold!r} AND categories.weight > {weight!r} "
                        "GROUP BY items.category",
                        (threshold, weight),
                    )
                )
            for threshold in topk_thresholds[round_index * self.TOPK_PER_ROUND:][
                : self.TOPK_PER_ROUND
            ]:
                threshold = round(threshold, 3)
                self.queries.append(
                    (
                        "topk",
                        "SELECT items.id, items.score FROM items "
                        f"WHERE items.score > {threshold!r} "
                        f"ORDER BY items.score DESC LIMIT {self.TOPK}",
                        (threshold,),
                    )
                )
        self.sql = [sql for _, sql, _ in self.queries]
        self._expected = [self._reference(kind, params) for kind, _, params in self.queries]

    def _reference(self, kind: str, params: tuple) -> Any:
        """Pure-Python answer computed from the generated rows."""
        if kind == "join":
            threshold, weight = params
            heavy = {name for name, w in self.categories if w > weight}
            groups: dict[str, list[float]] = {}
            for _, category, score in self.items:
                if score > threshold and category in heavy:
                    groups.setdefault(category, []).append(score)
            return {
                category: (len(scores), sum(scores), sum(scores) / len(scores))
                for category, scores in groups.items()
            }
        (threshold,) = params
        scores = sorted((score for _, _, score in self.items if score > threshold), reverse=True)
        return scores[: self.TOPK]

    def _check(self, index: int, rows, errors: list[str]) -> bool:
        kind, _, _ = self.queries[index]
        expected = self._expected[index]
        if kind == "topk":
            (threshold,) = self.queries[index][2]
            ids = [row["items.id"] for row in rows]
            got = [row["items.score"] for row in rows]
            if got != expected:
                errors.append(f"top-k query {index + 1} returned the wrong scores")
                return False
            # Ties leave the id set open, but each row must be a distinct
            # qualifying item carrying its own score.
            if len(set(ids)) != len(ids) or any(
                not 0 <= item < self.N_ITEMS
                or self.items[item][2] != score
                or not score > threshold
                for item, score in zip(ids, got)
            ):
                errors.append(f"top-k query {index + 1} returned rows that do not match their ids")
                return False
            return True
        got = {row["items.category"]: (row["n"], row["total"], row["mean"]) for row in rows}
        if got.keys() != expected.keys():
            errors.append(f"group-by query {index + 1} returned the wrong groups")
            return False
        for category, (n, total, mean) in expected.items():
            got_n, got_total, got_mean = got[category]
            if (
                got_n != n
                or not math.isclose(got_total, total, rel_tol=1e-9)
                or not math.isclose(got_mean, mean, rel_tol=1e-9)
            ):
                errors.append(f"group-by query {index + 1} is wrong for {category}")
                return False
        return True

    def setup(self, workdir: Path):
        engine = QurkEngine(seed=13, worker_pool_size=10)
        engine.create_table(
            "items",
            [("id", DataType.INTEGER), ("category", DataType.STRING), ("score", DataType.FLOAT)],
            rows=self.items,
        )
        engine.create_table(
            "categories",
            [("name", DataType.STRING), ("weight", DataType.FLOAT)],
            rows=self.categories,
        )
        return engine

    def run(self, engine, context) -> RepResult:
        result = RepResult(queries=len(self.sql))
        per_round = len(self.sql) // self.ROUNDS
        handles, submitted_at = [], []
        speed = context.speed
        rss_before = rss_kb()
        speed.reset()
        started = time.perf_counter()
        for round_start in range(0, len(self.sql), per_round):
            for index in range(round_start, round_start + per_round):
                if index % self.PROBE_EVERY == 0:
                    speed.sample()
                context.trace_id = f"q{index + 1}"
                began = time.perf_counter()
                handles.append(engine.query(self.sql[index]))
                result.submit_us.append((time.perf_counter() - began) * 1e6)
                submitted_at.append(engine.clock.now)
            context.trace_id = f"round{round_start // per_round + 1}"
            engine.scheduler.drain()
        speed.sample()
        _end_phase(result, started, speed)
        rss_after = rss_kb()

        correct = 0
        for index, handle in enumerate(handles):
            if handle.status is not QueryStatus.COMPLETED:
                result.failed += 1
                result.errors.append(f"{handle.query_id} ended {handle.status.value}")
                continue
            correct += self._check(index, handle.results(), result.errors)
        if correct != len(handles):
            result.errors.append("local_analytics results must be exact")
        answered = len(handles) - result.failed
        result.outcome = _crowd_outcome(
            usd=engine.total_crowd_cost,
            hits=engine.task_manager.stats.hits_posted,
            answered=answered,
            accuracy=correct / answered if answered else 0.0,
            latencies=[
                handle.stats.finished_at - due
                for handle, due in zip(handles, submitted_at)
                if handle.status is QueryStatus.COMPLETED
            ],
        )
        result.counters = _engine_counters(engine, handles)
        result.counters["engine.rss_growth_kb_per_query"] = (rss_after - rss_before) / len(handles)
        return result

    def teardown(self, engine) -> None:
        pass


WORKLOADS = {
    workload.name: workload
    for workload in (ZipfReplay, CrowdFanout, LocalAnalytics, ShardedReplay)
}
