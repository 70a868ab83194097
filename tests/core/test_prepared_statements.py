"""The per-engine prepared-statement cache.

Serving a SQL text the engine has seen reuses its parse, its lowered logical
template and its compiled kernels.  These tests pin the cases where reuse
would be wrong: type-distinct literals, catalog and registry changes,
failed parses, the capacity bound, and byte-identical EXPLAIN / plan
history / recovery fingerprints between cold and warm submissions.
"""

import pytest

from repro.core.operators.scan import IndexScanOperator, ScanOperator
from repro.core.plan import prepared
from repro.core.plan.prepared import PreparedStatementCache
from repro.engine import QurkEngine
from repro.errors import ParseError
from repro.storage.durability import DurabilityConfig
from repro.storage.types import DataType
from repro.testing.chaos import fingerprint_engine
from repro.testing.crashpoints import (
    PRODUCTS_SQL,
    build_plain_products_engine,
    recovered_fingerprint,
)
from repro.workloads import CompaniesWorkload


def small_engine(rows=((1,), (2,))) -> QurkEngine:
    engine = QurkEngine(seed=1, worker_pool_size=10)
    engine.create_table("t", [("id", DataType.INTEGER)], rows=list(rows))
    return engine


def values(engine: QurkEngine, sql: str, column: str) -> list:
    return [row[column] for row in engine.query(sql).wait()]


class TestKeys:
    def test_equal_literals_of_different_types_keep_their_types(self):
        # Literal(1) == Literal(1.0) == Literal(True), and they hash equal.
        engine = small_engine()
        assert values(engine, "SELECT t.id, 1 AS v FROM t", "v") == [1, 1]
        results = {
            sql: values(engine, sql, "v")
            for sql in (
                "SELECT t.id, 1.0 AS v FROM t",
                "SELECT t.id, TRUE AS v FROM t",
                "SELECT t.id, 1 AS v FROM t",
            )
        }
        assert [type(v) for v in results["SELECT t.id, 1.0 AS v FROM t"]] == [float, float]
        assert [type(v) for v in results["SELECT t.id, TRUE AS v FROM t"]] == [bool, bool]
        assert [type(v) for v in results["SELECT t.id, 1 AS v FROM t"]] == [int, int]

    def test_repeated_text_hits_and_results_tables_do_not_invalidate(self):
        engine = small_engine()
        sql = "SELECT t.id FROM t WHERE t.id > 1"
        for _ in range(3):
            assert values(engine, sql, "t.id") == [2]
        # Each query created a results table through the catalog; none of
        # them emptied the cache.
        assert (engine.prepared.hits, engine.prepared.misses) == (2, 1)

    def test_warm_queries_compile_no_kernels(self, monkeypatch):
        import repro.core.operators.project as project

        engine = small_engine()
        sql = "SELECT t.id, t.id + 1 AS next FROM t WHERE t.id > 0"
        compiled = []
        for name in ("compile_batch_expression", "compile_batch_predicate"):
            original = getattr(project, name)

            def counting(expression, schema, _original=original):
                compiled.append(expression)
                return _original(expression, schema)

            monkeypatch.setattr(project, name, counting)
        assert values(engine, sql, "next") == [2, 3]
        cold = len(compiled)
        assert values(engine, sql, "next") == [2, 3]
        assert cold > 0 and len(compiled) == cold


class TestInvalidation:
    def test_drop_and_recreate_table_reads_new_rows(self):
        engine = small_engine()
        sql = "SELECT t.id FROM t"
        assert values(engine, sql, "t.id") == [1, 2]
        engine.database.drop_table("t")
        engine.create_table("t", [("id", DataType.INTEGER)], rows=[(7,), (8,), (9,)])
        assert values(engine, sql, "t.id") == [7, 8, 9]

    def test_define_task_after_a_cached_query_changes_its_plan(self):
        workload = CompaniesWorkload(n_companies=5)
        engine = QurkEngine(seed=7)
        workload.install(engine.database)
        sql = "SELECT companyName, findCEO(companyName).CEO FROM companies"
        assert "crowd-generate" not in engine.explain(sql)
        engine.register_oracle("findCEO", workload.oracle())
        engine.define_task(workload.findceo_spec())
        assert "crowd-generate(findCEO)" in engine.explain(sql)
        rows = engine.query(sql).wait()
        directory = workload.directory()
        assert all(row["findCEO.CEO"] == directory[row["companyName"]].ceo for row in rows)

    def test_create_index_after_a_cached_query_lets_choose_pick_it(self):
        engine = QurkEngine(seed=1, worker_pool_size=10)
        table = engine.create_table(
            "items",
            [("id", DataType.INTEGER), ("category", DataType.STRING)],
            rows=[(i, f"cat{i % 20}") for i in range(200)],
        )
        sql = "SELECT items.id FROM items WHERE items.category = 'cat3'"

        def scans():
            handle = engine.query(sql)
            rows = handle.wait()
            kinds = {type(op) for op in handle.executor.operators()}
            return kinds, [row["items.id"] for row in rows]

        kinds, cold = scans()
        assert ScanOperator in kinds and IndexScanOperator not in kinds
        table.create_index("category")
        kinds, warm = scans()
        assert IndexScanOperator in kinds
        assert warm == cold == list(range(3, 200, 20))
        assert engine.prepared.hits == 1  # the index did not invalidate the entry


class TestBounds:
    def test_capacity_holds_under_ten_times_distinct_texts(self):
        engine = small_engine()
        texts = [f"SELECT t.id FROM t WHERE t.id > {n}" for n in range(10 * prepared.CAPACITY)]
        for sql in texts:
            engine.explain(sql)
        assert len(engine.prepared) == prepared.CAPACITY
        # Least recently used out: the newest texts are the ones kept.
        assert texts[-1] in engine.prepared and texts[0] not in engine.prepared

    def test_bad_sql_raises_every_time_and_is_never_cached(self):
        engine = small_engine()
        for _ in range(3):
            with pytest.raises(ParseError):
                engine.query("SELEC nonsense")
        assert "SELEC nonsense" not in engine.prepared
        assert engine.prepared.misses == 3


class TestWarmEqualsCold:
    SQL = "SELECT companyName, findCEO(companyName).CEO FROM companies WHERE companyName > 'B'"

    def engine(self) -> QurkEngine:
        workload = CompaniesWorkload(n_companies=8, seed=3)
        engine = QurkEngine(seed=7)
        workload.install(engine.database)
        engine.register_oracle("findCEO", workload.oracle())
        engine.define_task(workload.findceo_spec())
        return engine

    def test_explain_and_plan_history_are_byte_identical(self):
        # Two engines in the same state; only one has the text prepared.
        cold_engine, warm_engine = self.engine(), self.engine()
        for engine in (cold_engine, warm_engine):
            engine.query(self.SQL).wait()
        cold_engine.prepared = PreparedStatementCache()
        outputs = []
        for engine in (cold_engine, warm_engine):
            text = engine.explain(self.SQL)
            handle = engine.query(self.SQL)
            handle.wait()
            outputs.append((text, repr(handle.plan_history()), handle.describe_plan()))
        assert (cold_engine.prepared.hits, warm_engine.prepared.hits) == (1, 2)
        assert outputs[0] == outputs[1]

    def test_recovery_fingerprint_equals_the_live_engine(self, tmp_path):
        engine = build_plain_products_engine(n_products=12, seed=13).engine
        engine.enable_durability(DurabilityConfig(directory=str(tmp_path)))
        for _phase in range(2):
            for _ in range(2):
                engine.query(PRODUCTS_SQL)
            engine.scheduler.drain()
            engine.clock.run_until_idle()
        assert engine.prepared.hits == 3
        handles = [engine.queries[f"q{n}"] for n in range(1, 5)]
        live = fingerprint_engine(
            engine,
            [handle.status.value for handle in handles],
            [[row.to_dict() for row in handle.results()] for handle in handles],
        )
        engine.journal.close()
        result = QurkEngine.recover(
            tmp_path, factory=lambda: build_plain_products_engine(n_products=12, seed=13)
        )
        assert recovered_fingerprint(result) == live
