"""A rejected submission on a durable shard must not corrupt its recovery.

A shard journals ``cluster_alias`` (coordinator id → engine id) before the
engine sees the submission.  A submission the engine rejects before giving
it an id leaves that alias naming the id the next accepted submission
takes; the worker retracts it with ``cluster_reject``, and recovery asserts
that no two coordinator ids map to one engine query.
"""

import pytest

from repro.cluster import EngineSpec, ShardWorker
from repro.cluster.serialization import encode_query
from repro.errors import RecoveryError

FILTER_SQL = "SELECT name FROM products WHERE isTargetColor(name)"
SPEC = EngineSpec(
    factory="repro.experiments.harness:build_products_engine",
    kwargs={"n_products": 10, "filter_batch": 1, "seed": 13},
)


def submit(worker: ShardWorker, sql: str, query_id: str) -> dict:
    return worker.handle({"op": "submit", "query": encode_query(sql, query_id=query_id)})


def restart(worker: ShardWorker, durability: dict) -> ShardWorker:
    worker.engine.journal.close()
    return ShardWorker(SPEC, 0, durability=durability)


class TestRejectedSubmissions:
    def test_parse_error_does_not_alias_the_next_query(self, tmp_path):
        durability = {"directory": str(tmp_path / "shard0")}
        worker = ShardWorker(SPEC, 0, durability=durability)
        rejected = submit(worker, "SELEC nonsense", "cq1")
        assert not rejected["ok"] and rejected["error_type"] == "ParseError"
        assert submit(worker, FILTER_SQL, "cq2")["ok"]
        assert worker.handle({"op": "drain"})["statuses"] == {"cq2": "completed"}
        live_rows = worker.handle({"op": "results", "query_id": "cq2"})["rows"]

        restarted = restart(worker, durability)
        assert {cid: h.query_id for cid, h in restarted._handles.items()} == {"cq2": "q1"}
        assert not restarted.handle({"op": "status", "query_id": "cq1"})["ok"]
        assert restarted.handle({"op": "results", "query_id": "cq2"})["rows"] == live_rows

    def test_rejections_between_accepted_submissions(self, tmp_path):
        durability = {"directory": str(tmp_path / "shard0")}
        worker = ShardWorker(SPEC, 0, durability=durability)
        assert submit(worker, FILTER_SQL, "cq1")["ok"]
        assert not submit(worker, "SELEC nonsense", "cq2")["ok"]
        assert not submit(worker, "SELECT FROM", "cq3")["ok"]
        # Rejected by the planner, after parsing succeeded.
        assert not submit(worker, "SELECT name FROM products WHERE nope = 1", "cq4")["ok"]
        assert submit(worker, FILTER_SQL, "cq5")["ok"]
        worker.handle({"op": "drain"})

        restarted = restart(worker, durability)
        assert {cid: h.query_id for cid, h in restarted._handles.items()} == {
            "cq1": "q1",
            "cq5": "q2",
        }
        assert restarted._order == ["cq1", "cq5"]

    def test_recovery_refuses_a_non_injective_alias_map(self, tmp_path):
        durability = {"directory": str(tmp_path / "shard0")}
        worker = ShardWorker(SPEC, 0, durability=durability)
        assert submit(worker, FILTER_SQL, "cq1")["ok"]
        # A log written without the retraction: a second alias onto q1.
        worker.engine.journal.record("cluster_alias", {"cluster_id": "cq9", "query_id": "q1"})
        worker.engine.journal.wal.flush()
        worker.engine.journal.close()
        with pytest.raises(RecoveryError, match="several cluster ids"):
            ShardWorker(SPEC, 0, durability=durability)
