"""Snapshot round-trips and engine checkpoint/recover correctness."""

import json

import pytest

from repro.engine import QurkEngine
from repro.errors import PlanError, QurkError, RecoveryError, SnapshotError
from repro.storage.durability import DurabilityConfig
from repro.storage.snapshot import (
    load_latest_snapshot,
    pack_rng_state,
    pack_value,
    snapshot_path,
    unpack_rng_state,
    unpack_value,
    write_snapshot,
)
from repro.testing.crashpoints import (
    plain_crash_scenario,
    recovered_fingerprint,
    recovered_query_count,
    reference_fingerprint,
    run_durable,
    run_phases,
)


class TestValuePacking:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            42,
            3.5,
            "text",
            (1, 2),
            [1, (2, 3), "x"],
            {"k": (1, [2, (3, None)])},
            ((1, "a"), (2, "b")),
            {},
            [],
        ],
    )
    def test_round_trip_is_exact(self, value):
        packed = pack_value(value)
        json.dumps(packed)  # must be JSON-able as-is
        restored = unpack_value(json.loads(json.dumps(packed)))
        assert restored == value
        assert type(restored) is type(value)

    def test_unsupported_type_raises_not_skips(self):
        with pytest.raises(SnapshotError):
            pack_value({"bad": object()})

    def test_rng_state_round_trip(self):
        import random

        rng = random.Random(99)
        rng.random()
        state = rng.getstate()
        restored = unpack_rng_state(json.loads(json.dumps(pack_rng_state(state))))
        twin = random.Random()
        twin.setstate(restored)
        assert [twin.random() for _ in range(5)] == [rng.random() for _ in range(5)]


class TestSnapshotFiles:
    def test_write_then_load(self, tmp_path):
        state = {"clock_now": 12.5, "nested": {"a": [1, 2]}}
        write_snapshot(tmp_path, state, lsn=42)
        loaded = load_latest_snapshot(tmp_path)
        assert loaded == (42, state)

    def test_latest_wins_and_pruning_keeps_newest(self, tmp_path):
        for lsn in (10, 20, 30):
            write_snapshot(tmp_path, {"lsn_marker": lsn}, lsn=lsn, keep=2)
        lsn, state = load_latest_snapshot(tmp_path)
        assert lsn == 30 and state == {"lsn_marker": 30}
        assert not snapshot_path(tmp_path, 10).exists()  # pruned
        assert snapshot_path(tmp_path, 20).exists()

    def test_corrupt_newest_falls_back_to_older(self, tmp_path):
        write_snapshot(tmp_path, {"generation": "old"}, lsn=10)
        write_snapshot(tmp_path, {"generation": "new"}, lsn=20)
        snapshot_path(tmp_path, 20).write_text("{not json")
        lsn, state = load_latest_snapshot(tmp_path)
        assert (lsn, state["generation"]) == (10, "old")

    def test_checksum_mismatch_is_detected(self, tmp_path):
        write_snapshot(tmp_path, {"v": 1}, lsn=5)
        path = snapshot_path(tmp_path, 5)
        document = json.loads(path.read_text())
        document["state"]["v"] = 2  # tampered without recomputing the checksum
        path.write_text(json.dumps(document))
        with pytest.raises(SnapshotError):
            load_latest_snapshot(tmp_path)

    def test_empty_directory_is_no_snapshot(self, tmp_path):
        assert load_latest_snapshot(tmp_path) is None


def _durable_engine(tmp_path, **config):
    scenario = plain_crash_scenario()
    engine = scenario.build_engine()
    engine.enable_durability(
        DurabilityConfig(directory=str(tmp_path), **config),
        spec=scenario.spec_payload(),
    )
    return scenario, engine


class TestEngineCheckpoint:
    def test_checkpoint_requires_durability(self):
        engine = QurkEngine(seed=1)
        with pytest.raises(QurkError):
            engine.checkpoint()

    def test_checkpoint_requires_quiescence(self, tmp_path):
        scenario, engine = _durable_engine(tmp_path, snapshot_every=None)
        engine.query(scenario.phases[0][0]["sql"])
        with pytest.raises(SnapshotError):
            engine.checkpoint()

    def test_durable_engine_rejects_non_replayable_submissions(self, tmp_path):
        from repro.core.exec.context import QueryConfig
        from repro.core.lang.sql_parser import parse_select

        scenario, engine = _durable_engine(tmp_path, snapshot_every=None)
        sql = scenario.phases[0][0]["sql"]
        with pytest.raises(QurkError):
            engine.query(parse_select(sql))  # pre-parsed: not in the log verbatim
        with pytest.raises(QurkError):
            engine.query(sql, config=QueryConfig())  # config bypasses the log

    def test_enable_durability_twice_rejected(self, tmp_path):
        _, engine = _durable_engine(tmp_path)
        with pytest.raises(QurkError):
            engine.enable_durability(DurabilityConfig(directory=str(tmp_path)))

    def test_checkpoint_truncates_wal_and_survives_restart(self, tmp_path):
        scenario, engine = _durable_engine(tmp_path, snapshot_every=None)
        engine.query(scenario.phases[0][0]["sql"])
        engine.scheduler.drain()
        engine.clock.run_until_idle()
        pre_truncate = engine.journal.wal.last_lsn
        engine.checkpoint()
        assert engine.journal.wal.base_lsn == pre_truncate
        engine.journal.wal.simulate_crash()

        result = QurkEngine.recover(tmp_path)
        assert result.snapshot_lsn == pre_truncate
        assert result.replayed_query_ids == []  # everything was snapshotted
        assert recovered_query_count(result) == 1

    def test_auto_checkpoint_fires_at_drain_quiescence(self, tmp_path):
        scenario, engine = _durable_engine(tmp_path, snapshot_every=5)
        engine.query(scenario.phases[0][0]["sql"])
        engine.scheduler.drain()
        assert load_latest_snapshot(tmp_path) is not None

    def test_recovery_detects_catalog_mismatch(self, tmp_path):
        scenario, engine = _durable_engine(tmp_path, snapshot_every=None)
        engine.query(scenario.phases[0][0]["sql"])
        engine.scheduler.drain()
        engine.clock.run_until_idle()
        engine.checkpoint()
        engine.journal.wal.simulate_crash()

        def wrong_factory():
            from repro.testing.crashpoints import build_plain_products_engine

            return build_plain_products_engine(n_products=7, seed=13)  # wrong row count

        with pytest.raises(RecoveryError):
            QurkEngine.recover(tmp_path, factory=wrong_factory)

    def test_recover_without_wal_raises(self, tmp_path):
        with pytest.raises(RecoveryError):
            QurkEngine.recover(tmp_path)


class TestRecoveredStateFidelity:
    def test_snapshot_plus_replay_matches_uninterrupted_run(self, tmp_path):
        """Crash after the checkpoint: snapshot state + replayed tail."""
        scenario = plain_crash_scenario()
        # Crash far past the end: the run completes (with its phase-0
        # checkpoint taken) and the "crash" only loses the unflushed tail.
        run_durable(scenario, tmp_path, fsync="interval", crash_at=10_000)
        result = QurkEngine.recover(tmp_path)
        assert result.snapshot_lsn is not None
        n = recovered_query_count(result)
        assert n == scenario.total_submissions
        assert recovered_fingerprint(result) == reference_fingerprint(scenario, n)

    def test_plan_rejection_leaves_recovery_equal_to_the_reference(self, tmp_path):
        """A submission the planner rejects consumes no query id and no record."""
        scenario, engine = _durable_engine(tmp_path, snapshot_every=None)
        with pytest.raises(PlanError):
            engine.query("SELECT name FROM products WHERE nope = 1")
        run_phases(engine, scenario)  # no checkpoint: recovery replays the whole log
        engine.journal.wal.simulate_crash()
        result = QurkEngine.recover(tmp_path)
        n = recovered_query_count(result)
        assert n == scenario.total_submissions
        assert recovered_fingerprint(result) == reference_fingerprint(scenario, n)

    def test_recovered_engine_keeps_working(self, tmp_path):
        """A recovered engine is live: it accepts and completes new queries."""
        scenario = plain_crash_scenario()
        run_durable(scenario, tmp_path, fsync="interval", crash_at=10_000)
        result = QurkEngine.recover(tmp_path)
        engine = result.engine
        handle = engine.query(scenario.phases[0][0]["sql"])
        engine.scheduler.drain()
        engine.clock.run_until_idle()
        assert handle.status.value == "completed"
        assert len(handle.results()) > 0
