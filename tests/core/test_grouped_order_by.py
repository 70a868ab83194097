"""ORDER BY on grouped and multi-key queries, checked against pure Python.

Local sorts of a grouped query are lowered above the group-by, so they key on
its output columns: group keys, aggregate aliases, or a repeated aggregate
expression.  With several keys the first one decides the order.  The
dialect's ORDER BY default direction is DESC.
"""

import random

import pytest

from repro.engine import QurkEngine
from repro.storage.types import DataType

N_ITEMS = 600
N_CATEGORIES = 13


@pytest.fixture(scope="module")
def items():
    rng = random.Random(5)
    # Skewed category sizes.  Groups tied on a key keep their first-arrival
    # order on both sides: the engine's sort and ``list.sort`` are stable.
    return [
        (i, f"c{min(int(rng.expovariate(0.3)), N_CATEGORIES - 1):02d}", rng.randrange(100) / 10)
        for i in range(N_ITEMS)
    ]


@pytest.fixture
def engine(items):
    engine = QurkEngine(seed=3, worker_pool_size=10)
    engine.create_table(
        "items",
        [("id", DataType.INTEGER), ("category", DataType.STRING), ("score", DataType.FLOAT)],
        rows=items,
    )
    return engine


def reference(items) -> dict[str, tuple[int, float]]:
    groups: dict[str, list[float]] = {}
    for _, category, score in items:
        groups.setdefault(category, []).append(score)
    return {category: (len(scores), max(scores)) for category, scores in groups.items()}


GROUPED = (
    "SELECT items.category, count(items.id) AS n, max(items.score) AS top "
    "FROM items GROUP BY items.category"
)


def run(engine, sql) -> list[tuple[str, int, float]]:
    return [(row["items.category"], row["n"], row["top"]) for row in engine.query(sql).wait()]


def expected(items, key, descending: bool, limit: int | None = None):
    rows = [(category, n, top) for category, (n, top) in reference(items).items()]
    rows.sort(key=key, reverse=descending)
    return rows[:limit] if limit is not None else rows


class TestGroupedOrderBy:
    def test_group_key_ascending(self, engine, items):
        got = run(engine, GROUPED + " ORDER BY items.category ASC")
        assert got == expected(items, lambda row: row[0], descending=False)

    def test_group_key_descending(self, engine, items):
        got = run(engine, GROUPED + " ORDER BY items.category DESC")
        assert got == expected(items, lambda row: row[0], descending=True)

    def test_default_direction_is_descending(self, engine, items):
        got = run(engine, GROUPED + " ORDER BY items.category")
        assert got == expected(items, lambda row: row[0], descending=True)

    def test_aggregate_alias(self, engine, items):
        got = run(engine, GROUPED + " ORDER BY n ASC")
        assert got == expected(items, lambda row: row[1], descending=False)

    def test_repeated_aggregate_expression(self, engine, items):
        got = run(engine, GROUPED + " ORDER BY count(items.id) DESC")
        assert got == expected(items, lambda row: row[1], descending=True)

    def test_alias_with_limit(self, engine, items):
        got = run(engine, GROUPED + " ORDER BY n DESC LIMIT 3")
        assert got == expected(items, lambda row: row[1], descending=True, limit=3)

    def test_explain_places_the_sort_above_the_group_by(self, engine):
        text = engine.explain(GROUPED + " ORDER BY n")
        chosen = text.split("== chosen physical plan ==")[1].splitlines()
        labels = [line.strip().split("  [")[0] for line in chosen if line.strip()]
        assert labels[:3] == ["project", "sort(local)", "group-by"]


class TestMultiKeyOrderBy:
    def test_first_key_decides_and_later_keys_break_ties(self, engine, items):
        sql = "SELECT items.id, items.category, items.score FROM items"
        for directions in (("ASC", "ASC"), ("DESC", "ASC"), ("ASC", "DESC")):
            got = [
                (row["items.category"], row["items.score"], row["items.id"])
                for row in engine.query(
                    sql + f" ORDER BY items.category {directions[0]}, "
                    f"items.score {directions[1]}"
                ).wait()
            ]
            want = [(category, score, i) for i, category, score in items]
            want.sort(key=lambda row: row[1], reverse=directions[1] == "DESC")
            want.sort(key=lambda row: row[0], reverse=directions[0] == "DESC")
            assert got == want

    def test_grouped_query_with_two_keys(self, engine, items):
        got = run(engine, GROUPED + " ORDER BY top DESC, items.category ASC")
        want = expected(items, lambda row: row[0], descending=False)
        want.sort(key=lambda row: row[2], reverse=True)
        assert got == want
