"""Database facade bundling a catalog with convenience helpers.

A :class:`Database` is the Storage Engine box of Figure 1: it owns every base
table, the per-query results tables that the executor appends to, and the
persistent task-cache table used across queries.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.storage.catalog import Catalog
from repro.storage.row import Row
from repro.storage.schema import Column, Schema
from repro.storage.table import Table
from repro.storage.types import DataType

__all__ = ["Database"]


class Database:
    """An in-memory database instance."""

    def __init__(self, name: str = "qurk"):
        self.name = name
        self.catalog = Catalog()
        self._results_counter = 0
        #: Bumped by base-table DDL (not by results tables), so caches of
        #: plans that pin ``Table`` objects know when to drop them.
        self.ddl_version = 0

    # -- table management ----------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: Iterable[Column | tuple[str, DataType] | str],
        *,
        if_not_exists: bool = False,
    ) -> Table:
        """Create a table from column specs (see :meth:`Schema.of`)."""
        schema = Schema.of(*columns)
        self.ddl_version += 1
        return self.catalog.create_table(name, schema, if_not_exists=if_not_exists)

    def table(self, name: str) -> Table:
        """Look up a table by name."""
        return self.catalog.table(name)

    def has_table(self, name: str) -> bool:
        """Return True when the named table exists."""
        return self.catalog.has_table(name)

    def drop_table(self, name: str, *, if_exists: bool = False) -> None:
        """Drop the named table."""
        self.ddl_version += 1
        self.catalog.drop_table(name, if_exists=if_exists)

    # -- data loading ---------------------------------------------------------

    def insert(self, table_name: str, rows: Iterable[Row | Mapping[str, Any] | Iterable[Any]]) -> int:
        """Insert rows into a table; returns the number inserted."""
        table = self.table(table_name)
        count = 0
        for row in rows:
            table.insert(row)
            count += 1
        return count

    # -- results tables --------------------------------------------------------

    def create_results_table(self, schema: Schema, *, query_id: str | None = None) -> Table:
        """Create a fresh results table for a query (Section 2: users poll it)."""
        self._results_counter += 1
        suffix = query_id or str(self._results_counter)
        name = f"__results_{suffix}"
        return self.catalog.create_table(name, schema, if_not_exists=False)

    def __repr__(self) -> str:
        return f"Database({self.name!r}, tables={self.catalog.table_names()})"
