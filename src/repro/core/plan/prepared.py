"""The per-engine prepared-statement cache: machine work reused across queries.

Serving the same SQL text again should cost only what depends on the moment
it runs.  A :class:`PreparedStatement` holds what does not:

* the parsed :class:`~repro.core.lang.ast.SelectStatement`;
* its lowered :class:`~repro.core.plan.logical.LogicalPlan` *template* —
  the physical planner clones every template node it composes, so the
  template itself is never mutated;
* a :class:`KernelMemo` of the row and column kernels compiled for the
  template's expressions.

Physical choice, costing, operator construction and the results table stay
per query: estimates read live statistics and access paths, so they are
recomputed on every submission exactly as for a fresh text.

Keys are type-strict.  ``Literal(1) == Literal(1.0) == Literal(True)`` and
the three hash equal, so nothing here is keyed by expression *value*:
statements are keyed by the exact SQL text, kernels by the identity of an
expression the memo itself keeps alive plus the input schema's column
names.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable, Hashable

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.core.lang.ast import SelectStatement
    from repro.core.plan.logical import LogicalPlan
    from repro.core.plan.planner import QueryPlanner
    from repro.storage.expressions import Expression
    from repro.storage.schema import Schema

__all__ = ["CAPACITY", "KernelMemo", "PreparedStatement", "PreparedStatementCache"]

#: Distinct SQL texts one engine keeps prepared (least recently used first out).
CAPACITY = 256


class KernelMemo:
    """Compiled kernels for one prepared statement's expressions.

    ``compile(compile_fn, expression, schema)`` returns what
    ``compile_fn(expression, schema)`` returns, calling it only the first
    time a (``compile_fn`` object, expression object, schema column names)
    triple is seen.  The memo keeps every expression it saw alive, so an
    ``id`` in a key can never be reused by another object while the entry
    lives.  Operators compile only expressions of the statement's template,
    and a template has finitely many input schemas (one per physical
    alternative), so the memo stays small.
    """

    def __init__(self) -> None:
        self._kernels: dict[tuple, tuple[Expression, Any]] = {}

    def compile(
        self,
        compile_fn: Callable[["Expression", "Schema"], Any],
        expression: "Expression",
        schema: "Schema",
    ) -> Any:
        key = (compile_fn, id(expression), schema.names)
        found = self._kernels.get(key)
        if found is None:
            found = self._kernels[key] = (expression, compile_fn(expression, schema))
        return found[1]


class PreparedStatement:
    """A parsed statement, its logical template and its kernel memo."""

    def __init__(self, statement: "SelectStatement") -> None:
        self.statement = statement
        #: Lowered on first use, so lowering errors surface where planning
        #: does and are never cached.
        self.logical: LogicalPlan | None = None
        self.kernels = KernelMemo()

    def lowered(self, planner: "QueryPlanner") -> "LogicalPlan":
        """The logical template, lowered through ``planner`` the first time."""
        if self.logical is None:
            self.logical = planner.lower(self.statement)
        return self.logical


class PreparedStatementCache:
    """An LRU map from exact SQL text to :class:`PreparedStatement`.

    ``lookup`` takes the catalog ``version`` entries depend on (base-table
    DDL and crowd UDF registrations); a version change empties the cache,
    because cached templates pin ``Table`` objects and registry entries.
    ``hits`` and ``misses`` count lookups.
    """

    def __init__(self) -> None:
        self._entries: OrderedDict[str, PreparedStatement] = OrderedDict()
        self._version: Hashable = None
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, sql: str) -> bool:
        return sql in self._entries

    def lookup(self, sql: str, version: Hashable) -> PreparedStatement | None:
        if version != self._version:
            self._entries.clear()
            self._version = version
        entry = self._entries.get(sql)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(sql)
        return entry

    def store(self, sql: str, entry: PreparedStatement) -> PreparedStatement:
        self._entries[sql] = entry
        while len(self._entries) > CAPACITY:
            self._entries.popitem(last=False)
        return entry
