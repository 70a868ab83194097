"""Crowd-powered selection: ask the crowd a yes/no question about each tuple."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Hashable

from repro.core.operators.base import Operator
from repro.core.tasks.spec import TaskSpec
from repro.core.tasks.task import Task, TaskKind, TaskResult
from repro.storage.batch import RowBatch
from repro.storage.expressions import Expression, compile_batch_expression, compile_expression
from repro.storage.row import Row
from repro.storage.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.core.exec.context import ExecutionContext

__all__ = ["CrowdFilterOperator"]


class CrowdFilterOperator(Operator):
    """Emits only the input rows for which the crowd answers "yes".

    Parameters
    ----------
    spec:
        A ``TaskType: Filter`` spec with a YesNo response.
    arg_expressions:
        Expressions producing the values substituted into the question text.
    input_schema:
        Schema of the child operator.
    cache_key_fn:
        Optional function deriving a stable cache key from the row; defaults
        to the rendered argument tuple, which makes identical questions about
        identical values cacheable.
    negate:
        When True, emit rows the crowd answered "no" for (``WHERE NOT f(x)``).
    """

    IS_CROWD = True

    def __init__(
        self,
        spec: TaskSpec,
        arg_expressions: list[Expression],
        input_schema: Schema,
        *,
        cache_key_fn: Callable[[Row], Hashable] | None = None,
        negate: bool = False,
    ):
        super().__init__(f"crowd-filter({spec.name})")
        self.spec = spec
        self.arg_expressions = list(arg_expressions)
        self.cache_key_fn = cache_key_fn
        self.negate = negate
        self._schema = input_schema
        self._arg_fns: list[Callable[[Row], Any]] | None = None
        self._batch_arg_fns: list[Callable[[RowBatch], Any]] | None = None

    @property
    def output_schema(self) -> Schema:
        return self._schema

    def open(self, context: "ExecutionContext") -> None:
        super().open(context)
        input_schema = self.children[0].output_schema if self.children else self._schema
        self._arg_fns = [
            self.compile_kernel(compile_expression, expression, input_schema)
            for expression in self.arg_expressions
        ]
        self._batch_arg_fns = [
            self.compile_kernel(compile_batch_expression, expression, input_schema)
            for expression in self.arg_expressions
        ]

    def _process_batches(self, batch: RowBatch, slot: int) -> None:
        """Drain one columnar slice: argument kernels run batch-at-a-time.

        Each argument expression is evaluated once over the whole batch (a
        column kernel), so the per-row Python overhead left on this path is
        only what the task boundary genuinely requires.  Submission stays
        per-row in batch order — one crowd task per row, identical args,
        cache keys and ordering to the per-row loop — so HIT batching and
        the determinism fingerprints are unchanged.
        """
        batch_fns = self._batch_arg_fns
        if batch_fns is None:
            self._process_batch(batch.to_rows(), slot)
            return
        arg_columns = [fn(batch) for fn in batch_fns]
        rows = batch.to_rows()
        if not arg_columns:
            for row in rows:
                self._submit(row, ())
            return
        for row, args in zip(rows, zip(*arg_columns)):
            self._submit(row, tuple(args))

    def _process_batch(self, rows: list[Row], slot: int) -> None:
        """Drain a row-major slice, evaluating compiled args per row.

        Task submission stays per-row (each row becomes one crowd task, and
        redundancy is re-resolved per task so adaptive assignment keeps
        tightening mid-query), but the name-resolution work is hoisted out.
        """
        arg_fns = self._arg_fns
        if arg_fns is None:
            for row in rows:
                self._process(row, slot)
            return
        for row in rows:
            self._submit(row, tuple(fn(row) for fn in arg_fns))

    def _process(self, row: Row, slot: int) -> None:
        args = tuple(expression.evaluate(row) for expression in self.arg_expressions)
        self._submit(row, args)

    def _submit(self, row: Row, args: tuple[Any, ...]) -> None:
        payload: dict[str, Any] = {"args": args, "row": row.to_dict()}
        for parameter, value in zip(self.spec.parameters, args):
            payload[parameter.name] = value
        if self.cache_key_fn is not None:
            cache_key = self.cache_key_fn(row)
        else:
            cache_key = args if args else None
        task = Task(
            kind=TaskKind.FILTER,
            spec=self.spec,
            payload=payload,
            callback=lambda result, row=row: self._on_result(row, result),
            cache_key=cache_key,
            query_id=self.context.query_id,
            assignments_override=self.context.assignments_for(self.spec),
        )
        self._task_started()
        self.context.task_manager.submit(task)

    def _on_result(self, row: Row, result: TaskResult) -> None:
        keep = bool(result.reduced)
        if self.negate:
            keep = not keep
        if keep:
            self.emit(row)
        self._task_finished()
