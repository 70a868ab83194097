"""Crowd-powered selection: ask the crowd a yes/no question about each tuple."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Hashable, Sequence

from repro.core.operators.base import Operator
from repro.core.tasks.spec import TaskSpec
from repro.core.tasks.task import Task, TaskKind, TaskResult
from repro.storage.batch import RowBatch
from repro.errors import ExpressionError
from repro.storage.expressions import Expression, compile_batch_expression
from repro.storage.row import Row
from repro.storage.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.core.exec.context import ExecutionContext

__all__ = ["CrowdFilterOperator", "argument_tuples"]


def argument_tuples(
    kernels: list[Callable[[RowBatch], Sequence[Any]]],
    expressions: list[Expression],
    batch: RowBatch,
) -> list[tuple[Any, ...]]:
    """Each row's crowd-task argument tuple, one kernel call per argument.

    A single kernel already reports the error per-row evaluation would hit
    first; with several arguments, the first failing *row* may belong to a
    later argument, so an :class:`ExpressionError` re-evaluates row-major —
    every argument of row 0, then row 1, ... — to raise the same error the
    per-row loop raises.
    """
    if not kernels:
        return [()] * len(batch)
    try:
        columns = [kernel(batch) for kernel in kernels]
    except ExpressionError:
        for row in batch.to_rows():
            for expression in expressions:
                expression.evaluate(row)
        raise
    return list(zip(*columns))


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
        self._arg_kernels: list[Callable[[RowBatch], Sequence[Any]]] = []

    @property
    def output_schema(self) -> Schema:
        return self._schema

    def open(self, context: "ExecutionContext") -> None:
        super().open(context)
        self._arg_kernels = [
            self.compile_kernel(compile_batch_expression, expression, self._schema)
            for expression in self.arg_expressions
        ]

    def process(self, batch: RowBatch, slot: int) -> None:
        """Drain one columnar slice: argument kernels run batch-at-a-time.

        Each argument expression is evaluated once over the whole batch (a
        column kernel), so the per-row Python overhead left on this path is
        only what the task boundary genuinely requires.  Submission stays
        per-row in batch order — one crowd task per row, with redundancy
        re-resolved per task so adaptive assignment keeps tightening
        mid-query — so HIT batching and the determinism fingerprints do not
        depend on batch shape.
        """
        arguments = argument_tuples(self._arg_kernels, self.arg_expressions, batch)
        for row, args in zip(batch.to_rows(), arguments):
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
            self.emit(RowBatch.single(row))
        self._task_finished()
